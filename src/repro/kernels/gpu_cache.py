"""Write-once device-side cache of transferred operator blocks.

"In order to avoid redundant data transfers to the GPU, a write-once
software cache containing the already transferred 2-D tensors has been
implemented.  This write-once cache has been modeled after a CPU software
cache present in MADNESS for similar purposes."

The cache tracks which ``h`` blocks are already resident on the device.
Because batch transfers take *time* on the simulated clock, residency is
a two-phase protocol:

- :meth:`begin_transfer` partitions a batch's block set into resident
  hits, blocks currently **in flight** on PCIe for another batch (the
  waiter path — they must not be re-shipped, but they are not usable
  until the owning transfer completes), and genuine misses, which it
  marks in flight and charges to this batch;
- :meth:`commit_transfer` makes the shipped blocks resident once the
  transfer has completed on the simulated clock.

The partition is made per batch, not per key: a batch whose blocks are
all new (neither resident nor in flight) ships them all, and any other
batch is walked key by key.  The cache records which tickets it issued
are still in flight; :meth:`commit_transfer` and :meth:`abort_transfer`
land only such a ticket and raise, changing nothing, for any other —
one already committed or aborted (even when its blocks have since been
shipped again by another ticket) or one this cache never issued.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass

from repro.errors import HardwareModelError
from repro.operators.cache import CacheStats


@dataclass(frozen=True)
class TransferTicket:
    """One batch's view of the cache at transfer-begin time.

    Attributes:
        ship_keys: blocks this batch must transfer (now in flight, owned
            by this ticket until :meth:`GpuBlockCache.commit_transfer`).
        wait_keys: blocks another batch is currently transferring; the
            holder must wait for that transfer's completion before
            computing on them (and must not re-ship them).
        hit_keys: blocks already resident on the device.
        bytes_to_ship: PCIe bytes this batch is charged for.
    """

    ship_keys: tuple[Hashable, ...]
    wait_keys: tuple[Hashable, ...]
    hit_keys: tuple[Hashable, ...]
    bytes_to_ship: int


class GpuBlockCache:
    """Device-resident operator-block tracker.

    Args:
        capacity_bytes: device memory budget for blocks.  The cache is
            write-once (no eviction): inserting beyond capacity raises,
            mirroring the paper's assumption that all blocks of a run fit
            in the M2090's 6 GB.  Reserved (in-flight) bytes count
            against capacity from reservation time, so two overlapping
            transfers cannot jointly overflow the device.
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < 1:
            raise HardwareModelError(
                f"cache capacity must be positive, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self.resident_bytes = 0
        self.reserved_bytes = 0
        self.stats = CacheStats()
        self._resident: set[Hashable] = set()
        self._in_flight: set[Hashable] = set()
        #: tickets with ship keys issued here and not yet committed or
        #: aborted, by ``id`` (the entry keeps the ticket alive, so no
        #: other object can take its id while it is open)
        self._open: dict[int, TransferTicket] = {}

    def __contains__(self, key: Hashable) -> bool:
        return key in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def in_flight(self, key: Hashable) -> bool:
        """True while ``key`` is being transferred but has not arrived."""
        return key in self._in_flight

    # -- two-phase transfer protocol -------------------------------------------

    def begin_transfer(
        self, block_keys: Iterable[Hashable], bytes_per_block: float
    ) -> TransferTicket:
        """Partition a batch's blocks into hits / in-flight waits / ships.

        Ship keys are marked in flight and their bytes reserved against
        capacity; residency is granted only by :meth:`commit_transfer`.
        Hits and waits cost nothing on PCIe (the whole point of
        write-once residency) — but a wait is only *usable* once the
        owning transfer commits.  All statistics count unique keys, and
        every part keeps the keys' first-occurrence order.
        """
        unique = tuple(dict.fromkeys(block_keys))
        resident, in_flight = self._resident, self._in_flight
        if resident.isdisjoint(unique) and in_flight.isdisjoint(unique):
            hits, waits, ship = (), (), unique
        else:
            hits = tuple(k for k in unique if k in resident)
            waits = tuple(
                k for k in unique if k in in_flight and k not in resident
            )
            ship = tuple(
                k for k in unique if k not in resident and k not in in_flight
            )
        total = int(len(ship) * bytes_per_block)
        used = self.resident_bytes + self.reserved_bytes
        if used + total > self.capacity_bytes:
            raise HardwareModelError(
                f"GPU block cache overflow: {used + total} bytes "
                f"exceeds capacity {self.capacity_bytes}"
            )
        in_flight.update(ship)
        self.reserved_bytes += total
        self.stats.hits += len(hits)
        self.stats.waits += len(waits)
        self.stats.misses += len(ship)
        ticket = TransferTicket(
            ship_keys=ship, wait_keys=waits, hit_keys=hits, bytes_to_ship=total
        )
        if ship:
            self._open[id(ticket)] = ticket
        return ticket

    def _land(self, ticket: TransferTicket, verb: str) -> None:
        """Take a ticket's ship keys out of flight and release its
        reservation — only when this cache issued the ticket and it has
        not landed yet, so a rejected ticket changes nothing.  A ticket
        that ships nothing has nothing to land."""
        ship = ticket.ship_keys
        if ship and self._open.pop(id(ticket), None) is not ticket:
            raise HardwareModelError(
                f"{verb} of a transfer ticket that is not in flight "
                "(already committed or aborted, or not issued by this cache)"
            )
        self._in_flight.difference_update(ship)
        self.reserved_bytes -= ticket.bytes_to_ship

    def commit_transfer(self, ticket: TransferTicket) -> None:
        """Make a ticket's shipped blocks resident (transfer completed)."""
        self._land(ticket, "commit")
        self._resident.update(ticket.ship_keys)
        self.resident_bytes += ticket.bytes_to_ship
        self.stats.bytes_inserted += ticket.bytes_to_ship

    def abort_transfer(self, ticket: TransferTicket) -> None:
        """Roll a ticket back after a faulted transfer.

        The ticket's ship keys leave the in-flight set **without**
        gaining residency and their reserved bytes are released, so
        waiters blocked on those keys re-ship them on their own next
        :meth:`begin_transfer` instead of waiting forever on a transfer
        that will never commit.  Aborting a ticket that is not in flight
        (already committed or aborted) raises and changes nothing.
        """
        self._land(ticket, "abort")
        self.stats.aborts += len(ticket.ship_keys)
