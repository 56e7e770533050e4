"""Write-once device-side cache of transferred operator blocks.

"In order to avoid redundant data transfers to the GPU, a write-once
software cache containing the already transferred 2-D tensors has been
implemented.  This write-once cache has been modeled after a CPU software
cache present in MADNESS for similar purposes."

The cache tracks which ``h`` blocks are already resident on the device.
Because batch transfers take *time* on the simulated clock, residency is
a two-phase protocol:

- :meth:`begin_transfer` partitions a batch's block set into resident
  hits, blocks currently **in flight** on PCIe for another batch (waits:
  they must not be re-shipped, and they are usable once the owning
  transfer completes), and genuine misses, which it marks in flight and
  charges to this batch;
- :meth:`commit_transfer` makes the shipped blocks resident once the
  transfer has completed on the simulated clock.

The partition is made a block family at a time, not per key: a batch's
keys come as the :class:`~repro.runtime.task.BlockParts` of the fold
that aggregated it, and a part whose keys are all new (neither resident
nor in flight) ships whole, one inside the resident set hits whole and
one inside the in-flight set waits whole, each found with set
operations; only a part whose keys are in different states is walked
key by key.  A flat iterable of keys is one part.

The cache records which tickets it issued are still in flight;
:meth:`commit_transfer` and :meth:`abort_transfer` land only such a
ticket and raise, changing nothing, for any other — one already
committed or aborted (even when its blocks have since been shipped
again by another ticket) or one this cache never issued.

The cache does not order transfers.  The node runtime reserves a
batch's blocks in the step it requests the FIFO host-to-device link,
so the transfers that ship a batch's wait keys commit before its own
transfer ends.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field
from itertools import chain

from repro.errors import HardwareModelError
from repro.operators.cache import CacheStats
from repro.runtime.task import BlockParts


@dataclass(frozen=True)
class TransferTicket:
    """One batch's view of the cache at transfer-begin time.

    Attributes:
        ship_keys: blocks this batch must transfer (now in flight, owned
            by this ticket until :meth:`GpuBlockCache.commit_transfer`).
        wait_keys: blocks another batch is currently transferring; the
            holder must not re-ship them, and may compute on them once
            that transfer has committed.
        hit_keys: blocks already resident on the device.
        bytes_to_ship: PCIe bytes this batch is charged for.
        ship_parts: ``ship_keys`` split by block family, each part a
            set where the partition had one (a family shipped whole),
            else a tuple; commit and abort update one part at a time.
            Left out of equality.
    """

    ship_keys: tuple[Hashable, ...]
    wait_keys: tuple[Hashable, ...]
    hit_keys: tuple[Hashable, ...]
    bytes_to_ship: int
    ship_parts: tuple[Iterable[Hashable], ...] = field(
        default=(), compare=False, repr=False
    )


def _joined(parts: list[tuple[Hashable, ...]]) -> tuple[Hashable, ...]:
    """The parts' keys concatenated, in part order."""
    if len(parts) == 1:
        return parts[0]
    return tuple(chain.from_iterable(parts))


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
        self, block_keys: Iterable[Hashable] | BlockParts, bytes_per_block: float
    ) -> TransferTicket:
        """Partition a batch's blocks into hits / in-flight waits / ships.

        ``block_keys`` is the batch's :class:`~repro.runtime.task.
        BlockParts`, or a flat iterable of keys, which is one part.  Ship
        keys are marked in flight and their bytes reserved against
        capacity; residency is granted only by :meth:`commit_transfer`.
        Hits and waits cost nothing on PCIe (the whole point of
        write-once residency) — but a wait is only *usable* once the
        owning transfer commits.  All statistics count unique keys, and
        every part keeps the keys' first-occurrence order.
        """
        if isinstance(block_keys, BlockParts):
            parts = block_keys
        else:
            parts = ((tuple(dict.fromkeys(block_keys)), None),)
        resident, in_flight = self._resident, self._in_flight
        hits: list[tuple[Hashable, ...]] = []
        waits: list[tuple[Hashable, ...]] = []
        ship: list[tuple[Hashable, ...]] = []
        ship_parts: list[Iterable[Hashable]] = []
        for keys, key_set in parts:
            probe = keys if key_set is None else key_set
            if resident.isdisjoint(probe) and in_flight.isdisjoint(probe):
                ship.append(keys)
                ship_parts.append(probe)
            elif key_set is not None and key_set <= resident:
                hits.append(keys)
            elif key_set is not None and key_set <= in_flight:
                waits.append(keys)
            else:
                hits.append(tuple(k for k in keys if k in resident))
                waits.append(tuple(
                    k for k in keys if k in in_flight and k not in resident
                ))
                shipped = tuple(
                    k for k in keys if k not in resident and k not in in_flight
                )
                ship.append(shipped)
                ship_parts.append(shipped)
        ship_keys = _joined(ship)
        total = int(len(ship_keys) * bytes_per_block)
        used = self.resident_bytes + self.reserved_bytes
        if used + total > self.capacity_bytes:
            raise HardwareModelError(
                f"GPU block cache overflow: {used + total} bytes "
                f"exceeds capacity {self.capacity_bytes}"
            )
        for part in ship_parts:
            in_flight.update(part)
        ticket = TransferTicket(
            ship_keys=ship_keys,
            wait_keys=_joined(waits),
            hit_keys=_joined(hits),
            bytes_to_ship=total,
            ship_parts=tuple(ship_parts),
        )
        self.reserved_bytes += total
        self.stats.hits += len(ticket.hit_keys)
        self.stats.waits += len(ticket.wait_keys)
        self.stats.misses += len(ship_keys)
        if ship_keys:
            self._open[id(ticket)] = ticket
        return ticket

    def _land(self, ticket: TransferTicket, verb: str) -> None:
        """Take a ticket's ship keys out of flight and release its
        reservation — only when this cache issued the ticket and it has
        not landed yet, so a rejected ticket changes nothing.  A ticket
        that ships nothing has nothing to land."""
        if ticket.ship_keys and self._open.pop(id(ticket), None) is not ticket:
            raise HardwareModelError(
                f"{verb} of a transfer ticket that is not in flight "
                "(already committed or aborted, or not issued by this cache)"
            )
        for part in ticket.ship_parts:
            self._in_flight.difference_update(part)
        self.reserved_bytes -= ticket.bytes_to_ship

    def commit_transfer(self, ticket: TransferTicket) -> None:
        """Make a ticket's shipped blocks resident (transfer completed)."""
        self._land(ticket, "commit")
        for part in ticket.ship_parts:
            self._resident.update(part)
        self.resident_bytes += ticket.bytes_to_ship
        self.stats.bytes_inserted += ticket.bytes_to_ship

    def abort_transfer(self, ticket: TransferTicket) -> None:
        """Roll a ticket back after a faulted transfer.

        The ticket's ship keys leave the in-flight set **without**
        gaining residency and their reserved bytes are released, so a
        later :meth:`begin_transfer` ships them as fresh misses instead
        of counting them as waits on a transfer that will never commit.
        Aborting a ticket that is not in flight (already committed or
        aborted) raises and changes nothing.
        """
        self._land(ticket, "abort")
        self.stats.aborts += len(ticket.ship_keys)
