"""Tests for the write-once GPU block cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareModelError
from repro.kernels.gpu_cache import GpuBlockCache, TransferTicket
from repro.operators.cache import CacheStats


def test_first_transfer_ships_everything():
    cache = GpuBlockCache(1 << 20)
    ticket = cache.begin_transfer(["a", "b", "c"], 100.0)
    cache.commit_transfer(ticket)
    assert ticket.bytes_to_ship == 300
    assert cache.resident_bytes == 300
    assert len(cache) == 3


def test_second_transfer_is_free():
    cache = GpuBlockCache(1 << 20)
    cache.commit_transfer(cache.begin_transfer(["a", "b"], 100.0))
    ticket = cache.begin_transfer(["a", "b"], 100.0)
    cache.commit_transfer(ticket)
    assert ticket.bytes_to_ship == 0
    assert cache.stats.hits == 2


def test_partial_overlap():
    cache = GpuBlockCache(1 << 20)
    cache.commit_transfer(cache.begin_transfer(["a"], 100.0))
    ticket = cache.begin_transfer(["a", "b"], 100.0)
    cache.commit_transfer(ticket)
    assert ticket.bytes_to_ship == 100
    assert "b" in cache


def test_duplicate_keys_in_one_batch_count_once():
    cache = GpuBlockCache(1 << 20)
    ticket = cache.begin_transfer(["a", "a", "a"], 100.0)
    cache.commit_transfer(ticket)
    assert ticket.bytes_to_ship == 100


def test_capacity_overflow_raises():
    cache = GpuBlockCache(250)
    cache.commit_transfer(cache.begin_transfer(["a", "b"], 100.0))
    with pytest.raises(HardwareModelError):
        cache.begin_transfer(["c"], 100.0)


def test_invalid_capacity():
    with pytest.raises(HardwareModelError):
        GpuBlockCache(0)


# -- two-phase transfer protocol (the pipelined runtime's API) ----------------


def test_begin_does_not_grant_residency():
    cache = GpuBlockCache(1 << 20)
    ticket = cache.begin_transfer(["a", "b"], 100.0)
    assert ticket.ship_keys == ("a", "b")
    assert "a" not in cache
    assert cache.in_flight("a")
    assert cache.resident_bytes == 0
    assert cache.reserved_bytes == 200


def test_commit_grants_residency():
    cache = GpuBlockCache(1 << 20)
    ticket = cache.begin_transfer(["a", "b"], 100.0)
    cache.commit_transfer(ticket)
    assert "a" in cache and "b" in cache
    assert not cache.in_flight("a")
    assert cache.resident_bytes == 200
    assert cache.reserved_bytes == 0
    assert cache.stats.bytes_inserted == 200


def test_concurrent_batch_waits_instead_of_hitting():
    """Regression for the TOCTOU race: while a transfer is in flight a
    second batch must see its blocks as waits, not as resident hits."""
    cache = GpuBlockCache(1 << 20)
    first = cache.begin_transfer(["a", "b"], 100.0)
    second = cache.begin_transfer(["a", "c"], 100.0)
    assert second.wait_keys == ("a",)
    assert second.hit_keys == ()
    assert second.ship_keys == ("c",)
    assert second.bytes_to_ship == 100
    cache.commit_transfer(first)
    third = cache.begin_transfer(["a"], 100.0)
    assert third.hit_keys == ("a",)


def test_commit_of_foreign_ticket_raises():
    cache = GpuBlockCache(1 << 20)
    bogus = TransferTicket(("x",), (), (), 100)
    with pytest.raises(HardwareModelError):
        cache.commit_transfer(bogus)


def test_reserved_bytes_count_against_capacity():
    """Two overlapping transfers cannot jointly overflow the device."""
    cache = GpuBlockCache(250)
    cache.begin_transfer(["a", "b"], 100.0)  # not committed yet
    with pytest.raises(HardwareModelError):
        cache.begin_transfer(["c"], 100.0)


def test_stats_count_unique_keys_consistently():
    """Regression: hits used to count per occurrence while misses counted
    per unique key, skewing every derived hit rate."""
    cache = GpuBlockCache(1 << 20)
    cache.commit_transfer(cache.begin_transfer(["a", "a", "b"], 100.0))
    assert cache.stats.misses == 2
    assert cache.stats.hits == 0
    cache.commit_transfer(cache.begin_transfer(["a", "b", "b", "c"], 100.0))
    assert cache.stats.misses == 3
    assert cache.stats.hits == 2
    assert cache.stats.waits == 0
    assert cache.stats.accesses == 5
    assert cache.stats.bytes_inserted == 300


# -- faulted transfers: abort_transfer ---------------------------------------------


def test_abort_releases_in_flight_and_reservation():
    cache = GpuBlockCache(1 << 20)
    ticket = cache.begin_transfer(["a", "b"], 100.0)
    cache.abort_transfer(ticket)
    assert not cache.in_flight("a") and not cache.in_flight("b")
    assert "a" not in cache and "b" not in cache  # no phantom residency
    assert cache.reserved_bytes == 0
    assert cache.resident_bytes == 0
    assert cache.stats.aborts == 2
    assert cache.stats.bytes_inserted == 0


def test_aborted_keys_reship_as_fresh_misses():
    cache = GpuBlockCache(1 << 20)
    cache.abort_transfer(cache.begin_transfer(["a"], 100.0))
    retry = cache.begin_transfer(["a"], 100.0)
    assert retry.ship_keys == ("a",)  # a waiter is not stuck forever
    assert retry.wait_keys == ()
    cache.commit_transfer(retry)
    assert "a" in cache


def test_abort_frees_capacity_for_other_batches():
    cache = GpuBlockCache(250)
    first = cache.begin_transfer(["a", "b"], 100.0)
    with pytest.raises(HardwareModelError):
        cache.begin_transfer(["c"], 100.0)
    cache.abort_transfer(first)
    cache.begin_transfer(["c"], 100.0)  # reservation released


def test_abort_of_committed_ticket_raises():
    cache = GpuBlockCache(1 << 20)
    ticket = cache.begin_transfer(["a"], 100.0)
    cache.commit_transfer(ticket)
    with pytest.raises(HardwareModelError):
        cache.abort_transfer(ticket)


def test_double_abort_raises():
    cache = GpuBlockCache(1 << 20)
    ticket = cache.begin_transfer(["a"], 100.0)
    cache.abort_transfer(ticket)
    with pytest.raises(HardwareModelError):
        cache.abort_transfer(ticket)


def test_abort_with_no_ship_keys_is_noop():
    cache = GpuBlockCache(1 << 20)
    cache.commit_transfer(cache.begin_transfer(["a"], 100.0))
    hit_only = cache.begin_transfer(["a"], 100.0)
    assert hit_only.ship_keys == ()
    cache.abort_transfer(hit_only)  # nothing in flight, nothing to undo
    assert "a" in cache
    assert cache.stats.aborts == 0


_NOT_IN_FLIGHT = "of a transfer ticket that is not in flight"


@pytest.mark.parametrize(
    "stale_keys", [["a", "b"], ["a"]], ids=["partly-reshipped", "wholly-reshipped"]
)
@pytest.mark.parametrize("verb", ["commit", "abort"])
def test_rejected_stale_ticket_leaves_other_reservations_intact(verb, stale_keys):
    """Regression: a stale commit or abort changed the cache key by key
    and raised only at its first key not in flight, by which time it
    had made the live ticket's ``a`` resident (commit) or dropped it
    from flight (abort); a stale ticket whose keys were all shipped
    again was not rejected at all.  A rejected ticket changes nothing."""
    cache = GpuBlockCache(1 << 20)
    stale = cache.begin_transfer(stale_keys, 100.0)
    cache.abort_transfer(stale)
    live = cache.begin_transfer(["a"], 100.0)  # ``a`` is in flight again
    with pytest.raises(HardwareModelError, match=f"{verb} {_NOT_IN_FLIGHT}"):
        getattr(cache, f"{verb}_transfer")(stale)
    assert cache.in_flight("a") and "a" not in cache
    assert cache.resident_bytes == 0
    assert cache.reserved_bytes == 100
    assert cache.stats.aborts == len(stale_keys)
    assert cache.stats.bytes_inserted == 0
    cache.commit_transfer(live)
    assert "a" in cache
    assert cache.resident_bytes == 100
    assert cache.reserved_bytes == 0


# -- differential check against the per-key partition ------------------------


class PerKeyCache:
    """Test-only reference: the key-by-key partition, commit and abort
    the cache used before it partitioned whole batches, with each
    in-flight key recording the ticket that ships it, and commit and
    abort landing a ticket only when every one of its ship keys is in
    flight for that very ticket."""

    def __init__(self, capacity_bytes):
        self.capacity_bytes = capacity_bytes
        self.resident_bytes = 0
        self.reserved_bytes = 0
        self.stats = CacheStats()
        self._resident = set()
        self._in_flight = {}

    def __contains__(self, key):
        return key in self._resident

    def __len__(self):
        return len(self._resident)

    def in_flight(self, key):
        return key in self._in_flight

    def begin_transfer(self, block_keys, bytes_per_block):
        unique = []
        for k in block_keys:
            if k not in unique:
                unique.append(k)
        hits = tuple(k for k in unique if k in self._resident)
        waits = tuple(
            k for k in unique if k in self._in_flight and k not in self._resident
        )
        ship = tuple(
            k for k in unique if k not in self._resident and k not in self._in_flight
        )
        total = int(len(ship) * bytes_per_block)
        used = self.resident_bytes + self.reserved_bytes
        if used + total > self.capacity_bytes:
            raise HardwareModelError(
                f"GPU block cache overflow: {used + total} bytes "
                f"exceeds capacity {self.capacity_bytes}"
            )
        ticket = TransferTicket(ship, waits, hits, total)
        for k in ship:
            self._in_flight[k] = ticket
        self.reserved_bytes += total
        self.stats.hits += len(hits)
        self.stats.waits += len(waits)
        self.stats.misses += len(ship)
        return ticket

    def _check(self, ticket, verb):
        for k in ticket.ship_keys:
            if self._in_flight.get(k) is not ticket:
                raise HardwareModelError(
                    f"{verb} {_NOT_IN_FLIGHT} (already committed or aborted, "
                    "or not issued by this cache)"
                )

    def commit_transfer(self, ticket):
        self._check(ticket, "commit")
        for k in ticket.ship_keys:
            del self._in_flight[k]
            self._resident.add(k)
        self.reserved_bytes -= ticket.bytes_to_ship
        self.resident_bytes += ticket.bytes_to_ship
        self.stats.bytes_inserted += ticket.bytes_to_ship

    def abort_transfer(self, ticket):
        self._check(ticket, "abort")
        for k in ticket.ship_keys:
            del self._in_flight[k]
        self.reserved_bytes -= ticket.bytes_to_ship
        self.stats.aborts += len(ticket.ship_keys)


_KEY_POOL = "abcdefgh"

_cache_ops = st.lists(
    st.one_of(
        # keys repeat within one batch, and batches overlap on the pool
        st.tuples(
            st.just("begin"),
            st.lists(st.sampled_from(_KEY_POOL), max_size=6),
            st.sampled_from([0.0, 1.0, 37.5, 100.0, 250.9]),
        ),
        # any ticket issued so far, so stale and repeated tickets occur
        st.tuples(st.sampled_from(["commit", "abort"]), st.integers(0, 50)),
    ),
    max_size=40,
)


def _outcome(call):
    try:
        return "ok", call()
    except HardwareModelError as exc:
        return "raised", str(exc)


def _state(cache):
    return (
        cache.resident_bytes,
        cache.reserved_bytes,
        cache.stats,
        len(cache),
        [(k in cache, cache.in_flight(k)) for k in _KEY_POOL],
    )


@given(st.integers(1, 1500), _cache_ops)
@settings(max_examples=200, deadline=None)
def test_whole_batch_partition_matches_the_per_key_reference(capacity, ops):
    """Random begin/commit/abort sequences, with repeated keys, stale
    tickets and capacity overflow, give the same tickets (key order
    included), counters, byte totals and errors as the per-key cache."""
    fast, ref = GpuBlockCache(capacity), PerKeyCache(capacity)
    tickets = []  # (fast ticket, reference ticket) of each begin
    for op in ops:
        if op[0] == "begin":
            _, keys, per_block = op
            got = _outcome(lambda: fast.begin_transfer(iter(keys), per_block))
            want = _outcome(lambda: ref.begin_transfer(keys, per_block))
            if got[0] == want[0] == "ok":
                tickets.append((got[1], want[1]))
        elif tickets:
            verb, index = op
            mine, theirs = tickets[index % len(tickets)]
            got = _outcome(lambda: getattr(fast, f"{verb}_transfer")(mine))
            want = _outcome(lambda: getattr(ref, f"{verb}_transfer")(theirs))
        else:
            continue
        assert got == want, op
        assert _state(fast) == _state(ref), op
