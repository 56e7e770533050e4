"""Write-once software cache for operator blocks.

MADNESS keeps a CPU-side cache of the 2-D ``h`` operator matrices because
the same ``(level, displacement, mu)`` block is reused by hundreds of
tasks.  The paper's GPU extension adds a *write-once* cache of the blocks
already transferred to the device, avoiding redundant PCIe traffic; the
GPU variant (:class:`repro.kernels.gpu_cache.GpuBlockCache`) is modeled
after this one, as the paper notes.

Statistics (hits/misses/bytes) count every block built and every lookup
served.  Nothing in the library reads them back: the benchmark's
``operators.blocks.hit_rate`` and the tests do.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass, field

import numpy as np


@dataclass
class CacheStats:
    """Unique-key lookup counters of a write-once cache.

    Every counter is per *unique key per lookup batch*: a key repeated
    within one lookup counts once, so hit rates are comparable across
    batch shapes.  ``waits`` counts keys that were in flight on PCIe for
    another batch at lookup time — not re-shipped (no miss) but not yet
    usable (no hit); only the GPU-side cache produces them.  ``aborts``
    counts keys whose transfer was rolled back after a fault (GPU-side
    cache only; an aborted key re-ships as a fresh miss next lookup).
    """

    hits: int = 0
    misses: int = 0
    waits: int = 0
    bytes_inserted: int = 0
    aborts: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups (hits + misses + in-flight waits)."""
        return self.hits + self.misses + self.waits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when never accessed)."""
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class OperatorBlockCache:
    """Write-once map from block keys to operator matrices.

    "Write-once" means an entry is never replaced or evicted: operator
    blocks are immutable for the lifetime of an ``Apply`` call, so the
    first computation (or transfer) is the only one.
    """

    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._data: dict[Hashable, np.ndarray] = {}

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """The cached block for ``key``, computing and inserting on miss."""
        entry = self._data.get(key)
        if entry is not None:
            self.stats.hits += 1
            return entry
        self.stats.misses += 1
        entry = compute()
        self._data[key] = entry
        self.stats.bytes_inserted += entry.nbytes
        return entry

    def insert(self, key: Hashable, entry: np.ndarray) -> None:
        """Store a block built outside :meth:`get_or_compute` (a bulk
        fill), counted as the miss that built it.  Write-once: a key
        already present keeps its entry."""
        if key in self._data:
            return
        self.stats.misses += 1
        self._data[key] = entry
        self.stats.bytes_inserted += entry.nbytes

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        self._data.clear()
        self.stats = CacheStats()
