"""Box identity in the dyadic multiresolution grid.

A :class:`Key` names one box: a refinement ``level`` ``n >= 0`` and a
``translation`` tuple ``l`` with ``0 <= l_i < 2^n`` per dimension.  The
simulation volume is the unit hyper-cube; box ``(n, l)`` covers
``[l_i / 2^n, (l_i + 1) / 2^n)`` in each dimension.  Keys are immutable,
hashable and totally ordered (level-major), which the distributed-tree
layer relies on: hash, equality and ordering are those of the tuple
``(level, translation)``, and the hash is computed once per key.

Validation happens where a key enters from outside: ``Key(level,
translation)`` (so also :meth:`Key.root` and unpickling) checks the level
and every translation and raises
:class:`~repro.errors.TreeStructureError`.  :meth:`Key.parent`,
:meth:`Key.children` and :meth:`Key.neighbor` derive keys that are in
range by construction (``neighbor`` checks the range itself) and build
them without the check.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator
from dataclasses import FrozenInstanceError
from functools import cache, total_ordering

from repro.errors import TreeStructureError


@total_ordering
class Key:
    """Identity of one dyadic box."""

    __slots__ = ("level", "translation", "_hash")

    level: int
    translation: tuple[int, ...]

    def __init__(self, level: int, translation: tuple[int, ...]) -> None:
        if level < 0:
            raise TreeStructureError(f"negative level in key: {level}")
        limit = 1 << level
        for t in translation:
            if not 0 <= t < limit:
                raise TreeStructureError(
                    f"translation {translation} out of range for level {level}"
                )
        _set_level(self, level)
        _set_translation(self, translation)
        _set_hash(self, hash((level, translation)))

    @classmethod
    def root(cls, dim: int) -> "Key":
        """The level-0 key covering the whole volume."""
        return cls(0, (0,) * dim)

    @property
    def dim(self) -> int:
        """Dimensionality of the key's translation vector."""
        return len(self.translation)

    def parent(self) -> "Key":
        """The key of the enclosing box one level coarser."""
        if self.level == 0:
            raise TreeStructureError("the root key has no parent")
        return _trusted(self.level - 1, tuple([t // 2 for t in self.translation]))

    def children(self) -> Iterator["Key"]:
        """The 2^d child keys, in lexicographic bit order."""
        level = self.level + 1
        doubled = [2 * t for t in self.translation]
        for bits in _child_bits(len(doubled)):
            yield _trusted(level, tuple(map(operator.add, doubled, bits)))

    def child_index(self) -> int:
        """This key's index (0 .. 2^d - 1) among its parent's children."""
        idx = 0
        for t in self.translation:
            idx = (idx << 1) | (t & 1)
        return idx

    def neighbor(self, displacement: tuple[int, ...]) -> "Key | None":
        """The key displaced by integer offsets at the same level.

        Returns None when the displaced box falls outside the (free,
        non-periodic) simulation volume.
        """
        if len(displacement) != self.dim:
            raise TreeStructureError(
                f"displacement {displacement} has wrong dimension for {self}"
            )
        limit = 1 << self.level
        translated = tuple(t + d for t, d in zip(self.translation, displacement))
        if any(not 0 <= t < limit for t in translated):
            return None
        return _trusted(self.level, translated)

    def box_center(self) -> tuple[float, ...]:
        """Center point of the box in the unit volume."""
        scale = 1.0 / (1 << self.level)
        return tuple((t + 0.5) * scale for t in self.translation)

    def box_size(self) -> float:
        """Side length of the box."""
        return 1.0 / (1 << self.level)

    def contains(self, point: tuple[float, ...]) -> bool:
        """Whether ``point`` (unit coordinates) falls inside the box."""
        scale = float(1 << self.level)
        return all(
            t <= x * scale < t + 1 or (x == 1.0 and t == (1 << self.level) - 1)
            for t, x in zip(self.translation, point)
        )

    # -- value semantics: those of the tuple (level, translation) -------------

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if type(other) is Key:
            return self.level == other.level and self.translation == other.translation
        return NotImplemented

    def __lt__(self, other: "Key") -> bool:
        if type(other) is Key:
            return (self.level, self.translation) < (other.level, other.translation)
        return NotImplemented

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the default slot-state restore would go through __setattr__
        return (Key, (self.level, self.translation))

    def __repr__(self) -> str:
        return f"Key(level={self.level!r}, translation={self.translation!r})"

    def __str__(self) -> str:  # compact, used in logs and reports
        return f"({self.level}: {','.join(map(str, self.translation))})"


# slot writers that bypass the blocked __setattr__
_set_level = Key.__dict__["level"].__set__
_set_translation = Key.__dict__["translation"].__set__
_set_hash = Key.__dict__["_hash"].__set__


def _trusted(level: int, translation: tuple[int, ...]) -> Key:
    """A key its caller knows is in range, built without validation."""
    key = object.__new__(Key)
    _set_level(key, level)
    _set_translation(key, translation)
    _set_hash(key, hash((level, translation)))
    return key


@cache
def _child_bits(dim: int) -> tuple[tuple[int, ...], ...]:
    """The 2^d child offsets in lexicographic bit order (one tuple per
    dimension count, so ``children`` does not rebuild a product)."""
    return tuple(itertools.product((0, 1), repeat=dim))
