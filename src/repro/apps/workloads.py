"""Synthetic trees and ``Apply`` task streams.

The paper's largest runs (154,468-task Coulomb, 542,113-task TDSE on up
to 500 Titan nodes) depend on production chemistry inputs we do not
have.  What the runtime actually *sees*, though, is (a) an unbalanced
tree, (b) a number of integral tasks per tree node, (c) per-task tensor
shapes and separation rank.  This module synthesises exactly those
observables — deterministic under a seed — so the cluster experiments
exercise the real scheduling code on statistically faithful inputs.
The substitution is documented in DESIGN.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate

from repro.errors import ClusterConfigError
from repro.mra.key import Key
from repro.runtime.task import TaskKind, WorkItem


def synthetic_tree_keys(
    dim: int,
    n_leaves: int,
    seed: int,
    skew: float = 2.0,
    max_level: int = 20,
) -> list[Key]:
    """Grow a random unbalanced 2^d-ary tree; returns all keys.

    Growth repeatedly refines an existing leaf chosen with probability
    proportional to ``weight**skew`` where a leaf's weight decays with a
    random factor from its parent — higher ``skew`` concentrates
    refinement in a few branches, producing the "highly unbalanced tree"
    of multiresolution chemistry (Figure 1 of the paper).  A leaf drawn
    at ``max_level`` is not refined; its weight drops to 0.0.

    Cost per refinement is linear in the leaf count, with small
    constants: each leaf's ``weight**skew`` is computed once, as a
    Python float, when the leaf is made, and the prefix sums of those
    powers are recomputed only from the changed leaf onward.  The leaves
    stay in creation order (a refined leaf leaves the list, its children
    join at the end), so each draw is ``random.choices`` over every leaf
    with the same cumulative weights — the same ``random()`` call picks
    the same leaf, and the same seed grows the same tree.

    Raises :class:`ClusterConfigError` before growing anything when
    ``skew`` is negative or ``n_leaves`` exceeds ``2**(dim*max_level)``,
    the leaf count of the full tree down to ``max_level``.
    """
    if n_leaves < 1:
        raise ClusterConfigError(f"need at least one leaf, got {n_leaves}")
    if skew < 0:
        raise ClusterConfigError(f"skew must be >= 0, got {skew}")
    if n_leaves > 2 ** (dim * max_level):
        raise ClusterConfigError(
            f"{n_leaves} leaves do not fit a {dim}-D tree capped at level "
            f"{max_level} (at most 2**{dim * max_level})"
        )
    rng = random.Random(seed)
    root = Key.root(dim)
    # the leaves as parallel lists: key, weight, weight**skew, and the
    # running sum of the powers that random.choices would accumulate
    leaves: list[Key] = [root]
    weights: list[float] = [1.0]
    powers: list[float] = [1.0**skew]
    cum_powers: list[float] = list(accumulate(powers))
    keys: list[Key] = [root]
    while len(leaves) < n_leaves:
        (i,) = rng.choices(range(len(leaves)), cum_weights=cum_powers, k=1)
        leaf, weight = leaves[i], weights[i]
        if leaf.level >= max_level:
            weights[i] = 0.0
            powers[i] = 0.0**skew
        else:
            del leaves[i], weights[i], powers[i]
            for child in leaf.children():
                w = weight * rng.uniform(0.1, 1.0)
                leaves.append(child)
                weights.append(w)
                powers.append(w**skew)
                keys.append(child)
        # the sums before leaf i are unchanged; continue from cum_powers[i-1]
        if i:
            tail = accumulate(powers[i:], initial=cum_powers[i - 1])
            next(tail)
        else:
            tail = accumulate(powers)
        cum_powers[i:] = tail
    return keys


@dataclass
class ClusterTask:
    """One (source node, displacement) integral task of a cluster run."""

    key: Key
    neighbor: Key
    item: WorkItem


@dataclass
class SyntheticApplyWorkload:
    """The task stream of one ``Apply`` over a synthetic tree.

    Args:
        dim: tensor dimensionality (3 for Coulomb, 4 for TDSE).
        k: multiwavelet order; compute tensors have side ``q = 2k``.
        rank: separation rank M of the operator.
        n_tasks: total integral tasks to generate (the paper reports
            these counts exactly: 154,468 and 542,113).
        n_tree_leaves: leaves of the synthetic tree.
        seed: RNG seed (reproducible).
        skew: tree imbalance knob.

    The per-task work item carries the exact cost metadata of a real
    nonstandard-form Formula 1 task of these parameters, including the
    corner-correction share.
    """

    dim: int
    k: int
    rank: int
    n_tasks: int
    n_tree_leaves: int = 512
    seed: int = 2012
    skew: float = 2.0
    tasks: list[ClusterTask] = field(init=False, repr=False)
    total_flops: int = field(init=False)

    def __post_init__(self) -> None:
        if self.dim < 1 or self.k < 1 or self.rank < 1 or self.n_tasks < 1:
            raise ClusterConfigError(
                "invalid workload parameters: dim, k, rank and n_tasks must "
                f"all be >= 1 (got dim={self.dim}, k={self.k}, "
                f"rank={self.rank}, n_tasks={self.n_tasks})"
            )
        rng = random.Random(self.seed)
        keys = synthetic_tree_keys(
            self.dim, self.n_tree_leaves, self.seed, self.skew
        )
        q = 2 * self.k
        steps = self.rank * self.dim
        rows = q ** (self.dim - 1)
        base_flops = steps * 2 * rows * q * q
        # the k^d corner-correction task adds a 2^-(dim+1) share
        flops = int(base_flops * (1.0 + 2.0 ** -(self.dim + 1)))
        tensor_bytes = (q**self.dim) * 8
        # one task kind per tree level, as in the real batched Apply: the
        # operator blocks (and hence the aggregation buffers) are shared
        # within a level, so levels batch separately — sparse shards
        # therefore see smaller batches, which matters for CPU starvation
        kinds = {
            level: TaskKind("integral_compute", (level, self.dim, q))
            for level in range(max(k.level for k in keys) + 1)
        }
        self.tasks = []
        self.total_flops = 0
        # Block-key tuples are shared per (level, displacement ring):
        # tasks at one level reuse the same operator matrices, which is
        # what makes the write-once caches effective.
        block_tuples: dict[tuple[int, int], tuple] = {}

        def blocks_for(level: int, ring: int) -> tuple:
            cached = block_tuples.get((level, ring))
            if cached is None:
                cached = tuple((level, ring, mu) for mu in range(self.rank))
                block_tuples[(level, ring)] = cached
            return cached

        # distribute tasks over tree nodes roughly evenly with jitter —
        # per-node displacement counts vary in real screening
        n_keys = len(keys)
        for i in range(self.n_tasks):
            key = keys[rng.randrange(n_keys)]
            neighbor = self._random_neighbor(rng, key)
            item = WorkItem(
                kind=kinds[key.level],
                flops=flops,
                input_bytes=tensor_bytes,
                output_bytes=tensor_bytes,
                block_keys=blocks_for(key.level, i % 4),
                block_bytes=self.rank * q * q * 8,
                steps=steps,
                step_rows=rows,
                step_q=q,
            )
            self.tasks.append(ClusterTask(key=key, neighbor=neighbor, item=item))
            self.total_flops += flops

    @staticmethod
    def _random_neighbor(rng: random.Random, key: Key) -> Key:
        """A valid same-level neighbour within Chebyshev radius 1."""
        for _attempt in range(8):
            disp = tuple(rng.choice((-1, 0, 1)) for _ in range(key.dim))
            neighbor = key.neighbor(disp)
            if neighbor is not None:
                return neighbor
        return key
