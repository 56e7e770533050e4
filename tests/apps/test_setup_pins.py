"""Pinned digests of the canonical cluster set-up inputs.

The paper-scale workloads stand on a few seeded synthetic trees and on
the cost partitions cut from them.  Their builders are optimised code
(``synthetic_tree_keys`` caches each leaf's power, ``from_weights``
walks a child index), so these digests pin what they must keep
producing, bit for bit:

- each tree, as ``repr((key.level, key.translation))`` of every key in
  list order;
- each of Table VI's five ``cost_pmap`` maps (the perf suite's seed-0
  TDSE task stream, nodes x0.05), as its anchor count and
  ``repr((key.level, key.translation, anchor.level, anchor.translation,
  owner))`` over every key of the TDSE tree.

The differential test in ``test_setup_builders.py`` checks the builders
against their simple references on random inputs; these digests hold
the inputs every table and benchmark actually runs on.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.apps.tdse import TDSE_TASKS, TdseApplication
from repro.apps.workloads import synthetic_tree_keys
from repro.experiments.common import cost_pmap, scaled
from repro.experiments.tables import PAPER_TABLE6, TABLE6_TARGET_CHUNKS

#: name -> ((dim, n_leaves, seed, skew), key count, sha256)
TREES = {
    # Table VI's 4-D TDSE tree (TdseApplication)
    "tdse": (
        (4, 4096, 41, 2.4),
        4369,
        "ce7d3284e0d62dd3e8cb31f54052ade52053a294d43d6bbcfc8f71712957386c",
    ),
    # Table IV's Coulomb tree (CoulombApplication.table4)
    "coulomb-table4": (
        (3, 4096, 2012, 2.0),
        4681,
        "f72a3bc50959352ae73692dae2d5de11f829c9a71c0cfda81cd7369c679e32c0",
    ),
    # the stealing sweep's trees at 700 ranks (perf's steal-700) and 5000
    "steal-350": (
        (3, 350, 13, 3.0),
        401,
        "b781c64a92214573ca64ae1ee6062d927304d4642b5ee4779b3dde8960dcaad3",
    ),
    "steal-2500": (
        (3, 2500, 13, 3.0),
        2857,
        "fa87e5559fcd09a426c40f074eac372f5f54bafaa4c163c4c45cdcd38cd9cc88",
    ),
}

#: Table VI node count (x0.05) -> sha256 of its map over the TDSE keys
PARTITIONS = {
    5: "ff6ba4529a5295b9942cb7090757d87cd75826f66c677742b5b6a72307cdb0ab",
    10: "3f57f9fbd4c2cf4829f02a5d74c4e76780aa900378a090de0ebb9ece5eca2f59",
    15: "1fd39e2e99b3c745a1f41371b5f1a1f4bb8781dfd701544917b4dae32b1f7e20",
    20: "fdcd72fb6934dcf4f529e5bee03b8100aae4b342d7b7ca4eecd8bb519c72c185",
    25: "a3ab24bba3f48122e0487f23ac318d2a62e47fe400760a1a6c0a95ba03f79067",
}

#: every Table VI map cuts the same anchors (the cap ignores node count)
N_ANCHORS = 495


def _digest(reprs) -> str:
    h = hashlib.sha256()
    for text in reprs:
        h.update(text.encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def tdse_keys():
    (dim, n_leaves, seed, skew), _, _ = TREES["tdse"]
    return synthetic_tree_keys(dim, n_leaves, seed, skew=skew)


@pytest.mark.parametrize("name", sorted(TREES))
def test_tree_digest(name, tdse_keys):
    (dim, n_leaves, seed, skew), count, digest = TREES[name]
    keys = (
        tdse_keys
        if name == "tdse"
        else synthetic_tree_keys(dim, n_leaves, seed, skew=skew)
    )
    assert len(keys) == count
    assert _digest(repr((k.level, k.translation)) for k in keys) == digest


def test_tdse_tree_is_the_workloads_tree(tdse_keys):
    app = TdseApplication(n_tasks=100)
    assert (app.dim, app.n_tree_leaves, app.seed) == TREES["tdse"][0][:3]
    assert {t.key for t in app.workload().tasks} <= set(tdse_keys)


def test_table6_partitions(tdse_keys):
    workload = TdseApplication(n_tasks=scaled(TDSE_TASKS, 0.001)).workload()
    node_counts = [round(n * 0.05) for n in PAPER_TABLE6]
    assert node_counts == sorted(PARTITIONS)
    for nodes in node_counts:
        pmap = cost_pmap(workload, nodes, TABLE6_TARGET_CHUNKS)
        assert pmap.n_anchors == N_ANCHORS, nodes
        reprs = []
        for key in tdse_keys:
            anchor = pmap.anchor_of(key)
            reprs.append(
                repr(
                    (
                        key.level,
                        key.translation,
                        anchor.level,
                        anchor.translation,
                        pmap.owner(key),
                    )
                )
            )
        assert _digest(reprs) == PARTITIONS[nodes], nodes
