"""Text rendering of adaptive trees.

The paper's Figure 1 shows the telescoping grids of MRA; these helpers
render the same information for a real function as terminal text — an
occupancy strip showing where on the unit interval each level refines
(1-D projection of the tree) and a one-line summary.
"""

from __future__ import annotations

from repro.mra.function import MultiresolutionFunction


def occupancy_strip(
    f: MultiresolutionFunction, axis: int = 0, width: int = 64
) -> str:
    """Per-level strips marking where leaves exist along one axis.

    Projects each leaf box onto the chosen axis; a column is marked when
    any leaf of that level covers it.  Deeper levels appearing only in
    narrow bands is the visual signature of adaptive refinement.
    """
    if not 0 <= axis < f.dim:
        raise ValueError(f"axis must be in [0, {f.dim}), got {axis}")
    by_level: dict[int, list[str]] = {}
    for key, _node in f.tree.leaves():
        cells = by_level.setdefault(key.level, [" "] * width)
        scale = 1 << key.level
        lo = int(key.translation[axis] / scale * width)
        hi = int((key.translation[axis] + 1) / scale * width)
        for i in range(lo, max(hi, lo + 1)):
            if i < width:
                cells[i] = "#"
    lines = []
    for level in sorted(by_level):
        lines.append(f"L{level:<2} |{''.join(by_level[level])}|")
    return "\n".join(lines)


def tree_summary(f: MultiresolutionFunction) -> str:
    """One-paragraph description of the tree's shape."""
    info = f.describe()
    deepest = info["max_level"]
    full = (2 ** f.dim) ** deepest
    leaves_at_deepest = info["level_histogram"].get(deepest, 0)
    return (
        f"{info['nodes']} nodes, {info['leaves']} leaves, depth {deepest}; "
        f"the deepest level holds {leaves_at_deepest} of {full} possible "
        f"boxes ({leaves_at_deepest / full:.2%} — adaptivity at work)"
    )
