"""CLI entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments list
    python -m repro.experiments table1 fig5
    python -m repro.experiments all --scale 0.2
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import REGISTRY
from repro.experiments.common import parse_scale


def _scale(text: str) -> float:
    try:
        return parse_scale(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def main(argv: list[str] | None = None) -> int:
    """Regenerate the requested tables/figures; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation tables and figures.",
    )
    parser.add_argument(
        "names",
        nargs="+",
        help="experiment names (see 'list'), or 'all', or 'list'",
    )
    parser.add_argument(
        "--scale",
        type=_scale,
        default=1.0,
        help="workload scale factor, finite and > 0 (default 1.0 = paper size)",
    )
    args = parser.parse_args(argv)

    if args.names == ["list"]:
        for name in REGISTRY:
            print(name)
        return 0

    names = list(REGISTRY) if args.names == ["all"] else args.names
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(available: {', '.join(REGISTRY)})"
        )

    for name in names:
        start = time.time()
        result = REGISTRY[name](args.scale)
        result.print()
        print(f"  [{name} regenerated in {time.time() - start:.1f} s wall]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
