"""Benchmark harness helpers.

Every experiment regenerates one table or figure of the paper: it runs
the corresponding workload through the simulation, prints a
paper-vs-measured report table, and asserts only the *shape* claims
(who wins, by roughly what factor, where scaling stops) — absolute
seconds are model outputs, anchored as documented in EXPERIMENTS.md.

``REPRO_BENCH_SCALE`` (a finite float > 0, default 1.0) scales workload
task counts for quick runs, e.g. ``REPRO_BENCH_SCALE=0.1 pytest benchmarks/``.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.common import parse_scale


def bench_scale() -> float:
    """The workload scale factor from ``REPRO_BENCH_SCALE`` (default 1);
    any other value than a finite number > 0 raises ``ValueError``."""
    text = os.environ.get("REPRO_BENCH_SCALE", "1.0")
    try:
        return parse_scale(text)
    except ValueError as err:
        raise ValueError(f"REPRO_BENCH_SCALE: {err}") from None


def scaled(n_tasks: int) -> int:
    """``n_tasks`` scaled by :func:`bench_scale`, floored at 100."""
    return max(100, int(n_tasks * bench_scale()))


@pytest.fixture()
def run_once(benchmark):
    """Run a deterministic simulation exactly once under pytest-benchmark."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


@pytest.fixture()
def show(capsys):
    """Print a report table past pytest's output capture, so the
    paper-vs-measured rows appear in the benchmark log itself."""

    def _show(result):
        with capsys.disabled():
            result.print()

    return _show
