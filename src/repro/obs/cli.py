"""The ``python -m repro.obs`` command line.

Subcommands (each accepts a saved dump path *or* a canonical scenario
name wherever it takes an input):

- ``record <scenario> [-o out.json]`` — run a canonical scenario and
  write its trace dump;
- ``export <dump|scenario> [-o out.json]`` — convert to Chrome-trace
  JSON (loadable in ``chrome://tracing`` or https://ui.perfetto.dev);
- ``critical-path <dump|scenario> [--rank N]`` — the longest dependency
  chain, broken down by stage with slack and what-if estimates;
- ``summary <dump|scenario>`` — makespan, bound stage, overlap
  estimate, and the run's aggregated metrics.

Exit codes: 0 on success, 2 on a usage or input error (matching the
``repro.lint`` CLI convention).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.reporting import critical_path_table, metrics_table
from repro.errors import ReproError
from repro.obs.critical_path import critical_path_for_dump
from repro.obs.dump import RunDump
from repro.obs.export import export_chrome
from repro.obs.scenarios import SCENARIOS, run_scenario


def _load_dump(source: str) -> RunDump:
    """A dump from a file path or, failing that, a scenario name."""
    if os.path.exists(source):
        return RunDump.load(source)
    if source in SCENARIOS:
        return run_scenario(source).dump
    raise ReproError(
        f"{source!r} is neither a dump file nor a scenario "
        f"(scenarios: {', '.join(sorted(SCENARIOS))})"
    )


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_record(args: argparse.Namespace) -> int:
    run = run_scenario(args.scenario)
    _emit(run.dump.dumps(), args.output)
    if args.output and args.output != "-":
        print(
            f"recorded scenario {run.name!r}: makespan "
            f"{run.makespan * 1e3:.3f} ms -> {args.output}"
        )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    dump = _load_dump(args.source)
    _emit(export_chrome(dump), args.output)
    if args.output and args.output != "-":
        print(
            f"exported Chrome trace -> {args.output} "
            f"(load it at https://ui.perfetto.dev)"
        )
    return 0


def _cmd_critical_path(args: argparse.Namespace) -> int:
    dump = _load_dump(args.source)
    path = critical_path_for_dump(dump, rank=args.rank)
    title = f"Critical path — {dump.meta.get('scenario', args.source)}"
    print(critical_path_table(path, title=title).render())
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    dump = _load_dump(args.source)
    path = critical_path_for_dump(dump)
    bound = path.bound_stage
    estimate = path.overlap_estimate(bound)
    name = dump.meta.get("scenario", args.source)
    print(f"run: {name}")
    print(f"makespan: {path.makespan * 1e3:.3f} ms")
    print(
        f"bound stage: {bound} "
        f"({path.share(bound):.1%} of the critical path)"
    )
    if estimate > 0:
        print(
            f"overlap estimate: hiding {bound} work -> "
            f"{estimate * 1e3:.3f} ms ({path.makespan / estimate:.2f}x)"
        )
    print(critical_path_table(path).render())
    if dump.registry:
        print(metrics_table(dump.registry).render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.obs`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Export, profile and summarize simulated-run traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record", help="run a canonical scenario and save its trace dump"
    )
    record.add_argument("scenario", choices=sorted(SCENARIOS))
    record.add_argument("-o", "--output", default="-",
                        help="output path ('-' = stdout)")
    record.set_defaults(func=_cmd_record)

    export = sub.add_parser(
        "export", help="convert a dump (or scenario) to Chrome-trace JSON"
    )
    export.add_argument("source", help="dump path or scenario name")
    export.add_argument("-o", "--output", default="-",
                        help="output path ('-' = stdout)")
    export.set_defaults(func=_cmd_export)

    cpath = sub.add_parser(
        "critical-path",
        help="report the run's longest dependency chain by stage",
    )
    cpath.add_argument("source", help="dump path or scenario name")
    cpath.add_argument("--rank", type=int, default=None,
                       help="analyze one rank instead of the bound rank")
    cpath.set_defaults(func=_cmd_critical_path)

    summary = sub.add_parser(
        "summary", help="makespan, bound stage and aggregated metrics"
    )
    summary.add_argument("source", help="dump path or scenario name")
    summary.set_defaults(func=_cmd_summary)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
