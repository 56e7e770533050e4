"""Host-time benchmark of the paper's scenarios.

Usage (from the repository root)::

    python perf/run.py --workload steal-700 --seed 0 --seconds 25 --trace 0
    python perf/run.py [--seed S] [--trace 1] [--out FILE]    # every workload
    python perf/run.py --write-pins                           # refresh pins.json

One workload runs in this process: repeats of build (``setup_s``), run
(``run_s``) and check (untimed) follow one another until the next
repeat would overrun ``--seconds``; at least one repeat always runs.
Each untraced repeat samples the host's speed (``hostspeed.py``), and
its times are reported as seconds at the host's full speed.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones, from repeats that alternate between
untraced and traced.  Without ``--workload`` every workload runs in a
fresh interpreter, one after another.  The last line of standard output
is a JSON summary; the exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "pins.json"
#: single-threaded BLAS: one process, one compute thread
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: set-ups per run, even when fewer repeats fit, so ``setup_s`` is a median
MIN_SETUPS = 5
REPORT_PREFIX = "report "


def spec() -> dict:
    """The benchmark definition at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Sample:
    """One repeat of a workload.  Times are host seconds less the host
    speed probes' own time; ``slowdown`` (``None`` in traced repeats,
    which are not probed) converts them to seconds at full speed."""

    #: what the inputs were built from (:func:`instance_seed`)
    seed: int
    traced: bool
    setup_s: float
    run_s: float
    slowdown: float | None
    outputs: dict
    checks: dict
    failures: list[str]
    timings: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile (``statistics.quantiles``), n."""
    q1, med, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in d.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def pin_failures(outputs: dict, want: dict, rel_tol: dict) -> list[str]:
    """Differences between ``outputs`` and one reference of pinned values."""
    got, want = _flatten(outputs), _flatten(want)
    failures = [f"{k} missing" for k in want if k not in got]
    for key in want.keys() & got.keys():
        tol = rel_tol.get(key.rsplit(".", 1)[-1])
        if tol is None:
            same = got[key] == want[key]
        else:
            same = abs(got[key] - want[key]) <= tol * abs(want[key])
        if not same:
            failures.append(f"{key} = {got[key]!r}, pinned {want[key]!r}")
    return failures


def instance_seed(seed: int, index: int) -> int:
    """The inputs of a run's ``index``-th repeat (traced pair, in a traced
    run).  Seed 0 repeats the canonical instance; any other seed gives
    every repeat inputs of its own, so that a run's median averages over
    many inputs and not over one draw of them."""
    return 0 if seed == 0 else seed * 100_000 + index


def repeat(workload, seed: int, pins: dict | None, traced: bool) -> Sample:
    """Build from ``seed``, run and check once.  Untraced repeats sample
    the host's speed; traced repeats record layer spans instead."""
    import spans

    gc.collect()
    rec = spans.SpanRecorder()
    speed = HostSpeed()
    patches = spans.install(rec, spans.probes()) if traced else []
    try:
        with nullcontext() if traced else speed.sampling():
            t0 = time.perf_counter()
            inputs = workload.build(seed)
            t1 = time.perf_counter()
            result = workload.run(inputs)
            t2 = time.perf_counter()
    finally:
        spans.uninstall(patches)
    setup_s = t1 - t0 - speed.probe_time(t0, t1)
    run_s = t2 - t1 - speed.probe_time(t1, t2)
    outputs = workload.outputs(result)
    checks, failures = workload.invariants(inputs, result)
    if seed == 0 and pins is not None:
        failures += pin_failures(outputs, pins[workload.name], workload.rel_tol)
    layers = {}
    if traced:
        layers = spans.layer_metrics(rec)
        layers["trace.unattributed_s"] = (t2 - t0) - rec.covered_s()
    return Sample(seed, traced, setup_s, run_s,
                  None if traced else speed.slowdown(), outputs, checks,
                  failures, workload.timings(result), layers)


def setup_only(workload, seed: int) -> tuple[float, float]:
    """One more build, for runs too short for ``MIN_SETUPS`` repeats:
    its probed seconds and the host's slowdown."""
    speed = HostSpeed()
    with speed.sampling():
        t0 = time.perf_counter()
        workload.build(seed)
        t1 = time.perf_counter()
    return t1 - t0 - speed.probe_time(t0, t1), speed.slowdown()


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat one workload for ``seconds``; returns its report."""
    from workloads import SERVE_TIMINGS, WORKLOADS

    workload = WORKLOADS[name]
    pins = json.loads(PINS.read_text()) if PINS.exists() else None
    samples: list[Sample] = []
    errors: list[str] = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    # traced runs alternate untraced/traced repeats and stop on whole pairs
    step = 2 if trace else 1
    block_start = time.perf_counter()
    while True:
        traced = trace and attempted % 2 == 1
        inputs_seed = instance_seed(seed, attempted // step)
        attempted += 1
        try:
            samples.append(repeat(workload, inputs_seed, pins, traced))
        except Exception:  # a failed repeat is counted, and the run goes on
            errors.append(traceback.format_exc())
            print(errors[-1], file=sys.stderr)
        if attempted % step:
            continue
        now = time.perf_counter()
        if now + (now - block_start) > deadline:
            break
        block_start = now

    # repeats of one input, traced or not, must agree
    outputs_of: dict[int, dict] = {}
    for s in samples:
        if outputs_of.setdefault(s.seed, s.outputs) != s.outputs:
            s.failures.append("outputs differ between repeats of one input")
    failed = len(errors) + sum(1 for s in samples if s.failures)
    plain = [s for s in samples if not s.traced]
    spanned = [s for s in samples if s.traced]
    # (probed seconds, slowdown) of every untraced set-up
    setups = [(s.setup_s, s.slowdown) for s in plain]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(setup_only(workload, instance_seed(seed, len(setups))))

    values: dict[str, list[float]] = {}
    if not trace:
        values["run_s"] = [s.run_s / s.slowdown for s in plain]
        values["setup_s"] = [seconds / slowdown for seconds, slowdown in setups]
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values["peak_rss_mb"] = [rss_kib / 1024.0]
    else:
        for key in spanned[0].layers if spanned else ():
            values[key] = [s.layers[key] for s in spanned]
        for key in SERVE_TIMINGS:
            values[key] = [s.timings.get(key, 0.0) / s.slowdown for s in plain] or [0.0]
        if plain and spanned:
            # the two repeats of a pair run back to back on one input, so
            # they share the host's speed; traced ones are not probed
            values["trace.overhead"] = [
                statistics.median(t.run_s / u.run_s for u, t in zip(plain, spanned))
            ]
    host = {
        "slowdown": ("x", [s.slowdown for s in plain]),
        "raw_run_s": ("s", [s.run_s for s in plain]),
        "raw_setup_s": ("s", [seconds for seconds, _ in setups]),
    }
    declared = spec()["per_layer" if trace else "end_to_end"]
    metrics = {
        m["name"]: {"unit": m["unit"], **quartiles(values[m["name"]])}
        for m in declared
        if values.get(m["name"])
    }
    first = samples[0] if samples else None
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and len(metrics) == len(declared),
        "metrics": metrics,
        "host": {
            key: {"unit": unit, **quartiles(v)} for key, (unit, v) in host.items() if v
        },
        "outputs": first.outputs if first else {},
        "checks": first.checks if first else {},
        "failures": sorted({f for s in samples for f in s.failures}) + errors,
    }


def summary_line(report: dict, prefix: str = "") -> dict:
    """The contract's last-line summary of one or more reports."""
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            prefix + name: {"value": m["median"], "unit": m["unit"]}
            for name, m in report["metrics"].items()
        },
    }


def print_report(report: dict) -> None:
    """Every metric by name, with its unit and spread, then the checks."""
    print(
        f"== {report['workload']}  seed {report['seed']}  "
        f"trace {report['trace']}  {report['attempted']} repeat(s), "
        f"{report['failed']} failed"
    )
    rows = [*report["metrics"].items()]
    rows += [(f"host.{name}", m) for name, m in report["host"].items()]
    for name, m in rows:
        print(
            f"   {name:38s} {m['median']:.6g} {m['unit']}"
            f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})"
        )
    for name, value in report["checks"].items():
        print(f"   check {name} = {value}")
    for failure in report["failures"]:
        print(f"   FAILED {failure}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint() -> dict:
    """The host and code a report was measured on."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREADS},
        "commit": _git_commit(),
    }


def write_out(path: str | None, seed: int, trace: bool, reports: list[dict]) -> None:
    """Write the reports, with the host fingerprint, as one JSON file."""
    if path is None:
        return
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "fingerprint": fingerprint(),
        "seed": seed,
        "trace": int(trace),
        "workloads": {r["workload"]: r for r in reports},
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    reports = []
    for w in spec()["workloads"]:
        cmd = [
            sys.executable, __file__, "--workload", w["name"],
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        found = [ln for ln in lines if ln.startswith(REPORT_PREFIX)]
        if not found:
            print(f"{w['name']}: exited {proc.returncode} without a report")
            return 1
        print("\n".join(ln for ln in lines[:-1] if ln not in found))
        reports.append(json.loads(found[-1][len(REPORT_PREFIX):]))
    write_out(args.out, args.seed, bool(args.trace), reports)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for r in reports:
        line = summary_line(r, prefix=f"{r['workload']}.")
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"].update(line["metrics"])
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def write_pins() -> int:
    """Run every workload once at seed 0 and commit its outputs."""
    from workloads import WORKLOADS

    pins = {}
    for name, workload in WORKLOADS.items():
        sample = repeat(workload, 0, None, traced=False)
        pins[name] = sample.outputs
        if sample.failures:
            print(f"{name}: {sample.failures}", file=sys.stderr)
            return 1
        print(f"{name}: {json.dumps(sample.outputs)}")
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Command-line entry; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full report(s) here")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    for var in BLAS_THREADS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(1, str(src))
    try:
        if not (src / "repro").is_dir():
            raise ImportError(f"no sources under {src}")
        if args.seconds is None:
            args.seconds = float(spec()["run_seconds"])
        import workloads  # fails here when the sources are missing
    except (ImportError, OSError) as exc:
        print(f"cannot load the benchmark: {exc}", file=sys.stderr)
        return 2
    if args.write_pins:
        return write_pins()
    if args.workload is None:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    write_out(args.out, args.seed, bool(args.trace), [report])
    print_report(report)
    print(REPORT_PREFIX + json.dumps(report))
    print(json.dumps(summary_line(report)))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
