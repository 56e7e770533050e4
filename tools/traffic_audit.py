"""Traffic audit: list the ``src/repro`` functions that no program runs.

Runs every entry point of the repository in one interpreter under one
line tracer limited to ``src/repro``:

- ``python -m repro.experiments all --scale 0.02``;
- every ``examples/*.py``;
- the canonical scenarios of ``repro.obs.scenarios.SCENARIOS``;
- each ``perf/workloads.py`` workload at seed 0: ``build``, ``run``,
  and the ``outputs`` and ``invariants`` that ``perf/run.py`` reads;
- the ``repro.obs`` CLI's ``record``, ``export``, ``critical-path`` and
  ``summary`` on every canonical scenario;
- the ``repro.lint`` CLI as ``make lint`` runs it, in text, JSON and
  SARIF format, as ``make lint-tests`` runs it, and
  ``races --perturb 2 --live 1``.

Then it prints every function defined in ``src/repro/**/*.py`` whose
body (the docstring excluded) ran no line, with its line count, and the
totals.  A function on the list is dead, an oracle only tests call, or a
branch that only larger runs or failures reach; read it before deleting
it.

Run it in a clean copy of the tree, so that no byte code lands in the
working tree::

    git archive HEAD | tar -x -C <dir>
    cd <dir> && PYTHONDONTWRITEBYTECODE=1 python tools/traffic_audit.py

It takes about 5 minutes on two vCPUs; the examples are half of it.
"""

from __future__ import annotations

import ast
import contextlib
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def line_tracer(hits: set[tuple[str, int]]):
    """A ``sys.settrace`` hook recording the ``(file, line)`` pairs that
    function frames under ``src/repro`` run (module bodies are skipped,
    so a one-line ``def`` does not count as run when it is defined)."""
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, _arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, _event, _arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix) and code.co_name != "<module>":
            return local
        return None

    return hook


def run_entry_points(scratch: Path) -> None:
    """Every program of the repository, output discarded."""
    from repro.lint.cli import main as lint_main
    from repro.obs.cli import main as obs_main
    from repro.obs.scenarios import SCENARIOS
    from workloads import WORKLOADS

    sys.argv = ["repro.experiments", "all", "--scale", "0.02"]
    with contextlib.suppress(SystemExit):
        runpy.run_module("repro.experiments", run_name="__main__")
    for example in sorted((ROOT / "examples").glob("*.py")):
        sys.argv = [str(example)]
        with contextlib.suppress(SystemExit):
            runpy.run_path(str(example), run_name="__main__")
    for runner in SCENARIOS.values():
        runner()
    for workload in WORKLOADS.values():
        inputs = workload.build(0)
        result = workload.run(inputs)
        workload.outputs(result)
        workload.invariants(inputs, result)
    for name in SCENARIOS:
        dump = str(scratch / f"{name}.json")
        obs_main(["record", name, "-o", dump])
        obs_main(["export", dump, "-o", str(scratch / f"{name}.trace.json")])
        obs_main(["critical-path", dump])
        obs_main(["summary", dump])
    paths = [str(PACKAGE), str(ROOT / "benchmarks"), str(ROOT / "examples")]
    for fmt in ("text", "json", "sarif"):
        lint_main([*paths, "--format", fmt])
    tests = [str(ROOT / "tests"), str(ROOT / "benchmarks")]
    lint_main([*tests, "--select", "DET001,DET002,FLT001"])
    lint_main(["races", "--perturb", "2", "--live", "1"])


def functions(tree: ast.Module):
    """``(qualified name, node)`` of every function in a module."""
    todo = [("", tree)]
    while todo:
        scope, node = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    yield name, child
                todo.append((name + ".", child))
            else:
                todo.append((scope, child))


def body_lines(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[int]:
    """The lines of a function's statements, its docstring excluded."""
    body = func.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    return {n for stmt in body for n in range(stmt.lineno, stmt.end_lineno + 1)}


def unrun(hits: set[tuple[str, int]]) -> list[tuple[str, int, str, int]]:
    """``(path, line, name, line count)`` of every function whose body ran
    no line, in file and line order."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        filename = str(path)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename)
        for name, func in functions(tree):
            lines = body_lines(func)
            if lines and not any((filename, n) in hits for n in lines):
                size = func.end_lineno - func.lineno + 1
                out.append((str(path.relative_to(ROOT)), func.lineno, name, size))
    return sorted(out)


def main() -> int:
    """Run the entry points traced and print the functions none ran."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perf")]
    os.chdir(ROOT)
    hits: set[tuple[str, int]] = set()
    hook = line_tracer(hits)
    argv_before = sys.argv
    with tempfile.TemporaryDirectory() as scratch, open(os.devnull, "w") as sink:
        threading.settrace(hook)
        sys.settrace(hook)
        try:
            with contextlib.redirect_stdout(sink):
                run_entry_points(Path(scratch))
        finally:
            sys.settrace(None)
            threading.settrace(None)
            sys.argv = argv_before
    found = unrun(hits)
    for path, line, name, size in found:
        print(f"{path}:{line}: {name} ({size} lines)")
    print(f"{len(found)} functions ({sum(f[3] for f in found)} lines) ran no line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
