"""Per-rule fixture tests: each rule fires on a violating snippet, stays
quiet on compliant code, and respects ``# repro: noqa[RULE]``."""

from __future__ import annotations

import textwrap

import pytest

from repro.lint.core import LintConfig, lint_paths


def lint_snippet(tmp_path, relpath, source, select=None):
    """Write ``source`` at ``relpath`` under tmp_path and lint it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    config = LintConfig(select=frozenset(select) if select else None)
    return lint_paths([tmp_path], config)


def rule_ids(findings):
    """The set of rule ids present in ``findings``."""
    return {f.rule for f in findings}


# -- DET001: wall-clock calls ------------------------------------------------------


class TestWallClock:
    def test_time_time_in_runtime_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/clock.py",
            """
            import time

            def stamp():
                return time.time()
            """,
            select={"DET001"},
        )
        assert rule_ids(findings) == {"DET001"}
        assert "time.time" in findings[0].message

    def test_from_import_and_datetime_fire(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "cluster/clock.py",
            """
            from time import monotonic
            from datetime import datetime

            def stamp():
                return monotonic(), datetime.now()
            """,
            select={"DET001"},
        )
        assert len(findings) == 2

    def test_outside_scope_is_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "experiments/wall.py",
            """
            import time

            def stamp():
                return time.time()
            """,
            select={"DET001"},
        )
        assert findings == []

    def test_env_now_is_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/ok.py",
            """
            def stamp(env):
                return env.now
            """,
            select={"DET001"},
        )
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/clock.py",
            """
            import time

            def stamp():
                return time.time()  # repro: noqa[DET001]
            """,
            select={"DET001"},
        )
        assert findings == []


# -- DET002: global / unseeded RNG -------------------------------------------------


class TestGlobalRng:
    def test_module_level_random_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "dht/jitter.py",
            """
            import random

            def jitter():
                return random.random()
            """,
            select={"DET002"},
        )
        assert rule_ids(findings) == {"DET002"}

    def test_numpy_random_module_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/noise.py",
            """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
            """,
            select={"DET002"},
        )
        assert rule_ids(findings) == {"DET002"}

    def test_unseeded_constructors_fire(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/rng.py",
            """
            import random
            import numpy as np

            def make():
                return random.Random(), np.random.default_rng()
            """,
            select={"DET002"},
        )
        assert len(findings) == 2
        assert all("seed" in f.message for f in findings)

    def test_seeded_generators_are_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/rng.py",
            """
            import random
            import numpy as np

            def make(seed):
                return random.Random(seed), np.random.default_rng(seed)
            """,
            select={"DET002"},
        )
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "dht/jitter.py",
            """
            import random

            def jitter():
                return random.random()  # repro: noqa[DET002]
            """,
            select={"DET002"},
        )
        assert findings == []


# -- FLT001: float-time equality ---------------------------------------------------


class TestFloatTimeEquality:
    def test_time_name_equality_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/flush.py",
            """
            def due(deadline, now):
                return deadline == now
            """,
            select={"FLT001"},
        )
        assert rule_ids(findings) == {"FLT001"}

    def test_attribute_time_inequality_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "analysis/span.py",
            """
            def moved(ev):
                return ev.start != ev.end
            """,
            select={"FLT001"},
        )
        assert len(findings) == 1

    def test_float_literal_equality_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/check.py",
            """
            def is_origin(x):
                return x == 0.0
            """,
            select={"FLT001"},
        )
        assert len(findings) == 1

    def test_ordering_comparisons_are_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/flush.py",
            """
            def due(deadline, now):
                return now >= deadline

            def count_ok(n_items):
                return n_items == 0
            """,
            select={"FLT001"},
        )
        assert findings == []

    def test_outside_scope_is_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "mra/geometry.py",
            """
            def same_instant(start, end):
                return start == end
            """,
            select={"FLT001"},
        )
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/flush.py",
            """
            def due(deadline, now):
                return deadline == now  # repro: noqa[FLT001]
            """,
            select={"FLT001"},
        )
        assert findings == []

    def test_approx_comparison_is_quiet(self, tmp_path):
        # == against pytest.approx() IS the sanctioned tolerance idiom
        findings = lint_snippet(
            tmp_path,
            "runtime/timing.py",
            """
            import pytest
            from pytest import approx

            def check(makespan, elapsed):
                assert makespan == pytest.approx(1.5)
                assert approx(2.5) == elapsed
            """,
            select={"FLT001"},
        )
        assert findings == []


# -- RES001: bare / swallowing except ----------------------------------------------


class TestBareExcept:
    def test_bare_except_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "kernels/risky.py",
            """
            def run(fn):
                try:
                    fn()
                except:
                    pass
            """,
            select={"RES001"},
        )
        assert rule_ids(findings) == {"RES001"}

    def test_swallowing_broad_except_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "kernels/risky.py",
            """
            def run(fn):
                try:
                    fn()
                except Exception:
                    pass
            """,
            select={"RES001"},
        )
        assert len(findings) == 1

    def test_handled_broad_except_is_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "kernels/risky.py",
            """
            def run(fn, log):
                try:
                    fn()
                except Exception as err:
                    log.append(err)
                    raise
            """,
            select={"RES001"},
        )
        assert findings == []

    def test_specific_except_is_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "kernels/risky.py",
            """
            def run(fn):
                try:
                    return fn()
                except KeyError:
                    return None
            """,
            select={"RES001"},
        )
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "kernels/risky.py",
            """
            def run(fn):
                try:
                    fn()
                except:  # repro: noqa[RES001]
                    pass
            """,
            select={"RES001"},
        )
        assert findings == []


# -- RES002: swallowed guard errors ------------------------------------------------


class TestSwallowedGuardError:
    def test_swallowed_hardware_error_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/push.py",
            """
            from repro.errors import HardwareModelError

            def push(cache, keys, nbytes):
                try:
                    cache.begin_transfer(keys, nbytes)
                except HardwareModelError:
                    pass
            """,
            select={"RES002"},
        )
        assert rule_ids(findings) == {"RES002"}
        assert "HardwareModelError" in findings[0].message

    def test_swallowed_tuple_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/push2.py",
            """
            from repro.errors import HardwareModelError, RuntimeConfigError

            def push(fns):
                for fn in fns:
                    try:
                        fn()
                    except (HardwareModelError, RuntimeConfigError):
                        continue
            """,
            select={"RES002"},
        )
        assert len(findings) == 1

    def test_handled_guard_error_is_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/push.py",
            """
            from repro.errors import HardwareModelError

            def push(cache, keys, nbytes, fallback):
                try:
                    return cache.begin_transfer(keys, nbytes)
                except HardwareModelError:
                    return fallback(keys)
            """,
            select={"RES002"},
        )
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/push.py",
            """
            from repro.errors import HardwareModelError

            def push(fn):
                try:
                    fn()
                except HardwareModelError:  # repro: noqa[RES002]
                    pass
            """,
            select={"RES002"},
        )
        assert findings == []


# -- RES003: cache-state bypass ----------------------------------------------------


class TestCacheBypass:
    def test_attribute_write_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/hack.py",
            """
            def evict_all(cache):
                cache.resident_bytes = 0
            """,
            select={"RES003"},
        )
        assert rule_ids(findings) == {"RES003"}

    def test_set_mutation_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/hack.py",
            """
            def sneak(cache, key):
                cache._resident.add(key)
            """,
            select={"RES003"},
        )
        assert len(findings) == 1

    def test_augmented_write_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/hack.py",
            """
            def grow(cache, n):
                cache.resident_bytes += n
            """,
            select={"RES003"},
        )
        assert len(findings) == 1

    def test_gpu_cache_module_is_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "kernels/gpu_cache.py",
            """
            class GpuBlockCache:
                def __init__(self):
                    self.resident_bytes = 0
                    self._resident = set()

                def insert(self, key):
                    self._resident.add(key)
            """,
            select={"RES003"},
        )
        assert findings == []

    def test_api_use_is_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/ok.py",
            """
            def ship(cache, keys, nbytes):
                return cache.begin_transfer(keys, nbytes)
            """,
            select={"RES003"},
        )
        assert findings == []


# -- API001: mutable defaults ------------------------------------------------------


class TestMutableDefault:
    def test_list_default_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere/api.py",
            """
            def collect(items=[]):
                return items
            """,
            select={"API001"},
        )
        assert rule_ids(findings) == {"API001"}

    def test_dict_call_and_kwonly_fire(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere/api.py",
            """
            def configure(opts=dict(), *, cache={}):
                return opts, cache
            """,
            select={"API001"},
        )
        assert len(findings) == 2

    def test_none_default_is_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere/api.py",
            """
            def collect(items=None, scale=1.0, name="x"):
                return items or []
            """,
            select={"API001"},
        )
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere/api.py",
            """
            def collect(items=[]):  # repro: noqa[API001]
                return items
            """,
            select={"API001"},
        )
        assert findings == []


# -- API002: missing future annotations --------------------------------------------


class TestFutureAnnotations:
    def test_annotated_module_without_import_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere/mod.py",
            """
            def scale(x: float) -> float:
                return 2 * x
            """,
            select={"API002"},
        )
        assert rule_ids(findings) == {"API002"}

    def test_with_import_is_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere/mod.py",
            """
            from __future__ import annotations

            def scale(x: float) -> float:
                return 2 * x
            """,
            select={"API002"},
        )
        assert findings == []

    def test_unannotated_module_is_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere/mod.py",
            """
            VERSION = "1.0"

            def scale(x):
                return 2 * x
            """,
            select={"API002"},
        )
        assert findings == []


# -- API003: public docstrings -----------------------------------------------------


class TestPublicDocstring:
    def test_missing_docstring_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere/mod.py",
            """
            def visible():
                return 1
            """,
            select={"API003"},
        )
        assert rule_ids(findings) == {"API003"}
        assert "visible" in findings[0].message

    def test_method_of_public_class_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere/mod.py",
            '''
            class Runtime:
                """A documented class."""

                def execute(self):
                    return 1
            ''',
            select={"API003"},
        )
        assert len(findings) == 1

    def test_private_nested_and_documented_are_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere/mod.py",
            '''
            def _helper():
                return 1

            def visible():
                """Documented."""
                def closure():
                    return 2
                return closure

            class _Internal:
                def anything(self):
                    return 3
            ''',
            select={"API003"},
        )
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere/mod.py",
            """
            def visible():  # repro: noqa[API003]
                return 1
            """,
            select={"API003"},
        )
        assert findings == []


# -- engine behaviour --------------------------------------------------------------


class TestEngine:
    def test_bare_noqa_suppresses_everything(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/multi.py",
            """
            import time

            def stamp(now):
                \"\"\"Docstring keeps API003 quiet; noqa covers the rest.\"\"\"
                return time.time() == now  # repro: noqa
            """,
        )
        assert findings == []

    def test_noqa_on_other_line_does_not_suppress(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/multi.py",
            """
            import time  # repro: noqa[DET001]

            def stamp():
                return time.time()
            """,
            select={"DET001"},
        )
        assert len(findings) == 1

    def test_unknown_rule_selection_raises(self, tmp_path):
        from repro.lint.core import LintUsageError

        with pytest.raises(LintUsageError):
            lint_snippet(tmp_path, "a/b.py", "x = 1\n", select={"NOPE999"})

    def test_syntax_error_reported_as_parse_finding(self, tmp_path):
        findings = lint_snippet(tmp_path, "a/broken.py", "def broken(:\n")
        assert [f.rule for f in findings] == ["PARSE"]

    def test_findings_are_sorted_and_rendered(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/two.py",
            """
            import time

            def b():
                return time.time()

            def a():
                return time.time()
            """,
            select={"DET001"},
        )
        assert [f.line for f in findings] == sorted(f.line for f in findings)
        rendered = findings[0].render()
        assert "DET001" in rendered and rendered.count(":") >= 3


# -- RES004: unbounded retry loops -------------------------------------------------


class TestUnboundedRetry:
    def test_except_continue_without_counter_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/retry.py",
            """
            def run_forever(dispatch, batch):
                while True:
                    try:
                        return dispatch(batch)
                    except RuntimeError:
                        continue
            """,
            select={"RES004"},
        )
        assert rule_ids(findings) == {"RES004"}
        assert "attempt counter" in findings[0].message

    def test_attempt_counter_is_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/retry.py",
            """
            def run_bounded(dispatch, batch, budget):
                attempt = 0
                while True:
                    try:
                        return dispatch(batch)
                    except RuntimeError:
                        attempt += 1
                        if attempt >= budget:
                            raise
                        continue
            """,
            select={"RES004"},
        )
        assert findings == []

    def test_reraising_handler_is_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/retry.py",
            """
            def run_once_then_fail(dispatch, batch, retriable):
                while True:
                    try:
                        return dispatch(batch)
                    except RuntimeError as e:
                        if not retriable(e):
                            raise
                        continue
            """,
            select={"RES004"},
        )
        assert findings == []

    def test_breaking_handler_is_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/retry.py",
            """
            def run(dispatch, batches):
                done = []
                while True:
                    try:
                        done.append(dispatch(batches))
                    except RuntimeError:
                        break
                return done
            """,
            select={"RES004"},
        )
        assert findings == []

    def test_bounded_condition_loop_is_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/retry.py",
            """
            def run(dispatch, batch, attempt=0):
                while attempt < 3:
                    try:
                        return dispatch(batch)
                    except RuntimeError:
                        attempt = attempt + 1
                        continue
            """,
            select={"RES004"},
        )
        assert findings == []

    def test_nested_loop_continue_not_attributed_to_outer(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/retry.py",
            """
            def drain(queues, pop):
                while True:
                    for q in queues:
                        try:
                            pop(q)
                        except KeyError:
                            continue
                    if not any(queues):
                        return
            """,
            select={"RES004"},
        )
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/retry.py",
            """
            def spin(poll):
                while True:
                    try:
                        return poll()
                    except TimeoutError:  # repro: noqa[RES004]
                        continue
            """,
            select={"RES004"},
        )
        assert findings == []


# -- RES005: aliased snapshot state ------------------------------------------------


class TestAliasedSnapshotState:
    def test_bare_name_state_kwarg_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "recovery/ckpt.py",
            """
            def snap(Checkpoint, acc):
                return Checkpoint(seq=0, results=acc)
            """,
            select={"RES005"},
        )
        assert rule_ids(findings) == {"RES005"}
        assert "aliases mutable state" in findings[0].message

    def test_attribute_and_subscript_fire(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "recovery/ckpt.py",
            """
            def snap(Checkpoint, self, table):
                a = Checkpoint(items=self.pending)
                b = Checkpoint(state=table["rank0"])
                return a, b
            """,
            select={"RES005"},
        )
        assert len(findings) == 2
        assert rule_ids(findings) == {"RES005"}

    def test_snapshot_suffix_class_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "recovery/ckpt.py",
            """
            def snap(RankSnapshot, live):
                return RankSnapshot(payload=live)
            """,
            select={"RES005"},
        )
        assert rule_ids(findings) == {"RES005"}

    def test_copied_state_is_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "recovery/ckpt.py",
            """
            import copy

            def snap(Checkpoint, acc, pending):
                return Checkpoint(
                    seq=0,
                    results=copy.deepcopy(acc),
                    items=tuple(pending),
                    item_ids=[id(i) for i in pending],
                    state={},
                )
            """,
            select={"RES005"},
        )
        assert findings == []

    def test_non_state_kwargs_and_other_ctors_quiet(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "recovery/ckpt.py",
            """
            def snap(Checkpoint, Batch, rank, acc):
                a = Checkpoint(rank=rank, seq=0, parent=-1)
                b = Batch(results=acc)
                return a, b
            """,
            select={"RES005"},
        )
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "recovery/ckpt.py",
            """
            def snap(Checkpoint, acc):
                return Checkpoint(results=acc)  # repro: noqa[RES005]
            """,
            select={"RES005"},
        )
        assert findings == []
