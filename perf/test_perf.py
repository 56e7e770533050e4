"""Unit tests of the benchmark's own machinery: ``python -m pytest perf -q``."""

from __future__ import annotations

import json
import signal
import time

import pytest

import hostspeed
import spans
from compare import judge
from run import ROOT, instance_seed, pin_failures, spec
from workloads import SERVE_TIMINGS, WORKLOADS, Steal

from repro.apps.workloads import SyntheticApplyWorkload
from repro.cluster.simulation import ClusterSimulation
from repro.dht.process_map import HashProcessMap


def scripted(*times: float):
    """A clock that returns ``times`` in order."""
    it = iter(times)
    return lambda: next(it)


class Base:
    def inherited(self):
        """Defined on the base class only."""
        return "base"


class Dummy(Base):
    def __init__(self, rec: spans.SpanRecorder):
        self.rec = rec

    def outer(self, depth: int) -> int:
        """Mutually recursive with :meth:`inner`."""
        return self.inner(depth)

    def inner(self, depth: int) -> int:
        """Mutually recursive with :meth:`outer`."""
        return self.outer(depth - 1) if depth else 0

    def boom(self):
        """Always raises."""
        raise ValueError("boom")

    def steps(self):
        """A generator method (must not be wrapped)."""
        yield 1


def test_self_time_nested_and_reentrant():
    """Self time is duration minus nested spans, also for a layer that
    re-enters itself."""
    rec = spans.SpanRecorder(clock=scripted(0, 1, 2, 4, 5, 10))
    a = rec.enter("a")
    b = rec.enter("b")
    a2 = rec.enter("a")  # re-entrant: a inside b inside a
    rec.exit(a2)  # 2..4
    rec.exit(b)  # 1..5, child 2
    rec.exit(a)  # 0..10, child 4
    assert rec.self_s == {"a": 2 + 6, "b": 2}
    assert rec.calls == {"a": 2, "b": 1}
    assert rec.covered_s() == 10


def test_spans_close_on_exception_and_out_of_order_exit_is_refused():
    """A raising callable still closes its span and charges its parent."""
    rec = spans.SpanRecorder(clock=scripted(0, 1, 3, 7))
    patches = spans.install(rec, [spans.Probe(Dummy, "boom", "x")])
    try:
        outer = rec.enter("outer")
        with pytest.raises(ValueError):
            Dummy(rec).boom()  # 1..3
        rec.exit(outer)  # 0..7
    finally:
        spans.uninstall(patches)
    assert rec.self_s == {"outer": 5, "x": 2}
    assert rec.calls == {"outer": 1, "x": 1}

    rec = spans.SpanRecorder()
    first = rec.enter("a")
    rec.enter("b")
    with pytest.raises(RuntimeError):
        rec.exit(first)


def test_wrapped_recursion_attributes_every_span():
    """Wrapped mutual recursion counts every call and leaves no frame open."""
    rec = spans.SpanRecorder()
    probes = [spans.Probe(Dummy, "outer", "o"), spans.Probe(Dummy, "inner", "i")]
    patches = spans.install(rec, probes)
    try:
        assert Dummy(rec).outer(3) == 0
    finally:
        spans.uninstall(patches)
    assert rec.calls == {"o": 4, "i": 4}
    assert rec._stack == []


def test_uninstall_restores_every_attribute_by_identity():
    """Every real probe is patched, then put back as the same object; an
    inherited attribute is removed again."""
    targets = spans.probes() + [spans.Probe(Dummy, "inherited", "x")]
    before = {(id(p.owner), p.name): vars(p.owner).get(p.name) for p in targets}
    patches = spans.install(spans.SpanRecorder(), targets)
    for p in targets:
        assert vars(p.owner)[p.name] is not before[(id(p.owner), p.name)]
    spans.uninstall(patches)
    for p in targets:
        assert vars(p.owner).get(p.name) is before[(id(p.owner), p.name)], p
    assert "inherited" not in vars(Dummy)
    assert {p.layer for p in spans.probes()} == set(spans.LAYERS)


def test_generator_functions_are_refused_and_nothing_stays_patched():
    """A generator target aborts the install and rolls back earlier patches."""
    original = vars(Dummy)["outer"]
    probes = [spans.Probe(Dummy, "outer", "o"), spans.Probe(Dummy, "steps", "s")]
    with pytest.raises(TypeError):
        spans.install(spans.SpanRecorder(), probes)
    assert vars(Dummy)["outer"] is original


def test_traced_cluster_run_matches_untraced_and_adds_up():
    """Tracing leaves the simulated result unchanged, and the layers'
    self times cover the traced window."""
    workload = SyntheticApplyWorkload(dim=3, k=4, rank=10, n_tasks=300, seed=3)

    def run():
        sim = ClusterSimulation(4, HashProcessMap(4), mode="hybrid")
        return sim.run(workload.tasks)

    plain = run()
    rec = spans.SpanRecorder()
    patches = spans.install(rec, spans.probes())
    try:
        start = rec.clock()
        traced = run()
        window = rec.clock() - start
    finally:
        spans.uninstall(patches)
    assert traced.makespan_seconds == plain.makespan_seconds  # repro: noqa[FLT001] - tracing must not perturb the simulation
    assert 0 <= window - rec.covered_s() < 0.05 * window
    metrics = spans.layer_metrics(rec)
    for layer in ("cluster", "runtime.node", "runtime.events", "dht"):
        assert metrics[f"{layer}.calls"] > 0, layer
    assert metrics["runtime.node.batches"] == sum(
        r.timeline.n_batches for r in plain.node_results
    )


def test_compare_rule():
    """The pairwise rule on synthetic samples."""
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    faster = [v * 0.8 for v in parent]
    assert judge(parent, faster, "lower", 0.1).verdict == "improved"
    # nine of ten pairs won is enough, eight is not
    nine = faster[:9] + [parent[9] + 1]
    assert judge(parent, nine, "lower", 0.1).verdict == "improved"
    eight = faster[:8] + [p + 1 for p in parent[8:]]
    assert judge(parent, eight, "lower", 0.1).verdict != "improved"
    # fewer than ten pairs never claim a gain
    assert judge(parent[:5], faster[:5], "lower", 0.1).verdict == "unchanged"
    slower = [v * 1.2 for v in parent]
    assert judge(parent, slower, "lower", 0.1).verdict == "regressed"
    assert judge(parent, [v * 1.02 for v in parent], "lower", 0.1).verdict == "unchanged"
    noisy = [5.0, 15.0] * 5
    assert judge(parent, noisy, "lower", 0.1).verdict == "unresolved"
    # direction: for a higher-is-better metric a rise is the gain
    assert judge(parent, slower, "higher", 0.1).verdict == "improved"
    assert judge(parent, faster, "lower", 0.1).wins == 10


def test_pin_comparison():
    """Pinned outputs compare exactly unless a tolerance names them."""
    want = {"a": {"x": 1.0, "n": 3}, "norm2": 2.0}
    assert pin_failures({"a": {"x": 1.0, "n": 3}, "norm2": 2.0 + 1e-12}, want,
                        {"norm2": 1e-10}) == []
    failures = pin_failures({"a": {"x": 1.5}, "norm2": 2.1}, want, {"norm2": 1e-10})
    assert len(failures) == 3


def test_every_repeat_of_a_seeded_run_gets_its_own_inputs():
    """Seed 0 always rebuilds the canonical instance; other seeds give
    every repeat distinct inputs, none of them the canonical one."""
    assert {instance_seed(0, i) for i in range(10)} == {0}
    seeds = [instance_seed(s, i) for s in range(1, 4) for i in range(100)]
    assert len(set(seeds)) == len(seeds)
    assert 0 not in seeds


def test_coulomb_seeds_are_images_of_one_charge_position():
    """Every seed moves the charge to a mirror/permutation image."""
    coulomb = WORKLOADS["coulomb-apply"]
    canonical = coulomb.charge_centre(0)
    assert canonical == pytest.approx(coulomb.centre)
    offsets = sorted(abs(c - 0.5) for c in canonical)
    images = {coulomb.charge_centre(seed) for seed in range(1, 30)}
    assert len(images) > 5
    for centre in images:
        assert sorted(abs(c - 0.5) for c in centre) == pytest.approx(offsets)


def test_host_speed_slowdown_and_probe_time():
    """The slowdown is the median probe over the nominal one, and probe
    time is split between steps by when each probe began."""
    speed = hostspeed.HostSpeed()
    nominal = hostspeed.NOMINAL_S
    speed.readings = [(0.5, nominal), (1.5, 1.5 * nominal), (2.5, 3 * nominal)]
    assert speed.slowdown() == pytest.approx(1.5)
    assert speed.probe_time(0.0, 1.5) == pytest.approx(nominal)
    assert speed.probe_time(1.5, 3.0) == pytest.approx(4.5 * nominal)


def test_host_speed_sampling_probes_and_restores_the_signal():
    """Sampling probes a busy block, then disarms the timer and puts the
    previous handler back; a block too short to probe falls back to
    direct probes."""
    before = signal.getsignal(signal.SIGALRM)
    speed = hostspeed.HostSpeed()
    with speed.sampling():
        end = time.perf_counter() + 5 * hostspeed.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(speed.readings) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    idle = hostspeed.HostSpeed()
    assert idle.slowdown() > 0
    assert len(idle.readings) == hostspeed.FALLBACK_PROBES


def test_steal_at_5000_ranks_reproduces_bench_cluster():
    """The stealing workload at 5000 ranks is ``BENCH_cluster.json``'s
    scenario: seed 0 gives its pinned block (read, never written)."""
    bench = json.loads((ROOT / "BENCH_cluster.json").read_text())
    steal = Steal(ranks=5000)
    inputs = steal.build(0)
    result = steal.run(inputs)
    assert steal.outputs(result) == bench["pinned"]
    assert steal.invariants(inputs, result)[1] == []


def test_benchmark_json_matches_the_code():
    """BENCHMARK.json names exactly the workloads and metrics the code reports."""
    doc = spec()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    layer_names = set(spans.layer_metrics(spans.SpanRecorder()))
    layer_names |= set(SERVE_TIMINGS) | {"trace.overhead", "trace.unattributed_s"}
    assert {m["name"] for m in doc["per_layer"]} == layer_names
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    assert set(e2e) == {"run_s", "setup_s", "peak_rss_mb"}
    assert max(m["bound"] for m in e2e.values()) == e2e["setup_s"]["bound"] <= 0.25
