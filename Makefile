PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint lint-tests races ruff mypy test coverage golden trace-check steal-smoke serve-smoke chaos-sched-smoke chaos-smoke des-smoke des-equivalence perf-pins perf-tests examples experiments-smoke

## check: what the blocking CI `check` job runs — in-tree analyzer (library
## and tests), race gate, ruff, mypy, tier-1 tests, serve-smoke, perf-pins,
## perf-tests, examples and experiments-smoke; the coverage floor and the
## export `cmp` stay CI-only
check: lint lint-tests races ruff mypy test serve-smoke perf-pins perf-tests examples experiments-smoke

## lint: the project's own determinism/resource-safety analyzer (hard
## gate), full rule set over the library, benchmarks, and examples
lint:
	$(PYTHON) -m repro.lint src/repro benchmarks examples

## lint-tests: determinism / float-time hygiene over the test suites
## (tests may opt out per line with a justified `# repro: noqa[FLT001]`)
lint-tests:
	$(PYTHON) -m repro.lint tests benchmarks --select DET001,DET002,FLT001

## races: dynamic race detector + schedule-invariance smoke over the
## canonical scenarios (10 replay reorderings + 2 live adversarial
## schedules each; see docs/RACES.md)
races:
	$(PYTHON) -m repro.lint races --perturb 10 --live 2

## ruff / mypy: optional external baselines — skipped when not installed
ruff:
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; \
	then ruff check src tests; \
	else echo "ruff not installed; skipping (pip install .[lint])"; fi

mypy:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; \
	then $(PYTHON) -m mypy; \
	else echo "mypy not installed; skipping (pip install .[lint])"; fi

## test: tier-1 suite
test:
	$(PYTHON) -m pytest -x -q

## coverage: tier-1 suite under pytest-cov, gated on the in-repo ratchet
## floor (.coverage-floor).  Raise the floor when coverage rises; CI
## blocks on it.  Skipped when pytest-cov is not installed.
coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; \
	then $(PYTHON) -m pytest -x -q --cov=repro \
	    --cov-report=term --cov-fail-under="$$(cat .coverage-floor)"; \
	else echo "pytest-cov not installed; skipping (pip install .[test])"; fi

## golden: regenerate the golden trace fixtures (review the diff!)
golden:
	$(PYTHON) -m pytest tests/obs/test_golden_traces.py -q --update-golden

## steal-smoke: reduced-scale stealing-vs-static benchmark (the full
## sweep runs 5000 simulated ranks; scale 0.1 stops at 500)
steal-smoke:
	REPRO_BENCH_SCALE=0.1 $(PYTHON) -m pytest benchmarks/test_stealing.py -q

## serve-smoke: reduced-scale serving ablation + the pinned
## BENCH_serve.json baseline (the p99/goodput win must hold at 0.1)
serve-smoke:
	REPRO_BENCH_SCALE=0.1 $(PYTHON) -m pytest benchmarks/test_serve.py -q

## chaos-sched-smoke: composed-mode chaos — stealing+recovery must beat
## static+recovery at every crash rate and serving must lose zero jobs
## under rank kills; also pins the BENCH_chaos.json baseline
chaos-sched-smoke:
	REPRO_BENCH_SCALE=0.1 $(PYTHON) -m pytest benchmarks/test_chaos_sched.py -q

## chaos-smoke: what the blocking CI `chaos-smoke` job runs — the
## fault-injection and checkpoint-interval ablations at reduced scale
## (every run trace-checked for effectively-exactly-once accumulation)
## plus chaos-sched-smoke
chaos-smoke:
	$(PYTHON) -m repro.experiments ablation-chaos --scale 0.2
	$(PYTHON) -m repro.experiments ablation-checkpoint --scale 0.2
	$(MAKE) chaos-sched-smoke

## des-equivalence: the differential DES-core harness — every canonical
## scenario plus 250 random event programs (with and without
## perturbation seeds) must match a sorted-list reference core exactly
## (blocking in CI)
des-equivalence:
	$(PYTHON) -m pytest tests/runtime/test_des_equivalence.py \
	    tests/runtime/test_des_tiebreak.py -q

## des-smoke: the 5000-rank stealing scenario (run at any scale) must
## reproduce BENCH_cluster.json's pinned block exactly; rewrite that
## block with REPRO_BENCH_WRITE=1 (blocking in CI)
des-smoke:
	$(PYTHON) -m pytest benchmarks/test_des_core.py -q

## perf-pins: one short timed pass of each perf/ workload at seed 0;
## exits non-zero when an output drifts from perf/pins.json or an
## invariant fails (blocking in CI)
perf-pins:
	$(PYTHON) perf/run.py --seed 0 --seconds 1 --trace 0

## perf-tests: the benchmark harness's own tests — span probes resolve
## and restore, the compare rule, pins, the host-speed probe (tier-1
## collects only tests/, so nothing else runs them; blocking in CI)
perf-tests:
	$(PYTHON) -m pytest perf -q

## examples: run every script in examples/; fails on the first non-zero
## exit (blocking in CI)
examples:
	@for f in examples/*.py; do \
	    echo "== $$f"; \
	    $(PYTHON) $$f || exit 1; \
	done

## experiments-smoke: every runner of `python -m repro.experiments` at a
## tiny scale, so a runner broken by an API change fails a blocking gate
## (the runners assert their own shape claims; blocking in CI)
experiments-smoke:
	$(PYTHON) -m repro.experiments all --scale 0.02

## trace-check: just the dynamic happens-before tests
trace-check:
	$(PYTHON) -m pytest -q tests/lint/test_trace_check.py \
	    tests/integration/test_trace_consistency.py
