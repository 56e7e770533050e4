PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint lint-tests races ruff mypy test coverage golden trace-check steal-smoke serve-smoke table6-smoke chaos-sched-smoke chaos-smoke des-smoke des-equivalence perf-pins perf-tests perf-pairs same-outputs same-work examples experiments-smoke gc-audit

## check: the blocking CI gates — what CI's `check` job runs (in-tree
## analyzer on library and tests, race gate, ruff, mypy, tier-1 tests,
## steal-smoke, serve-smoke, table6-smoke, des-equivalence, perf-pins,
## perf-tests, examples and experiments-smoke) plus CI's separate
## `des-smoke` job, which pins BENCH_cluster.json, and `chaos-smoke` job,
## which pins BENCH_chaos.json's serving block; the coverage floor and the
## export `cmp` stay CI-only
check: lint lint-tests races ruff mypy test steal-smoke serve-smoke table6-smoke des-equivalence des-smoke chaos-smoke perf-pins perf-tests examples experiments-smoke

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
## sweep runs 5000 simulated ranks; scale 0.1 stops at 500, the rank
## count the stealing claim is made at; blocking in CI)
steal-smoke:
	REPRO_BENCH_SCALE=0.1 $(PYTHON) -m pytest benchmarks/test_stealing.py -q

## serve-smoke: reduced-scale serving ablation + the pinned
## BENCH_serve.json baseline (the p99/goodput win must hold at 0.1)
serve-smoke:
	REPRO_BENCH_SCALE=0.1 $(PYTHON) -m pytest benchmarks/test_serve.py -q

## table6-smoke: Table VI's winner and factor claims (hybrid over CPU-only
## at 300-500 nodes, GPU over CPU at 500, sub-linear scaling) asserted at
## reduced scale; they hold at 0.02, 0.05 and 0.1 (blocking in CI)
table6-smoke:
	REPRO_BENCH_SCALE=0.05 $(PYTHON) -m pytest benchmarks/test_table6.py -q

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

## perf-pairs: judge a change against its parent on the benchmark:
##   make perf-pairs PARENT=<parent checkout> [W=<workload>] [PAIRS=10] [SEED=<base>]
## runs PAIRS alternating pairs of `perf/run.py` (odd pairs run the parent
## first, even pairs the change); pair i runs seed SEED+i on both sides
## and writes one --out report per run under PAIRS_DIR.  Stops on the
## first failed run, then prints `perf/compare.py`'s verdict.  W unset
## runs all four workloads.
PAIRS ?= 10
SEED ?= 1000
PAIRS_DIR := /tmp/perf-pairs
perf-pairs:
	@test -n "$(PARENT)" || { echo "usage: make perf-pairs PARENT=<parent checkout> [W=<workload>] [PAIRS=10] [SEED=<base>]"; exit 2; }
	@rm -rf $(PAIRS_DIR) && mkdir -p $(PAIRS_DIR)
	@for i in $$(seq 1 $(PAIRS)); do \
	    if [ $$((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi; \
	    for side in $$order; do \
	        if [ $$side = parent ]; then dir="$(PARENT)"; else dir="$(CURDIR)"; fi; \
	        out=$(PAIRS_DIR)/$$side-$$i; \
	        echo "== pair $$i/$(PAIRS), seed $$(($(SEED) + i)): $$side"; \
	        (cd "$$dir" && $(PYTHON) perf/run.py $(if $(W),--workload $(W)) \
	            --seed $$(($(SEED) + i)) --out $$out.json > $$out.log 2>&1) \
	            || { echo "$$side run of pair $$i failed; see $$out.log"; exit 1; }; \
	    done; \
	done
	$(PYTHON) perf/compare.py \
	    $$(for i in $$(seq 1 $(PAIRS)); do echo $(PAIRS_DIR)/parent-$$i.json; done) -- \
	    $$(for i in $$(seq 1 $(PAIRS)); do echo $(PAIRS_DIR)/change-$$i.json; done)

## gc-audit: the garbage collections each perf workload's build and run
## start on their own, per generation, with their seconds; exits 3 when
## an automatic full collection lands in build or run (tools/gc_audit.py;
## not part of check)
gc-audit:
	$(PYTHON) tools/gc_audit.py

## same-outputs: check that a change keeps its parent's outputs:
##   make same-outputs PARENT=<parent checkout>
## runs `python -m repro.experiments all --scale 0.02` and every
## examples/*.py of the working tree, in the parent checkout and in the
## working tree; drops the `regenerated in` timing lines and fails on
## any difference.  Each side's stdout lands under SAME_DIR.
SAME_DIR := /tmp/same-outputs
same-outputs:
	@test -n "$(PARENT)" || { echo "usage: make same-outputs PARENT=<parent checkout>"; exit 2; }
	@rm -rf $(SAME_DIR) && mkdir -p $(SAME_DIR)/parent $(SAME_DIR)/change
	@for side in parent change; do \
	    if [ $$side = parent ]; then dir="$(PARENT)"; else dir="$(CURDIR)"; fi; \
	    out=$(SAME_DIR)/$$side; \
	    echo "== $$side: experiments all --scale 0.02"; \
	    (cd "$$dir" && $(PYTHON) -m repro.experiments all --scale 0.02 > $$out/experiments.raw) \
	        || { echo "$$side experiments failed"; exit 1; }; \
	    for f in examples/*.py; do \
	        name=$$(basename $$f .py); \
	        echo "== $$side: $$f"; \
	        (cd "$$dir" && $(PYTHON) $$f > $$out/$$name.raw) \
	            || { echo "$$side $$f failed"; exit 1; }; \
	    done; \
	    for raw in $$out/*.raw; do \
	        grep -v 'regenerated in' $$raw > $${raw%.raw}.txt; rm $$raw; \
	    done; \
	done
	diff -r $(SAME_DIR)/parent $(SAME_DIR)/change && echo "same outputs"

## same-work: check that a change does its parent's work:
##   make same-work PARENT=<parent checkout>
## runs `perf/run.py --seed 0 --seconds 1 --trace 1` (every workload, each
## in a fresh interpreter) in the parent checkout and in the working
## tree, then fails listing each traced metric whose unit is count or
## flop and that differs (tools/same_work.py).  Each side's report and
## log land under WORK_DIR.
WORK_DIR := /tmp/same-work
same-work:
	@test -n "$(PARENT)" || { echo "usage: make same-work PARENT=<parent checkout>"; exit 2; }
	@rm -rf $(WORK_DIR) && mkdir -p $(WORK_DIR)
	@for side in parent change; do \
	    if [ $$side = parent ]; then dir="$(PARENT)"; else dir="$(CURDIR)"; fi; \
	    echo "== $$side: perf/run.py --seed 0 --seconds 1 --trace 1"; \
	    (cd "$$dir" && $(PYTHON) perf/run.py --seed 0 --seconds 1 --trace 1 \
	        --out $(WORK_DIR)/$$side.json > $(WORK_DIR)/$$side.log 2>&1) \
	        || { echo "$$side run failed; see $(WORK_DIR)/$$side.log"; exit 1; }; \
	done
	$(PYTHON) tools/same_work.py $(WORK_DIR)/parent.json $(WORK_DIR)/change.json

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
