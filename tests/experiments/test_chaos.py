"""Full-scale chaos ablation: the resilience stack must pay for itself."""

import pytest

from repro.experiments.chaos import FAULT_RATES, run_chaos_ablation


@pytest.fixture(scope="module")
def ablation():
    return run_chaos_ablation(1.0)


def test_zero_fault_row_is_bit_identical(ablation):
    # run_chaos_ablation raises if the armed-but-idle injector shifts
    # the makespan; reaching here means the guarantee held
    assert ablation.data["clean"] > 0


def test_retry_beats_naive_fallback_at_every_rate(ablation):
    for rate in FAULT_RATES:
        row = ablation.data["rates"][rate]
        assert row["resilient"] < row["naive"], (
            f"retry+probe lost to naive fail-to-CPU at {rate:.0%} faults"
        )


def test_faults_scale_with_rate(ablation):
    counts = [
        ablation.data["rates"][r]["resilient_counters"]["gpu_faults"]
        for r in FAULT_RATES
    ]
    assert counts == sorted(counts)
    assert counts[0] > 0


def test_naive_abandons_gpu_after_first_fault(ablation):
    row = ablation.data["rates"][FAULT_RATES[0]]
    assert row["naive_counters"]["retries"] == 0
    assert row["naive_counters"]["fallback_items"] > 0
    assert row["naive_counters"]["degraded_seconds"] > 0
    for rate in FAULT_RATES:
        # the first degradation is permanent: nothing probes the GPU
        assert ablation.data["rates"][rate]["naive_counters"]["recoveries"] == 0


def test_table_renders_all_rates(ablation):
    text = ablation.table.render()
    for rate in FAULT_RATES:
        assert f"{rate:.0%}" in text
