"""Tests for the experiment registry and CLI."""

import pytest

from benchmarks.conftest import bench_scale
from repro.experiments import REGISTRY
from repro.experiments.__main__ import main
from repro.experiments.common import ExperimentResult, scaled


def test_registry_covers_every_paper_artifact():
    for name in ("table1", "table2", "table3", "table4", "table5", "table6",
                 "fig5", "fig6"):
        assert name in REGISTRY, name


def test_registry_entries_are_callable():
    for name, runner in REGISTRY.items():
        assert callable(runner), name


def test_scaled_floor():
    assert scaled(10_000, 0.5) == 5000
    assert scaled(10_000, 1e-9) == 100


def test_figures_run_instantly_and_return_results():
    result = REGISTRY["fig5"](1.0)
    assert isinstance(result, ExperimentResult)
    assert result.name == "fig5"
    assert result.data["rows"]
    assert "Figure 5" in result.table.render()


def test_small_table_run_via_registry():
    result = REGISTRY["ablation-dynamic-parallelism"](1.0)
    assert len(result.data["out"]) == 4


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table6" in out
    assert "fig5" in out


def test_cli_runs_an_experiment(capsys):
    assert main(["fig6"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert "regenerated" in out


def test_cli_rejects_unknown(capsys):
    with pytest.raises(SystemExit):
        main(["tableX"])


def test_cli_scale_flag(capsys):
    assert main(["ablation-transfers", "--scale", "0.5"]) == 0
    assert "Ablation" in capsys.readouterr().out


BAD_SCALES = ["0", "-1", "nan", "inf"]


@pytest.mark.parametrize("bad", BAD_SCALES)
def test_cli_rejects_bad_scale(bad, capsys):
    """A scale that is not finite and > 0 is a usage error (exit 2), not a
    silent 100-task floor or a traceback from inside a runner."""
    with pytest.raises(SystemExit) as exit_:
        main(["table1", "--scale", bad])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "--scale" in err and repr(bad) in err


@pytest.mark.parametrize("bad", BAD_SCALES)
def test_bench_scale_rejects_bad_values(bad, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", bad)
    with pytest.raises(ValueError, match="REPRO_BENCH_SCALE"):
        bench_scale()


def test_bench_scale_reads_a_good_value(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
    assert bench_scale() == pytest.approx(0.25)
    monkeypatch.delenv("REPRO_BENCH_SCALE")
    assert bench_scale() == pytest.approx(1.0)
