"""Tests for the report table renderer."""

import pytest

from repro.analysis.reporting import ReportTable
from repro.errors import ReproError


def test_render_contains_everything():
    t = ReportTable("Table I", ["nodes", "paper (s)", "measured (s)"])
    t.add_row(2, 88.0, 91.3)
    t.add_row(16, 19.0, None)
    t.add_note("anchored to the CPU baseline")
    out = t.render()
    assert "Table I" in out
    assert "nodes" in out
    assert "88" in out
    assert "-" in out  # None renders as dash
    assert "anchored" in out


def test_row_width_validated():
    t = ReportTable("x", ["a", "b"])
    with pytest.raises(ReproError):
        t.add_row(1)


def test_float_formatting():
    t = ReportTable("x", ["v"])
    t.add_row(1234.5)
    t.add_row(12.34)
    t.add_row(0.001234)
    out = t.render()
    assert "1,234" in out or "1,235" in out
    assert "12.3" in out
    assert "0.00123" in out


def test_empty_table_renders():
    t = ReportTable("empty", ["a"])
    assert "empty" in t.render()
