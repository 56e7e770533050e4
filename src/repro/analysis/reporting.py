"""Paper-style table rendering.

Every benchmark prints a :class:`ReportTable` whose rows carry both the
paper's published number and the simulation's measured one, so
EXPERIMENTS.md can be assembled directly from benchmark output.

:func:`critical_path_table` and :func:`metrics_table` render what
:mod:`repro.obs` measures of a run (its critical path and its
:class:`~repro.obs.metrics.MetricsRegistry`) in the same table form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3g}"
    return str(value)


@dataclass
class ReportTable:
    """A fixed-width text table with a title."""

    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        """Append one row; cell count must match the column count."""
        if len(values) != len(self.columns):
            raise ReproError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        """Attach a footnote printed under the table."""
        self.notes.append(note)

    def render(self) -> str:
        """The fixed-width text form (title, header, rows, footnotes)."""
        cells = [[_fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells)) if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        sep = "+".join("-" * (w + 2) for w in widths)
        out = [self.title, sep]
        out.append(
            "|".join(f" {c:<{w}} " for c, w in zip(self.columns, widths))
        )
        out.append(sep)
        for row in cells:
            out.append("|".join(f" {c:>{w}} " for c, w in zip(row, widths)))
        out.append(sep)
        for note in self.notes:
            out.append(f"  note: {note}")
        return "\n".join(out)

    def print(self) -> None:  # noqa: A003 - deliberate, mirrors rich-style API
        """Render to stdout with surrounding blank lines."""
        print("\n" + self.render() + "\n")


def critical_path_table(path, title: str = "Critical path") -> ReportTable:
    """One row per stage of a :class:`~repro.obs.critical_path.
    CriticalPath`: on-path time, share, union busy time, slack, and the
    first-order what-if makespan were the stage free."""
    table = ReportTable(
        title=title,
        columns=[
            "stage", "on-path ms", "share", "busy ms", "slack ms",
            "what-if ms",
        ],
    )
    stages = sorted(
        set(path.breakdown) | set(path.union_busy), key=lambda s: (
            -path.breakdown.get(s, 0.0), s
        )
    )
    for stage in stages:
        table.add_row(
            stage,
            path.breakdown.get(stage, 0.0) * 1e3,
            f"{path.share(stage):.1%}",
            path.union_busy.get(stage) * 1e3
            if stage in path.union_busy else None,
            path.slack.get(stage) * 1e3 if stage in path.slack else None,
            path.what_if.get(stage) * 1e3 if stage in path.what_if else None,
        )
    table.add_note(
        f"makespan {path.makespan * 1e3:.3f} ms, path length "
        f"{path.length * 1e3:.3f} ms, bound stage: {path.bound_stage}"
    )
    return table


def metrics_table(registry, title: str = "Run metrics") -> ReportTable:
    """Every metric of a :class:`~repro.obs.metrics.MetricsRegistry` as
    one row (counters: final total; gauges: last level; histograms:
    count/mean/max)."""
    table = ReportTable(title=title, columns=["metric", "type", "value"])
    for name, counter in registry.counters.items():
        table.add_row(name, "counter", counter.total)
    for name, gauge in registry.gauges.items():
        table.add_row(name, "gauge", gauge.value)
    for name, hist in registry.histograms.items():
        s = hist.summary()
        table.add_row(
            name, "histogram",
            f"n={s['count']} mean={s['mean']:.3g} max={s['max']:.3g}",
        )
    return table
