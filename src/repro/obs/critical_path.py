"""Critical-path analysis of a traced run.

Walks a run's interval events backwards from the instant that defines
the makespan, repeatedly choosing the latest-ending event that finished
no later than the current event started — in a discrete-event
simulation an event starts exactly when the resource or dependency it
waited on freed, so that predecessor *is* the thing the run was waiting
on.  The walk yields one chain of non-overlapping segments (plus idle
gaps where nothing completed, e.g. the flush-interval timer) that
partitions ``[0, makespan]`` exactly.

From the chain the analyzer reports, per stage (preprocess / cpu /
pcie / gpu / postprocess / checkpoint / network):

- ``breakdown`` — on-path seconds, including an explicit ``idle`` entry;
- ``slack`` — ``makespan - union_busy(stage)``: how much the stage could
  grow before it alone bounds the run;
- ``what_if`` — a first-order estimate of the makespan if the stage
  were free (its on-path time removed), the principled replacement for
  eyeballing overlap tables.

The ``bound_stage`` (largest non-idle breakdown entry) is the automated
answer to "which stage bounds this run".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.obs.dump import RunDump
from repro.runtime.trace import TraceEvent, union_length


class CriticalPathError(ReproError, ValueError):
    """Critical-path analysis asked of an empty or inconsistent trace."""


#: stage name used for path gaps where no traced work completed
IDLE = "idle"


@dataclass(frozen=True)
class PathSegment:
    """One hop of the critical path: a traced interval (or idle gap)."""

    stage: str
    label: str
    start: float
    end: float
    batch: int = -1

    @property
    def duration(self) -> float:
        """Length of the segment in simulated seconds."""
        return self.end - self.start


@dataclass
class CriticalPath:
    """The longest dependency chain of one run, broken down by stage.

    Attributes:
        makespan: the run's end instant (the path covers [0, makespan]).
        segments: the chain in time order, idle gaps included.
        breakdown: stage -> on-path seconds (``idle`` entry included);
            the values sum to ``makespan`` exactly.
        union_busy: stage -> union length of *all* the stage's
            intervals (parallel slots do not double count).
        slack: stage -> ``makespan - union_busy[stage]`` — how much the
            stage could grow before it alone bounds the run.
        what_if: stage -> estimated makespan were the stage free
            (first-order: its on-path seconds removed).
    """

    makespan: float
    segments: list[PathSegment] = field(default_factory=list)
    breakdown: dict[str, float] = field(default_factory=dict)
    union_busy: dict[str, float] = field(default_factory=dict)
    slack: dict[str, float] = field(default_factory=dict)
    what_if: dict[str, float] = field(default_factory=dict)

    @property
    def length(self) -> float:
        """Busy length of the path (idle gaps excluded)."""
        return sum(
            t for stage, t in self.breakdown.items() if stage != IDLE
        )

    @property
    def bound_stage(self) -> str:
        """The stage with the most on-path time (``idle`` excluded)."""
        busy = {
            s: t for s, t in self.breakdown.items() if s != IDLE
        }
        if not busy:
            return IDLE
        # deterministic: largest time, name breaks exact ties
        return max(sorted(busy), key=lambda s: busy[s])

    def share(self, stage: str) -> float:
        """Fraction of the makespan the stage holds on the path."""
        if self.makespan <= 0:
            return 0.0
        return self.breakdown.get(stage, 0.0) / self.makespan

    def overlap_estimate(self, stage: str) -> float:
        """Estimated makespan if the stage's on-path time were fully
        overlapped with other work.

        First-order: remove the stage's on-path seconds, but never drop
        below the busiest *other* stage's union length — somebody still
        has to do that work.  Applied to a serialized run's bound stage
        this predicts the pipelined runtime (the paper's ablation).
        """
        others = [
            busy for other, busy in self.union_busy.items() if other != stage
        ]
        floor = max(others, default=0.0)
        return max(self.makespan - self.breakdown.get(stage, 0.0), floor)


def _sort_key(event: TraceEvent) -> tuple:
    return (event.end, event.start, event.category, event.label, event.batch)


def critical_path(
    events: list[TraceEvent], *, makespan: float | None = None
) -> CriticalPath:
    """Analyze one rank's traced intervals.

    Args:
        events: the tracer's interval lanes (any order).
        makespan: the run's end instant; defaults to the latest event
            end.  A longer makespan adds a trailing ``idle`` segment
            (e.g. an un-traced drain).

    Raises:
        CriticalPathError: no events, or ``makespan`` precedes the
            latest event end.
    """
    if not events:
        raise CriticalPathError("cannot analyze an empty trace")
    latest_end = max(e.end for e in events)
    if makespan is None:
        makespan = latest_end
    eps = 1e-9 * max(1.0, makespan)
    if makespan < latest_end - eps:
        raise CriticalPathError(
            f"makespan {makespan} precedes the latest traced event end "
            f"{latest_end}"
        )

    ordered = sorted(events, key=_sort_key)
    segments: list[PathSegment] = []
    if makespan > latest_end + eps:
        segments.append(PathSegment(IDLE, "drain", latest_end, makespan))

    index = len(ordered) - 1
    while True:
        current = ordered[index]
        segments.append(
            PathSegment(
                current.category, current.label, current.start, current.end,
                current.batch,
            )
        )
        if current.start <= eps:
            break
        # the predecessor is the latest-ending earlier event that had
        # finished when the current one started; scanning strictly
        # below ``index`` keeps the walk terminating even with
        # zero-duration events
        predecessor = None
        for j in range(index - 1, -1, -1):
            if ordered[j].end <= current.start + eps:
                predecessor = ordered[j]
                index = j
                break
        if predecessor is None:
            # nothing completed before this event started: the run was
            # idle (timer wait) from t=0 until it began
            segments.append(PathSegment(IDLE, "wait", 0.0, current.start))
            break
        gap = current.start - predecessor.end
        if gap > eps:
            segments.append(
                PathSegment(IDLE, "wait", predecessor.end, current.start)
            )

    segments.reverse()
    breakdown: dict[str, float] = {}
    for seg in segments:
        breakdown[seg.stage] = breakdown.get(seg.stage, 0.0) + seg.duration
    breakdown = dict(sorted(breakdown.items()))

    stages = sorted({e.category for e in events})
    union_busy = {
        stage: union_length(
            [(e.start, e.end) for e in events if e.category == stage]
        )
        for stage in stages
    }
    slack = {stage: makespan - union_busy[stage] for stage in stages}
    what_if = {
        stage: makespan - breakdown.get(stage, 0.0) for stage in stages
    }
    return CriticalPath(
        makespan=makespan,
        segments=segments,
        breakdown=breakdown,
        union_busy=union_busy,
        slack=slack,
        what_if=what_if,
    )


def critical_path_for_dump(
    dump: RunDump, rank: int | None = None
) -> CriticalPath:
    """The critical path of a captured run.

    With ``rank=None`` the analyzer picks the rank whose trace reaches
    the run's makespan — the rank every other rank waits on — and
    analyzes it against the whole run's makespan.
    """
    candidates = [rd for rd in dump.ranks if rd.events]
    if rank is not None:
        candidates = [rd for rd in candidates if rd.rank == rank]
    if not candidates:
        raise CriticalPathError(
            "dump has no traced events"
            + (f" for rank {rank}" if rank is not None else "")
        )
    bound = max(
        candidates, key=lambda rd: (max(e.end for e in rd.events), -rd.rank)
    )
    if rank is None:
        makespan = dump.makespan
    else:
        makespan = max(
            max(e.end for e in bound.events),
            float(bound.summary.get("total_seconds", 0.0)),
        )
    return critical_path(bound.events, makespan=makespan)
