"""Trace dumps: a serializable capture of one simulated run.

A :class:`RunDump` bundles everything the observability tooling needs
from a run — per-rank interval lanes, the structured happens-before
log, per-rank timeline summaries and the metrics registry — in a
JSON form that is **byte-identical across repeat runs** of the same
seeded scenario.  That determinism is what powers the golden-trace
regression harness: a golden file diff means the timeline itself moved.

Two things make the bytes stable:

- work-item identities in the happens-before log are runtime memory
  addresses (``id(item)``); :func:`canonicalize_log` remaps them to
  ``"w0", "w1", ...`` in first-submission order at capture time, and
  operator-block keys to their ``str`` form;
- serialization is canonical JSON — sorted keys, fixed separators,
  ``repr``-exact floats (every simulated instant is a pure function of
  the scenario's seeds).

The top-level dict carries ``schema`` / ``version`` fields; see
``docs/OBSERVABILITY.md`` for the bump policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.runtime.trace import RuntimeLogRecord, TraceEvent, Tracer

#: schema identity of the dump format (see docs/OBSERVABILITY.md)
DUMP_SCHEMA = "repro-obs-dump"
#: bump on any backwards-incompatible change to the dump layout
DUMP_VERSION = 5
#: older layouts this tooling still reads (v1: no ``begin_transfer``
#: records, capture order instead of canonical merge order; v2: no
#: work-stealing ops; v3: no serving ops; v4: no chaos-recovery
#: ``requeue``/``rehome`` ops)
COMPAT_VERSIONS = frozenset({1, 2, 3, 4, DUMP_VERSION})

#: canonical same-instant ordering of log ops — pipeline-stage order,
#: with rollback/restore first (they open the replay epoch records that
#: may share their instant).  Sorting each rank's log by
#: ``(at, stage, batch, attempt)`` (stable) is the *deterministic
#: merge*: any legal interleaving of happens-before-unordered records
#: canonicalizes to the same bytes, which is what the schedule
#: perturbation harness (repro.lint.perturb) asserts.
_OP_STAGE = {
    # serving front door (v4): a job arrives, then its admission
    # verdict lands, before any same-instant submit of its items
    "arrive": -5,
    "admit": -4,
    "shed": -3,
    "rollback": -2,
    "restore": -1,
    "submit": 0,
    # chaos recovery (v5): rehomed ids re-register on the victim and a
    # crashed serving batch's items re-enter the queue *before* any
    # same-instant re-grant or re-flush consumes them
    "rehome": 1,
    "requeue": 2,
    # work-stealing (v3): granted ids leave the victim's queue, and
    # migrated ids register on the thief, before any same-instant flush
    # consumes them; a steal request is issued only once a rank goes
    # idle, i.e. after its same-instant accumulate
    "steal_grant": 3,
    "migrate": 4,
    "flush": 5,
    "begin_transfer": 6,
    "block_transfer": 7,
    "gpu_compute": 8,
    "gpu_fault": 9,
    "accumulate": 10,
    "checkpoint": 11,
    "steal_request": 12,
    "steal_deny": 13,
    # serving (v4): a deadline miss is observed at job completion
    # (after its final accumulate), and the autoscaler reacts last
    "deadline_miss": 14,
    "scale": 15,
}


class DumpError(ReproError, ValueError):
    """A malformed or unsupported trace dump."""


def canonicalize_log(
    log: list[RuntimeLogRecord],
) -> list[RuntimeLogRecord]:
    """Rewrite runtime ids into run-stable canonical names.

    Integer ids (memory addresses of work items) become ``"w<n>"`` in
    order of first appearance in a ``submit`` record; integers that
    never appear in a submit record (there should be none) become
    ``"u<n>"`` in first-appearance order so the output stays
    deterministic either way.  Non-integer ids (operator-block keys)
    are stringified.
    """
    names: dict[int, str] = {}
    for rec in log:
        if rec.op == "submit":
            for item_id in rec.ids:
                if isinstance(item_id, int) and item_id not in names:
                    names[item_id] = f"w{len(names)}"
    unknown: dict[int, str] = {}

    def canon(raw: object) -> str:
        if isinstance(raw, int):
            mapped = names.get(raw)
            if mapped is not None:
                return mapped
            if raw not in unknown:
                unknown[raw] = f"u{len(unknown)}"
            return unknown[raw]
        return str(raw)

    return [
        replace(rec, ids=tuple(canon(i) for i in rec.ids)) for rec in log
    ]


@dataclass
class RankDump:
    """One rank's captured trace: lanes, log, and summary scalars."""

    rank: int
    events: list[TraceEvent] = field(default_factory=list)
    log: list[RuntimeLogRecord] = field(default_factory=list)
    #: selected NodeTimeline scalars (makespan, busy times, counts)
    summary: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready form of this rank's capture."""
        return {
            "rank": self.rank,
            "events": [
                {
                    "category": e.category,
                    "label": e.label,
                    "start": e.start,
                    "end": e.end,
                    "batch": e.batch,
                }
                for e in self.events
            ],
            "log": [
                {
                    "op": r.op,
                    "at": r.at,
                    "kind": r.kind,
                    "ids": list(r.ids),
                    "attempt": r.attempt,
                    "batch": r.batch,
                }
                for r in self.log
            ],
            "summary": dict(sorted(self.summary.items())),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RankDump":
        """Rebuild a rank capture serialized by :meth:`to_dict`."""
        return cls(
            rank=raw["rank"],
            events=[
                TraceEvent(
                    category=e["category"],
                    label=e["label"],
                    start=e["start"],
                    end=e["end"],
                    batch=e.get("batch", -1),
                )
                for e in raw.get("events", [])
            ],
            log=[
                RuntimeLogRecord(
                    op=r["op"],
                    at=r["at"],
                    kind=r["kind"],
                    ids=tuple(r["ids"]),
                    attempt=r.get("attempt", 0),
                    batch=r.get("batch", -1),
                )
                for r in raw.get("log", [])
            ],
            summary=dict(raw.get("summary", {})),
        )


@dataclass
class RunDump:
    """A whole captured run: per-rank traces plus the metrics registry."""

    meta: dict = field(default_factory=dict)
    ranks: list[RankDump] = field(default_factory=list)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def makespan(self) -> float:
        """The run's end instant: max over ranks of summary makespans
        and latest traced event ends."""
        best = 0.0
        for rank in self.ranks:
            best = max(best, float(rank.summary.get("total_seconds", 0.0)))
            for e in rank.events:
                best = max(best, e.end)
        return best

    def rank_dump(self, rank: int) -> RankDump:
        """The capture for one rank id."""
        for rd in self.ranks:
            if rd.rank == rank:
                return rd
        raise DumpError(f"dump has no rank {rank}")

    def to_dict(self) -> dict:
        """JSON-ready form with schema/version header."""
        return {
            "schema": DUMP_SCHEMA,
            "version": DUMP_VERSION,
            "meta": dict(sorted(self.meta.items())),
            "ranks": [rd.to_dict() for rd in self.ranks],
            "metrics": self.registry.to_dict(),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RunDump":
        """Rebuild a dump serialized by :meth:`to_dict`."""
        if not isinstance(raw, dict) or raw.get("schema") != DUMP_SCHEMA:
            raise DumpError(
                f"not a {DUMP_SCHEMA} document: "
                f"schema={raw.get('schema') if isinstance(raw, dict) else raw!r}"
            )
        if raw.get("version") not in COMPAT_VERSIONS:
            raise DumpError(
                f"unsupported dump version {raw.get('version')!r} "
                f"(this tooling reads versions {sorted(COMPAT_VERSIONS)})"
            )
        return cls(
            meta=dict(raw.get("meta", {})),
            ranks=[RankDump.from_dict(r) for r in raw.get("ranks", [])],
            registry=MetricsRegistry.from_dict(raw.get("metrics", {})),
        )

    def dumps(self) -> str:
        """Canonical JSON text (sorted keys, stable floats, trailing
        newline) — byte-identical for byte-identical runs."""
        return dumps_canonical(self.to_dict())

    def save(self, path: str) -> None:
        """Write the canonical JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "RunDump":
        """Parse a dump from canonical (or any) JSON text."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DumpError(f"dump is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path: str) -> "RunDump":
        """Read a dump written by :meth:`save`."""
        with open(path, encoding="utf-8") as fh:
            return cls.loads(fh.read())


def dumps_canonical(obj: dict) -> str:
    """Canonical JSON: sorted keys, 1-space indent (diffable goldens),
    ``repr``-exact floats, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def merge_order_log(
    log: list[RuntimeLogRecord],
) -> list[RuntimeLogRecord]:
    """Deterministic-merge ordering of one rank's log records.

    Stable sort by ``(at, pipeline stage, batch, attempt)``.  Records
    the happens-before partial order *does* relate keep their program
    order (same-thread same-instant records differ in stage, batch or
    attempt consistently with emission order); records it does *not*
    relate land in one canonical place regardless of the interleaving
    the scheduler happened to emit them in.  A parallel per-rank
    simulation merging its streams through this order is byte-identical
    to the sequential one — the invariant :mod:`repro.lint.perturb`
    enforces.
    """
    return sorted(
        log,
        key=lambda r: (r.at, _OP_STAGE.get(r.op, 99), r.batch, r.attempt),
    )


def merge_order_events(events: list[TraceEvent]) -> list[TraceEvent]:
    """Deterministic-merge ordering of one rank's interval lanes (stable
    sort by interval, lane, label and batch)."""
    return sorted(
        events,
        key=lambda e: (e.start, e.end, e.category, e.label, e.batch),
    )


def capture_rank(
    rank: int,
    tracer: Tracer,
    summary: dict | None = None,
) -> RankDump:
    """Freeze one rank's tracer into a canonical :class:`RankDump`:
    ids canonicalized, records and events in deterministic merge
    order."""
    return RankDump(
        rank=rank,
        events=merge_order_events(tracer.events),
        log=merge_order_log(canonicalize_log(tracer.log)),
        summary=dict(summary or {}),
    )


#: NodeTimeline scalars copied into each rank's dump summary
_SUMMARY_FIELDS = (
    "total_seconds",
    "n_tasks",
    "n_batches",
    "n_cpu_items",
    "n_gpu_items",
    "cpu_compute_busy",
    "gpu_busy",
    "pcie_busy",
    "n_gpu_faults",
    "n_retries",
    "n_fallback_items",
    "n_checkpoints",
    "checkpoint_seconds",
    "n_restores",
    "restore_seconds",
    "n_rolled_back_items",
    "n_replayed_items",
)


def timeline_summary(timeline) -> dict:
    """The dump-worthy scalars of a :class:`~repro.runtime.node.
    NodeTimeline`."""
    return {name: getattr(timeline, name) for name in _SUMMARY_FIELDS}
