"""The paper's MADNESS Library extensions: asynchronous batching runtime.

The control-flow change the paper makes (Section II) is reproduced here:

- tasks are split into *preprocess* / *compute* / *postprocess* sub-tasks
  (:mod:`repro.runtime.task`);
- compute tasks and their inputs are *asynchronously batched* by kind
  (:mod:`repro.runtime.batching`) into pre-allocated page-locked buffers
  (:mod:`repro.runtime.buffers`);
- a dispatcher splits each flushed batch between CPU threads and GPU
  streams with the optimal-overlap fraction ``k = n/(m+n)``
  (:mod:`repro.runtime.dispatcher`);
- everything executes against simulated time provided by a small
  discrete-event engine (:mod:`repro.runtime.events`), with durations
  supplied by the hardware models of :mod:`repro.hardware`.
"""

from __future__ import annotations

# Names are resolved lazily (PEP 562): the dispatcher and node modules
# import the kernel interfaces, which in turn import the task dataclasses
# from this package — eager imports here would close that cycle.
_LAZY = {
    "Environment": "repro.runtime.events",
    "Event": "repro.runtime.events",
    "Process": "repro.runtime.events",
    "Resource": "repro.runtime.events",
    "AllOf": "repro.runtime.events",
    "TaskKind": "repro.runtime.task",
    "WorkItem": "repro.runtime.task",
    "HybridTask": "repro.runtime.task",
    "BatchStats": "repro.runtime.task",
    "Batch": "repro.runtime.batching",
    "BatchAccumulator": "repro.runtime.batching",
    "PinnedBufferPool": "repro.runtime.buffers",
    "TransferPlan": "repro.runtime.buffers",
    "HybridDispatcher": "repro.runtime.dispatcher",
    "AdaptiveDispatcher": "repro.runtime.dispatcher",
    "optimal_split": "repro.runtime.dispatcher",
    "overlap_time": "repro.runtime.dispatcher",
    "NodeRuntime": "repro.runtime.node",
    "NodeTimeline": "repro.runtime.node",
    "BatchMetrics": "repro.runtime.node",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        value = getattr(importlib.import_module(_LAZY[name]), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "Environment",
    "Event",
    "Process",
    "Resource",
    "AllOf",
    "TaskKind",
    "WorkItem",
    "HybridTask",
    "BatchStats",
    "Batch",
    "BatchAccumulator",
    "PinnedBufferPool",
    "TransferPlan",
    "HybridDispatcher",
    "AdaptiveDispatcher",
    "optimal_split",
    "overlap_time",
    "NodeRuntime",
    "NodeTimeline",
    "BatchMetrics",
]
