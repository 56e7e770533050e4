"""``RES`` — resource-safety rules.

The write-once GPU block cache (:class:`repro.kernels.gpu_cache.GpuBlockCache`)
and the pinned buffer pool (:class:`repro.runtime.buffers.PinnedBufferPool`)
enforce their capacity invariants *inside* their mutation APIs: inserting
beyond capacity raises :class:`~repro.errors.HardwareModelError`, invalid
pool shapes raise :class:`~repro.errors.RuntimeConfigError`.  Two things
defeat that design — swallowing the documented error types, and mutating
cache state behind the API's back.  These rules flag both, plus the
classic bare ``except:`` that hides everything including
``KeyboardInterrupt``.

With the fault-injection layer (:mod:`repro.faults`) the runtime now
*retries* failed work, which invites a fourth failure mode: the
unbounded retry loop.  A ``while True`` that catches an error and
``continue``-s without counting attempts spins forever once a fault is
permanent; RES004 flags it (the sanctioned shape is
:class:`repro.faults.policies.RetryPolicy` with ``max_attempts``).

Checkpoint/restart (:mod:`repro.recovery`) adds a fifth: a snapshot
that *aliases* live mutable state.  A ``Checkpoint(results=self.acc)``
storing a bare dict/list/array reference silently picks up every
post-snapshot mutation, so a restore replays *current* state instead of
checkpointed state and the deterministic-replay guarantee dies; RES005
flags snapshot constructions whose state-carrying arguments are bare
names instead of copies.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.core import FileContext, Finding, Rule, register
from repro.lint.rules._util import body_only_swallows, handler_exception_names

#: the documented capacity/configuration error types of the runtime
GUARD_ERRORS = ("HardwareModelError", "RuntimeConfigError")

#: attributes that make up GpuBlockCache's capacity-checked state
_CACHE_STATE_ATTRS = frozenset({"resident_bytes", "_resident"})
#: the module allowed to touch that state directly
_CACHE_MODULE = "gpu_cache.py"


@register
class BareExceptRule(Rule):
    """RES001: no bare or overbroad silently-swallowing except clauses."""

    id = "RES001"
    summary = (
        "bare except, or except Exception whose body only swallows "
        "(handle, log, or re-raise)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag ``except:`` and do-nothing ``except Exception:`` handlers."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.finding(
                    self.id,
                    node,
                    "bare except hides every failure including "
                    "KeyboardInterrupt; catch a specific ReproError subclass",
                )
                continue
            names = handler_exception_names(node)
            if (
                any(n in ("Exception", "BaseException") for n in names)
                and body_only_swallows(node.body)
            ):
                yield ctx.finding(
                    self.id,
                    node,
                    "except Exception that silently swallows; handle the "
                    "error or let it propagate",
                )


@register
class SwallowedGuardErrorRule(Rule):
    """RES002: the documented capacity errors must not be swallowed."""

    id = "RES002"
    summary = (
        "HardwareModelError/RuntimeConfigError caught and dropped; the "
        "capacity guard raised for a reason — handle or re-raise"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag except clauses that drop the runtime's guard errors."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = handler_exception_names(node)
            caught = [n for n in names if n in GUARD_ERRORS]
            if caught and body_only_swallows(node.body):
                yield ctx.finding(
                    self.id,
                    node,
                    f"{' and '.join(caught)} swallowed; a capacity or "
                    "configuration guard fired — recover explicitly or "
                    "let the simulation fail loudly",
                )


@register
class CacheBypassRule(Rule):
    """RES003: cache state mutates only through the capacity-checked API."""

    id = "RES003"
    summary = (
        "GpuBlockCache residency state mutated outside gpu_cache.py, "
        "bypassing the write-once capacity check"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag writes to cache residency attributes from other modules."""
        if ctx.path.name == _CACHE_MODULE:
            return
        for node in ast.walk(ctx.tree):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call):
                # cache._resident.add(...) / .update(...) / .clear()
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr in _CACHE_STATE_ATTRS
                ):
                    yield ctx.finding(
                        self.id,
                        node,
                        f"direct mutation of .{func.value.attr}.{func.attr}() "
                        "bypasses the write-once capacity check; insert "
                        "through begin_transfer()/commit_transfer()",
                    )
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in _CACHE_STATE_ATTRS
                ):
                    yield ctx.finding(
                        self.id,
                        target,
                        f"assignment to .{target.attr} bypasses the "
                        "write-once capacity check; insert through "
                        "begin_transfer()/commit_transfer()",
                    )


def _shallow_walk(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements, skipping nested loop and function subtrees.

    A nested loop's retry structure is its own problem (the rule visits
    it separately), and ``continue`` inside one targets *that* loop —
    counting its nodes here would produce false verdicts either way.
    """
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node,
            (ast.While, ast.For, ast.AsyncFor, ast.FunctionDef,
             ast.AsyncFunctionDef, ast.Lambda),
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


@register
class UnboundedRetryRule(Rule):
    """RES004: retry loops must bound their attempts."""

    id = "RES004"
    summary = (
        "while True retry loop: except + continue with no attempt "
        "counter and no raise/break escape — spins forever on a "
        "permanent fault"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag ``while True`` loops that swallow-and-retry unboundedly."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.While):
                continue
            test = node.test
            if not (isinstance(test, ast.Constant) and test.value is True):
                continue
            local = list(_shallow_walk(node.body))
            # an attempt counter (attempt += 1 and friends) bounds the
            # loop provided something checks it; give the counter the
            # benefit of the doubt and only flag counter-less loops
            if any(isinstance(n, ast.AugAssign) for n in local):
                continue
            for handler in local:
                if not isinstance(handler, ast.ExceptHandler):
                    continue
                handler_nodes = list(_shallow_walk(handler.body))
                retries = any(
                    isinstance(h, ast.Continue) for h in handler_nodes
                )
                escapes = any(
                    isinstance(h, (ast.Raise, ast.Break, ast.Return))
                    for h in handler_nodes
                )
                if retries and not escapes:
                    yield ctx.finding(
                        self.id,
                        handler,
                        "except-and-continue inside while True with no "
                        "attempt counter; bound retries (see "
                        "repro.faults.policies.RetryPolicy) or re-raise "
                        "after a budget",
                    )


#: constructor names whose instances are durable snapshots
_SNAPSHOT_CTOR_NAMES = ("Checkpoint",)
#: keyword arguments of a snapshot that carry mutable run state
_SNAPSHOT_STATE_KWARGS = frozenset(
    {"results", "items", "item_ids", "state", "payload", "covered"}
)


def _is_snapshot_ctor(func: ast.expr) -> bool:
    """Whether a call target names a snapshot constructor.

    Matches ``Checkpoint(...)`` / ``x.Checkpoint(...)`` plus any class
    whose name ends in ``Snapshot`` — the naming convention for durable
    state captures.
    """
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name is None:
        return False
    return name in _SNAPSHOT_CTOR_NAMES or name.endswith("Snapshot")


@register
class AliasedSnapshotStateRule(Rule):
    """RES005: snapshots must copy mutable state, never alias it."""

    id = "RES005"
    summary = (
        "snapshot construction stores a bare reference to mutable "
        "state; a later mutation silently rewrites the checkpoint and "
        "breaks deterministic replay — copy (tuple()/deepcopy) instead"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag snapshot constructors whose state kwargs alias names.

        A state-carrying keyword (``results=``, ``items=``, ...) whose
        value is a bare name, attribute or subscript stores a live
        reference; wrapping it in a call (``tuple(...)``, ``deepcopy``),
        a literal, or a comprehension materialises a copy and passes.
        """
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not _is_snapshot_ctor(
                node.func
            ):
                continue
            for kw in node.keywords:
                if kw.arg not in _SNAPSHOT_STATE_KWARGS:
                    continue
                if isinstance(
                    kw.value, (ast.Name, ast.Attribute, ast.Subscript)
                ):
                    yield ctx.finding(
                        self.id,
                        kw.value,
                        f"snapshot argument {kw.arg}= aliases mutable "
                        "state; a post-snapshot mutation would rewrite "
                        "the checkpoint — store a copy "
                        "(tuple(...)/copy.deepcopy)",
                    )
