"""Expression codegen: Expr trees compiled to single Python functions.

The closure compiler in :mod:`repro.expr.eval` builds a *tree* of
nested lambdas — evaluating ``a = 1 AND b < 5`` costs five Python
frames per row.  This module instead renders the whole tree into one
Python source function and ``compile()``s it, so a row evaluation is
one call whose body is plain inline bytecode.  Semantics (two-valued
NULL logic, short-circuiting, metered policy ORs) are identical to the
closure compiler by construction: every construct is generated from
the same rules, and the differential/property tests assert value and
counter equality.  Any tree the generator cannot render falls back to
the closure compiler, so codegen is always total.

Two compilation modes exist:

* **row mode** (:meth:`CodegenExprCompiler.compile`) — ``fn(row)``
  over one tuple, a drop-in for ``ExprCompiler.compile``.  Wide ORs
  (policy-style disjunctions, width >= ``METERED_OR_WIDTH``) become
  flat helper functions that tick ``counters.policy_evals`` per
  disjunct actually evaluated, exactly like the closure compiler's
  metered OR.
* **column mode** (:meth:`compile_batch_predicate` /
  :meth:`compile_batch_values` / :meth:`compile_batch_guard`) — batch
  kernels ``fn(columns, selection[, constants]) -> indices/values`` for
  the vectorized executor (``constants`` fills the
  :class:`~repro.expr.nodes.KernelConst` slots of a *shape*, so one
  kernel serves every binding): one call evaluates the expression over a whole
  :class:`~repro.engine.vector.RowBatch` via a list comprehension (or,
  for a top-level policy OR, a fused metering kernel in which a row
  *looks up* the guard branches that can hold for it instead of
  walking them all, and tries those through row functions compiled one
  per branch) with the expression inlined.  Nested metered ORs
  compile to kernel-local per-index helpers so ``policy_evals``
  accounting survives inside batch kernels; only scalar subqueries are
  refused
  (:class:`CodegenUnsupported`) — they need the outer row, so the
  executor routes such trees per row.

:class:`CompiledExprCache` is the cross-execution LRU for compiled
callables (keyed by structural expression equality — of the shape,
for a non-guard kernel — + binding layout + mode); the Database owns
one instance so repeated queries
stop recompiling identical predicates every run.  Expressions
containing subqueries are never cached: IN memberships are data
dependent and scalar subqueries capture executor-local state.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from itertools import chain
from typing import Any, Callable, Iterable

from repro.common.errors import ExecutionError
from repro.expr.eval import _BUILTIN_SCALARS, ExprCompiler, RowBinding, RowFn
from repro.expr.nodes import (
    And,
    Arith,
    Between,
    ColumnRef,
    CompareOp,
    Comparison,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    KernelConst,
    Literal,
    Not,
    Or,
    Param,
    ScalarSubquery,
    Star,
)

METERED_OR_WIDTH = ExprCompiler.METERED_OR_WIDTH

BatchPredFn = Callable[..., list]  # (columns, selection[, constants]) -> indices
BatchValueFn = Callable[..., list]  # (columns, selection[, constants]) -> values

_CMP_OPS: dict[CompareOp, str] = {
    CompareOp.EQ: "==",
    CompareOp.NE: "!=",
    CompareOp.LT: "<",
    CompareOp.LE: "<=",
    CompareOp.GT: ">",
    CompareOp.GE: ">=",
}


#: What a predicate / value kernel takes: a guard kernel's constants
#: stay inlined (its dispatch tables are built from them).
_SHAPE_ARGS = "_cols, _sel, _consts=()"


class CodegenUnsupported(Exception):
    """Raised when a tree cannot be rendered in the requested mode."""


def is_metered_or(expr: Expr, counters: Any) -> bool:
    """Would the closure compiler meter this node into policy_evals?"""
    return (
        counters is not None
        and isinstance(expr, Or)
        and len(expr.children) >= METERED_OR_WIDTH
    )


def contains_metered_or(expr: Expr) -> bool:
    """True when any Or in the tree is wide enough to be metered.

    Detection is by direct child count (not flattened width) — exactly
    the shape the closure compiler keys metering on.
    """
    from repro.expr.analysis import walk

    return any(
        isinstance(node, Or) and len(node.children) >= METERED_OR_WIDTH
        for node in walk(expr)
    )


class _Entry:
    """One compiled callable under its key ``(expression, extra)``, the
    key's structural hash taken once.

    Expression nodes are frozen dataclasses whose ``__hash__`` walks the
    whole tree — a thousand nodes for a policy-wide OR — so the entry
    remembers it, and a dictionary finds an entry it already holds by
    identity, without comparing trees."""

    __slots__ = ("expr", "extra", "fn", "_hash")

    def __init__(self, expr: Any, extra: tuple, fn: Callable | None = None):
        self.expr = expr
        self.extra = extra
        self.fn = fn
        self._hash = hash((expr, extra))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _Entry)
            and self._hash == other._hash
            and self.extra == other.extra
            and (self.expr is other.expr or self.expr == other.expr)
        )


class CompiledExprCache:
    """A small LRU of compiled expression callables.

    Keys are ``(expr, (binding.cache_key(), mode, ...))`` — expression
    nodes are frozen dataclasses, so structurally identical predicates
    from independent rewrites hit the same entry.  Hit/miss totals are
    ticked into ``counters.expr_cache_hits`` / ``expr_cache_misses``
    when a counter set is supplied (zero cost weight: cache
    bookkeeping is not engine work).
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        #: Each entry is its own key, so a structural probe (an entry
        #: without a callable) comes back as the entry the cache holds.
        self._entries: OrderedDict[_Entry, _Entry] = OrderedDict()
        # Fast path: (id(expr), extra) -> (expr, entry).  Structural
        # keys make warm queries hit across re-rewrites, but hashing a
        # policy-wide OR walks thousands of nodes; once an expression
        # *object* has hit, later lookups through the same object reach
        # the held entry — hash remembered, matched by identity — and
        # never touch the tree.  The alias holds the expression, so its
        # id stays valid for as long as the alias can resolve.
        self._id_alias: dict[tuple, tuple[Any, _Entry]] = {}
        # The cache is shared by every executor of one Database — and
        # the serving tier's workers execute on one Database from many
        # threads, where an unlocked LRU's move_to_end/popitem races
        # would corrupt mid-query (the same hazard GuardCache locks
        # against).  Compilation and tree hashing stay outside the lock.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(
        self, expr: Any, extra: tuple, counters: Any = None, by_identity: bool = True
    ) -> Callable | None:
        """Two-tier get: by expression object id first, then by
        structural key (registering the id alias on a hit).  Kernel
        *shapes* are looked up with ``by_identity=False`` — structural
        tier only: a fresh binding's shape is an object nothing will
        present again, and an alias for it would only be garbage."""
        entry = None
        if by_identity:
            alias = (id(expr), extra)
            with self._lock:
                aliased = self._id_alias.get(alias)
                entry = self._get(aliased[1]) if aliased is not None else None
                if aliased is not None and entry is None:
                    del self._id_alias[alias]  # evicted under the alias
        if entry is None:
            probe = _Entry(expr, extra)
            with self._lock:
                entry = self._get(probe)
                if entry is not None and by_identity:
                    self._alias(alias, expr, entry)
        if counters is not None:
            if entry is None:
                counters.expr_cache_misses += 1
            else:
                counters.expr_cache_hits += 1
        return entry.fn if entry is not None else None

    def _get(self, key: _Entry) -> _Entry | None:
        """The held entry equal to ``key`` (lock held), refreshed in
        the LRU order."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(entry)
        return entry

    def store(self, expr: Any, extra: tuple, fn: Callable, by_identity: bool = True) -> None:
        entry = _Entry(expr, extra, fn)
        with self._lock:
            entries = self._entries
            entries.pop(entry, None)  # a structural twin leaves, key and all
            entries[entry] = entry
            while len(entries) > self.capacity:
                entries.popitem(last=False)
            if by_identity:
                self._alias((id(expr), extra), expr, entry)

    def _alias(self, alias: tuple, expr: Any, entry: _Entry) -> None:
        # An alias keeps its expression alive, and those that still
        # arrive as new objects per request — row functions of a
        # tuple-mode subtree (a bare LIMIT, a nested-loop join) and the
        # per-row fallback, compiled per literal — leave one each that
        # nothing looks up again; starting over costs the live ones
        # (guard ORs, guard branches) one structural probe each.
        if len(self._id_alias) > self.capacity:
            self._id_alias.clear()
        self._id_alias[alias] = (expr, entry)

    def discard_conjuncts(self, nodes: Iterable[Any]) -> int:
        """Drop every entry whose expression shares a top-level conjunct
        (the very object) with one of ``nodes``; returns the number
        dropped.  How a superseded guarded expression takes its compiled
        predicates with it: a scan's filter stages are cached per
        conjunct, each holds guard AST and a generated kernel, and
        nothing would look them up again."""
        from repro.expr.analysis import conjuncts

        wanted = {id(part) for node in nodes for part in conjuncts(node)}
        if not wanted:
            return 0
        with self._lock:
            doomed = [
                entry
                for entry in self._entries
                if any(id(part) in wanted for part in conjuncts(entry.expr))
            ]
            for entry in doomed:
                del self._entries[entry]
            if doomed:
                gone = set(doomed)
                self._id_alias = {
                    alias: held for alias, held in self._id_alias.items() if held[1] not in gone
                }
        return len(doomed)

    def clear(self) -> int:
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
            self._id_alias.clear()
            return n


class _Emitter:
    """Renders one expression tree into Python source.

    ``mode`` is ``"row"`` (references spelled ``_r[pos]``) or ``"col"``
    (``_c<pos>[_i]``, with the touched columns recorded for the kernel
    prelude).  Helper functions (metered ORs) accumulate in ``defs``;
    constants/callables that cannot be inlined land in ``env``.
    """

    def __init__(self, compiler: "CodegenExprCompiler", mode: str, hoisted: bool = False):
        self.compiler = compiler
        self.mode = mode
        #: What a helper function takes: the row, or the row's index.
        self.arg = "_r" if mode == "row" else "_i"
        #: When True (loop-form kernels), column refs read per-row
        #: hoisted locals ``_v<pos>`` assigned once at the top of the
        #: row loop, instead of subscripting the column array at every
        #: occurrence across hundreds of guard conditions.
        self.hoisted = hoisted
        self.defs: list[str] = []  # row mode: module-level helper functions
        self.inner_defs: list[str] = []  # col mode: helpers nested in the kernel
        self.env: dict[str, Any] = {}
        self.used_columns: set[int] = set()
        #: Columns a guard kernel's first pass reads (bound in the
        #: prelude like ``used_columns``, never hoisted per row).
        self.probe_columns: set[int] = set()
        #: How many slots of the kernel's constants vector the tree
        #: reads (``_q<index>`` locals, unpacked in the prelude).
        self.n_consts = 0
        self._n = 0

    def fresh(self, prefix: str) -> str:
        self._n += 1
        return f"_{prefix}{self._n}"

    def const(self, value: Any) -> str:
        name = self.fresh("k")
        self.env[name] = value
        return name

    def literal(self, value: Any) -> str:
        if value is None or isinstance(value, (bool, int, str)):
            return repr(value)
        if isinstance(value, float) and math.isfinite(value):
            return repr(value)
        return self.const(value)

    def column(self, pos: int) -> str:
        if self.mode == "row":
            return f"_r[{pos}]"
        self.used_columns.add(pos)
        if self.hoisted:
            return f"_v{pos}"
        return f"_c{pos}[_i]"

    # ------------------------------------------------------------ rendering

    def emit(self, expr: Expr) -> str:
        c = self.compiler
        if isinstance(expr, Literal):
            return self.literal(expr.value)
        if isinstance(expr, KernelConst):
            self.n_consts = max(self.n_consts, expr.index + 1)
            return f"_q{expr.index}"
        if isinstance(expr, ColumnRef):
            return self.column(c.binding.resolve(expr))
        if isinstance(expr, Comparison):
            lt, rt = self.fresh("t"), self.fresh("t")
            left, right = self.emit(expr.left), self.emit(expr.right)
            op = _CMP_OPS[expr.op]
            if isinstance(expr.right, (Literal, KernelConst, ColumnRef)):
                # Lazy right side: a literal/column evaluation has no
                # observable effects, so skipping it on a NULL left is
                # indistinguishable from the closure compiler — and
                # this is the shape every guard condition compiles to.
                return (
                    f"(({lt} := {left}) is not None and "
                    f"({rt} := {right}) is not None and {lt} {op} {rt})"
                )
            # Complex right side (function call, arithmetic, subquery):
            # the closure compiler evaluates both operands before the
            # NULL checks, so effects (UDF invocation counts, raised
            # errors) must happen even when the left is NULL.  The
            # leading two-tuple is always truthy and just forces both
            # evaluations in order.
            return (
                f"((({lt} := {left}), ({rt} := {right})) and "
                f"{lt} is not None and {rt} is not None and {lt} {op} {rt})"
            )
        if isinstance(expr, Between):
            t = self.fresh("t")
            inner = self.emit(expr.expr)
            low, high = self.emit(expr.low), self.emit(expr.high)
            body = f"{low} <= {t} <= {high}"
            if expr.negated:
                body = f"not ({body})"
            return f"(({t} := {inner}) is not None and ({body}))"
        if isinstance(expr, InList):
            t = self.fresh("t")
            inner = self.emit(expr.expr)
            members = None
            if all(isinstance(i, Literal) for i in expr.items):
                members = self.const(frozenset(i.value for i in expr.items))  # type: ignore[union-attr]
            elif len(expr.items) == 1 and isinstance(expr.items[0], KernelConst):
                members = self.emit(expr.items[0])  # a lifted list: the set arrives whole
            if members is not None:
                op = "not in" if expr.negated else "in"
                return f"(({t} := {inner}) is not None and {t} {op} {members})"
            items = [self.emit(i) for i in expr.items]
            if expr.negated:
                body = " and ".join(f"{t} != {item}" for item in items)
            else:
                body = " or ".join(f"{t} == {item}" for item in items)
            return f"(({t} := {inner}) is not None and ({body}))"
        if isinstance(expr, And):
            parts = [f"bool({self.emit(ch)})" for ch in expr.children]
            return "(" + " and ".join(parts) + ")"
        if isinstance(expr, Or):
            if is_metered_or(expr, c.counters):
                return f"{self.metered_helper(expr)}({self.arg})"
            parts = [f"bool({self.emit(ch)})" for ch in expr.children]
            return "(" + " or ".join(parts) + ")"
        if isinstance(expr, Not):
            return f"(not {self.emit(expr.child)})"
        if isinstance(expr, Arith):
            lt, rt = self.fresh("t"), self.fresh("t")
            left, right = self.emit(expr.left), self.emit(expr.right)
            if expr.op in ("/", "%"):
                # Matches the closure compiler: divide-by-zero/NULL -> NULL.
                inner = f"(({lt} {expr.op} {rt}) if {rt} else None)"
            elif expr.op in ("+", "-", "*"):
                inner = f"({lt} {expr.op} {rt})"
            else:
                raise ExecutionError(f"unknown arithmetic operator {expr.op!r}")
            return (
                f"(None if ({lt} := {left}) is None or "
                f"({rt} := {right}) is None else {inner})"
            )
        if isinstance(expr, FuncCall):
            return self._emit_call(expr)
        if isinstance(expr, IsNull):
            # Bind through a temp so a literal child never produces an
            # ``<literal> is None`` SyntaxWarning.
            t = self.fresh("t")
            return f"(({t} := {self.emit(expr.child)}) is None)"
        if isinstance(expr, InSubquery):
            if c.in_subquery_fn is None:
                raise CodegenUnsupported("IN subqueries unavailable here")
            members = self.const(c.in_subquery_fn(expr.select))
            t = self.fresh("t")
            inner = self.emit(expr.expr)
            op = "not in" if expr.negated else "in"
            return f"(({t} := {inner}) is not None and {t} {op} {members})"
        if isinstance(expr, ScalarSubquery):
            if self.mode != "row" or c.subquery_fn is None:
                raise CodegenUnsupported("scalar subqueries need row mode")
            fn = self.const(c.subquery_fn)
            ast = self.const(expr.select)
            return f"{fn}({ast}, _r)"
        if isinstance(expr, Star):
            raise ExecutionError("'*' is only valid in a SELECT list")
        if isinstance(expr, Param):
            # ExecutionError, not CodegenUnsupported: an unbound Param
            # must not silently fall back to the closure compiler.
            raise ExecutionError(
                f"unbound parameter {expr.name or expr.index!r}: "
                "bind values before execution (see repro.expr.params)"
            )
        raise CodegenUnsupported(f"no codegen for {type(expr).__name__}")

    def _emit_call(self, expr: FuncCall) -> str:
        name = expr.name.lower()
        target = self.compiler.udfs.get(name) or _BUILTIN_SCALARS.get(name)
        if target is None:
            raise ExecutionError(
                f"unknown function {expr.name!r} "
                "(aggregates are only valid in SELECT/HAVING)"
            )
        fn = self.const(target)
        args = ", ".join(self.emit(a) for a in expr.args)
        return f"{fn}({args})"

    def metered_helper(self, expr: Or) -> str:
        """A wide OR becomes a flat helper (returns its name; the value
        is ``name(arg)``): per-row short-circuit with
        ``policy_evals += <disjuncts actually checked>`` — byte-for-byte
        the accounting of the closure compiler's metered OR.

        In row mode the helper takes the row; in column mode it takes
        the row index and closes over the kernel's column locals, so
        nested policy ORs stay metered inside batch kernels."""
        name = self.fresh("h")
        ctr = self.const(self.compiler.counters)
        lines = [f"def {name}({self.arg}):"]
        for i, child in enumerate(expr.children):
            lines.append(f"    if {self.emit(child)}:")
            lines.append(f"        {ctr}.policy_evals += {i + 1}")
            lines.append("        return True")
        lines.append(f"    {ctr}.policy_evals += {len(expr.children)}")
        lines.append("    return False")
        if self.mode == "row":
            self.defs.append("\n".join(lines))
        else:
            self.inner_defs.append("\n".join(lines))
        return name


def _probe_constant(value: Any) -> bool:
    """Can a dict or ``bisect`` look-up stand in for ``==`` / ``<=``
    against this constant?  Not NULL (equal to nothing), not NaN
    (unequal to itself), not an unhashable value."""
    try:
        hash(value)
    except TypeError:
        return False
    return value is not None and value == value


def _guard_head(branch: Expr) -> tuple[Expr, Expr | None]:
    """A guard OR's branch as ``(head, rest)``: the guard condition and
    what is ANDed to it (``None`` for a guard alone)."""
    if not isinstance(branch, And):
        return branch, None
    head, *rest = branch.children
    return head, rest[0] if len(rest) == 1 else And(tuple(rest))


def _head_points(head: Expr) -> tuple[ColumnRef, list] | None:
    """Column and constants of a ``col = lit`` / ``col IN (lits)`` head
    — what a dict finds — or ``None`` for any other shape."""
    if isinstance(head, Comparison) and head.op is CompareOp.EQ:
        column, items = head.left, (head.right,)
    elif isinstance(head, InList) and not head.negated:
        column, items = head.expr, head.items
    else:
        return None
    if isinstance(column, ColumnRef) and all(
        isinstance(item, Literal) and _probe_constant(item.value) for item in items
    ):
        return column, [item.value for item in items]
    return None


def _head_span(head: Expr) -> tuple[ColumnRef, Any, Any] | None:
    """``(column, lo, hi)`` of a ``col BETWEEN lit AND lit`` head, or
    ``None`` for any other shape."""
    if (
        isinstance(head, Between)
        and not head.negated
        and isinstance(head.expr, ColumnRef)
        and isinstance(head.low, Literal)
        and isinstance(head.high, Literal)
        and _probe_constant(head.low.value)
        and _probe_constant(head.high.value)
    ):
        return head.expr, head.low.value, head.high.value
    return None


def _span_table(spans: list[tuple]) -> tuple[list, tuple]:
    """``(points, table)`` for ``(lo, hi, ordinal)`` spans, ordinals
    ascending: ``table[bisect_left(points, v) + bisect_right(points, v)]``
    holds the ordinals of the spans containing ``v`` — an odd slot
    ``2k + 1`` is the point ``points[k]`` itself, an even slot ``2k``
    the open gap below it.  Raises ``TypeError`` when the bounds have no
    common order."""
    points = sorted({bound for lo, hi, _j in spans for bound in (lo, hi)})
    table: list[list[int]] = [[] for _ in range(2 * len(points) + 1)]
    for lo, hi, j in spans:
        for slot in range(2 * bisect_left(points, lo) + 1, 2 * bisect_left(points, hi) + 2):
            table[slot].append(j)
    return points, tuple(map(tuple, table))


def _merge_candidates(*found: tuple | None) -> tuple:
    """Several look-ups' branch ordinals as one ascending tuple."""
    parts = [part for part in found if part]
    if len(parts) == 1:
        return parts[0]
    return tuple(sorted(chain.from_iterable(parts)))


class CodegenExprCompiler:
    """Source-generating drop-in for :class:`ExprCompiler`.

    Same constructor contract as the closure compiler; ``compile``
    falls back to it whenever generation or ``compile()`` of the
    rendered source fails, so callers never need a capability check.
    """

    def __init__(
        self,
        binding: RowBinding,
        udfs: dict[str, Callable[..., Any]] | None = None,
        subquery_fn: Callable[[Any, tuple], Any] | None = None,
        in_subquery_fn: Callable[[Any], frozenset] | None = None,
        counters: Any = None,
    ):
        self.binding = binding
        self.udfs = udfs or {}
        self.subquery_fn = subquery_fn
        self.in_subquery_fn = in_subquery_fn
        self.counters = counters

    # ------------------------------------------------------------- row mode

    def compile(self, expr: Expr) -> RowFn:
        try:
            emitter = _Emitter(self, "row")
            if is_metered_or(expr, self.counters):
                main = emitter.metered_helper(expr)  # a row function already: no wrapper frame
            else:
                main = "_main"
                emitter.defs.append(f"def _main(_r):\n    return {emitter.emit(expr)}")
            return self._exec("\n\n".join(emitter.defs), emitter.env)[main]
        except ExecutionError:
            raise
        except Exception:
            return self._closure().compile(expr)

    def _closure(self) -> ExprCompiler:
        return ExprCompiler(
            self.binding,
            udfs=self.udfs,
            subquery_fn=self.subquery_fn,
            in_subquery_fn=self.in_subquery_fn,
            counters=self.counters,
        )

    # ---------------------------------------------------------- column mode

    def compile_batch_predicate(self, expr: Expr) -> BatchPredFn:
        """``fn(columns, selection, constants=()) -> passing indices``
        (order kept).  ``expr`` is usually a *shape*
        (:func:`~repro.expr.params.lift_constants`): its
        :class:`KernelConst` slots read ``constants``, so one compiled
        kernel serves every binding of the shape; literals still in the
        tree are inlined.

        Raises :class:`CodegenUnsupported` for trees that must stay on
        the row path (scalar subqueries) — the vectorized executor
        catches it and routes those per row.  Nested metered ORs
        become kernel-local per-index helpers, so policy accounting
        survives inside batch kernels.
        """
        emitter = _Emitter(self, "col")
        body = emitter.emit(expr)
        return self._kernel(emitter, [f"    return [_i for _i in _sel if {body}]"], _SHAPE_ARGS)

    def compile_batch_values(self, expr: Expr) -> BatchValueFn:
        """``fn(columns, selection, constants=()) -> value list`` (one
        per index); constants as in :meth:`compile_batch_predicate`."""
        emitter = _Emitter(self, "col")
        body = emitter.emit(expr)
        return self._kernel(emitter, [f"    return [{body} for _i in _sel]"], _SHAPE_ARGS)

    def compile_batch_guard(
        self, expr: Or, compiled_branch: Callable[[Expr], RowFn] | None = None
    ) -> BatchPredFn:
        """The fused form of guard-by-guard evaluation: one wide
        (metered) OR as a single kernel.

        Per index, disjuncts are tried in order; the first hit appends
        the index to the output selection and stops — accumulating the
        per-row checked count so one ``policy_evals`` update per batch
        carries exactly the tuple path's total.

        A branch ``head`` or ``head AND rest`` whose head compares one
        column with constants (``=``, ``IN``, ``BETWEEN`` — what a guard
        is) is not walked to but *found* (:meth:`_guard_candidates`).
        A first pass keeps ``(index, candidates)`` for the rows that
        have a candidate branch and charges the others ``width`` apiece
        in one multiplication; the second tries only the candidates, in
        ordinal order, charging ``ordinal + 1`` on the first hit and
        ``width`` on none.  That is the sequential walk's charge tick
        for tick: a skipped branch's head is false for the row, so the
        walk never reached its remainder (nor the partition OR's own
        metering inside it).

        The compile unit of that form is the *branch*, not the OR: what
        a candidate still has to evaluate is a row function compiled on
        its own (:meth:`compile_guard_branch`; ``compiled_branch(branch)``
        lets the caller supply it from a cache) and the kernel is only
        the dispatch shell — the look-up tables, rebuilt from the heads,
        and the two loops — around those.  An OR that differs from one
        already compiled in one branch therefore compiles one branch.
        Which branch function a row calls, and in which order, depends
        on the heads alone, so the charge is the one above whichever way
        the functions were obtained.  The shell takes the batch's row
        tuples beside its columns, ``fn(columns, selection, rows)`` —
        the first pass reads a column per row, the second hands the few
        candidates' tuples to the branch functions (without ``rows`` it
        transposes the columns back).

        When no branch can be looked up, every branch is a candidate of
        every row: the candidate loop is emitted unrolled, in one unit
        over the columns alone (``rows`` is accepted and unused), and
        there is no first pass.
        """
        emitter = _Emitter(self, "col", hoisted=True)
        width = len(expr.children)
        candidates = self._guard_candidates(emitter, expr.children)
        if candidates is None:
            tries: list[str] = []
            for j, test in enumerate(expr.children):
                tries += [
                    f"        if {emitter.emit(test)}:",
                    f"            _n += {j + 1}",
                    "            _add(_i)",
                    "            continue",
                ]
            tries.append(f"        _n += {width}")
            loop = ["    _n = 0", "    for _i in _sel:"]
        else:
            compiled = compiled_branch or self.compile_guard_branch
            fns = emitter.const(tuple(compiled(branch) for branch in expr.children))
            loop = [
                f"    _fns = {fns}",
                "    if _rows is None:",
                "        _rows = list(zip(*_cols))",
                f"    _cand = [(_i, _js) for _i in _sel if (_js := {candidates})]",
                f"    _n = {width} * (len(_sel) - len(_cand))",
                "    for _i, _js in _cand:",
            ]
            tries = [
                "        for _j in _js:",
                "            if _fns[_j](_rows[_i]):",
                "                _n += _j + 1",
                "                _add(_i)",
                "                break",
                "        else:",
                f"            _n += {width}",
            ]
        ctr = emitter.const(self.counters)
        lines = [
            "    _hits = []",
            "    _add = _hits.append",
            *loop,
            *(f"        _v{pos} = _c{pos}[_i]" for pos in sorted(emitter.used_columns)),
            *tries,
            f"    {ctr}.policy_evals += _n",
            "    return _hits",
        ]
        if candidates is None:
            unrolled = self._kernel(emitter, lines)
            return lambda cols, sel, rows=None: unrolled(cols, sel)
        return self._kernel(emitter, lines, "_cols, _sel, _rows=None")

    def compile_guard_branch(self, branch: Expr) -> RowFn:
        """One branch of a dispatched guard OR as a row function: what
        is left to evaluate of a row once the look-up has named the
        branch a candidate — the whole branch, or only its remainder
        (nothing: ``True``) behind a head a dict found, whose hit *is*
        the head evaluated true."""
        head, rest = _guard_head(branch)
        test = rest if _head_points(head) is not None else branch
        return self.compile(test if test is not None else Literal(True))

    def _guard_candidates(self, emitter: _Emitter, branches: tuple[Expr, ...]) -> str | None:
        """How a row finds the branches of a guard OR that can hold for
        it: an expression (over ``_c<pos>[_i]``; ``None`` when no branch
        can be looked up) giving the ascending ordinals of the row's
        candidate branches, or something false.  Per guard column, a
        dict maps each ``=`` / ``IN`` constant to its branches, and a
        sorted-bounds table (:func:`_span_table`) each value to the
        ``BETWEEN`` heads containing it; a branch neither can stand in
        for is a candidate of every row.
        """
        points: dict[int, dict[Any, list[int]]] = {}  # column -> constant -> ordinals
        spans: dict[int, list[tuple]] = {}  # column -> (lo, hi, ordinal)
        for j, branch in enumerate(branches):
            head = _guard_head(branch)[0]
            if (eq := _head_points(head)) is not None:
                found = points.setdefault(self.binding.resolve(eq[0]), {})
                for value in eq[1]:
                    ordinals = found.setdefault(value, [])
                    if not ordinals or ordinals[-1] != j:
                        ordinals.append(j)
            elif (span := _head_span(head)) is not None:
                spans.setdefault(self.binding.resolve(span[0]), []).append((*span[1:], j))
        lookups: list[str] = []
        always = set(range(len(branches)))
        for pos, found in points.items():
            table = emitter.const({value: tuple(js) for value, js in found.items()}.get)
            lookups.append(f"{table}(_c{pos}[_i])")
            always.difference_update(*found.values())
            emitter.probe_columns.add(pos)
        for pos, column_spans in spans.items():
            try:
                bounds, slots = _span_table(column_spans)
            except TypeError:
                continue  # bounds without a common order: candidates of every row
            at, table = emitter.const(bounds), emitter.const(slots)
            lookups.append(
                f"((_w := _c{pos}[_i]) is not None and {table}[_bl({at}, _w) + _br({at}, _w)])"
            )
            always.difference_update(j for _lo, _hi, j in column_spans)
            emitter.probe_columns.add(pos)
        if not lookups:
            return None
        if always:
            lookups.insert(0, emitter.const(tuple(sorted(always))))
        emitter.env.update(_bl=bisect_left, _br=bisect_right, _mrg=_merge_candidates)
        return lookups[0] if len(lookups) == 1 else f"_mrg({', '.join(lookups)})"

    def _kernel(
        self, emitter: _Emitter, body_lines: list[str], args: str = "_cols, _sel"
    ) -> Callable:
        prelude = [
            f"    _c{pos} = _cols[{pos}]"
            for pos in sorted(emitter.used_columns | emitter.probe_columns)
        ]
        if emitter.n_consts:
            slots = "".join(f"_q{i}, " for i in range(emitter.n_consts))
            prelude.append(f"    {slots}= _consts")
        inner = [
            "\n".join("    " + line for line in block.split("\n"))
            for block in emitter.inner_defs
        ]
        src = "\n".join(
            [f"def _kernel({args}):", *prelude, *inner, *body_lines]
        )
        return self._exec(src, emitter.env)["_kernel"]

    @staticmethod
    def _exec(src: str, env: dict[str, Any]) -> dict[str, Any]:
        namespace = dict(env)
        exec(compile(src, "<sieve-codegen>", "exec"), namespace)  # noqa: S102
        return namespace
