"""Expression codegen: Expr trees compiled to single Python functions.

The closure compiler in :mod:`repro.expr.eval` builds a *tree* of
nested lambdas — evaluating ``a = 1 AND b < 5`` costs five Python
frames per row.  This module instead renders the whole tree into one
Python source function and ``compile()``s it, so a row evaluation is
one call whose body is plain inline bytecode.  Semantics (NULL logic —
two-valued where a predicate is tested, three-valued beneath ``NOT`` and
where a predicate's value is read — short-circuiting,
metered policy ORs) are identical to the closure compiler by
construction: every construct is generated from the same rules, and
the differential/property tests assert value and counter equality.  Any tree the generator cannot render falls back to
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
  walking them all, and the rows that share candidates go to those
  branches' batch functions, one call per branch per group) with the
  expression inlined.  A branch's function is rendered as its *shape*
  — every literal and column position a placeholder constant — so one
  code object serves every branch of that shape, each instantiated
  with its own values bound into a copy of the code object's
  constants.  Nested metered ORs
  compile to kernel-local per-index helpers so ``policy_evals``
  accounting survives inside batch kernels; only scalar subqueries are
  refused
  (:class:`CodegenUnsupported`) — they need the outer row, so the
  executor routes such trees per row.

:class:`CompiledExprCache` is the cross-execution LRU for compiled
callables (keyed by structural expression equality — of the shape,
for a non-guard kernel — + binding layout + mode; a guard kernel's
dispatch shell and a guard branch's shape are keyed by their source
and hold its code object, which each branch rebinds); the
Database owns one instance so repeated queries
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
from types import CodeType
from typing import Any, Callable, Iterable

from repro.common.errors import ExecutionError
from repro.expr.analysis import conjuncts
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
    PREDICATES,
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
#: stay in its environment (its dispatch tables are built from them).
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

    A dictionary finds an entry it already holds by identity, without
    comparing trees.  ``parts`` are the object ids of the expression's
    top-level conjuncts, the ids the cache files the entry under for
    :meth:`CompiledExprCache.discard_conjuncts` (the entry holds the
    expression, so they stay valid while it is held)."""

    __slots__ = ("expr", "extra", "fn", "parts", "_hash")

    def __init__(
        self, expr: Any, extra: tuple, fn: Callable | None = None, parts: tuple[int, ...] = ()
    ):
        self.expr = expr
        self.extra = extra
        self.fn = fn
        self.parts = parts
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
    from independent rewrites hit the same entry.  Under mode
    ``"source"`` the key is a generated source and the value its code
    object: a guard kernel's dispatch shell, or a guard branch's shape,
    from which each branch of that shape is instantiated with its own
    constants (:meth:`CodegenExprCompiler.compile_guard_branch`).  The
    cache counts its own :meth:`lookup` traffic, :attr:`hits` and
    :attr:`misses`, under its lock.
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        #: Each entry is its own key, so a structural probe (an entry
        #: without a callable) comes back as the entry the cache holds.
        self._entries: OrderedDict[_Entry, _Entry] = OrderedDict()
        # Fast path: (id(expr), extra) -> (expr, entry).  Structural
        # keys make warm queries hit across re-rewrites, but a structural
        # probe hashes the key and compares trees; once an expression
        # *object* has hit, later lookups through the same object reach
        # the held entry — hash remembered, matched by identity — and
        # never touch the tree.  The alias holds the expression, so its
        # id stays valid for as long as the alias can resolve.
        self._id_alias: dict[tuple, tuple[Any, _Entry]] = {}
        # What discard_conjuncts reads instead of scanning: each held
        # entry under the ids of its top-level conjuncts, and the
        # aliases resolving to each entry (structurally: an alias left
        # by a replaced twin or an evicted entry resolves to its equal),
        # exactly the alias map's keys, cleared with it.
        self._by_part: dict[int, list[_Entry]] = {}
        self._aliases_of: dict[_Entry, list[tuple]] = {}
        # The cache is shared by every executor of one Database — and
        # the serving tier's workers execute on one Database from many
        # threads, where an unlocked LRU's move_to_end/popitem races
        # would corrupt mid-query (the same hazard the plan cache locks
        # against).  Compilation and tree hashing stay outside the lock.
        self._lock = threading.Lock()
        self.hits = self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, expr: Any, extra: tuple, by_identity: bool = True) -> Callable | None:
        """Two-tier get: by expression object id first, then by
        structural key (registering the id alias on a hit).  Kernel
        *shapes* are looked up with ``by_identity=False`` — structural
        tier only: a fresh binding's shape is an object nothing will
        present again, and an alias for it would only be garbage."""
        if by_identity:
            alias = (id(expr), extra)
            with self._lock:
                aliased = self._id_alias.get(alias)
                if aliased is not None:
                    entry = self._get(aliased[1])
                    if entry is not None:
                        self.hits += 1
                        return entry.fn
                    self._unalias(alias)  # evicted under the alias
        probe = _Entry(expr, extra)
        with self._lock:
            entry = self._get(probe)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            if by_identity:
                self._alias(alias, expr, entry)
        return entry.fn

    def _get(self, key: _Entry) -> _Entry | None:
        """The held entry equal to ``key`` (lock held), refreshed in
        the LRU order."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(entry)
        return entry

    def store(self, expr: Any, extra: tuple, fn: Callable, by_identity: bool = True) -> None:
        entry = _Entry(expr, extra, fn, tuple(id(part) for part in conjuncts(expr)))
        with self._lock:
            entries = self._entries
            twin = entries.pop(entry, None)  # a structural twin leaves, key and all
            if twin is not None:
                self._unfile(twin)
            entries[entry] = entry
            for part in entry.parts:
                self._by_part.setdefault(part, []).append(entry)
            while len(entries) > self.capacity:
                self._unfile(entries.popitem(last=False)[0])
            if by_identity:
                self._alias((id(expr), extra), expr, entry)

    def _unfile(self, entry: _Entry) -> None:
        """Take a departing entry out of the conjunct index (lock held)."""
        for part in entry.parts:
            filed = self._by_part[part]
            filed.remove(entry)
            if not filed:
                del self._by_part[part]

    def _alias(self, alias: tuple, expr: Any, entry: _Entry) -> None:
        # An alias keeps its expression alive, and the row functions
        # that still arrive as new objects per request — a table-less
        # SELECT's values, compiled per literal (every other non-guard
        # expression is looked up by shape, unaliased) — leave one each
        # that nothing looks up again; starting over costs the live ones
        # (guard ORs, guard branches) one structural probe each.
        if len(self._id_alias) > self.capacity:
            self._id_alias.clear()
            self._aliases_of.clear()
        if alias in self._id_alias:
            self._unalias(alias)
        self._id_alias[alias] = (expr, entry)
        self._aliases_of.setdefault(entry, []).append(alias)

    def _unalias(self, alias: tuple) -> None:
        entry = self._id_alias.pop(alias)[1]
        aliases = self._aliases_of[entry]
        aliases.remove(alias)
        if not aliases:
            del self._aliases_of[entry]

    def discard_conjuncts(self, nodes: Iterable[Any]) -> int:
        """Drop every entry whose expression shares a top-level conjunct
        (the very object) with one of ``nodes``, and the aliases that
        resolve to it; returns the number dropped.  How a superseded
        guarded expression takes its compiled predicates with it: a
        scan's filter stages are cached per conjunct, each holds guard
        AST and a generated kernel, and nothing would look them up
        again.  The entries are found through the conjunct index, so a
        release costs the released nodes, not the cache."""
        wanted = {id(part) for node in nodes for part in conjuncts(node)}
        with self._lock:
            doomed = set().union(*(self._by_part.get(part, ()) for part in wanted))
            for entry in doomed:
                del self._entries[entry]
                self._unfile(entry)
                for alias in self._aliases_of.pop(entry, ()):
                    del self._id_alias[alias]
        return len(doomed)

    def clear(self) -> int:
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
            self._id_alias.clear()
            self._by_part.clear()
            self._aliases_of.clear()
            return n


class _Emitter:
    """Renders one expression tree into Python source.

    ``mode`` is ``"row"`` (references spelled ``_r[pos]``), ``"col"``
    (``_c<pos>[_i]``, with the touched columns recorded for the kernel
    prelude) or ``"branch"`` (a guard branch's loop over ``_i``: each
    column reference its own array ``_c<k>[_i]``, ``k`` in emission
    order, and a metered OR charging the loop's local ``_n``).  Helper
    functions (metered ORs) accumulate in ``defs``; constants/callables
    that cannot be inlined land in ``env``.
    """

    def __init__(
        self,
        compiler: "CodegenExprCompiler",
        mode: str,
        slotted: bool = False,
    ):
        self.compiler = compiler
        self.mode = mode
        #: What a helper function takes: the row, or the row's index.
        self.arg = "_r" if mode == "row" else "_i"
        self.defs: list[str] = []  # row mode: module-level helper functions
        self.inner_defs: list[str] = []  # col mode: helpers nested in the kernel
        self.env: dict[str, Any] = {}
        self.used_columns: set[int] = set()
        #: Columns a guard kernel's first pass reads (bound in the
        #: prelude like ``used_columns``).
        self.probe_columns: set[int] = set()
        #: How many slots of the kernel's constants vector the tree
        #: reads (``_q<index>`` locals, unpacked in the prelude).
        self.n_consts = 0
        #: When a list (a guard branch), the source is a *shape*: every
        #: literal and column position is spelled as a placeholder
        #: constant, ``"\0<index>"``, and its value is ``slots[index]``,
        #: bound into the compiled code (:func:`_bind_slots`).
        self.slots: list | None = [] if slotted else None
        #: Branch mode: per column reference, in emission order, the
        #: ``_cols`` subscript (a placeholder when slotted) that binds its
        #: array ``_c<k>`` once per call.
        self.branch_columns: list[str] = []
        self._n = 0

    def fresh(self, prefix: str) -> str:
        self._n += 1
        return f"_{prefix}{self._n}"

    def const(self, value: Any) -> str:
        name = self.fresh("k")
        self.env[name] = value
        return name

    def slot(self, value: Any) -> str:
        """A placeholder constant that :func:`_bind_slots` replaces by
        ``value``.  Placeholders are unique strings starting with NUL,
        and every string literal is slotted too, so the compiler can
        neither merge two slots nor confuse a slot with a real constant."""
        self.slots.append(value)  # type: ignore[union-attr]
        return repr(f"\0{len(self.slots) - 1}")  # type: ignore[arg-type]

    def literal(self, value: Any) -> str:
        if self.slots is not None:
            return self.slot(value)
        if value is None or isinstance(value, (bool, int, str)):
            return repr(value)
        if isinstance(value, float) and math.isfinite(value):
            return repr(value)
        return self.const(value)

    def bound(self, expr: Expr) -> tuple[str, str | None]:
        """A BETWEEN bound as ``(value, test)``: ``test`` is true when the
        value is not NULL — ``None`` for a literal or lifted constant that
        is not (``lift_constants`` leaves no NULL in a slot), ``False``
        for a NULL literal, else an assignment of the value to a fresh
        local, evaluated once."""
        if isinstance(expr, Literal) and expr.value is None:
            return "None", "False"
        if isinstance(expr, (Literal, KernelConst)):
            return self.emit(expr), None
        name = self.fresh("t")
        return name, f"({name} := {self.value(expr)}) is not None"

    def column(self, pos: int) -> str:
        if self.mode == "row":
            return f"_r[{pos}]"
        if self.mode == "branch":
            # A reference per array, whatever column it reads: which
            # references share a column is no part of the shape.
            self.branch_columns.append(str(pos) if self.slots is None else self.slot(pos))
            return f"_c{len(self.branch_columns) - 1}[_i]"
        self.used_columns.add(pos)
        return f"_c{pos}[_i]"

    # ------------------------------------------------------------ rendering

    def test(self, expr: Expr) -> str:
        """``expr`` where a truth value is tested (``if`` / ``not``): a
        literal there goes through ``bool()``, or the compiler would
        fold the test and drop a slot's placeholder."""
        text = self.emit(expr)
        return f"bool({text})" if isinstance(expr, Literal) else text

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
            left, right = self.value(expr.left), self.value(expr.right)
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
            # SQL in WHERE: BETWEEN is lo <= x AND x <= hi, never true
            # with a NULL bound; NOT BETWEEN is true past a non-NULL one.
            t = self.fresh("t")
            inner = self.value(expr.expr)
            (low, low_ok), (high, high_ok) = self.bound(expr.low), self.bound(expr.high)
            if low_ok is None and high_ok is None:  # bounds that cannot be NULL
                body = f"{low} <= {t} <= {high}"
                if expr.negated:
                    body = f"not ({body})"
            elif expr.negated:
                past_low = f"not ({low} <= {t})" if low_ok is None else f"{low_ok} and not ({low} <= {t})"
                past_high = f"not ({t} <= {high})" if high_ok is None else f"{high_ok} and not ({t} <= {high})"
                body = f"({past_low}) or ({past_high})"
            else:
                body = " and ".join(
                    part for part in (low_ok, f"{low} <= {t}", high_ok, f"{t} <= {high}") if part
                )
            return f"(({t} := {inner}) is not None and ({body}))"
        if isinstance(expr, InList):
            # NOT IN with a NULL item is never true in WHERE.
            t = self.fresh("t")
            inner = self.value(expr.expr)
            members = None
            if all(isinstance(i, Literal) for i in expr.items):
                values = frozenset(i.value for i in expr.items)  # type: ignore[union-attr]
                if expr.negated and None in values:
                    return f"(({t} := {inner}) is not None and False)"
                members = self.const(values)
            elif len(expr.items) == 1 and isinstance(expr.items[0], KernelConst):
                members = self.emit(expr.items[0])  # a lifted list: the set arrives whole
            if members is not None:
                op = "not in" if expr.negated else "in"
                return f"(({t} := {inner}) is not None and {t} {op} {members})"
            items = [self.value(i) for i in expr.items]
            if expr.negated:
                names = [self.fresh("t") for _ in items]
                body = " and ".join(
                    f"({x} := {item}) is not None and {t} != {x}" for x, item in zip(names, items)
                )
            else:
                body = " or ".join(f"{t} == {item}" for item in items)
            return f"(({t} := {inner}) is not None and ({body}))"
        if isinstance(expr, And):
            parts = [f"bool({self.emit(ch)})" for ch in expr.children]
            return "(" + " and ".join(parts) + ")"
        if isinstance(expr, Or):
            if is_metered_or(expr, c.counters):
                if self.mode == "branch":
                    return self.charged_or(expr)
                return f"{self.metered_helper(expr)}({self.arg})"
            parts = [f"bool({self.emit(ch)})" for ch in expr.children]
            return "(" + " or ".join(parts) + ")"
        if isinstance(expr, Not):
            # True only when the child is false: NOT of unknown is unknown.
            return f"({self.tri(expr.child)} is False)"
        if isinstance(expr, Arith):
            lt, rt = self.fresh("t"), self.fresh("t")
            left, right = self.value(expr.left), self.value(expr.right)
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
            # ``<literal> is None`` SyntaxWarning.  A predicate is NULL
            # when it is unknown: its three-valued form tells.
            t = self.fresh("t")
            return f"(({t} := {self.value(expr.child)}) is None)"
        if isinstance(expr, InSubquery):
            if c.in_subquery_fn is None:
                raise CodegenUnsupported("IN subqueries unavailable here")
            members = self.const(c.in_subquery_fn(expr.select))
            t = self.fresh("t")
            inner = self.value(expr.expr)
            op = "not in" if expr.negated else "in"
            return f"(({t} := {inner}) is not None and {t} {op} {members})"
        if isinstance(expr, ScalarSubquery):
            if self.mode == "col" or c.subquery_fn is None:
                raise CodegenUnsupported("scalar subqueries need the row")
            fn = self.const(c.subquery_fn)
            ast = self.const(expr.select)
            if self.mode == "branch":
                self.env["_row_at"] = _row_at
                return f"{fn}({ast}, _row_at(_cols, _i))"
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

    def value(self, expr: Expr) -> str:
        """``expr`` where its value is read — a select-list item, a key,
        an operand: a predicate there is three-valued (:meth:`tri`), so
        unknown reads NULL; anything else is :meth:`emit`'s source."""
        return self.tri(expr) if isinstance(expr, PREDICATES) else self.emit(expr)

    def tri(self, expr: Expr) -> str:
        """``expr`` in SQL's three-valued logic: Python source giving
        ``True``, ``False`` or ``None`` (unknown).  Only what a ``NOT``
        negates and a predicate whose value is read (:meth:`value`) are
        emitted this way — where a predicate is tested, unknown and false
        both reject the row, so the two-valued form of :meth:`emit`
        stands, and guard and query predicates keep their source."""
        if isinstance(expr, Not):
            t = self.fresh("t")
            return f"(None if ({t} := {self.tri(expr.child)}) is None else not {t})"
        if isinstance(expr, (And, Or)):
            if is_metered_or(expr, self.compiler.counters):
                return f"{self.metered_helper(expr, tri=True)}({self.arg})"
            # Kleene: the first false (AND) or true (OR) decides, else
            # unknown if any child was, else the other truth value.
            decides, other = ("False", "True") if isinstance(expr, And) else ("True", "False")
            names = [self.fresh("t") for _ in expr.children]
            tries = [
                f"{decides} if ({name} := {self.tri(child)}) is {decides} else "
                for name, child in zip(names, expr.children)
            ]
            unknown = " or ".join(f"{name} is None" for name in names)
            return f"({''.join(tries)}None if {unknown} else {other})"
        if isinstance(expr, Comparison):
            lt, rt = self.fresh("t"), self.fresh("t")
            left, right = self.value(expr.left), self.value(expr.right)
            compared = f"{lt} {_CMP_OPS[expr.op]} {rt}"
            if isinstance(expr.right, (Literal, KernelConst, ColumnRef)):  # lazy, as in emit
                return f"(None if ({lt} := {left}) is None or ({rt} := {right}) is None else {compared})"
            return f"((({lt} := {left}), ({rt} := {right})) and (None if {lt} is None or {rt} is None else {compared}))"
        if isinstance(expr, Between):
            # x BETWEEN lo AND hi is lo <= x AND x <= hi, in Kleene logic.
            t, lo, hi = self.fresh("t"), self.fresh("t"), self.fresh("t")
            inner, low, high = self.value(expr.expr), self.value(expr.low), self.value(expr.high)
            body = (
                f"(None if ({t} := {inner}) is None else False if "
                f"(({lo} := {low}) is not None and not {lo} <= {t}) or "
                f"(({hi} := {high}) is not None and not {t} <= {hi}) "
                f"else None if {lo} is None or {hi} is None else True)"
            )
            return self._negated3(body) if expr.negated else body
        if isinstance(expr, (InList, InSubquery)):
            t = self.fresh("t")
            inner = self.value(expr.expr)
            if isinstance(expr, InSubquery):
                if self.compiler.in_subquery_fn is None:
                    raise CodegenUnsupported("IN subqueries unavailable here")
                members = self.compiler.in_subquery_fn(expr.select)
                body = self._member3(t, inner, self.const(members), None in members)
            elif all(isinstance(i, Literal) for i in expr.items):
                values = frozenset(i.value for i in expr.items)  # type: ignore[union-attr]
                body = self._member3(t, inner, self.const(values), None in values)
            elif len(expr.items) == 1 and isinstance(expr.items[0], KernelConst):
                # A lifted list: its set holds no NULL beneath a NOT.
                body = self._member3(t, inner, self.emit(expr.items[0]), False)
            else:
                items = ", ".join(self.value(i) for i in expr.items)
                body = f"(None if ({t} := {inner}) is None else {self.const(_in3)}({t}, ({items},)))"
            return self._negated3(body) if expr.negated else body
        if isinstance(expr, IsNull):
            return self.emit(expr)  # never unknown
        t = self.fresh("t")
        return f"(None if ({t} := {self.emit(expr)}) is None else bool({t}))"

    def _member3(self, t: str, inner: str, members: str, has_null: bool) -> str:
        """``inner IN members``: unknown for a NULL probe, or when no
        member equals it and one is NULL."""
        missing = "None" if has_null else "False"
        return f"(None if ({t} := {inner}) is None else True if {t} in {members} else {missing})"

    def _negated3(self, body: str) -> str:
        t = self.fresh("t")
        return f"(None if ({t} := {body}) is None else not {t})"

    def _emit_call(self, expr: FuncCall) -> str:
        name = expr.name.lower()
        target = self.compiler.udfs.get(name) or _BUILTIN_SCALARS.get(name)
        if target is None:
            raise ExecutionError(
                f"unknown function {expr.name!r} "
                "(aggregates are only valid in SELECT/HAVING)"
            )
        fn = self.const(target)
        args = ", ".join(self.value(a) for a in expr.args)
        return f"{fn}({args})"

    def charged_or(self, expr: Or) -> str:
        """A wide OR inside a guard branch's loop, inline: the first true
        disjunct adds its ordinal + 1 to the loop's charge ``_n``, none
        adds the width — the metered helper's accounting, with no call."""
        parts = [f"{self.test(child)} and (_n := _n + {i + 1}) > 0" for i, child in enumerate(expr.children)]
        return "(" + " or ".join([*parts, f"(_n := _n + {len(expr.children)}) < 0"]) + ")"

    def metered_helper(self, expr: Or, tri: bool = False) -> str:
        """A wide OR becomes a flat helper (returns its name; the value
        is ``name(arg)``): per-row short-circuit with
        ``policy_evals += <disjuncts actually checked>`` — byte-for-byte
        the accounting of the closure compiler's metered OR.

        In row mode the helper takes the row; in column mode it takes
        the row index and closes over the kernel's column locals, so
        nested policy ORs stay metered inside batch kernels.  ``tri``
        (beneath a ``NOT``) makes it three-valued: a row no disjunct
        admits is unknown when one of them was, at the same charge."""
        if self.mode == "branch":
            raise CodegenUnsupported("a metered OR beneath NOT in a guard branch")
        name = self.fresh("h")
        ctr = self.const(self.compiler.counters)
        lines = [f"def {name}({self.arg}):"]
        if tri:
            lines.append("    _u = False")
        for i, child in enumerate(expr.children):
            if tri:
                lines.append(f"    _x = {self.tri(child)}")
                lines.append("    if _x is None:")
                lines.append("        _u = True")
                lines.append("    elif _x:")
            else:
                lines.append(f"    if {self.test(child)}:")
            lines.append(f"        {ctr}.policy_evals += {i + 1}")
            lines.append("        return True")
        lines.append(f"    {ctr}.policy_evals += {len(expr.children)}")
        lines.append("    return None if _u else False" if tri else "    return False")
        if self.mode == "row":
            self.defs.append("\n".join(lines))
        else:
            self.inner_defs.append("\n".join(lines))
        return name


def _row_at(cols: list, i: int) -> tuple:
    """The row at index ``i`` of column arrays ``cols`` (what a scalar
    subquery in a guard branch is handed as its outer row)."""
    return tuple([col[i] for col in cols])


def _in3(value: Any, items: tuple) -> bool | None:
    """``value IN items`` for a non-NULL ``value`` in three-valued logic.
    An item matches as a set member does — the very object (a NaN) or
    an equal one — so a list the shape lifter keeps item by item reads
    as the same list held as one set."""
    if any(item is value or (item is not None and value == item) for item in items):
        return True
    return None if None in items else False


def probe_constant(value: Any) -> bool:
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
        isinstance(item, Literal) and probe_constant(item.value) for item in items
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
        and probe_constant(head.low.value)
        and probe_constant(head.high.value)
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


def _bind_slots(code: CodeType, values: list) -> CodeType:
    """``code`` with each placeholder constant (:meth:`_Emitter.slot`)
    replaced by its value, in the nested helpers' code objects too.
    Raises ``ValueError`` unless every slot is bound — a placeholder
    the compiler folded away would leave its value unread."""
    found: set[int] = set()
    plan = _slot_plan(code, found)
    if found != set(range(len(values))):
        raise ValueError("a placeholder constant was folded")
    return _bind_plan(plan, values)


def _same_values(mine: list | None, theirs: list) -> bool:
    """Equal value for value and type (``1`` is not ``1.0`` nor ``True``
    as a constant), or the very object (NaN)."""
    return (
        mine is not None
        and len(mine) == len(theirs)
        and all(a is b or (type(a) is type(b) and a == b) for a, b in zip(mine, theirs))
    )


class BranchShape:
    """A guard branch's compiled shape: the code object with its
    placeholder constants — where each sits, found once — and the names
    its environment constants take, in emission order."""

    __slots__ = ("plan", "names")

    def __init__(self, code: CodeType, names: tuple[str, ...], n_slots: int):
        found: set[int] = set()
        self.plan = _slot_plan(code, found)
        if found != set(range(n_slots)):
            raise ValueError("a placeholder constant was folded")  # as _bind_slots refuses it
        self.names = names

    def instance(self, slots: list, consts: list) -> "BranchFn":
        """The branch function of one branch of this shape: its slot
        values bound into a copy of the code object (as
        :func:`_bind_slots` binds them), its constants as the
        environment."""
        namespace = dict(zip(self.names, consts))
        exec(_bind_plan(self.plan, slots), namespace)  # noqa: S102
        return namespace["_branch"]


def _slot_plan(code: CodeType, found: set[int]) -> tuple:
    """``(code, placeholders, nested)``: the positions in ``co_consts``
    of each placeholder, as ``(position, slot)``, and of each nested
    code object, as ``(position, its plan)``; the slots seen go to
    ``found``."""
    placeholders, nested = [], []
    for at, const in enumerate(code.co_consts):
        if type(const) is CodeType:
            nested.append((at, _slot_plan(const, found)))
        elif type(const) is str and const[:1] == "\0":
            placeholders.append((at, int(const[1:])))
            found.add(placeholders[-1][1])
    return code, placeholders, nested


def _bind_plan(plan: tuple, values: list) -> CodeType:
    code, placeholders, nested = plan
    consts = list(code.co_consts)
    for at, slot in placeholders:
        consts[at] = values[slot]
    for at, inner in nested:
        consts[at] = _bind_plan(inner, values)
    return code.replace(co_consts=tuple(consts))


class _ShapeReader:
    """A guard branch's shape key, slot values and environment constants,
    read off its nodes without rendering: it visits them in the order
    :class:`_Emitter` (branch mode, slotted) emits them, taking a slot
    for every literal and column position and a constant for every set
    and UDF the emitter would take.  The key spells each node's kind and
    whatever else of it the source depends on; a tree holding anything
    else (a subquery, ``NOT``, a lifted constant) reads as ``None`` and
    is rendered."""

    def __init__(self, compiler: "CodegenExprCompiler"):
        self.compiler = compiler
        self.slots: list = []
        self.consts: list = []

    def read(self, expr: Expr) -> tuple[tuple, list, list] | None:
        try:
            key = self.key(expr)
        except _Unreadable:
            return None
        return key, self.slots, self.consts

    def key(self, expr: Expr) -> tuple | str:
        kind = expr.__class__
        if kind is Between or kind is Comparison:
            # A policy condition — a column against literals — read in
            # one step; the general cases below give the same key.
            column = expr.expr if kind is Between else expr.left  # type: ignore[attr-defined]
            if column.__class__ is ColumnRef:
                if kind is Comparison and expr.right.__class__ is Literal:  # type: ignore[attr-defined]
                    self.slots += (self.compiler.binding.resolve(column), expr.right.value)  # type: ignore[attr-defined]
                    return _COMPARISON_KEYS[expr.op]  # type: ignore[attr-defined]
                if (
                    kind is Between
                    and expr.low.__class__ is Literal  # type: ignore[attr-defined]
                    and expr.high.__class__ is Literal  # type: ignore[attr-defined]
                    and expr.low.value is not None  # type: ignore[attr-defined]
                    and expr.high.value is not None  # type: ignore[attr-defined]
                ):
                    self.slots += (self.compiler.binding.resolve(column), expr.low.value, expr.high.value)  # type: ignore[attr-defined]
                    return _BETWEEN_KEYS[expr.negated]  # type: ignore[attr-defined]
        if isinstance(expr, Literal):
            self.slots.append(expr.value)
            return "L"
        if isinstance(expr, ColumnRef):
            self.slots.append(self.compiler.binding.resolve(expr))
            return "C"
        if isinstance(expr, Comparison):
            simple = isinstance(expr.right, (Literal, KernelConst, ColumnRef))
            return ("cmp", expr.op.value, simple, self.key(expr.left), self.key(expr.right))
        if isinstance(expr, Between):
            return ("btw", expr.negated, self.key(expr.expr), self.bound(expr.low), self.bound(expr.high))
        if isinstance(expr, InList):
            inner = self.key(expr.expr)
            if all(isinstance(i, Literal) for i in expr.items):
                try:
                    values = frozenset(i.value for i in expr.items)  # type: ignore[union-attr]
                except TypeError:
                    raise _Unreadable from None
                if expr.negated and None in values:
                    return ("in-null", inner)
                self.consts.append(values)
                return ("in", expr.negated, inner)
            return ("in-items", expr.negated, inner, *map(self.key, expr.items))
        if isinstance(expr, And):
            return ("and", *map(self.key, expr.children))
        if isinstance(expr, Or):
            metered = is_metered_or(expr, self.compiler.counters)
            return ("metered" if metered else "or", *map(self.key, expr.children))
        if isinstance(expr, Arith) and expr.op in ("+", "-", "*", "/", "%"):
            return ("arith", expr.op, self.key(expr.left), self.key(expr.right))
        if isinstance(expr, FuncCall):
            name = expr.name.lower()
            target = self.compiler.udfs.get(name) or _BUILTIN_SCALARS.get(name)
            if target is None:
                raise _Unreadable
            self.consts.append(target)
            return ("call", *map(self.key, expr.args))
        if isinstance(expr, IsNull):
            return ("isnull", self.key(expr.child))
        raise _Unreadable

    def bound(self, expr: Expr) -> tuple | str:
        """A BETWEEN bound, as :meth:`_Emitter.bound` tells them apart."""
        if isinstance(expr, Literal) and expr.value is None:
            return "null"
        return self.key(expr) if isinstance(expr, Literal) else ("value", self.key(expr))


_COMPARISON_KEYS = {op: ("cmp", op.value, True, "C", "L") for op in CompareOp}
_BETWEEN_KEYS = {negated: ("btw", negated, "C", "L", "L") for negated in (False, True)}


class _Unreadable(Exception):
    """A node :class:`_ShapeReader` does not read."""


def _guard_lookups(binding: RowBinding, branches: tuple[Expr, ...]) -> tuple[dict, dict, set[int]]:
    """How the branches of a guard OR are found: ``(points, spans,
    always)`` — per column position, a dict from each ``=`` / ``IN``
    constant to the ascending ordinals of the branches it opens, and the
    :func:`_span_table` of the ``BETWEEN`` heads on it; ``always`` holds
    the ordinals neither stands in for."""
    points: dict[int, dict[Any, list[int]]] = {}
    ranges: dict[int, list[tuple]] = {}  # column -> (lo, hi, ordinal)
    for j, branch in enumerate(branches):
        head = _guard_head(branch)[0]
        if (eq := _head_points(head)) is not None:
            found = points.setdefault(binding.resolve(eq[0]), {})
            for value in eq[1]:
                ordinals = found.setdefault(value, [])
                if not ordinals or ordinals[-1] != j:
                    ordinals.append(j)
        elif (span := _head_span(head)) is not None:
            ranges.setdefault(binding.resolve(span[0]), []).append((*span[1:], j))
    always = set(range(len(branches)))
    for found in points.values():
        always.difference_update(*found.values())
    spans: dict[int, tuple[list, tuple]] = {}
    for pos, column_spans in ranges.items():
        try:
            spans[pos] = _span_table(column_spans)
        except TypeError:
            continue  # bounds without a common order: candidates of every row
        always.difference_update(j for _lo, _hi, j in column_spans)
    tables = {pos: {value: tuple(js) for value, js in found.items()} for pos, found in points.items()}
    return tables, spans, always


#: A guard branch compiled: ``fn(columns, indices) -> (hits, misses,
#: charge)`` (:meth:`CodegenExprCompiler.compile_guard_branch`).
BranchFn = Callable[[list, list], tuple]


class GuardKernel:
    """A guard OR compiled (:meth:`CodegenExprCompiler.compile_batch_guard`):
    called as ``kernel(columns, selection) -> passing indices``, charging
    ``policy_evals``.  It keeps its ``branches`` (the branch functions,
    by ordinal) and its ``width``; ``points`` is
    ``(column position, {constant: ordinals})`` when that one dict finds
    every branch — what a BitmapOr of point probes on the column hands
    each arm's rows to — else ``None``."""

    __slots__ = ("run", "branches", "width", "points")

    def __init__(self, run: Callable, branches: tuple, width: int, points: tuple | None):
        self.run = run
        self.branches = branches
        self.width = width
        self.points = points

    def __call__(self, cols: list, sel: list) -> list:
        return self.run(cols, sel)


def _row_branch(fn: RowFn) -> BranchFn:
    """A row function as a branch function — the closure compiler's,
    where codegen cannot render the branch; it ticks ``policy_evals``
    itself, so its charge is 0."""

    def branch(cols: list, idx: list) -> tuple:
        hits: list[int] = []
        misses: list[int] = []
        for i in idx:
            (hits if fn(_row_at(cols, i)) else misses).append(i)
        return hits, misses, 0

    return branch


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
        emitter = _Emitter(self, "row")
        try:
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

    def compile_value(self, expr: Expr) -> RowFn:
        """``expr`` where its value is read (:meth:`_Emitter.value`): as
        :meth:`compile`, but a predicate is three-valued, so unknown
        reads NULL."""
        if not isinstance(expr, PREDICATES):
            return self.compile(expr)
        emitter = _Emitter(self, "row")
        try:
            emitter.defs.append(f"def _main(_r):\n    return {emitter.tri(expr)}")
            return self._exec("\n\n".join(emitter.defs), emitter.env)["_main"]
        except ExecutionError:
            raise
        except Exception:
            return self._closure().compile_value(expr)

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
        body = emitter.value(expr)
        return self._kernel(emitter, [f"    return [{body} for _i in _sel]"], _SHAPE_ARGS)

    def compile_batch_guard(
        self,
        expr: Or,
        compiled_branch: Callable[[Expr], "BranchFn"] | None = None,
        compiled_source: Callable[[str], CodeType] | None = None,
    ) -> "GuardKernel":
        """The fused form of guard-by-guard evaluation: one wide
        (metered) OR as a single kernel, ``kernel(columns, selection)
        -> passing indices`` in the selection's order.

        Per index, disjuncts are tried in order; the first hit keeps
        the index and stops — accumulating the per-row checked count so
        one ``policy_evals`` update per call carries exactly the tuple
        path's total.

        A branch ``head`` or ``head AND rest`` whose head compares one
        column with constants (``=``, ``IN``, ``BETWEEN`` — what a guard
        is) is not walked to but *found* (:meth:`_guard_candidates`).
        A first pass groups the indices of the selection by their tuple
        of candidate branches and counts the rows with none, charged
        ``width`` apiece in one multiplication; then each group is handed
        to its candidates' branch functions, in ordinal order, each
        taking the rows the previous one missed, and the shell charges
        ``ordinal + 1`` per hit and ``width`` per row none admits.  That
        is the sequential walk's charge tick for tick: a skipped branch's
        head is false for the row, so the walk never reached its
        remainder (nor the partition OR's own metering inside it, which
        a branch function returns as its charge).

        When no branch can be looked up, every branch is a candidate of
        every row: the selection is one group.

        The compile unit of that form is the *branch*, not the OR: what
        a candidate still has to evaluate is a batch function of its own
        (:meth:`compile_guard_branch`; ``compiled_branch(branch)`` lets
        the caller supply it from a cache) and the kernel is only the
        dispatch shell — the look-up tables, rebuilt from the heads, and
        the two passes — around those.  Which branch function a row
        meets, and in which order, depends on the heads alone, so the
        charge is the one above whichever way the functions were
        obtained.  The shell's source names no constant of the OR: its
        width, tables and branch functions are environment constants,
        so ORs of one shape (the same look-up columns and kinds) share
        one shell source, and ``compiled_source(source)`` lets the
        caller supply its code object from a cache, keyed by that
        source: a write that keeps the guard count compiles no shell.
        """
        emitter = _Emitter(self, "col")
        points, spans, always = _guard_lookups(self.binding, expr.children)
        candidates = self._guard_candidates(emitter, points, spans, always)
        width = len(expr.children)
        compiled = compiled_branch or self.compile_guard_branch
        branches = tuple(compiled(branch) for branch in expr.children)
        fns, width_name, ctr = emitter.const(branches), emitter.const(width), emitter.const(self.counters)
        lines = [
            f"    _fns, _width = {fns}, {width_name}",
            "    _groups = {}",
            "    _none = 0",
            "    for _i in _sel:",
            f"        if _js := {candidates}:",
            "            if (_g := _groups.get(_js)) is None:",
            "                _groups[_js] = [_i]",
            "            else:",
            "                _g.append(_i)",
            "        else:",
            "            _none += 1",
            "    _n = _width * _none",
            "    _parts = []",
            "    for _js, _idx in _groups.items():",
            "        for _j in _js:",
            "            _h, _idx, _k = _fns[_j](_cols, _idx)",
            "            _n += _k + (_j + 1) * len(_h)",
            "            if _h:",
            "                _parts.append(_h)",
            "            if not _idx:",
            "                break",
            "        else:",
            "            _n += _width * len(_idx)",
            f"    {ctr}.policy_evals += _n",
            "    if len(_parts) < 2:",
            "        return _parts[0] if _parts else []",
            "    return list(filter(set().union(*_parts).__contains__, _sel))",
        ]
        shell = self._kernel(emitter, lines, compiled=compiled_source)
        pure = len(points) == 1 and not spans and not always
        return GuardKernel(shell, branches, width, next(iter(points.items())) if pure else None)

    def compile_guard_branch(
        self,
        branch: Expr,
        compiled_source: Callable[[str], CodeType] | None = None,
        compiled_shape: Callable[[tuple, Callable[[], "BranchShape | None"]], "BranchShape | None"]
        | None = None,
    ) -> "BranchFn":
        """One branch of a dispatched guard OR as a batch function,
        ``fn(columns, indices) -> (hits, misses, charge)``: what is left
        to evaluate of the rows once the look-up has named the branch a
        candidate — the whole branch, or only its remainder (nothing:
        ``True``) behind a head a dict found, whose hit *is* the head
        evaluated true.  It is one loop over ``indices`` that reads the
        branch's columns once per row; a partition OR is unrolled inline
        as ``if`` / ``elif`` tests adding ``k + 1`` on a hit and the width
        on a miss to ``charge`` (the ``policy_evals`` the metered walk
        ticks), so the caller charges one sum per call.  Hits and misses
        keep the order of ``indices``.

        The source is the branch's *shape*: its literals and column
        positions are placeholder constants, so branches that differ
        only in those — a querier's guards, and every other querier's —
        share one source.  Each branch binds its own values into a copy
        of that shape's code object's constants.

        ``compiled_shape(key, build)`` lets the caller keep each shape's
        code object under a key read off the branch's node kinds
        (:class:`_ShapeReader`), with its slot values and environment
        constants read off the nodes in the order rendering would emit
        them, so a branch of a known shape is neither rendered nor
        compiled — ``build()``, which renders and compiles it, runs for
        a shape not seen before.  A branch the reader cannot key is
        rendered, and ``compiled_source(source)`` supplies its code
        object from the caller's cache."""
        head, rest = _guard_head(branch)
        test = rest if _head_points(head) is not None else branch
        test = test if test is not None else Literal(True)
        if compiled_shape is not None:
            read = _ShapeReader(self).read(test)
            if read is not None:
                key, slots, consts = read
                shape = compiled_shape(key, lambda: self._branch_shape(test, slots, consts))
                if shape is not None:
                    return shape.instance(slots, consts)
        emitter = _Emitter(self, "branch", slotted=True)
        try:
            src = self._render_branch(test, emitter)
            return self._exec(src, emitter.env, compiled_source, emitter.slots)["_branch"]
        except ExecutionError:
            raise
        except Exception:
            return _row_branch(self._closure().compile(test))

    def _render_branch(self, test: Expr, emitter: _Emitter) -> str:
        """``test`` as a module defining its branch function
        (:meth:`compile_guard_branch`).  A test that ends in a metered
        OR — the partition, alone or behind a range head — is the loop's
        ``if`` / ``elif`` chain; any other is one ``if``."""
        *prefix, last = test.children if isinstance(test, And) else (test,)
        body: list[str] = []
        if is_metered_or(last, self.counters):
            keyword = "if"
            if prefix:
                conditions = " and ".join(f"bool({emitter.emit(part)})" for part in prefix)
                body += [f"        if not ({conditions}):", "            _out(_i)"]
                keyword = "elif"
            for k, child in enumerate(last.children):
                body += [f"        {keyword} {emitter.test(child)}:", f"            _n += {k + 1}", "            _hit(_i)"]
                keyword = "elif"
            body += ["        else:", f"            _n += {len(last.children)}", "            _out(_i)"]
        else:
            body += [f"        if {emitter.test(test)}:", "            _hit(_i)", "        else:", "            _out(_i)"]
        return "\n".join(
            [
                "def _branch(_cols, _idx):",
                *(f"    _c{k} = _cols[{at}]" for k, at in enumerate(emitter.branch_columns)),
                "    _hits = []",
                "    _misses = []",
                "    _hit = _hits.append",
                "    _out = _misses.append",
                "    _n = 0",
                "    for _i in _idx:",
                *body,
                "    return _hits, _misses, _n",
            ]
        )

    def _branch_shape(self, test: Expr, slots: list, consts: list) -> "BranchShape | None":
        """Render and compile ``test``'s shape once — the code object is
        kept under its key, so a keyed branch never asks the source
        cache; ``None`` unless the rendering's slots and environment are
        exactly what :class:`_ShapeReader` read (then the key does not
        stand for this source, and the branch is rendered as before)."""
        emitter = _Emitter(self, "branch", slotted=True)
        try:
            # Whatever rendering raises, the render path the caller falls
            # back to raises it again or falls back to the closure compiler.
            code = self.compile_source(self._render_branch(test, emitter))
        except Exception:
            return None
        if not (_same_values(emitter.slots, slots) and _same_values(list(emitter.env.values()), consts)):
            return None
        try:
            return BranchShape(code, tuple(emitter.env), len(slots))
        except ValueError:
            return None

    def _guard_candidates(
        self, emitter: _Emitter, points: dict[int, dict], spans: dict[int, tuple], always: set[int]
    ) -> str:
        """How a row finds the branches of a guard OR that can hold for
        it (:func:`_guard_lookups`): an expression (over ``_c<pos>[_i]``)
        giving the ascending ordinals of the row's candidate branches, or
        something false.
        Per guard column, a dict maps each ``=`` / ``IN`` constant to its
        branches, and a sorted-bounds table (:func:`_span_table`) each
        value to the ``BETWEEN`` heads containing it; ``always`` are the
        branches neither can stand in for, candidates of every row.
        """
        lookups: list[str] = []
        for pos, found in points.items():
            lookups.append(f"{emitter.const(found.get)}(_c{pos}[_i])")
            emitter.probe_columns.add(pos)
        for pos, (bounds, slots) in spans.items():
            at, table = emitter.const(bounds), emitter.const(slots)
            lookups.append(
                f"((_w := _c{pos}[_i]) is not None and {table}[_bl({at}, _w) + _br({at}, _w)])"
            )
            emitter.probe_columns.add(pos)
        if always:
            lookups.insert(0, emitter.const(tuple(sorted(always))))
        emitter.env.update(_bl=bisect_left, _br=bisect_right, _mrg=_merge_candidates)
        return lookups[0] if len(lookups) == 1 else f"_mrg({', '.join(lookups)})"

    def _kernel(
        self,
        emitter: _Emitter,
        body_lines: list[str],
        args: str = "_cols, _sel",
        compiled: Callable[[str], CodeType] | None = None,
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
        return self._exec(src, emitter.env, compiled)["_kernel"]

    @classmethod
    def _exec(
        cls,
        src: str,
        env: dict[str, Any],
        compiled: Callable[[str], CodeType] | None = None,
        slots: list | None = None,
    ) -> dict[str, Any]:
        """Run the generated module ``src`` over ``env``: its code object
        from ``compiled(src)`` when given, else :meth:`compile_source`,
        with ``slots`` bound into its placeholders when given."""
        code = (compiled or cls.compile_source)(src)
        if slots is not None:
            code = _bind_slots(code, slots)
        namespace = dict(env)
        exec(code, namespace)  # noqa: S102
        return namespace

    @staticmethod
    def compile_source(src: str) -> CodeType:
        """``compile()`` of one generated module: the only call."""
        return compile(src, "<sieve-codegen>", "exec")
