"""Comparative preference statements and their satisfaction relations.

A statement compares two partial assignments while holding a set of
variables fixed: any outcome extending the left side is preferred to any
outcome that extends the right side and agrees with it on the held set.
Three strictness flavours exist, plus the negation of a non-strict
statement whose two sides mention the same difference variables.

Statements are kept in a canonical block form.  Writing the left side as
``u . r`` and the right side as ``u . s``:

* ``U``  variables where both sides agree (value ``u``),
* ``R``  variables assigned only on the left, or differently (value ``r``),
* ``S``  variables assigned only on the right, or differently (value ``s``),
* ``T``  the held-constant set, disjoint from the above,
* ``W``  everything else; implicitly less important than ``R`` and ``S``.

Variables with a one-value domain always sit in ``T``; this makes the
representation unique.  Satisfaction of a statement by a model is decided
at the statement's deciding stage (never by enumerating its outcome
pairs): the model's first stage on a ``W`` variable or on one in both
difference blocks, found by a binary search over the model's stage-prefix
masks, once the ``R``-only and ``S``-only variables staged before it are
checked to pin their values.  The derived relation ``satisfies_star`` asks
whether some extension of the model satisfies the statement.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from itertools import filterfalse, product
from typing import Iterable, NamedTuple

from .core import (LexModel, Outcome, PartialAssignment, VariableSpace,
                   index_mask, iter_bits)
from .errors import CapExceededError

PAIRS_CAP_DEFAULT = 10_000


class StatementKind(Enum):
    NON_STRICT = "non-strict"            # >=
    FULLY_STRICT = "fully-strict"        # >>
    WEAKLY_STRICT = "weakly-strict"      # >
    NEGATED_NON_STRICT = "negated-non-strict"


class OutcomePair(NamedTuple):
    left: Outcome
    right: Outcome


class PrefStatement:
    """A statement in canonical block form.

    For the negated kind, the stored blocks are those of the inner
    non-strict statement (which must have identical R and S variable sets).
    Instances are immutable; build them through :func:`canonicalize` or
    :func:`outcome_comparison`.
    """

    __slots__ = ("space", "kind", "u", "r", "s", "t_mask",
                 "u_mask", "r_mask", "s_mask", "rs_mask", "w_mask", "label")

    def __init__(self, space: VariableSpace, kind: StatementKind,
                 u: PartialAssignment, r: PartialAssignment,
                 s: PartialAssignment, t_mask: int, label: str | None = None):
        u_mask, r_mask, s_mask = u.mask, r.mask, s.mask
        rs_union = r_mask | s_mask
        if (u_mask & t_mask) | ((u_mask | t_mask) & rs_union):
            raise ValueError("blocks U, T and R|S must be pairwise disjoint")
        if t_mask & ~space.full_mask:
            raise ValueError("held-constant set mentions unknown variables")
        if space.singleton_mask & (u_mask | rs_union | ~t_mask):
            raise ValueError("one-value variables belong in the held set")
        if r_mask & s_mask:
            # a (variable, value) item on both sides
            same = r.vals.items() & s.vals.items()
            if same:
                raise ValueError(
                    f"sides agree on {space.variables[min(same)[0]]!r}; "
                    f"that variable belongs in the agreement block")
        if kind is StatementKind.NEGATED_NON_STRICT and r_mask != s_mask:
            raise ValueError(
                "only non-strict statements with matching difference "
                "variable sets can be negated")
        self._fill(space, kind, u, r, s, t_mask, label)

    @classmethod
    def _trusted(cls, space: VariableSpace, kind: StatementKind,
                 u: PartialAssignment, r: PartialAssignment,
                 s: PartialAssignment, t_mask: int,
                 label: str | None = None) -> "PrefStatement":
        """Unchecked; the blocks must pass every check of the constructor."""
        st = object.__new__(cls)
        st._fill(space, kind, u, r, s, t_mask, label)
        return st

    def _fill(self, space, kind, u, r, s, t_mask, label) -> None:
        u_mask, r_mask, s_mask = u.mask, r.mask, s.mask
        self.space = space
        self.kind = kind
        self.u = u
        self.r = r
        self.s = s
        self.t_mask = t_mask
        self.u_mask = u_mask
        self.r_mask = r_mask
        self.s_mask = s_mask
        self.rs_mask = r_mask & s_mask
        self.w_mask = space.full_mask ^ (u_mask | t_mask | r_mask | s_mask)
        self.label = label

    @property
    def u_vars(self) -> frozenset[str]:
        return self.space.names_of(self.u_mask)

    @property
    def r_vars(self) -> frozenset[str]:
        return self.space.names_of(self.r_mask)

    @property
    def s_vars(self) -> frozenset[str]:
        return self.space.names_of(self.s_mask)

    @property
    def t_vars(self) -> frozenset[str]:
        return self.space.names_of(self.t_mask)

    @property
    def w_vars(self) -> frozenset[str]:
        return self.space.names_of(self.w_mask)

    def __repr__(self) -> str:
        name = f" {self.label}" if self.label else ""
        return (f"PrefStatement({self.kind.value}{name}: "
                f"u={self.u.as_dict()}, r={self.r.as_dict()}, "
                f"s={self.s.as_dict()}, T={sorted(self.t_vars)})")


def canonicalize(space: VariableSpace, p: PartialAssignment,
                 q: PartialAssignment, t_vars: Iterable[str] | int,
                 kind: StatementKind, label: str | None = None) -> PrefStatement:
    """Bring a raw two-sided statement into canonical block form.

    Variables assigned the same value on both sides move to the agreement
    block; one-value variables are silently moved into the held set.  The
    held set must not overlap either side.  The blocks keep the order of
    the side they come from and are built unchecked from the indices ``p``
    and ``q`` already hold.
    """
    if any(side.space is not space and side.space != space for side in (p, q)):
        raise ValueError("sides built over a different space")
    t_mask = t_vars if isinstance(t_vars, int) else space.mask_of(t_vars)
    if t_mask & (p.mask | q.mask):
        overlap = space.names_of(t_mask & (p.mask | q.mask))
        raise ValueError(f"held-constant set overlaps the sides: {sorted(overlap)}")
    p_items, q_items = p.vals.items(), q.vals.items()
    u = dict(filter(q_items.__contains__, p_items))
    r = dict(filterfalse(q_items.__contains__, p_items))
    s = dict(filterfalse(p_items.__contains__, q_items))
    sing = space.singleton_mask
    for i in iter_bits(sing & (p.mask | q.mask)):   # held, never a block
        u.pop(i, None)
        r.pop(i, None)
        s.pop(i, None)
    r_mask = index_mask(r)
    u_mask = p.mask & ~(sing | r_mask)
    return PrefStatement(space, kind,
                         u=PartialAssignment._trusted(space, u, u_mask),
                         r=PartialAssignment._trusted(space, r, r_mask),
                         s=PartialAssignment._trusted(
                             space, s, q.mask & ~(sing | u_mask)),
                         t_mask=(t_mask | sing) & space.full_mask, label=label)


def outcome_comparison(space: VariableSpace, left: Outcome, right: Outcome,
                       strict: bool, label: str | None = None) -> PrefStatement:
    """The comparison of two complete outcomes as a canonical statement."""
    p = PartialAssignment(space, dict(enumerate(left.values)))
    q = PartialAssignment(space, dict(enumerate(right.values)))
    kind = StatementKind.WEAKLY_STRICT if strict else StatementKind.NON_STRICT
    return canonicalize(space, p, q, 0, kind, label=label)


def negate_non_strict(statement: PrefStatement,
                      label: str | None = None) -> PrefStatement:
    """Negation of a non-strict statement with matching difference sets."""
    if statement.kind is not StatementKind.NON_STRICT:
        raise ValueError("only non-strict statements can be negated")
    return PrefStatement(statement.space, StatementKind.NEGATED_NON_STRICT,
                         statement.u, statement.r, statement.s,
                         statement.t_mask, label=label)


def inner_statement(statement: PrefStatement) -> PrefStatement:
    """The non-strict statement a negated statement denies."""
    if statement.kind is not StatementKind.NEGATED_NON_STRICT:
        raise ValueError("statement is not a negation")
    return PrefStatement(statement.space, StatementKind.NON_STRICT,
                         statement.u, statement.r, statement.s,
                         statement.t_mask, label=statement.label)


def statement_consistent(statement: PrefStatement) -> bool:
    """Whether some model satisfies the statement on its own."""
    kind = statement.kind
    if kind is StatementKind.NON_STRICT:
        return True
    if kind is StatementKind.FULLY_STRICT:
        return statement.rs_mask != 0
    if kind is StatementKind.WEAKLY_STRICT:
        return (statement.r_mask | statement.s_mask) != 0
    return (statement.r_mask | statement.w_mask) != 0


def _nonstrict_holds(model: LexModel, st: PrefStatement) -> bool:
    """Satisfaction test for the non-strict reading of ``st``.

    The statement's deciding stage is the model's first stage on a
    variable that decides it outright: a residual (W) variable falsifies
    it, a variable in both difference sets settles it by the required
    value order.  A binary search over the model's stage-prefix masks
    finds it.  Variables staged before it must put the left value on top
    (R only) or the right value at the bottom (S only); held and agreement
    variables are never read.
    """
    prefix, stage_of = model.stage_index()
    stop = st.w_mask | st.rs_mask
    # prefix[0] is empty, so k >= 1; k == len(prefix) when nothing stops
    k = bisect_left(prefix, 1, key=stop.__and__)
    before = prefix[k - 1]
    r_mask = st.r_mask
    pins = (r_mask ^ st.s_mask) & before      # R only or S only
    while pins:
        low = pins & -pins
        x = low.bit_length() - 1
        ranking = stage_of[x].ranking
        if (ranking[0] != st.r.vals[x] if r_mask & low
                else ranking[-1] != st.s.vals[x]):
            return False
        pins ^= low
    if k == len(prefix):
        return True
    stage = model.stages[k - 1]
    x = stage.var
    if st.w_mask >> x & 1:
        return False
    rank = stage.rank_of
    return rank[st.r.vals[x]] < rank[st.s.vals[x]]


def satisfies(model: LexModel, statement: PrefStatement) -> bool:
    """Whether the model satisfies the statement.

    Decided at the statement's deciding stage, found by a binary search
    over the model's stage-prefix masks (built once per model), after one
    check per R-only or S-only variable staged before it.
    """
    kind = statement.kind
    if kind is StatementKind.NON_STRICT:
        return _nonstrict_holds(model, statement)
    if kind is StatementKind.FULLY_STRICT:
        return (statement.rs_mask & model.vmask) != 0 \
            and _nonstrict_holds(model, statement)
    if kind is StatementKind.WEAKLY_STRICT:
        return ((statement.r_mask | statement.s_mask) & model.vmask) != 0 \
            and _nonstrict_holds(model, statement)
    return not _nonstrict_holds(model, statement)


def satisfies_star(model: LexModel, statement: PrefStatement) -> bool:
    """Whether some extension of the model (or the model itself) satisfies it.

    Only defined for individually consistent statements; callers must
    screen inconsistent ones out first.
    """
    if not statement_consistent(statement):
        raise ValueError("statement is not individually consistent")
    if statement.kind is StatementKind.NEGATED_NON_STRICT:
        if (model.vmask & statement.s_mask) == 0:
            return True
        return not _nonstrict_holds(model, statement)
    return _nonstrict_holds(model, statement)


def pairs(statement: PrefStatement,
          cap: int = PAIRS_CAP_DEFAULT) -> set[OutcomePair]:
    """The statement's defining set of outcome pairs, by direct enumeration.

    Exists for oracle-scale cross-checking only; guarded by a cap on the
    outcome count of the space.
    """
    space = statement.space
    if space.outcome_count() > cap:
        raise CapExceededError(
            f"space has {space.outcome_count()} outcomes, cap is {cap}")
    st = statement
    left_fixed = dict(st.u.vals)
    left_fixed.update(st.r.vals)
    right_fixed = dict(st.u.vals)
    right_fixed.update(st.s.vals)
    left_free = sorted(iter_bits(space.full_mask & ~(st.u_mask | st.r_mask)))
    right_free = sorted(iter_bits(
        space.full_mask & ~(st.u_mask | st.s_mask | st.t_mask)))
    left_ranges = [range(space.domain_size(v)) for v in left_free]
    right_ranges = [range(space.domain_size(v)) for v in right_free]
    t_vars = sorted(iter_bits(st.t_mask))
    out: set[OutcomePair] = set()
    for left_vals in product(*left_ranges):
        alpha_vals = list(left_fixed.items()) + list(zip(left_free, left_vals))
        alpha = _build_outcome(space, alpha_vals)
        base = dict(right_fixed)
        for t in t_vars:
            base[t] = alpha.values[t]
        for right_vals in product(*right_ranges):
            beta_vals = list(base.items()) + list(zip(right_free, right_vals))
            beta = _build_outcome(space, beta_vals)
            out.add(OutcomePair(alpha, beta))
    return out


def _build_outcome(space: VariableSpace, items) -> Outcome:
    values = [0] * space.n
    for i, v in items:
        values[i] = v
    return Outcome(space, tuple(values))


def projection(statement: PrefStatement, agree_on: Iterable[str] | int,
               variable: str) -> set[tuple[str, str]]:
    """Value pairs the statement forces at one variable, among outcome pairs
    that agree on ``agree_on``.

    Empty when the agreement set cuts through both difference blocks at
    once (no defining pair survives).
    """
    space = statement.space
    a_mask = agree_on if isinstance(agree_on, int) else space.mask_of(agree_on)
    y = space.var_index(variable)
    if a_mask & (1 << y):
        raise ValueError(f"{variable!r} must not be in the agreement set")
    if statement.rs_mask & a_mask:
        return set()
    dom = space.domains[y]
    bit = 1 << y
    if bit & statement.t_mask:
        return {(v, v) for v in dom}
    if bit & statement.u_mask:
        v = dom[statement.u.vals[y]]
        return {(v, v)}
    if bit & statement.rs_mask:
        return {(dom[statement.r.vals[y]], dom[statement.s.vals[y]])}
    if bit & statement.r_mask:
        rv = dom[statement.r.vals[y]]
        return {(rv, v) for v in dom}
    if bit & statement.s_mask:
        sv = dom[statement.s.vals[y]]
        return {(v, sv) for v in dom}
    return {(a, b) for a in dom for b in dom}
