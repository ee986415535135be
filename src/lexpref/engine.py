"""Consistency checking and preference inference.

The engine grows a maximal star-model greedily: starting from the empty
model it repeatedly appends the lowest-index variable that still admits a
valid extension, where a valid extension is a value order containing every
required pair, with any pinned best value on top and any pinned worst value
at the bottom.  The statement set is consistent exactly when the resulting
model satisfies it, which reduces to three cheap per-statement conditions
on the variables that made it into the model.

Inference queries reduce to consistency: a comparison is entailed when the
statement set together with the opposite comparison has no model.

Hot paths run through the bitset kernel in :mod:`lexpref.kernel`, which
also owns the encoding (:class:`EncodedGamma`).  One walk restates the
extension rule apart from the kernel, each clash that rules a variable
out its own check (:func:`_extension_order`); :func:`valid_extension` and
the maximality check call it, and it is the one reference the tests
check the kernel's witnesses and failures against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .core import (LexModel, Outcome, TotalValueOrder, VariableSpace,
                   check_space, index_mask, iter_bits)
from .errors import InconsistentError, UnsupportedQueryError
from .kernel import EncodedGamma
from .statements import (PrefStatement, StatementKind, inner_statement,
                         negate_non_strict, outcome_comparison, satisfies,
                         statement_consistent)


class FailureReason(Enum):
    """Why a statement rules out the constructed maximal model."""

    STATEMENT_UNSATISFIABLE = "statement-unsatisfiable"
    NEEDS_SHARED_DIFFERENCE_STAGE = "needs-shared-difference-stage"
    NEEDS_DIFFERENCE_STAGE = "needs-difference-stage"
    NEGATION_UNWITNESSED = "negation-unwitnessed"


# the reason for each of the kernel's three unmet masks, in its order
_UNMET_REASONS = (FailureReason.NEEDS_SHARED_DIFFERENCE_STAGE,
                  FailureReason.NEEDS_DIFFERENCE_STAGE,
                  FailureReason.NEGATION_UNWITNESSED)


@dataclass(frozen=True)
class StatementFailure:
    index: int
    statement: PrefStatement
    reason: FailureReason

    @property
    def label(self) -> str:
        return self.statement.label or f"#{self.index}"


@dataclass(frozen=True)
class ConsistencyResult:
    """Verdict plus the witness maximal star-model and per-statement report."""

    consistent: bool
    witness: LexModel
    failures: tuple[StatementFailure, ...]
    v_gamma: frozenset[str] | None
    test_count: int

    def __post_init__(self):
        if self.consistent != (not self.failures):
            raise ValueError("verdict must match the failure list")


def consistent(space: VariableSpace, gamma: Sequence[PrefStatement],
               verify: bool = True) -> ConsistencyResult:
    """Decide consistency of a statement set.

    With ``verify`` on (the default for one-shot calls), the witness model
    is re-checked against every statement through the independent
    satisfaction test (:func:`lexpref.statements.satisfies`), and every
    variable outside it must admit no valid extension; a mismatch would be
    an engine bug and raises.
    """
    return consistent_from_encoding(EncodedGamma(space, gamma), verify=verify)


def consistent_from_encoding(enc: EncodedGamma,
                             verify: bool = False) -> ConsistencyResult:
    space = enc.space
    g = len(enc.statements)
    # the individual-satisfiability screen: report each such statement alone
    failures = tuple(
        StatementFailure(j, st, FailureReason.STATEMENT_UNSATISFIABLE)
        for j, st in enumerate(enc.statements) if not statement_consistent(st))
    if failures:
        return ConsistencyResult(False, LexModel(space), failures, None, g)
    ok, stages, *unmet, _, tests = enc.run()
    witness = LexModel(space, tuple(TotalValueOrder(space, x, order)
                                    for x, order in stages))
    reasons = {j: reason for reason, mask in zip(_UNMET_REASONS, unmet)
               for j in iter_bits(mask)}
    failures = tuple(StatementFailure(j, enc.statements[j], reasons[j])
                     for j in sorted(reasons))
    tests += g
    if verify:
        for j, st in enumerate(enc.statements):
            if satisfies(witness, st) != (j not in reasons):
                raise RuntimeError(
                    f"internal error: witness disagrees with the "
                    f"satisfaction test on statement {st.label or j}")
        tests += g
        # maximality: not counted in test_count, which check --json prints
        for x in iter_bits(space.full_mask & ~witness.vmask):
            if _extension_order(space, enc.statements, witness.vmask,
                                x) is not None:
                raise RuntimeError(
                    f"internal error: witness is not maximal, "
                    f"{space.variables[x]} extends it")
    return ConsistencyResult(
        consistent=ok,
        witness=witness,
        failures=failures,
        v_gamma=witness.variables if ok else None,
        test_count=tests)


def build_maximal_star_model(space: VariableSpace,
                             gamma: Sequence[PrefStatement]) -> LexModel:
    """Grow a maximal star-model of an individually consistent statement set.

    Deterministic: at each step the first variable in declaration order
    admitting a valid extension is appended.
    """
    res = consistent(space, gamma, verify=False)
    for failure in res.failures:
        if failure.reason is FailureReason.STATEMENT_UNSATISFIABLE:
            raise ValueError(
                f"statement {failure.label} is individually unsatisfiable")
    return res.witness


def _extension_order(space: VariableSpace, gamma: Sequence[PrefStatement],
                     vmask: int, x: int) -> tuple[int, ...] | None:
    """The order by which variable ``x`` extends a model over ``vmask``'s
    variables, or None.

    Each live statement is read once into successor masks (bit b of
    ``succ[a]`` for a pair a above b) and a pinned best and worst value.
    The order is the best first, the worst last and the rest by
    smallest-index topological order; the kernel's pins-as-edges pass
    gives the same orders, which tests check.
    """
    bit = 1 << x
    d = space.domain_size(x)
    succ = [0] * d
    best: int | None = None
    worst: int | None = None
    for st in gamma:
        if st.kind is StatementKind.NEGATED_NON_STRICT:
            # decided once a variable outside T and U is placed; until
            # then it needs q's value above p's, the reversed pair
            if not vmask & ~(st.t_mask | st.u_mask) and st.r_mask & bit:
                succ[st.s.vals[x]] |= 1 << st.r.vals[x]
            continue
        if st.rs_mask & vmask:
            continue                        # decided at an earlier stage
        if st.w_mask & bit:
            return None                     # a W block
        if st.rs_mask & bit:
            succ[st.r.vals[x]] |= 1 << st.s.vals[x]
        elif st.r_mask & bit:
            if best is not None and best != st.r.vals[x]:
                return None                 # two bests
            best = st.r.vals[x]
        elif st.s_mask & bit:
            if worst is not None and worst != st.s.vals[x]:
                return None                 # two worsts
            worst = st.s.vals[x]
    indeg = [0] * d
    for s in succ:
        for b in iter_bits(s):
            indeg[b] += 1
    if best is not None and best == worst:
        return None                         # one value pinned both ways
    if best is not None and indeg[best]:
        return None                         # a pair into the best
    if worst is not None and succ[worst]:
        return None                         # a pair out of the worst
    ready = index_mask(a for a in range(d)
                       if not indeg[a] and a != best and a != worst)
    out: list[int] = []
    a = best
    while a is not None or ready:
        if a is None:
            low = ready & -ready
            ready ^= low
            a = low.bit_length() - 1
        out.append(a)
        for b in iter_bits(succ[a]):
            indeg[b] -= 1
            if indeg[b] == 0 and b != worst:
                ready |= 1 << b
        a = None
    if worst is not None:
        out.append(worst)
    return tuple(out) if len(out) == d else None    # else a cycle


def valid_extension(space: VariableSpace, gamma: Sequence[PrefStatement],
                    model: LexModel, variable: str) -> TotalValueOrder | None:
    """The value order by which ``variable`` extends ``model``, or None;
    the one :func:`_extension_order` gives."""
    check_space(space, (model,), "model built over a different space")
    check_space(space, gamma, "statement built over a different space")
    x = space.var_index(variable)
    if model.vmask >> x & 1:
        raise ValueError(f"{variable!r} is already in the model")
    order = _extension_order(space, gamma, model.vmask, x)
    return None if order is None else TotalValueOrder(space, x, order)


def consistent_with_comparisons(enc: EncodedGamma,
                                pairs: Sequence[tuple[Outcome, Outcome]],
                                strict: bool) -> bool:
    """Consistency of the encoded set plus each pair's left outcome above
    its right one, strictly when ``strict``.

    The reference for the kernel's comparison rows: each pair is its
    :func:`lexpref.statements.outcome_comparison` statement, appended to
    the set and encoded afresh, so the run never reaches the row code.
    An individually unsatisfiable statement, or a strict pair of equal
    outcomes, is one the kernel never sees witnessed, so it fails the run.
    """
    space = enc.space
    extra = [outcome_comparison(space, left, right, strict)
             for left, right in pairs]
    return EncodedGamma(space, enc.statements + tuple(extra)).run()[0]


def entails(space: VariableSpace, gamma: Sequence[PrefStatement], op: str,
            left: Outcome, right: Outcome) -> bool:
    """Outcome-comparison inference by reduction to consistency.

    ``op`` is one of ``>=``, ``>``, ``==``.  The first two are the
    comparison statement's inference (:func:`entails_general`); the
    equivalence query projects both outcomes onto the variables of the
    maximal model.
    """
    if op in (">=", ">"):
        return entails_general(space, gamma, outcome_comparison(
            space, left, right, strict=op == ">"))
    if op == "==":
        check_space(space, (left, right),
                    "outcomes built over a different space")
        res = consistent(space, gamma, verify=False)
        if not res.consistent:
            return True
        vmask = res.witness.vmask
        return all(left.values[i] == right.values[i] for i in iter_bits(vmask))
    raise ValueError(f"unknown comparison operator {op!r}")


def negation_of(statement: PrefStatement) -> PrefStatement:
    """The negation of a statement, when it stays inside the language.

    Supported: non-strict statements with matching difference sets, negated
    statements (whose negation is the inner statement), and strict complete
    comparisons (negated by swapping the sides non-strictly).
    """
    st = statement
    if st.kind is StatementKind.NON_STRICT and st.r_mask == st.s_mask:
        return negate_non_strict(st)
    if st.kind is StatementKind.NEGATED_NON_STRICT:
        return inner_statement(st)
    if (st.kind in (StatementKind.FULLY_STRICT, StatementKind.WEAKLY_STRICT)
            and st.r_mask == st.s_mask and st.w_mask == 0
            and st.t_mask & ~st.space.singleton_mask == 0):
        return PrefStatement(st.space, StatementKind.NON_STRICT,
                             st.u, st.s, st.r, st.t_mask)
    raise UnsupportedQueryError(
        "the negation of this statement leaves the language")


def entails_general(space: VariableSpace, gamma: Sequence[PrefStatement],
                    statement: PrefStatement) -> bool:
    """Statement inference by reduction to consistency, where expressible."""
    neg = negation_of(statement)
    res = consistent(space, tuple(gamma) + (neg,), verify=False)
    return not res.consistent


def v_gamma(space: VariableSpace,
            gamma: Sequence[PrefStatement]) -> frozenset[str]:
    """Variables of any maximal model of a consistent statement set."""
    res = consistent(space, gamma, verify=False)
    if not res.consistent:
        raise InconsistentError("statement set has no model")
    return res.v_gamma


def entails_max(space: VariableSpace, gamma: Sequence[PrefStatement],
                statement: PrefStatement) -> bool:
    """Inference over maximal models only.

    Holds when the statement is entailed outright, and otherwise exactly
    when adding the negation shrinks the maximal-model variable set.
    """
    neg = negation_of(statement)
    base = v_gamma(space, gamma)
    aug = consistent(space, tuple(gamma) + (neg,), verify=False)
    if not aug.consistent:
        return True
    return aug.v_gamma != base
