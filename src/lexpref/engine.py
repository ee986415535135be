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
also owns the encoding (:class:`EncodedGamma`).  :func:`valid_extension`
restates the extension rule over objects and is the one reference the
tests check the kernel's witnesses and failures against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .core import LexModel, Outcome, TotalValueOrder, VariableSpace, iter_bits
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
            name = space.variables[x]
            if valid_extension(space, enc.statements, witness,
                               name) is not None:
                raise RuntimeError(
                    f"internal error: witness is not maximal, {name} "
                    f"extends it")
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


def _complete_order(d: int, pair_list: list[tuple[int, int]],
                    best: int | None, worst: int | None) -> list[int] | None:
    """Deterministic completion in the explicit reference form.

    The required pairs become successor masks, bit b of ``succ[a]`` for
    a above b.  The pin clashes are checked one by one against them; then
    a pinned best value is placed first, a pinned worst value last and the
    rest by smallest-index topological order over a ``ready`` mask.  The
    kernel instead gives a pinned best an edge to every other value and a
    pinned worst one extra edge in, and lets one topological pass meet the
    clashes; the two completions agree, which tests check.
    """
    succ = [0] * d
    indeg = [0] * d
    for a, b in set(pair_list):
        succ[a] |= 1 << b
        indeg[b] += 1
    if best is not None and worst is not None and best == worst and d >= 2:
        return None
    if best is not None and indeg[best] > 0:
        return None
    if worst is not None and succ[worst]:
        return None
    ready = (1 << d) - 1    # the unpinned values with no pair into them
    for s in succ + [1 << a for a in (best, worst) if a is not None]:
        ready &= ~s
    out: list[int] = []
    a = best      # placed first when pinned, then the lowest ready value
    while a is not None or ready:
        if a is None:
            low = ready & -ready
            ready ^= low
            a = low.bit_length() - 1
        out.append(a)
        s = succ[a]
        while s:
            low = s & -s
            b = low.bit_length() - 1
            indeg[b] -= 1
            if indeg[b] == 0 and b != worst:
                ready |= low
            s ^= low
        a = None
    if worst is not None:
        out.append(worst)
    return out if len(out) == d else None


def valid_extension(space: VariableSpace, gamma: Sequence[PrefStatement],
                    model: LexModel, variable: str) -> TotalValueOrder | None:
    """A value order making ``model`` extendable by ``variable``, or None.

    Returns the deterministic completion: pinned best first, pinned worst
    last, remaining values by smallest-index topological order over the
    required pairs.
    """
    if model.space is not space and model.space != space:
        raise ValueError("model built over a different space")
    if any(st.space is not space and st.space != space for st in gamma):
        raise ValueError("statement built over a different space")
    x = space.var_index(variable)
    bit = 1 << x
    if model.vmask & bit:
        raise ValueError(f"{variable!r} is already in the model")
    vmask = model.vmask
    best: int | None = None
    worst: int | None = None
    pair_list: list[tuple[int, int]] = []
    for st in gamma:
        if st.kind is StatementKind.NEGATED_NON_STRICT:
            if vmask & ~(st.t_mask | st.u_mask):
                continue
            if st.r_mask & bit:
                pair_list.append((st.s.vals[x], st.r.vals[x]))
        else:
            if st.rs_mask & vmask:
                continue
            if st.w_mask & bit:
                return None
            if st.rs_mask & bit:
                pair_list.append((st.r.vals[x], st.s.vals[x]))
            elif st.r_mask & bit:
                v = st.r.vals[x]
                if best is None:
                    best = v
                elif best != v:
                    return None
            elif st.s_mask & bit:
                v = st.s.vals[x]
                if worst is None:
                    worst = v
                elif worst != v:
                    return None
    order = _complete_order(space.domain_size(x), pair_list, best, worst)
    if order is None:
        return None
    return TotalValueOrder(space, x, tuple(order))


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
        if any(o.space is not space and o.space != space
               for o in (left, right)):
            raise ValueError("outcomes built over a different space")
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
