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

Hot paths run through the array kernel in :mod:`lexpref.kernel`, which
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
                         negate_non_strict, outcome_comparison, satisfies)


class FailureReason(Enum):
    """Why a statement rules out the constructed maximal model."""

    STATEMENT_UNSATISFIABLE = "statement-unsatisfiable"
    NEEDS_SHARED_DIFFERENCE_STAGE = "needs-shared-difference-stage"
    NEEDS_DIFFERENCE_STAGE = "needs-difference-stage"
    NEGATION_UNWITNESSED = "negation-unwitnessed"


_REASON_BY_CODE = {
    2: FailureReason.NEEDS_SHARED_DIFFERENCE_STAGE,
    3: FailureReason.NEEDS_DIFFERENCE_STAGE,
    4: FailureReason.NEGATION_UNWITNESSED,
}


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


def _model_from_arrays(space: VariableSpace, nstages, stage_vars,
                       orders) -> LexModel:
    return LexModel(space, tuple(
        TotalValueOrder(space, x, orders[x][:space.domain_size(x)])
        for x in stage_vars[:nstages]))


def consistent(space: VariableSpace, gamma: Sequence[PrefStatement],
               verify: bool = True) -> ConsistencyResult:
    """Decide consistency of a statement set.

    With ``verify`` on (the default for one-shot calls), the witness model
    is re-checked against every statement through the independent
    stage-walk test; a mismatch would be an engine bug and raises.
    """
    return consistent_from_encoding(EncodedGamma(space, gamma), verify=verify)


def consistent_from_encoding(enc: EncodedGamma,
                             verify: bool = False) -> ConsistencyResult:
    space = enc.space
    g = len(enc.statements)
    if enc.inconsistent_indices:
        failures = tuple(
            StatementFailure(j, enc.statements[j],
                             FailureReason.STATEMENT_UNSATISFIABLE)
            for j in enc.inconsistent_indices)
        return ConsistencyResult(False, LexModel(space), failures, None, g)
    ok, nstages, stage_vars, orders, fail, _, tests = enc.run()
    witness = _model_from_arrays(space, nstages, stage_vars, orders)
    failures = tuple(
        StatementFailure(j, enc.statements[j], _REASON_BY_CODE[fail[j]])
        for j in range(g) if fail[j])
    tests += g
    if verify:
        for j, st in enumerate(enc.statements):
            if satisfies(witness, st) != (fail[j] == 0):
                raise RuntimeError(
                    f"internal error: witness disagrees with stage-walk test "
                    f"on statement {st.label or j}")
        tests += g
    is_consistent = ok == 1
    return ConsistencyResult(
        consistent=is_consistent,
        witness=witness,
        failures=failures,
        v_gamma=witness.variables if is_consistent else None,
        test_count=tests)


def build_maximal_star_model(space: VariableSpace,
                             gamma: Sequence[PrefStatement]) -> LexModel:
    """Grow a maximal star-model of an individually consistent statement set.

    Deterministic: at each step the first variable in declaration order
    admitting a valid extension is appended.
    """
    enc = EncodedGamma(space, gamma)
    if enc.inconsistent_indices:
        bad = enc.statements[enc.inconsistent_indices[0]]
        raise ValueError(
            f"statement {bad.label or enc.inconsistent_indices[0]} is "
            f"individually unsatisfiable")
    return consistent_from_encoding(enc).witness


def _complete_order(d: int, pair_list: list[tuple[int, int]],
                    best: int | None, worst: int | None) -> list[int] | None:
    """Deterministic completion in the explicit reference form.

    Checks the pin clashes one by one, then places a pinned best value
    first, a pinned worst value last and the rest by smallest-index
    topological order.  The kernel turns the pins into edges and runs one
    topological pass instead; the orders agree, which tests check.
    """
    edge = [[False] * d for _ in range(d)]
    indeg = [0] * d
    for a, b in pair_list:
        if not edge[a][b]:
            edge[a][b] = True
            indeg[b] += 1
    if best is not None and worst is not None and best == worst and d >= 2:
        return None
    if best is not None and indeg[best] > 0:
        return None
    if worst is not None and any(edge[worst][b] for b in range(d)):
        return None
    placed = [False] * d
    out: list[int] = []
    if best is not None:
        placed[best] = True
        out.append(best)
        for b in range(d):
            if edge[best][b]:
                indeg[b] -= 1
    nmid = d - len(out) - (0 if worst is None else 1)
    for _ in range(nmid):
        pick = -1
        for a in range(d):
            if placed[a] or a == worst:
                continue
            if indeg[a] == 0:
                pick = a
                break
        if pick == -1:
            return None
        placed[pick] = True
        out.append(pick)
        for b in range(d):
            if edge[pick][b]:
                indeg[b] -= 1
    if worst is not None:
        out.append(worst)
    return out


def valid_extension(space: VariableSpace, gamma: Sequence[PrefStatement],
                    model: LexModel, variable: str) -> TotalValueOrder | None:
    """A value order making ``model`` extendable by ``variable``, or None.

    Returns the deterministic completion: pinned best first, pinned worst
    last, remaining values by smallest-index topological order over the
    required pairs.
    """
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


def _comparison_arrays(rows: Sequence[tuple[Outcome, Outcome, bool]]):
    """The kernel's ``xleft``, ``xright``, ``xstrict`` for ``rows``."""
    return ([left.values for left, _, _ in rows],
            [right.values for _, right, _ in rows],
            [strict for _, _, strict in rows])


def consistent_with_comparisons(enc: EncodedGamma,
                                rows: Sequence[tuple[Outcome, Outcome, bool]],
                                ) -> bool:
    """Consistency of the encoded set plus extra outcome comparisons.

    The fast path behind inference and optimality membership: the base
    encoding is reused, only the comparison rows change per query.  An
    individually unsatisfiable statement, or a strict row between equal
    outcomes, is one the kernel never sees witnessed, so it fails the run.
    """
    ok, *_ = enc.run(*_comparison_arrays(rows))
    return ok == 1


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
    base = consistent(space, gamma, verify=False)
    if not base.consistent:
        raise InconsistentError("statement set has no model")
    aug = consistent(space, tuple(gamma) + (neg,), verify=False)
    if not aug.consistent:
        return True
    return aug.v_gamma != base.v_gamma
