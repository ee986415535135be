"""Optimality classes of a finite alternative set.

Four classes are computed directly; the remaining three coincide with one
of them once every statement composes (which all statements here do):

* ``PO``  optimal in some model (possibly optimal)
* ``PSO`` optimal in some model with every co-optimal alternative
  equivalent (possibly strictly optimal); equals the
  maximal-possibility, optimal-in-some-maximal-model and
  iterated-maximisation classes, exposed as ``mpo``/``pom``/``ext``
* ``CSD`` undominated under the entailed strict relation
* ``NO``  optimal in every model (necessarily optimal)

Membership reduces to consistency: one engine run per alternative for PO
and PSO, one per competitor for CSD and NO.  :func:`_ranked_groups` reads
how a model ranks outcomes from the kernel's arrays, splitting them stage
by stage until each stands alone; its groups of all alternatives under
the maximal model are the equivalence classes, interchangeable in every
model, so all computations run on one representative per class and
expand afterwards.  Every model a successful run returns, and the maximal
model, is kept as certificates of which representatives it makes optimal,
alone at the top, or strictly above which others; a test such a
certificate covers runs no kernel.  That is sound because the model
satisfies the statement set plus the test's comparisons, so the set is
consistent, which is exactly what the kernel decides.
``compute_sets`` walks the inclusion chain NO ⊆ PSO ⊆ PO, PSO ⊆ CSD: PSO
is tested only on PO members and CSD only outside PSO.

NO needs no engine run: it is PSO when PSO is a single class, and empty
otherwise.  Let M be any model of the statement set and M* the greedy
maximal model.  M followed by the stages of M* on the variables M lacks
is again a model (every statement kind survives the stage walk of
:func:`lexpref.statements.satisfies`).  It orders every variable of M*,
so its optimum is a single class, which therefore lies in PSO; and it
only breaks ties of M, so that class is optimal in M as well.  A lone
PSO class is thus optimal in every model.  With two PSO classes, each has
a model where it alone is optimal, so neither is in NO.
``no_membership`` keeps the direct definition, one run per competitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Sequence

from .core import LexModel, Outcome, VariableSpace
# consistent_from_encoding and consistent_with_comparisons stay importable
# here only for perfbench/spans.py, which hooks both on this module.
from .engine import (EncodedGamma, consistent_from_encoding,  # noqa: F401
                     consistent_with_comparisons)
from .errors import InconsistentError
from .statements import PrefStatement


class AlternativeSet:
    """An ordered set of distinct outcomes to choose among."""

    __slots__ = ("space", "outcomes", "_index")

    def __init__(self, space: VariableSpace, outcomes: Iterable[Outcome]):
        outcomes = tuple(outcomes)
        if not outcomes:
            raise ValueError("alternative set must be non-empty")
        seen = {}
        for i, o in enumerate(outcomes):
            if o.space is not space and o.space != space:
                raise ValueError("alternative built over a different space")
            if o.values in seen:
                raise ValueError(f"duplicate alternative at positions "
                                 f"{seen[o.values]} and {i}")
            seen[o.values] = i
        self.space = space
        self.outcomes = outcomes
        self._index = seen

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def __getitem__(self, i: int) -> Outcome:
        return self.outcomes[i]

    def index_of(self, outcome: Outcome) -> int:
        try:
            return self._index[outcome.values]
        except KeyError:
            raise ValueError("outcome is not one of the alternatives") from None


@dataclass(frozen=True)
class OptimalSets:
    """The four computed classes plus the equivalence partition.

    All sets hold alternative indices.  Constructor enforces the inclusion
    structure these classes provably satisfy; a violation would mean an
    engine bug.
    """

    po: frozenset[int]
    pso: frozenset[int]
    csd: frozenset[int]
    no: frozenset[int]
    eq_classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not (self.no <= self.pso <= self.po and self.pso <= self.csd):
            raise ValueError("optimality classes violate their inclusion chain")
        if self.no and not (self.no == self.pso == self.csd):
            raise ValueError("non-empty necessary set must equal the strict "
                             "and undominated sets")

    @property
    def mpo(self) -> frozenset[int]:
        return self.pso

    @property
    def pom(self) -> frozenset[int]:
        return self.pso

    @property
    def ext(self) -> frozenset[int]:
        return self.pso


def _ranked_groups(values: Sequence[tuple[int, ...]],
                   stages: Sequence[tuple[int, Sequence[int]]],
                   ) -> list[list[int]]:
    """Positions of ``values`` in groups ranked by one model, best first.

    Each of the model's ``(variable, best-first order)`` ``stages`` splits
    every group, kept in increasing positions, by the ranks of the values
    present (``order`` may be padded), until every group has one member.
    """
    groups = [list(range(len(values)))]
    for x, order in stages:
        if len(groups) == len(values):
            break
        refined = []
        for group in groups:
            if len(group) == 1:
                refined.append(group)
                continue
            split: dict[int, list[int]] = {}
            for p in group:
                split.setdefault(values[p][x], []).append(p)
            refined.extend(split[v] for v in sorted(split, key=order.index))
        groups = refined
    return groups


def optimal_in_model(model: LexModel, alternatives: AlternativeSet,
                     ) -> frozenset[int]:
    """Indices of the alternatives no other alternative beats under the model."""
    stages = [(st.var, st.ranking) for st in model.stages]
    return frozenset(_ranked_groups([o.values for o in alternatives],
                                    stages)[0])


def equivalence_classes(space: VariableSpace, gamma: Sequence[PrefStatement],
                        alternatives: AlternativeSet,
                        ) -> tuple[tuple[int, ...], ...]:
    """Partition alternatives by agreement on the maximal model's variables.

    Alternatives in one class compare as equivalent under every model of the
    statement set.
    """
    return _MembershipRun(space, gamma, alternatives).eq_classes


class _MembershipRun:
    """Shared state for membership tests over one instance.

    Every model of the statement set seen so far is kept as certificates,
    bitmasks over the class representatives' positions: bit p of ``top``
    when p was optimal in one, of ``sole_top`` when p alone was, and bit q
    of ``beats[p]`` when p was strictly above q.  A test that a certificate
    already answers runs no kernel.
    """

    def __init__(self, space: VariableSpace, gamma: Sequence[PrefStatement],
                 alternatives: AlternativeSet):
        self.enc = EncodedGamma(space, gamma)
        ok, nstages, stage_vars, orders, *_ = self.enc.run()
        if ok != 1:
            raise InconsistentError("statement set has no model")
        stages = [(x, orders[x]) for x in stage_vars[:nstages]]
        groups = _ranked_groups([o.values for o in alternatives], stages)
        self.eq_classes = tuple(tuple(group) for group in sorted(groups))
        self.reps = [cls[0] for cls in self.eq_classes]
        self.rep_values = [alternatives[i].values for i in self.reps]
        self.top = 0
        self.sole_top = 0
        self.beats = [0] * len(self.reps)
        self._record(_ranked_groups(self.rep_values, stages))

    def _record(self, groups: list[list[int]]) -> None:
        """Add the certificates of a model from its ranked rep groups."""
        below = 0
        for group in reversed(groups):             # worst group first
            mask = sum(1 << p for p in group)
            for p in group:
                self.beats[p] |= below
            below |= mask
        self.top |= mask                           # the best group
        if len(group) == 1:
            self.sole_top |= mask

    def _holds(self, left: list[tuple[int, ...]],
               right: list[tuple[int, ...]], strict: bool) -> bool:
        """Does some model put each left row above its right row?

        One kernel run; the model it returns, if any, is recorded.
        """
        ok, nstages, stage_vars, orders, *_ = self.enc.run(
            left, right, [strict] * len(left))
        if ok != 1:
            return False
        self._record(_ranked_groups(
            self.rep_values, [(x, orders[x]) for x in stage_vars[:nstages]]))
        return True

    def _one_vs_rest(self, rep_pos: int, strict: bool) -> bool:
        values = self.rep_values
        rest = values[:rep_pos] + values[rep_pos + 1:]
        return self._holds([values[rep_pos]] * len(rest), rest, strict)

    def po_rep(self, rep_pos: int) -> bool:
        return (bool(self.top >> rep_pos & 1)
                or self._one_vs_rest(rep_pos, strict=False))

    def pso_rep(self, rep_pos: int) -> bool:
        return (bool(self.sole_top >> rep_pos & 1)
                or self._one_vs_rest(rep_pos, strict=True))

    def _pair(self, left_rep: int, right_rep: int) -> bool:
        return bool(self.beats[left_rep] >> right_rep & 1) or self._holds(
            self.rep_values[left_rep:left_rep + 1],
            self.rep_values[right_rep:right_rep + 1], strict=True)

    def csd_rep(self, rep_pos: int) -> bool:
        # undominated: the alternative can strictly beat every
        # non-equivalent competitor in some model
        return all(self._pair(rep_pos, p)
                   for p in range(len(self.reps)) if p != rep_pos)

    def no_rep(self, rep_pos: int) -> bool:
        # necessarily optimal: no competitor can ever strictly beat it
        return not any(self._pair(p, rep_pos)
                       for p in range(len(self.reps)) if p != rep_pos)

    def expand(self, rep_positions: Iterable[int]) -> frozenset[int]:
        return frozenset(i for p in rep_positions for i in self.eq_classes[p])


def _member(test, space, gamma, alternatives, alpha) -> bool:
    run = _MembershipRun(space, gamma, alternatives)
    idx = alternatives.index_of(alpha)
    return test(run, next(p for p, cls in enumerate(run.eq_classes)
                          if idx in cls))


def po_membership(space: VariableSpace, gamma: Sequence[PrefStatement],
                  alternatives: AlternativeSet, alpha: Outcome) -> bool:
    """Is there a model of the statement set making ``alpha`` optimal?"""
    return _member(_MembershipRun.po_rep, space, gamma, alternatives, alpha)


def pso_membership(space: VariableSpace, gamma: Sequence[PrefStatement],
                   alternatives: AlternativeSet, alpha: Outcome) -> bool:
    """Is ``alpha`` optimal in some model with only equivalents beside it?"""
    return _member(_MembershipRun.pso_rep, space, gamma, alternatives, alpha)


def csd_membership(space: VariableSpace, gamma: Sequence[PrefStatement],
                   alternatives: AlternativeSet, alpha: Outcome) -> bool:
    """Is ``alpha`` undominated under the entailed strict relation?"""
    return _member(_MembershipRun.csd_rep, space, gamma, alternatives, alpha)


def no_membership(space: VariableSpace, gamma: Sequence[PrefStatement],
                  alternatives: AlternativeSet, alpha: Outcome) -> bool:
    """Is ``alpha`` optimal in every model of the statement set?"""
    return _member(_MembershipRun.no_rep, space, gamma, alternatives, alpha)


def compute_sets(space: VariableSpace, gamma: Sequence[PrefStatement],
                 alternatives: AlternativeSet) -> OptimalSets:
    """All four optimality classes of the alternative set."""
    sets, _ = compute_sets_timed(space, gamma, alternatives)
    return sets


def compute_sets_timed(space: VariableSpace, gamma: Sequence[PrefStatement],
                       alternatives: AlternativeSet,
                       ) -> tuple[OptimalSets, dict[str, float]]:
    """Compute the classes and report per-class wall time in milliseconds.

    Each class is tested only on the representatives the earlier classes
    leave undecided, so a class's time is its cost given the earlier ones;
    NO is read off PSO without a test.
    """
    run = _MembershipRun(space, gamma, alternatives)
    timings: dict[str, float] = {}

    def timed(name: str, test, positions) -> list[int]:
        start = perf_counter()
        held = [p for p in positions if test(p)]
        timings[name] = (perf_counter() - start) * 1000.0
        return held

    every = range(len(run.reps))
    po = timed("po", run.po_rep, every)
    pso = timed("pso", run.pso_rep, po)
    csd = pso + timed("csd", run.csd_rep, [p for p in every if p not in pso])
    no = timed("no", lambda p: len(pso) == 1, pso)  # see the module docstring
    sets = OptimalSets(po=run.expand(po), pso=run.expand(pso),
                       csd=run.expand(csd), no=run.expand(no),
                       eq_classes=run.eq_classes)
    return sets, timings
