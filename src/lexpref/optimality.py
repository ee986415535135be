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
and PSO, one per competitor for CSD and NO, each a kernel run with one
representative's values above a mask of others (see
:mod:`lexpref.kernel`).  One rule, :func:`_ranked`, reads how a model
ranks outcomes: it splits a mask over the outcomes' :func:`value_masks`
table stage by stage, depth first, into the parts with each value, best
first, until each part holds one outcome.  Its groups of all
alternatives under the maximal model are the equivalence classes,
interchangeable in every model, so all computations run on one
representative per class and expand afterwards; its first group under
any model is :func:`optimal_in_model`.  Every model a successful run
returns, and the maximal model, is kept as certificates read off its
groups of the representatives: which it makes optimal, alone at the top,
or strictly above which others; a test such a certificate covers runs no
kernel.  That is sound because the model satisfies the statement set
plus the test's comparisons, so the set is consistent, which is exactly
what the kernel decides.
``compute_sets`` walks the inclusion chain NO ⊆ PSO ⊆ PO, PSO ⊆ CSD: PSO
is tested only on PO members and CSD only outside PSO, and not at all
when NO is non-empty: no competitor ever strictly beats a necessarily
optimal class, so CSD = PSO = NO.

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

from .core import LexModel, Outcome, VariableSpace, iter_bits
# consistent_from_encoding and consistent_with_comparisons stay importable
# here only for perfbench/spans.py, which hooks both on this module.
from .engine import (EncodedGamma, consistent_from_encoding,  # noqa: F401
                     consistent_with_comparisons)
from .errors import InconsistentError
from .kernel import value_masks
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
        if outcome.space is not self.space and outcome.space != self.space:
            raise ValueError("outcome built over a different space")
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


def _ranked(rows: Sequence[Sequence[int]],
            stages: Sequence[tuple[int, Sequence[int]]],
            mask: int) -> list[int]:
    """The groups of the outcomes in ``mask`` that one model ranks as
    equivalent, best first, as masks over the :func:`value_masks` table
    ``rows``.

    The model's ``(variable, best-first order)`` ``stages`` split a group
    stage by stage, depth first, into its parts with each value of the
    stage's variable, best value first; a branch stops when it holds one
    outcome or the stages run out.
    """
    groups = []
    masks, depths = [mask], [0]     # the branches still to split, last first
    end = len(stages)
    while masks:
        mask, depth = masks.pop(), depths.pop()
        while depth < end and mask & (mask - 1):
            x, order = stages[depth]
            depth += 1
            at_x = rows[x]
            parts = [part for v in reversed(order) if (part := mask & at_x[v])]
            if len(parts) > 1:
                mask = parts.pop()
                masks += parts
                depths += [depth] * len(parts)
        groups.append(mask)
    return groups


def optimal_in_model(model: LexModel, alternatives: AlternativeSet,
                     ) -> frozenset[int]:
    """Indices of the alternatives no other alternative beats under the model."""
    space = model.space
    if alternatives.space is not space and alternatives.space != space:
        raise ValueError("alternatives built over a different space")
    rows = value_masks(space, [o.values for o in alternatives])
    stages = [(st.var, st.ranking) for st in model.stages]
    return frozenset(iter_bits(
        _ranked(rows, stages, (1 << len(alternatives)) - 1)[0]))


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

    The tests run on one representative per equivalence class, as kernel
    rows over the :func:`value_masks` table of the representatives' values.
    Every model of the statement set seen so far is kept as certificates,
    bitmasks over the representatives' positions: bit p of ``top`` when p
    was optimal in one, of ``sole_top`` when p alone was, and bit q of
    ``beats[p]`` when p was strictly above q.  A test that a certificate
    already answers runs no kernel.
    """

    def __init__(self, space: VariableSpace, gamma: Sequence[PrefStatement],
                 alternatives: AlternativeSet):
        if alternatives.space is not space and alternatives.space != space:
            raise ValueError("alternatives built over a different space")
        self.enc = EncodedGamma(space, gamma)
        ok, stages, *_ = self.enc.run()
        if not ok:
            raise InconsistentError("statement set has no model")
        values = [o.values for o in alternatives]
        rows = value_masks(space, values)
        groups = _ranked(rows, stages, (1 << len(values)) - 1)
        self.eq_classes = tuple(sorted(tuple(iter_bits(group))
                                       for group in groups))
        self.reps = [cls[0] for cls in self.eq_classes]
        self.rep_values = [values[i] for i in self.reps]
        if len(groups) < len(values):   # else each alternative is its rep
            rows = value_masks(space, self.rep_values)
        self.rows = rows
        self.everyone = (1 << len(self.reps)) - 1
        self.top = 0
        self.sole_top = 0
        self.beats = [0] * len(self.reps)
        self._record(stages)

    def _record(self, stages: list[tuple[int, Sequence[int]]]) -> None:
        """Add the certificates of a model, given by its stages."""
        beats = self.beats
        groups = _ranked(self.rows, stages, self.everyone)
        best = groups[0]
        self.top |= best
        if not best & (best - 1):
            self.sole_top |= best
        below = self.everyone
        for group in groups:
            below ^= group
            if group & (group - 1):
                for p in iter_bits(group):
                    beats[p] |= below
            else:
                beats[group.bit_length() - 1] |= below

    def _holds(self, rep_pos: int, rest: int, strict: bool) -> bool:
        """Does some model put the representative at ``rep_pos`` above
        each one in the mask ``rest``?

        One kernel run; the model it returns, if any, is recorded.
        """
        ok, stages, *_ = self.enc.run(
            self.rows, self.rep_values[rep_pos], rest, strict)
        if ok:
            self._record(stages)
        return ok

    def po_rep(self, rep_pos: int) -> bool:
        return (bool(self.top >> rep_pos & 1) or self._holds(
            rep_pos, self.everyone ^ 1 << rep_pos, strict=False))

    def pso_rep(self, rep_pos: int) -> bool:
        return (bool(self.sole_top >> rep_pos & 1) or self._holds(
            rep_pos, self.everyone ^ 1 << rep_pos, strict=True))

    def _pair(self, left_rep: int, right_rep: int) -> bool:
        return (bool(self.beats[left_rep] >> right_rep & 1)
                or self._holds(left_rep, 1 << right_rep, strict=True))

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
    idx = alternatives.index_of(alpha)
    run = _MembershipRun(space, gamma, alternatives)
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
    NO is read off PSO without a test, and a non-empty NO is CSD.
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
    no = timed("no", lambda p: len(pso) == 1, pso)  # see the module docstring
    csd = pso + timed("csd", run.csd_rep,
                      [] if no else [p for p in every if p not in pso])
    sets = OptimalSets(po=run.expand(po), pso=run.expand(pso),
                       csd=run.expand(csd), no=run.expand(no),
                       eq_classes=run.eq_classes)
    return sets, timings
