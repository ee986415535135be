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
and PSO, one per competitor for CSD and NO.  Every model a successful run
returns, and the maximal model, is kept as certificates of which
representatives it makes optimal, alone at the top, or strictly above
which others; a test such a certificate covers runs no kernel.  That is
sound because the model satisfies the statement set plus the test's
comparisons, so the set is consistent, which is exactly what the kernel
decides.  Alternatives agreeing on the maximal model's variables are
interchangeable in every model, so all computations run on one
representative per equivalence class and expand afterwards.
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

import numpy as np

from .core import LexModel, Outcome, VariableSpace, iter_bits
# consistent_with_comparisons stays importable here: perfbench/spans.py
# hooks it as this module's comparison-test span.
from .engine import (EncodedGamma, consistent_from_encoding,  # noqa: F401
                     consistent_with_comparisons)
from .errors import InconsistentError
from .statements import PrefStatement


class AlternativeSet:
    """An ordered set of distinct outcomes to choose among."""

    __slots__ = ("space", "outcomes", "_matrix", "_index")

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
        self._matrix = None
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

    def matrix(self) -> np.ndarray:
        """(m, n) int16 value matrix, cached."""
        if self._matrix is None:
            self._matrix = np.array([o.values for o in self.outcomes], np.int16)
        return self._matrix


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


def optimal_in_model(model: LexModel, alternatives: AlternativeSet,
                     ) -> frozenset[int]:
    """Indices of the alternatives no other alternative beats under the model."""
    keys = [model.key(o) for o in alternatives]
    best = min(keys)
    return frozenset(i for i, k in enumerate(keys) if k == best)


def _class_partition(vmask: int, alternatives: AlternativeSet,
                     ) -> tuple[tuple[int, ...], ...]:
    groups: dict[tuple[int, ...], list[int]] = {}
    vars_idx = list(iter_bits(vmask))
    for i, o in enumerate(alternatives.outcomes):
        key = tuple(o.values[x] for x in vars_idx)
        groups.setdefault(key, []).append(i)
    return tuple(tuple(g) for g in groups.values())


def equivalence_classes(space: VariableSpace, gamma: Sequence[PrefStatement],
                        alternatives: AlternativeSet,
                        ) -> tuple[tuple[int, ...], ...]:
    """Partition alternatives by agreement on the maximal model's variables.

    Alternatives in one class compare as equivalent under every model of the
    statement set.
    """
    res = consistent_from_encoding(EncodedGamma(space, gamma))
    if not res.consistent:
        raise InconsistentError("statement set has no model")
    return _class_partition(res.witness.vmask, alternatives)


class _MembershipRun:
    """Shared state for membership tests over one instance.

    Every model of the statement set seen so far is kept as certificates
    over the class representatives: ``top[p]`` when p was optimal in one,
    ``sole_top[p]`` when p alone was, ``beats[p, q]`` when p was strictly
    above q.  A test that a certificate already answers runs no kernel.
    """

    def __init__(self, space: VariableSpace, gamma: Sequence[PrefStatement],
                 alternatives: AlternativeSet):
        self.alternatives = alternatives
        self.enc = EncodedGamma(space, gamma)
        res = consistent_from_encoding(self.enc)
        if not res.consistent:
            raise InconsistentError("statement set has no model")
        self.eq_classes = _class_partition(res.witness.vmask, alternatives)
        self.reps = [cls[0] for cls in self.eq_classes]
        self.rep_matrix = alternatives.matrix()[self.reps]
        k = len(self.reps)
        self.top = np.zeros(k, np.bool_)
        self.sole_top = np.zeros(k, np.bool_)
        self.beats = np.zeros((k, k), np.bool_)
        self._record(np.array([res.witness.key(alternatives[i])
                               for i in self.reps]).reshape(k, -1))

    def _record(self, keys: np.ndarray) -> None:
        """Add the certificates of a model given each rep's stage-wise key.

        ``keys[p]`` ranks rep p's value at each stage of the model (0 best),
        so reps compare as their rows do lexicographically.
        """
        order = (np.lexsort(keys.T[::-1]) if keys.size
                 else np.arange(len(keys)))   # a model with no stage
        ranked = keys[order]
        rank = np.empty(len(order), np.int64)
        rank[order] = np.concatenate(
            ([0], np.cumsum(np.any(ranked[1:] != ranked[:-1], axis=1))))
        best = rank == 0
        self.top |= best
        if np.count_nonzero(best) == 1:
            self.sole_top |= best
        self.beats |= rank[:, None] < rank[None, :]

    def _holds(self, left: np.ndarray, right: np.ndarray,
               strict: bool) -> bool:
        """Does some model put each left row above its right row?

        One kernel run; the model it returns, if any, is recorded.
        """
        ok, nstages, stage_vars, orders, *_ = self.enc.run(
            left, right, np.full(len(left), strict, np.bool_))
        if ok != 1:
            return False
        stage_orders = orders[stage_vars[:nstages]]
        values = self.rep_matrix[:, stage_vars[:nstages]]
        self._record((stage_orders[None] == values[:, :, None]).argmax(axis=2))
        return True

    def _one_vs_rest(self, rep_pos: int, strict: bool) -> bool:
        rest = np.delete(self.rep_matrix, rep_pos, axis=0)
        left = np.repeat(self.rep_matrix[rep_pos:rep_pos + 1], len(rest), 0)
        return self._holds(left, rest, strict)

    def po_rep(self, rep_pos: int) -> bool:
        return (bool(self.top[rep_pos])
                or self._one_vs_rest(rep_pos, strict=False))

    def pso_rep(self, rep_pos: int) -> bool:
        return (bool(self.sole_top[rep_pos])
                or self._one_vs_rest(rep_pos, strict=True))

    def _pair(self, left_rep: int, right_rep: int) -> bool:
        return bool(self.beats[left_rep, right_rep]) or self._holds(
            self.rep_matrix[left_rep:left_rep + 1],
            self.rep_matrix[right_rep:right_rep + 1], strict=True)

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


def po_membership(space: VariableSpace, gamma: Sequence[PrefStatement],
                  alternatives: AlternativeSet, alpha: Outcome) -> bool:
    """Is there a model of the statement set making ``alpha`` optimal?"""
    run = _MembershipRun(space, gamma, alternatives)
    return run.po_rep(_rep_pos_of(run, alpha))


def pso_membership(space: VariableSpace, gamma: Sequence[PrefStatement],
                   alternatives: AlternativeSet, alpha: Outcome) -> bool:
    """Is ``alpha`` optimal in some model with only equivalents beside it?"""
    run = _MembershipRun(space, gamma, alternatives)
    return run.pso_rep(_rep_pos_of(run, alpha))


def csd_membership(space: VariableSpace, gamma: Sequence[PrefStatement],
                   alternatives: AlternativeSet, alpha: Outcome) -> bool:
    """Is ``alpha`` undominated under the entailed strict relation?"""
    run = _MembershipRun(space, gamma, alternatives)
    return run.csd_rep(_rep_pos_of(run, alpha))


def no_membership(space: VariableSpace, gamma: Sequence[PrefStatement],
                  alternatives: AlternativeSet, alpha: Outcome) -> bool:
    """Is ``alpha`` optimal in every model of the statement set?"""
    run = _MembershipRun(space, gamma, alternatives)
    return run.no_rep(_rep_pos_of(run, alpha))


def _rep_pos_of(run: _MembershipRun, alpha: Outcome) -> int:
    idx = run.alternatives.index_of(alpha)
    for pos, cls in enumerate(run.eq_classes):
        if idx in cls:
            return pos
    raise AssertionError("alternative missing from its own partition")


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
    start = perf_counter()
    no = pso if len(pso) == 1 else []  # read off PSO: see the module docstring
    timings["no"] = (perf_counter() - start) * 1000.0
    sets = OptimalSets(po=run.expand(po), pso=run.expand(pso),
                       csd=run.expand(csd), no=run.expand(no),
                       eq_classes=run.eq_classes)
    return sets, timings
