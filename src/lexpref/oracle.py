"""Brute-force ground truth at desk scale.

Enumerates every lexicographic model of a small space and decides
consistency, entailment and all the optimality classes straight from their
definitions.  Deliberately free of cleverness: this module is the reference
the fast engine is tested against, so it must stay dumb enough to trust.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import LexModel, TotalValueOrder, VariableSpace
from .errors import CapExceededError, InconsistentError
from .statements import PrefStatement, satisfies

MODEL_CAP_DEFAULT = 1_000_000


def model_count(space: VariableSpace) -> int:
    """Number of lexicographic models over the space.

    Sum over variable subsets of (orderings of the subset) x (value order
    choices per chosen variable).
    """
    n = space.n
    dfact = [math.factorial(space.domain_size(i)) for i in range(n)]
    total = 0
    for subset in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(n + 1)):
        prod = math.factorial(len(subset))
        for i in subset:
            prod *= dfact[i]
        total += prod
    return total


def enumerate_models(space: VariableSpace,
                     cap: int = MODEL_CAP_DEFAULT) -> Iterator[LexModel]:
    """Every lexicographic model exactly once, the empty model included.

    Deterministic order: by stage count, then variable sequence, then value
    orders, all in index order.
    """
    count = model_count(space)
    if count > cap:
        raise CapExceededError(f"space has {count} models, cap is {cap}")
    n = space.n
    orders_by_var = [
        [TotalValueOrder(space, i, perm)
         for perm in itertools.permutations(range(space.domain_size(i)))]
        for i in range(n)
    ]
    for k in range(n + 1):
        for var_seq in itertools.permutations(range(n), k):
            for combo in itertools.product(*(orders_by_var[i] for i in var_seq)):
                yield LexModel(space, tuple(combo))


def brute_consistent(space: VariableSpace, gamma: Sequence[PrefStatement],
                     cap: int = MODEL_CAP_DEFAULT,
                     models: Sequence[LexModel] | None = None,
                     ) -> tuple[bool, list[LexModel]]:
    """Exists-a-satisfying-model semantics, by trying all of them.

    Returns the verdict together with every satisfying model.  A
    pre-enumerated model list may be passed to amortise sweeps over one
    space.
    """
    if models is None:
        models = enumerate_models(space, cap=cap)
    satisfying = [pi for pi in models
                  if all(satisfies(pi, st) for st in gamma)]
    return bool(satisfying), satisfying


def brute_maximal_models(space: VariableSpace,
                         satisfying: Sequence[LexModel]) -> list[LexModel]:
    """Satisfying models no other satisfying model strictly extends."""
    prefixes = set()
    for pi in satisfying:
        for k in range(len(pi.stages)):
            prefixes.add(pi.stages[:k])
    return [pi for pi in satisfying if pi.stages not in prefixes]


@dataclass(frozen=True)
class BruteOptimalSets:
    """All optimality classes of an alternative set, from the definitions.

    Sets hold alternative indices.  ``ext`` is reported as ``pso``: iterated
    maximisation over a model sequence equals maximisation over the
    composed model, which collapses the reachable sets onto the strictly
    optimal ones; the equality is spot-checked separately in the tests.
    """

    po: frozenset[int]
    pso: frozenset[int]
    csd: frozenset[int]
    no: frozenset[int]
    mpo: frozenset[int]
    pom: frozenset[int]

    @property
    def ext(self) -> frozenset[int]:
        return self.pso


def brute_optimal_sets(space: VariableSpace, gamma: Sequence[PrefStatement],
                       alternatives: Sequence,
                       cap: int = MODEL_CAP_DEFAULT,
                       models: Sequence[LexModel] | None = None,
                       ) -> BruteOptimalSets:
    """Compute every optimality class by full model enumeration.

    ``alternatives`` is a sequence of outcomes (an AlternativeSet works).
    Requires a consistent statement set.
    """
    alts = list(alternatives)
    m = len(alts)
    ok, satisfying = brute_consistent(space, gamma, cap=cap, models=models)
    if not ok:
        raise InconsistentError("statement set has no model")

    maximal = brute_maximal_models(space, satisfying)
    maximal_keys = {pi.stages for pi in maximal}

    # all_geq[a][b]: alternative a is at least as good as b in every model.
    all_geq = [[True] * m for _ in range(m)]
    opt_sets: list[frozenset[int]] = []
    opt_bits = [0] * m          # per alternative: bitset of models where optimal
    pom_members: set[int] = set()
    for idx, pi in enumerate(satisfying):
        keys = [pi.key(a) for a in alts]
        best = min(keys)
        opt = frozenset(i for i in range(m) if keys[i] == best)
        opt_sets.append(opt)
        for i in opt:
            opt_bits[i] |= 1 << idx
        if pi.stages in maximal_keys:
            pom_members.update(opt)
        for a in range(m):
            ka = keys[a]
            for b in range(m):
                if ka > keys[b]:
                    all_geq[a][b] = False

    def equiv(a: int, b: int) -> bool:
        return all_geq[a][b] and all_geq[b][a]

    po = frozenset(i for i in range(m) if opt_bits[i])
    no = frozenset(i for i in range(m)
                   if all(i in opt for opt in opt_sets))
    pso = frozenset(
        i for i in range(m)
        if any(i in opt and all(equiv(i, b) for b in opt) for opt in opt_sets))
    csd = frozenset(
        a for a in range(m)
        if not any(all_geq[b][a] and not equiv(a, b) for b in range(m)))
    mpo = frozenset(
        a for a in range(m)
        if not any(opt_bits[b] & opt_bits[a] == opt_bits[a]
                   and opt_bits[b] != opt_bits[a] for b in range(m)))
    return BruteOptimalSets(po=po, pso=pso, csd=csd, no=no,
                            mpo=mpo, pom=frozenset(pom_members))


def brute_entails(space: VariableSpace, gamma: Sequence[PrefStatement],
                  statement: PrefStatement,
                  cap: int = MODEL_CAP_DEFAULT,
                  models: Sequence[LexModel] | None = None) -> bool:
    """Every-model entailment, by trying all of them."""
    if models is None:
        models = enumerate_models(space, cap=cap)
    return all(satisfies(pi, statement) for pi in models
               if all(satisfies(pi, st) for st in gamma))
