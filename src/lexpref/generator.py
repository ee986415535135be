"""Seeded random instance generation with a planted satisfying model.

Instances are built so that a hidden full lexicographic model satisfies
every emitted statement, which guarantees consistency by construction.
The skeleton of each statement is drawn as follows (block sizes are a
design choice here, documented because only the planted-model guarantee is
forced):

1. pick a cut position ``c`` in the hidden model's stage order;
2. every variable before the cut goes to the held set or the agreement
   block (coin flip; agreement values are arbitrary);
3. the variable at the cut becomes the pivot of both difference blocks,
   with its left value ranked above its right value in the hidden model
   (below, for the inner statement of a negation, so the hidden model
   falsifies it and satisfies the negation);
4. a geometric number (mean 1) of extra shared-difference variables is
   drawn from the stages after the cut, with arbitrary distinct value
   pairs; non-negated statements additionally draw geometric left-only /
   right-only blocks whose values sit at the hidden top / bottom of their
   stage orders;
5. everything else after the cut lands in the residual block.

Since every stage before the first shared-difference variable is held or
agreed, the hidden model's satisfaction walk ends at the pivot with the
required value order, so the audit ``hidden model satisfies statement``
passes for every draw.  The generator is a pure function of its
configuration: identical configurations give bit-identical instances.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .core import (LexModel, Outcome, PartialAssignment, TotalValueOrder,
                   VariableSpace)
from .optimality import AlternativeSet
from .rng import SplitMix64
from .statements import PrefStatement, StatementKind, satisfies

_KIND_ORDER = (StatementKind.FULLY_STRICT, StatementKind.WEAKLY_STRICT,
               StatementKind.NON_STRICT, StatementKind.NEGATED_NON_STRICT)

# Every instance names its values, and its first 256 variables, with these
# strings, so instances kept side by side share them.
_VALUE_NAMES = tuple(f"v{j + 1}" for j in range(9))
_VAR_NAMES = tuple(f"x{i + 1}" for i in range(256))


@dataclass(frozen=True)
class GenConfig:
    """Generator configuration; every field feeds the deterministic stream."""

    n: int
    g: int
    m: int
    seed: int
    domain_min: int = 2
    domain_max: int = 3

    def __post_init__(self):
        if self.n < 1 or self.g < 1 or self.m < 1:
            raise ValueError("n, g and m must all be at least 1")
        if not 1 <= self.domain_min <= self.domain_max <= 9:
            raise ValueError("domain sizes must satisfy 1 <= min <= max <= 9")


@dataclass(frozen=True)
class GeneratedInstance:
    space: VariableSpace
    gamma: tuple[PrefStatement, ...]
    alternatives: AlternativeSet
    hidden_model: LexModel


def _kind_sequence(rng: SplitMix64, g: int) -> list[StatementKind]:
    """Equal counts of the four kinds (the first ``g % 4`` get one more),
    then shuffled."""
    kinds: list[StatementKind] = []
    for i, kind in enumerate(_KIND_ORDER):
        kinds.extend([kind] * (g // 4 + (i < g % 4)))
    rng.shuffle(kinds)
    return kinds


def gen_instance(cfg: GenConfig) -> GeneratedInstance:
    """Draw a consistent instance; the hidden model is returned for audit."""
    rng = SplitMix64(cfg.seed)
    names = _VAR_NAMES[:cfg.n] + tuple(
        f"x{i + 1}" for i in range(len(_VAR_NAMES), cfg.n))
    span = cfg.domain_max - cfg.domain_min + 1
    domains = {}
    for name in names:
        d = cfg.domain_min + rng.randrange(span)
        domains[name] = _VALUE_NAMES[:d]
    space = VariableSpace(names, domains)

    stage_order = rng.permutation(cfg.n)
    stages = tuple(
        TotalValueOrder(space, x, tuple(rng.permutation(space.domain_size(x))))
        for x in stage_order)
    hidden = LexModel(space, stages)

    rankable = [pos for pos, x in enumerate(stage_order)
                if space.domain_size(x) >= 2]
    if not rankable:
        raise ValueError("statement generation needs a variable with at "
                         "least two values")

    kinds = _kind_sequence(rng, cfg.g)
    gamma = []
    for idx, kind in enumerate(kinds):
        gamma.append(_draw_statement(rng, space, hidden, stage_order,
                                     rankable, kind, f"s{idx}"))
        if not satisfies(hidden, gamma[-1]):
            raise RuntimeError("internal error: hidden model rejects a "
                               "generated statement")

    alternatives = _draw_alternatives(rng, space, cfg.m)
    return GeneratedInstance(space=space, gamma=tuple(gamma),
                             alternatives=alternatives, hidden_model=hidden)


def _draw_statement(rng: SplitMix64, space: VariableSpace, hidden: LexModel,
                    stage_order: list[int], rankable: list[int],
                    kind: StatementKind, label: str) -> PrefStatement:
    """One statement, built in the block form :func:`canonicalize` would
    give its two sides: the agreement block is the agreed variables with
    more than one value, the held set everything else before the cut plus
    every one-value variable, and R and S the shared-difference values
    followed by the left-only and right-only blocks."""
    c = rankable[rng.randrange(len(rankable))]
    pivot = stage_order[c]
    ranking = hidden.stages[c].ranking

    domains = space.domains
    sing = space.singleton_mask
    held = 0
    agree: dict[int, int] = {}
    for pos in range(c):
        x = stage_order[pos]
        if rng.coin():
            held |= 1 << x
        else:
            v = rng.randrange(len(domains[x]))
            if not sing >> x & 1:
                agree[x] = v

    d = len(ranking)
    hi = rng.randrange(d - 1)
    lo = hi + 1 + rng.randrange(d - 1 - hi)
    if kind is StatementKind.NEGATED_NON_STRICT:
        r_pivot, s_pivot = ranking[lo], ranking[hi]
    else:
        r_pivot, s_pivot = ranking[hi], ranking[lo]

    later = rankable[bisect_right(rankable, c):]
    rng.shuffle(later)
    cursor = 0

    r_vals = {pivot: r_pivot}
    s_vals = {pivot: s_pivot}
    for _ in range(min(rng.geometric(), len(later) - cursor)):
        x = stage_order[later[cursor]]
        cursor += 1
        dx = len(domains[x])
        rv = rng.randrange(dx)
        r_vals[x] = rv
        s_vals[x] = (rv + 1 + rng.randrange(dx - 1)) % dx

    if kind is not StatementKind.NEGATED_NON_STRICT:
        for _ in range(min(rng.geometric(), len(later) - cursor)):
            pos = later[cursor]
            cursor += 1
            r_vals[stage_order[pos]] = hidden.stages[pos].ranking[0]
        for _ in range(min(rng.geometric(), len(later) - cursor)):
            pos = later[cursor]
            cursor += 1
            s_vals[stage_order[pos]] = hidden.stages[pos].ranking[-1]

    return PrefStatement(space, kind, PartialAssignment(space, agree),
                         PartialAssignment(space, r_vals),
                         PartialAssignment(space, s_vals),
                         held | sing, label=label)


def _draw_alternatives(rng: SplitMix64, space: VariableSpace,
                       m: int) -> AlternativeSet:
    count = space.outcome_count()
    if m > count:
        raise ValueError(f"cannot draw {m} distinct alternatives from "
                         f"{count} outcomes")
    if count <= 4 * m:
        pool = list(space.iter_outcomes())
        rng.shuffle(pool)
        return AlternativeSet(space, pool[:m])
    seen: set[tuple[int, ...]] = set()
    out: list[Outcome] = []
    while len(out) < m:
        values = tuple(rng.randrange(space.domain_size(i))
                       for i in range(space.n))
        if values not in seen:
            seen.add(values)
            out.append(Outcome(space, values))
    return AlternativeSet(space, out)
