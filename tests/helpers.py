"""Shared test utilities: tiny spaces, naive random statements and models.

The random statement generator here is intentionally different from the
package's planted-model generator: it draws arbitrary block structures with
no consistency guarantee, so sweeps exercise inconsistent sets too.
"""

from __future__ import annotations

import itertools

from lexpref import (LexModel, Outcome, PartialAssignment, StatementKind,
                     TotalValueOrder, VariableSpace, canonicalize,
                     negate_non_strict)
from lexpref.rng import SplitMix64

FLIGHT_SPACE = VariableSpace(
    ["airline", "time", "class"],
    {"airline": ["KLM", "LAN"],
     "time": ["day", "night"],
     "class": ["economy", "business"]})

FLIGHT_A = FLIGHT_SPACE.outcome({"airline": "KLM", "time": "day",
                                 "class": "economy"})
FLIGHT_B = FLIGHT_SPACE.outcome({"airline": "KLM", "time": "night",
                                 "class": "business"})
FLIGHT_G = FLIGHT_SPACE.outcome({"airline": "LAN", "time": "day",
                                 "class": "economy"})
FLIGHT_D = FLIGHT_SPACE.outcome({"airline": "LAN", "time": "night",
                                 "class": "business"})


def small_space(rng: SplitMix64, max_vars: int = 3,
                max_domain: int = 3) -> VariableSpace:
    n = 2 + rng.randrange(max_vars - 1)
    names = [f"x{i}" for i in range(n)]
    domains = {name: [f"v{j}" for j in range(2 + rng.randrange(max_domain - 1))]
               for name in names}
    return VariableSpace(names, domains)


def random_statement(rng: SplitMix64, space: VariableSpace, label=None):
    """Arbitrary canonical statement; may be individually inconsistent."""
    n = space.n
    kind = (StatementKind.FULLY_STRICT, StatementKind.WEAKLY_STRICT,
            StatementKind.NON_STRICT, StatementKind.NEGATED_NON_STRICT,
            )[rng.randrange(4)]
    negated = kind is StatementKind.NEGATED_NON_STRICT
    p_vals: dict[int, int] = {}
    q_vals: dict[int, int] = {}
    held: list[str] = []
    for x in range(n):
        d = space.domain_size(x)
        block = rng.randrange(6)   # 0 T, 1 U, 2 RS, 3 R, 4 S, 5 W
        if negated and block in (3, 4):
            block = 2
        if block == 0:
            held.append(space.variables[x])
        elif block == 1:
            v = rng.randrange(d)
            p_vals[x] = v
            q_vals[x] = v
        elif block == 2 and d >= 2:
            rv = rng.randrange(d)
            p_vals[x] = rv
            q_vals[x] = (rv + 1 + rng.randrange(d - 1)) % d
        elif block == 3:
            p_vals[x] = rng.randrange(d)
        elif block == 4:
            q_vals[x] = rng.randrange(d)
    inner_kind = StatementKind.NON_STRICT if negated else kind
    st = canonicalize(space, PartialAssignment(space, p_vals),
                      PartialAssignment(space, q_vals),
                      space.mask_of(held), inner_kind, label=label)
    if negated:
        st = negate_non_strict(st, label=label)
    return st


def random_gamma(rng: SplitMix64, space: VariableSpace,
                 max_statements: int = 4) -> list:
    count = 1 + rng.randrange(max_statements)
    return [random_statement(rng, space, label=f"s{i}") for i in range(count)]


def random_model(rng: SplitMix64, space: VariableSpace) -> LexModel:
    """Uniform-ish random lexicographic model, empty allowed."""
    k = rng.randrange(space.n + 1)
    variables = rng.permutation(space.n)[:k]
    stages = tuple(
        TotalValueOrder(space, x,
                        tuple(rng.permutation(space.domain_size(x))))
        for x in variables)
    return LexModel(space, stages)


def random_outcome(rng: SplitMix64, space: VariableSpace) -> Outcome:
    return Outcome(space, tuple(rng.randrange(space.domain_size(i))
                                for i in range(space.n)))


def all_two_three_spaces() -> list[VariableSpace]:
    """Every space shape with 2-3 variables and domain sizes 2-3."""
    spaces = []
    for n in (2, 3):
        for sizes in itertools.product((2, 3), repeat=n):
            names = [f"x{i}" for i in range(n)]
            domains = {name: [f"v{j}" for j in range(sizes[i])]
                       for i, name in enumerate(names)}
            spaces.append(VariableSpace(names, domains))
    return spaces
