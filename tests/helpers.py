"""Shared test utilities: tiny spaces, naive random statements and models.

The random statement generator here is intentionally different from the
package's planted-model generator: it draws arbitrary block structures with
no consistency guarantee, so sweeps exercise inconsistent sets too.
``reference_encoding`` is the independent reference for the kernel tables
``EncodedGamma`` builds, and ``reference_satisfies`` the stage-by-stage
walk that ``lexpref.satisfies`` must agree with.
"""

from __future__ import annotations

import itertools

from lexpref import (LexModel, Outcome, PartialAssignment, StatementKind,
                     TotalValueOrder, VariableSpace, canonicalize,
                     negate_non_strict)
from lexpref.core import iter_bits
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


def small_space(rng: SplitMix64, max_vars: int = 3, max_domain: int = 3,
                min_domain: int = 2) -> VariableSpace:
    n = 2 + rng.randrange(max_vars - 1)
    names = [f"x{i}" for i in range(n)]
    span = max_domain - min_domain + 1
    domains = {name: [f"v{j}" for j in range(min_domain + rng.randrange(span))]
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


def stage_model(space: VariableSpace, stages) -> LexModel:
    """The model of a kernel run's ``(variable, best-first order)`` stages."""
    return LexModel(space, tuple(TotalValueOrder(space, x, order)
                                 for x, order in stages))


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


def reference_encoding(space: VariableSpace, statements) -> dict:
    """What ``EncodedGamma``'s tables must hold for ``statements``.

    Built the direct way: one ``iter_bits`` walk per block mask per
    statement sets statement j's bit in per-variable masks.  Each of
    ``pairs``, ``bests`` and ``worsts`` is, per variable, the union of its
    entries' masks with a dict of each entry (pair or value) to its mask.
    """
    n = space.n
    tables = {name: [[0, {}] for _ in range(n)]
              for name in ("pairs", "bests", "worsts")}
    masks = {name: [0] * n for name in ("wblk", "kill", "touch")}
    kinds = {"full": 0, "weak": 0, "neg": 0}
    kind_name = {StatementKind.FULLY_STRICT: "full",
                 StatementKind.WEAKLY_STRICT: "weak",
                 StatementKind.NEGATED_NON_STRICT: "neg"}

    def add(name, x, key, bit):
        table = tables[name][x]
        table[0] |= bit
        table[1][key] = table[1].get(key, 0) | bit
        masks["touch"][x] |= bit

    for j, st in enumerate(statements):
        bit = 1 << j
        if st.kind in kind_name:
            kinds[kind_name[st.kind]] |= bit
        negated = st.kind is StatementKind.NEGATED_NON_STRICT
        for x in iter_bits(st.rs_mask):
            # a negation requires the pair reversed: right value above left
            r, s = st.r.vals[x], st.s.vals[x]
            add("pairs", x, (s, r) if negated else (r, s), bit)
            masks["kill"][x] |= bit
        for x in iter_bits(st.r_mask & ~st.s_mask):
            add("bests", x, st.r.vals[x], bit)
        for x in iter_bits(st.s_mask & ~st.r_mask):
            add("worsts", x, st.s.vals[x], bit)
        for x in iter_bits(st.w_mask):
            masks["kill" if negated else "wblk"][x] |= bit
    return {**{name: [tuple(entry) for entry in table]
               for name, table in tables.items()}, **masks, **kinds}


def _reference_nonstrict_holds(model: LexModel, st) -> bool:
    """The non-strict reading of ``st`` by a walk down every stage.

    Held and agreement variables are skipped; a residual (W) variable
    falsifies the statement and a variable in both difference sets settles
    it by the required value order; a variable met before either must put
    the left value on top (R only) or the right value at the bottom
    (S only).
    """
    skip = st.t_mask | st.u_mask
    for stage in model.stages:
        x = stage.var
        bit = 1 << x
        if bit & skip:
            continue
        if bit & st.w_mask:
            return False
        if bit & st.rs_mask:
            rank = stage.rank_of
            return rank[st.r.vals[x]] < rank[st.s.vals[x]]
        if bit & st.r_mask:
            if stage.ranking[0] != st.r.vals[x]:
                return False
        elif bit & st.s_mask:
            if stage.ranking[-1] != st.s.vals[x]:
                return False
    return True


def reference_satisfies(model: LexModel, st) -> bool:
    """``satisfies`` by the stage walk, one kind at a time."""
    holds = _reference_nonstrict_holds(model, st)
    if st.kind is StatementKind.NON_STRICT:
        return holds
    if st.kind is StatementKind.FULLY_STRICT:
        return bool(st.rs_mask & model.vmask) and holds
    if st.kind is StatementKind.WEAKLY_STRICT:
        return bool((st.r_mask | st.s_mask) & model.vmask) and holds
    return not holds
