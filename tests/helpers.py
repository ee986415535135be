"""Shared test utilities: tiny spaces, naive random statements and models.

The random statement generator here is intentionally different from the
package's planted-model generator: it draws arbitrary block structures with
no consistency guarantee, so sweeps exercise inconsistent sets too.
``reference_encoding`` is the independent reference for the kernel tables
``EncodedGamma`` builds.
"""

from __future__ import annotations

import itertools

import numpy as np

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


def reference_encoding(space: VariableSpace, statements) -> tuple:
    """What ``EncodedGamma._args`` must hold for ``statements``.

    Built the direct way: one ``iter_bits`` walk per block mask per
    statement fills per-variable buckets, which are then packed into CSR
    pointer and entry arrays of the kernel's dtypes.
    """
    n = space.n
    g = len(statements)
    codes = {StatementKind.NON_STRICT: 0, StatementKind.FULLY_STRICT: 1,
             StatementKind.WEAKLY_STRICT: 2,
             StatementKind.NEGATED_NON_STRICT: 3}
    kind = np.zeros(g, np.int8)
    rs = [[] for _ in range(n)]
    bo = [[] for _ in range(n)]
    wo = [[] for _ in range(n)]
    w_count = np.zeros(n, np.int32)
    sw = [[] for _ in range(g)]
    nt = [[] for _ in range(n)]
    for j, st in enumerate(statements):
        kind[j] = codes[st.kind]
        if st.kind is StatementKind.NEGATED_NON_STRICT:
            # required pair reversed: right value above left value
            for x in iter_bits(st.rs_mask):
                rs[x].append((j, st.s.vals[x], st.r.vals[x]))
            for x in iter_bits(st.w_mask):
                nt[x].append((j,))
        else:
            for x in iter_bits(st.rs_mask):
                rs[x].append((j, st.r.vals[x], st.s.vals[x]))
            for x in iter_bits(st.r_mask & ~st.s_mask):
                bo[x].append((j, st.r.vals[x]))
            for x in iter_bits(st.s_mask & ~st.r_mask):
                wo[x].append((j, st.s.vals[x]))
            for x in iter_bits(st.w_mask):
                w_count[x] += 1
                sw[j].append((x,))
    return (n, space.dmax,
            np.array([space.domain_size(i) for i in range(n)], np.int32),
            kind,
            *_csr(rs, np.int32, np.int16, np.int16),
            *_csr(bo, np.int32, np.int16), *_csr(wo, np.int32, np.int16),
            w_count, *_csr(sw, np.int32), *_csr(nt, np.int32))


def _csr(buckets, *dtypes) -> tuple:
    """Pointer array plus one entry array per tuple field of the buckets."""
    ptr = np.zeros(len(buckets) + 1, np.int32)
    columns = [[] for _ in dtypes]
    for i, bucket in enumerate(buckets):
        for entry in bucket:
            for column, value in zip(columns, entry):
                column.append(value)
        ptr[i + 1] = len(columns[0])
    return (ptr, *(np.array(c, dt) for c, dt in zip(columns, dtypes)))
