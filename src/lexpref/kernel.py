"""Flat array encoding of a statement set and the greedy kernel over it.

This is the package's hot loop: it grows a maximal star-model of a
statement set one stage at a time, appending the first variable in
declaration order that admits a valid extension, and then checks the
strictness / negation conditions on the result.  A variable admits one iff
its live required pairs plus pin edges (pinned best above every other
value, every other value above pinned worst) have a topological order, so
one smallest-index Kahn pass decides the stage and ranks it.  Every
consistency verdict and every optimality membership test that no recorded
model answers is one run: 36 runs per ``optimal`` op on the benchmark's
desk grid, and about 15,000 over the 90 instances (m=100) of the
desk-scale acceptance test.  So it operates on a flat array encoding and
is JIT-compiled with numba when available (the ``jit`` extra), which takes
the tables as numpy arrays.  Without numba the same source runs as plain
Python over the tables converted once to lists of ints, and keeps its
working state and its results in lists; :func:`backend_name` reports that
backend as ``'python'``.  The kernel subscripts only one dimension at a
time (``xleft[k][x]``), so one source serves both forms.

Every statement kind is strongly compositional, so negations need no second
case: a negated statement is live until it is witnessed, as any other
statement is live until its both-difference block is touched, and while
live it requires the reversed pair.

:class:`EncodedGamma` owns the array format.  Per-variable constraint data
is in CSR layout (``*_ptr`` of length n+1 indexing flat entry arrays).
Entry arrays:

* ``rs_*``   statements with the variable in both difference blocks
  (required pair ``rs_hi`` above ``rs_lo``: the left value above the right
  one, or the reverse for a negation; appending the variable ends the
  statement's liveness)
* ``bo_*``   statements pinning a best value (left-only block)
* ``wo_*``   statements pinning a worst value (right-only block)
* ``w_count`` per variable, the non-negated statements with it in the
  residual block (each blocks the variable while live)
* ``sw_*``   per-statement residual variable lists of non-negated
  statements (whose counts drop when the statement stops being live)
* ``nt_*``   negated statements with the variable in the residual block
  (appending it witnesses the negation, which ends its liveness)

``kind`` holds each statement's :data:`_KIND_CODE`.  ``xleft``/``xright``/
``xstrict`` carry extra complete-outcome comparisons appended to the base
statement set; membership tests use them to avoid re-encoding per query.

Returns ``(ok, stage_count, stage_vars, orders, fail, xfail, tests)``,
the middle four as lists (``orders[x]`` is variable x's ranking, padded
with -1 to ``dmax``), where ``fail`` codes are 0 ok, 2 strictness never
witnessed (both difference blocks), 3 strictness never witnessed (either
block), 4 negation never witnessed, and ``tests`` counts elementary
per-statement constraint evaluations.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from .core import VariableSpace
from .statements import PrefStatement, StatementKind, statement_consistent

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - environment without numba
    njit = None
    HAS_NUMBA = False

_KIND_CODE = {
    StatementKind.NON_STRICT: 0,
    StatementKind.FULLY_STRICT: 1,
    StatementKind.WEAKLY_STRICT: 2,
    StatementKind.NEGATED_NON_STRICT: 3,
}


def _greedy_impl(
    n, dmax, dom_sizes,
    kind,
    rs_ptr, rs_stmt, rs_hi, rs_lo,
    bo_ptr, bo_stmt, bo_val,
    wo_ptr, wo_stmt, wo_val,
    w_count,
    sw_ptr, sw_var,
    nt_ptr, nt_stmt,
    xleft, xright, xstrict,
):
    g = len(kind)
    xk = len(xstrict)

    active = [True] * g      # live: both-difference block untouched,
                             # or for a negation, not yet witnessed
    touched = [False] * g    # some difference variable entered the model
    xactive = [True] * xk
    in_model = [False] * n
    wcount = [0] * n
    for x in range(n):
        wcount[x] = w_count[x]

    orders = [[-1] * dmax for _ in range(n)]
    stage_vars = [-1] * n
    nstages = 0
    tests = 0

    edge = [[False] * dmax for _ in range(dmax)]
    indeg = [0] * dmax
    result = [0] * dmax

    while True:
        appended = False
        for x in range(n):
            if in_model[x]:
                continue
            tests += 1
            if wcount[x] > 0:
                continue
            d = dom_sizes[x]
            for a in range(d):
                indeg[a] = 0
                row = edge[a]
                for b in range(d):
                    row[b] = False
            ok = True
            best = -1
            worst = -1
            for e in range(rs_ptr[x], rs_ptr[x + 1]):
                tests += 1
                j = rs_stmt[e]
                if not active[j]:
                    continue
                a = rs_hi[e]
                b = rs_lo[e]
                if not edge[a][b]:
                    edge[a][b] = True
                    indeg[b] += 1
            for kx in range(xk):
                tests += 1
                if not xactive[kx]:
                    continue
                a = xleft[kx][x]
                b = xright[kx][x]
                if a != b and not edge[a][b]:
                    edge[a][b] = True
                    indeg[b] += 1
            for e in range(bo_ptr[x], bo_ptr[x + 1]):
                tests += 1
                j = bo_stmt[e]
                if not active[j]:
                    continue
                v = bo_val[e]
                if best == -1:
                    best = v
                elif best != v:
                    ok = False
                    break
            if ok:
                for e in range(wo_ptr[x], wo_ptr[x + 1]):
                    tests += 1
                    j = wo_stmt[e]
                    if not active[j]:
                        continue
                    v = wo_val[e]
                    if worst == -1:
                        worst = v
                    elif worst != v:
                        ok = False
                        break
            if not ok:
                continue
            # Pins become edges, so a clash closes a cycle.
            for a in range(d):
                if best != -1 and a != best and not edge[best][a]:
                    edge[best][a] = True
                    indeg[a] += 1
                if worst != -1 and a != worst and not edge[a][worst]:
                    edge[a][worst] = True
                    indeg[worst] += 1
            # Smallest-index Kahn pass; a placed value's indeg becomes -1.
            pos = 0
            while pos < d:
                pick = -1
                for a in range(d):
                    if indeg[a] == 0:
                        pick = a
                        break
                if pick == -1:
                    break
                indeg[pick] = -1
                result[pos] = pick
                pos += 1
                row = edge[pick]
                for b in range(d):
                    if row[b]:
                        indeg[b] -= 1
            if pos < d:
                continue

            in_model[x] = True
            stage_vars[nstages] = x
            nstages += 1
            order = orders[x]
            for a in range(d):
                order[a] = result[a]
            for e in range(rs_ptr[x], rs_ptr[x + 1]):
                j = rs_stmt[e]
                touched[j] = True
                if active[j]:
                    active[j] = False
                    for e2 in range(sw_ptr[j], sw_ptr[j + 1]):
                        wcount[sw_var[e2]] -= 1
            for e in range(bo_ptr[x], bo_ptr[x + 1]):
                touched[bo_stmt[e]] = True
            for e in range(wo_ptr[x], wo_ptr[x + 1]):
                touched[wo_stmt[e]] = True
            for e in range(nt_ptr[x], nt_ptr[x + 1]):
                active[nt_stmt[e]] = False
            for kx in range(xk):
                if xactive[kx] and xleft[kx][x] != xright[kx][x]:
                    xactive[kx] = False
            appended = True
            break
        if not appended:
            break

    ok_all = True
    fail = [0] * g
    for j in range(g):
        tests += 1
        k = kind[j]           # _KIND_CODE
        if k == 1:
            if active[j]:
                fail[j] = 2
                ok_all = False
        elif k == 2:
            if not touched[j]:
                fail[j] = 3
                ok_all = False
        elif k == 3:
            if active[j]:
                fail[j] = 4
                ok_all = False
    xfail = [0] * xk
    for kx in range(xk):
        tests += 1
        if xstrict[kx] and xactive[kx]:
            xfail[kx] = 2
            ok_all = False

    return (1 if ok_all else 0), nstages, stage_vars, orders, fail, xfail, tests


greedy = njit(cache=True, nogil=True)(_greedy_impl) if HAS_NUMBA else _greedy_impl


class EncodedGamma:
    """Flat array encoding of a statement set, reusable across kernel runs.

    Builds the per-variable CSR constraint tables once, as numpy arrays for
    the compiled kernel or as lists for the interpreter; membership queries
    then pass extra outcome comparisons as rows of values instead of
    re-encoding the whole set.  The pair and pin tables come from the
    blocks' ``vals``; the W tables (``w_count``, ``sw``, ``nt``) come from a
    g-by-n bit matrix of the statements' ``w_mask``.
    """

    def __init__(self, space: VariableSpace,
                 statements: Sequence[PrefStatement]):
        self.space = space
        self.statements = tuple(statements)
        n = space.n
        g = len(self.statements)
        self.inconsistent_indices = tuple(
            j for j, st in enumerate(self.statements)
            if not statement_consistent(st))

        kind = np.zeros(g, np.int8)
        rs: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        bo: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        wo: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for j, st in enumerate(self.statements):
            if st.space is not space and st.space != space:
                raise ValueError("statement built over a different space")
            kind[j] = _KIND_CODE[st.kind]
            rvals, svals = st.r.vals, st.s.vals
            negated = st.kind is StatementKind.NEGATED_NON_STRICT
            for x, a in rvals.items():
                b = svals.get(x)
                if b is None:
                    bo[x].append((j, a))
                else:   # a negation's R and S blocks coincide
                    rs[x].append((j, b, a) if negated else (j, a, b))
            for x, b in svals.items():
                if x not in rvals:
                    wo[x].append((j, b))

        nbytes = (n + 7) // 8
        bits = np.unpackbits(
            np.frombuffer(b"".join(st.w_mask.to_bytes(nbytes, "little")
                                   for st in self.statements),
                          np.uint8).reshape(g, nbytes),
            axis=1, count=n, bitorder="little")
        neg = kind == _KIND_CODE[StatementKind.NEGATED_NON_STRICT]
        sw_ptr, sw_var = _csr_bits(bits & ~neg[:, None])
        args = (
            n, space.dmax,
            np.array([space.domain_size(i) for i in range(n)], np.int32),
            kind,
            *_csr(rs, 3), *_csr(bo, 2), *_csr(wo, 2),
            np.bincount(sw_var, minlength=n).astype(np.int32), sw_ptr, sw_var,
            *_csr_bits(np.ascontiguousarray(bits.T) & neg),
        )
        self._args = args if HAS_NUMBA else _as_lists(args)

    def run(self, xleft: Sequence[Sequence[int]] = (),
            xright: Sequence[Sequence[int]] = (),
            xstrict: Sequence[bool] = ()):
        """One kernel run over the set plus comparison rows.

        Row k asks for an outcome with values ``xleft[k]`` above one with
        values ``xright[k]``, strictly when ``xstrict[k]``.
        """
        if HAS_NUMBA:
            xleft, xright, xstrict = _as_arrays(self.space.n, xleft, xright,
                                                xstrict)
        return greedy(*self._args, xleft, xright, xstrict)


def _as_lists(args: tuple) -> tuple:
    """The kernel's arguments as the interpreter runs them: lists of ints.

    A subscript of a list is several times cheaper in plain Python than one
    of a numpy array, which builds a numpy scalar.
    """
    return tuple(a.tolist() if isinstance(a, np.ndarray) else a for a in args)


def _as_arrays(n: int, xleft, xright, xstrict) -> tuple:
    """Comparison rows as the compiled kernel takes them: numpy arrays.

    numba would take lists as reflected lists, which it deprecates.
    """
    return (np.array(xleft, np.int16).reshape(len(xleft), n),
            np.array(xright, np.int16).reshape(len(xright), n),
            np.array(xstrict, np.bool_))


def _csr(buckets, width: int) -> tuple:
    """CSR of ``(statement, value, ...)`` buckets: int32 statements, int16 values."""
    ptr = np.array([0, *accumulate(map(len, buckets))], np.int32)
    stmt, *vals = (list(zip(*[e for bucket in buckets for e in bucket]))
                   or [()] * width)
    return (ptr, np.array(stmt, np.int32), *(np.array(v, np.int16) for v in vals))


def _csr_bits(matrix: np.ndarray) -> tuple:
    """Row pointers and column indices of a 0/1 matrix's nonzero cells."""
    rows, cols = np.nonzero(matrix)    # rows come sorted
    ptr = np.searchsorted(rows, np.arange(len(matrix) + 1))
    return ptr.astype(np.int32), cols.astype(np.int32)


def backend_name() -> str:
    """The backend in use: 'numba' when importable, 'python' otherwise."""
    return "numba" if HAS_NUMBA else "python"


def warm_up() -> None:
    """Force JIT compilation outside timed sections."""
    if HAS_NUMBA:
        EncodedGamma(VariableSpace(["x"], {"x": ["a"]}), ()).run()
