"""Bitset encoding of a statement set and the greedy kernel over it.

This is the package's hot loop: it grows a maximal star-model of a
statement set one stage at a time, appending the first variable in
declaration order that admits a valid extension, and then checks the
strictness / negation conditions on the result.  A variable admits one iff
its live required pairs plus pin edges (pinned best above every other
value, every other value above pinned worst) have a topological order, so
one smallest-index Kahn pass decides the stage and ranks it.  Every
consistency verdict and every optimality membership test that no recorded
model answers is one run: about 29 runs per ``optimal`` op on the
benchmark's desk grid, and 13,736 over the 90 instances (m=100) of the
desk-scale acceptance test.

The value graph of a candidate with d values is d successor masks, bit b
of ``succ[a]`` for the edge a -> b: a pair sets one bit, and the rows
and a pinned best one mask each.  The Kahn pass takes the lowest bit of
``ready``, the values no unplaced value has an edge into, each time; a
pinned worst value is held out of it by one extra edge in and placed last
once every other value is.  A try is thus a number of steps linear in d
plus the live edges, each step one operation on an int of at most d bits.

The per-statement state of a run is two Python ints, bit j for statement
j: ``active`` (live: both-difference block untouched, or for a negation,
not yet witnessed) and ``touched`` (some difference variable entered the
model).  Every statement kind is strongly compositional, so negations need
no second case: a negated statement is live until it is witnessed, as any
other statement is live until its both-difference block is touched, and
while live it requires the reversed pair.

:class:`EncodedGamma` owns the encoding.  Per variable x it holds masks of
statements:

* ``pairs[x]``  each required pair ``(hi, lo)`` with the mask of the
  statements that require it (the left value above the right one, or the
  reverse for a negation)
* ``bests[x]``, ``worsts[x]``  each pinned best value (left-only block)
  and each pinned worst value (right-only block) with its mask
* ``wblk[x]``   the non-negated statements with x in the residual block;
  x is blocked while one of them is live
* ``kill[x]``   what appending x ends the liveness of: the statements with
  x in both difference blocks, and the negations it witnesses (x in their
  residual block)
* ``touch[x]``  the statements with x in either difference block.

Each of ``pairs[x]``, ``bests[x]`` and ``worsts[x]`` is ``(every,
entries)``, where ``every`` is the union of the entry masks, which the
elementary test count reads.  ``full``, ``weak`` and ``neg`` mask the
fully strict, weakly strict and negated statements.

A run may also carry comparison rows: one left outcome, ``left``, to be
put above each row outcome in ``rest``, a mask over a table ``rows``
that :func:`value_masks` builds once for a list of outcomes (``rows[x][v]``
is the mask of those with value v at x), all strictly when ``strict``.
Membership tests use them to avoid re-encoding per query.  A row acts as
the outcome comparison statement of ``left`` and its outcome: it stays in
the mask ``live`` of undecided rows until a variable on which it differs
from ``left`` enters the model, and while there it requires its pair
``left[x]`` above its value on every candidate x.  So a candidate gets
the edges ``left[x] -> v`` for each v other than ``left[x]`` whose mask
meets ``live``, and appending x does ``live &= rows[x][left[x]]``.  A
strict row still undecided at the end is never witnessed.

A run returns ``(ok, stages, full_unmet, weak_unmet, neg_unmet, live,
tests)``: ``ok`` is a bool, ``stages`` the model as ``(variable,
best-first order)`` pairs in stage order, the three unmet masks the
statements whose strictness was never witnessed in both difference
blocks, whose strictness was never witnessed in either block, and whose
negation was never witnessed (only
:func:`lexpref.engine.consistent_from_encoding` names them, as failures),
``live`` the rows left undecided, and ``tests`` counts elementary
constraint evaluations as a scan of one entry per statement and per row,
in order, would: one per candidate, then unless it is blocked all its
pair entries, each undecided row, and its pin entries up to the first
live one whose value differs from the first live one's; and one per
statement and per undecided row at the end.
"""

from __future__ import annotations

from typing import Sequence

from .core import VariableSpace
from .statements import PrefStatement, StatementKind


def _pinned(pins: tuple, active: int) -> tuple[int, int]:
    """The value the live pins agree on (-1 if none, -2 if two differ),
    and the pin entries a statement-order scan reads to find out."""
    every, entries = pins
    first = second = 0      # the lowest live bit of the two lowest values
    value = -1
    for v, mask in entries:
        mask &= active
        if mask:
            low = mask & -mask
            if not first or low < first:
                first, second, value = low, first, v
            elif not second or low < second:
                second = low
    if second:    # the scan stops at the first live pin of another value
        return -2, (every & (2 * second - 1)).bit_count()
    return value, every.bit_count()


def _tables(buckets: list[dict]) -> list[tuple]:
    """Per-variable ``(every, entries)`` from buckets of key -> mask."""
    out = []
    for bucket in buckets:
        every = 0
        for mask in bucket.values():
            every |= mask
        out.append((every, tuple(bucket.items())))
    return out


class EncodedGamma:
    """Bitset encoding of a statement set, reusable across kernel runs.

    Builds the per-variable statement masks once; membership queries then
    pass extra outcome comparisons as one left outcome above a mask of row
    outcomes instead of re-encoding the whole set.  The pair and pin tables
    come from the blocks' ``vals``; the residual-block masks from one
    string of the statements' ``w_mask`` in binary, read a column at a
    time by slicing.
    """

    def __init__(self, space: VariableSpace,
                 statements: Sequence[PrefStatement]):
        self.space = space
        self.statements = tuple(statements)
        n = space.n
        g = len(self.statements)

        pairs: list[dict] = [{} for _ in range(n)]
        bests: list[dict] = [{} for _ in range(n)]
        worsts: list[dict] = [{} for _ in range(n)]
        full = weak = neg = 0
        for j, st in enumerate(self.statements):
            if st.space is not space and st.space != space:
                raise ValueError("statement built over a different space")
            bit = 1 << j
            negated = st.kind is StatementKind.NEGATED_NON_STRICT
            if negated:
                neg |= bit
            elif st.kind is StatementKind.FULLY_STRICT:
                full |= bit
            elif st.kind is StatementKind.WEAKLY_STRICT:
                weak |= bit
            rvals, svals = st.r.vals, st.s.vals
            for x, a in rvals.items():
                b = svals.get(x)
                if b is None:
                    bucket, key = bests[x], a
                else:   # a negation's R and S blocks coincide
                    bucket, key = pairs[x], ((b, a) if negated else (a, b))
                bucket[key] = bucket.get(key, 0) | bit
            for x, b in svals.items():
                if x not in rvals:
                    bucket = worsts[x]
                    bucket[b] = bucket.get(b, 0) | bit

        # Row j of the string is statement g-1-j's w_mask in n binary
        # digits, variable n-1 first, so every n-th character from n-1-x
        # reads off variable x's bit of each statement, statement 0 last:
        # the mask of the statements with x in their residual block.
        row = f"0{n}b"
        rows = "".join(format(st.w_mask, row)
                       for st in reversed(self.statements))
        w = [int(rows[n - 1 - x::n], 2) for x in range(n)] if g else [0] * n

        self.pairs = _tables(pairs)
        self.bests = _tables(bests)
        self.worsts = _tables(worsts)
        self.wblk = [wx & ~neg for wx in w]
        self.kill = [p[0] | wx & neg for p, wx in zip(self.pairs, w)]
        self.touch = [p[0] | b[0] | s[0] for p, b, s
                      in zip(self.pairs, self.bests, self.worsts)]
        self.full, self.weak, self.neg = full, weak, neg

    def run(self, rows: Sequence[Sequence[int]] = (),
            left: Sequence[int] = (), rest: int = 0, strict: bool = False):
        """One kernel run over the set plus comparison rows.

        Each row outcome in ``rest`` (a mask over ``rows``, the
        :func:`value_masks` of some outcomes) must lie below the outcome
        with values ``left``, strictly when ``strict``.
        """
        space = self.space
        n, domains = space.n, space.domains
        g = len(self.statements)
        pairs, bests, worsts = self.pairs, self.bests, self.worsts
        wblk, kill, touch = self.wblk, self.kill, self.touch

        active = (1 << g) - 1
        touched = 0
        live = rest             # rows equal to left on every model variable
        nlive = live.bit_count()
        unplaced = list(range(n))
        stages: list[tuple[int, list[int]]] = []
        tests = 0

        while True:
            for k, x in enumerate(unplaced):
                tests += 1
                if wblk[x] & active:
                    continue
                d = len(domains[x])
                succ = [0] * d      # bit b of succ[a]: the edge a -> b
                every, entries = pairs[x]
                tests += every.bit_count() + nlive
                for (a, b), mask in entries:
                    if mask & active:
                        succ[a] |= 1 << b
                if live:
                    a = left[x]
                    below = 0
                    for b, mask in enumerate(rows[x]):
                        if mask & live:
                            below |= 1 << b
                    succ[a] |= below & ~(1 << a)
                best, scanned = _pinned(bests[x], active)
                tests += scanned
                if best == -2:
                    continue
                worst, scanned = _pinned(worsts[x], active)
                tests += scanned
                if worst == -2:
                    continue
                # A pinned best becomes edges to every other value, so a
                # clash closes a cycle; a pinned worst gets one more edge
                # in, which only the end of the pass releases.
                if best >= 0:
                    succ[best] |= (1 << d) - 1 ^ 1 << best
                # Smallest-index Kahn pass: ``ready`` holds the unplaced
                # values no unplaced value has an edge into.
                indeg = [0] * d
                ready = (1 << d) - 1
                for s in succ:
                    ready &= ~s
                    while s:
                        low = s & -s
                        indeg[low.bit_length() - 1] += 1
                        s ^= low
                if worst >= 0:
                    indeg[worst] += 1
                    ready &= ~(1 << worst)
                order = []
                while ready:
                    low = ready & -ready
                    ready ^= low
                    a = low.bit_length() - 1
                    order.append(a)
                    s = succ[a]
                    while s:
                        low = s & -s
                        b = low.bit_length() - 1
                        indeg[b] -= 1
                        if not indeg[b]:
                            ready |= low
                        s ^= low
                if worst >= 0:      # last, if the pass placed the rest
                    order.append(worst)
                if len(order) < d:
                    continue

                del unplaced[k]
                stages.append((x, order))
                touched |= touch[x]
                active &= ~kill[x]
                if live:
                    live &= rows[x][left[x]]
                    nlive = live.bit_count()
                break
            else:
                break

        unmet = (self.full & active, self.weak & ~touched, self.neg & active)
        tests += g + nlive
        ok = not (any(unmet) or strict and live)
        return (ok, stages, *unmet, live, tests)


def value_masks(space: VariableSpace,
                values: Sequence[Sequence[int]]) -> list[list[int]]:
    """The row table of some outcomes' ``values``: bit p of ``rows[x][v]``
    is set when outcome p has value v at variable x."""
    rows = [[0] * len(domain) for domain in space.domains]
    for p, vals in enumerate(values):
        bit = 1 << p
        for at_x, v in zip(rows, vals):
            at_x[v] |= bit
    return rows


# backend_name stays only because perfbench/run.py imports it.
def backend_name() -> str:
    """The kernel in use: always the Python one."""
    return "python"


# warm_up stays only because perfbench/run.py imports it.
def warm_up() -> None:
    """Nothing to compile."""
