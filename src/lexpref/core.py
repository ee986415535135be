"""Variable spaces, outcomes, partial assignments and lexicographic models.

A lexicographic model is a sequence of (variable, total value order) stages.
Two outcomes are compared on the first stage where they differ; outcomes
agreeing on every stage variable are equivalent.  The model algebra defined
here (three-way comparison, composition, extension) is what the consistency
engine builds on.

Variables and values are interned to small integer indices at space
construction; sets of variables are plain int bitmasks so membership and
intersection tests in inner loops are single machine operations.  All value
types in this module are immutable after construction and safe to share
across threads.  Two fill a derived field once, on first read, and never
change it after: a :class:`LexModel` its stage index
(:meth:`LexModel.stage_index`), and the agreement block of a statement
read by table from a file (a :class:`PartialAssignment` subclass in
:mod:`lexpref.instance`) its ``vals``.  Two threads that fill one at once
compute equal values.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate, product
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence


class Cmp(Enum):
    """Three-way outcome comparison under a model."""

    BETTER = "better"
    WORSE = "worse"
    EQUIVALENT = "equivalent"


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def index_mask(indices: Iterable[int]) -> int:
    """The mask with the bits at ``indices`` set; undoes :func:`iter_bits`."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


class VariableSpace:
    """An ordered set of named variables, each with an ordered finite domain.

    Domain declaration order is retained as the canonical tie-break order for
    deterministic output; it carries no preference meaning.
    """

    __slots__ = ("variables", "domains", "full_mask", "singleton_mask",
                 "_var_index", "_val_index", "_hash")

    def __init__(self, variables: Sequence[str],
                 domains: Mapping[str, Sequence[str]]):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be unique")
        # one domain tuple and one value index per distinct domain, shared
        # by every variable that has it
        shared: dict[tuple[str, ...], tuple] = {}
        doms, val_index = [], []
        for v in self.variables:
            if v not in domains:
                raise ValueError(f"no domain given for variable {v!r}")
            dom = tuple(domains[v])
            known = shared.get(dom)
            if known is None:
                if not dom:
                    raise ValueError(f"domain of {v!r} is empty")
                index = {val: j for j, val in enumerate(dom)}
                if len(index) != len(dom):
                    raise ValueError(f"domain of {v!r} has duplicate values")
                known = shared[dom] = (dom, index)
            doms.append(known[0])
            val_index.append(known[1])
        if len(domains) != len(self.variables):
            extra = set(domains) - set(self.variables)
            raise ValueError(f"domains given for unknown variables: {sorted(extra)}")
        self.domains = tuple(doms)
        self.full_mask = (1 << len(self.variables)) - 1
        self.singleton_mask = 0
        for i, d in enumerate(self.domains):
            if len(d) == 1:
                self.singleton_mask |= 1 << i
        self._var_index = {v: i for i, v in enumerate(self.variables)}
        self._val_index = tuple(val_index)
        self._hash = hash((self.variables, self.domains))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, VariableSpace)
                and other.variables == self.variables
                and other.domains == self.domains)

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self._var_index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def value_index(self, var: int, value: str) -> int:
        try:
            return self._val_index[var][value]
        except KeyError:
            raise ValueError(
                f"unknown value {value!r} for variable {self.variables[var]!r}"
            ) from None

    def domain_size(self, var: int) -> int:
        return len(self.domains[var])

    def mask_of(self, names: Iterable[str]) -> int:
        try:
            return index_mask(map(self._var_index.__getitem__, names))
        except KeyError as exc:
            raise ValueError(f"unknown variable {exc.args[0]!r}") from None

    def names_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.variables[i] for i in iter_bits(mask))

    def outcome(self, assignment: Mapping[str, str]) -> "Outcome":
        """Build a total outcome from a name-to-value mapping."""
        if set(assignment) != set(self.variables):
            missing = set(self.variables) - set(assignment)
            extra = set(assignment) - set(self.variables)
            detail = []
            if missing:
                detail.append(f"missing {sorted(missing)}")
            if extra:
                detail.append(f"unknown {sorted(extra)}")
            raise ValueError("outcome must assign every variable: " + ", ".join(detail))
        values = tuple(self.value_index(i, assignment[v])
                       for i, v in enumerate(self.variables))
        return Outcome(self, values)

    def outcome_from_indices(self, values: Sequence[int]) -> "Outcome":
        return Outcome(self, tuple(values))

    def partial(self, assignment: Mapping[str, str]) -> "PartialAssignment":
        vals = {}
        mask = 0
        for v, val in assignment.items():
            i = self.var_index(v)
            vals[i] = self.value_index(i, val)
            mask |= 1 << i
        return PartialAssignment._trusted(self, vals, mask)

    def value_order(self, var: str, ranking: Sequence[str]) -> "TotalValueOrder":
        i = self.var_index(var)
        return TotalValueOrder(self, i, tuple(self.value_index(i, v) for v in ranking))

    def model(self, stages: Sequence[tuple[str, Sequence[str]]]) -> "LexModel":
        """Build a lexicographic model from (variable, best-first values) pairs."""
        return LexModel(self, tuple(self.value_order(v, order) for v, order in stages))

    def outcome_count(self) -> int:
        count = 1
        for d in self.domains:
            count *= len(d)
        return count

    def iter_outcomes(self) -> Iterator["Outcome"]:
        """All outcomes, in lexicographic order of value indices."""
        for values in product(*(range(len(d)) for d in self.domains)):
            yield Outcome(self, values)

    def __repr__(self) -> str:
        return f"VariableSpace({list(self.variables)!r})"


class Outcome:
    """A total assignment, stored as a tuple of value indices."""

    __slots__ = ("space", "values")

    def __init__(self, space: VariableSpace, values: Sequence[int]):
        values = tuple(values)
        if len(values) != space.n:
            raise ValueError("outcome must assign every variable")
        for i, v in enumerate(values):
            if not 0 <= v < space.domain_size(i):
                raise ValueError(f"value index {v} out of range for "
                                 f"variable {space.variables[i]!r}")
        self.space = space
        self.values = values

    @classmethod
    def _trusted(cls, space: VariableSpace,
                 values: tuple[int, ...]) -> "Outcome":
        """Unchecked; ``values`` must hold a valid index for every variable."""
        outcome = object.__new__(cls)
        outcome.space = space
        outcome.values = values
        return outcome

    def value_name(self, var: str) -> str:
        i = self.space.var_index(var)
        return self.space.domains[i][self.values[i]]

    def as_dict(self) -> dict[str, str]:
        return {v: self.space.domains[i][self.values[i]]
                for i, v in enumerate(self.space.variables)}

    def __eq__(self, other) -> bool:
        return (isinstance(other, Outcome) and other.values == self.values
                and (other.space is self.space or other.space == self.space))

    def __hash__(self) -> int:
        return hash((self.space._hash, self.values))

    def __repr__(self) -> str:
        parts = ", ".join(f"{v}={val}" for v, val in self.as_dict().items())
        return f"Outcome({parts})"


class PartialAssignment:
    """An assignment to a subset of the variables.

    The constructor checks every index; :meth:`_trusted` checks none and may
    only be given indices already validated against ``space``.
    """

    __slots__ = ("space", "vals", "mask")

    def __init__(self, space: VariableSpace, vals: Mapping[int, int]):
        domains = space.domains
        n = len(domains)
        mask = 0
        for i, v in vals.items():
            if not 0 <= i < n:
                raise ValueError(f"variable index {i} out of range")
            if not 0 <= v < len(domains[i]):
                raise ValueError(f"value index {v} out of range for "
                                 f"variable {space.variables[i]!r}")
            mask |= 1 << i
        self.space = space
        self.vals = dict(vals)
        self.mask = mask

    @classmethod
    def _trusted(cls, space: VariableSpace, vals: dict[int, int],
                 mask: int) -> "PartialAssignment":
        """Unchecked; owns ``vals``, whose keys are exactly ``mask``'s bits."""
        pa = object.__new__(cls)
        pa.space = space
        pa.vals = vals
        pa.mask = mask
        return pa

    @property
    def scope(self) -> frozenset[str]:
        return self.space.names_of(self.mask)

    def value_name(self, var: str) -> str:
        i = self.space.var_index(var)
        if i not in self.vals:
            raise KeyError(f"variable {var!r} not in scope")
        return self.space.domains[i][self.vals[i]]

    def as_dict(self) -> dict[str, str]:
        return {self.space.variables[i]: self.space.domains[i][v]
                for i, v in sorted(self.vals.items())}

    def __eq__(self, other) -> bool:
        return (isinstance(other, PartialAssignment)
                and other.vals == self.vals
                and (other.space is self.space or other.space == self.space))

    def __hash__(self) -> int:
        return hash((self.space._hash, tuple(sorted(self.vals.items()))))

    def __repr__(self) -> str:
        parts = ", ".join(f"{v}={val}" for v, val in self.as_dict().items())
        return f"PartialAssignment({parts})"


class TotalValueOrder:
    """A best-first permutation of one variable's domain."""

    __slots__ = ("space", "var", "ranking", "rank_of")

    def __init__(self, space: VariableSpace, var: int, ranking: Sequence[int]):
        ranking = tuple(ranking)
        d = space.domain_size(var)
        if sorted(ranking) != list(range(d)):
            raise ValueError(
                f"ranking must be a permutation of the domain of "
                f"{space.variables[var]!r}")
        self.space = space
        self.var = var
        self.ranking = ranking
        rank_of = [0] * d
        for pos, v in enumerate(ranking):
            rank_of[v] = pos
        self.rank_of = tuple(rank_of)

    @property
    def variable(self) -> str:
        return self.space.variables[self.var]

    def ranking_names(self) -> tuple[str, ...]:
        dom = self.space.domains[self.var]
        return tuple(dom[v] for v in self.ranking)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TotalValueOrder)
                and other.var == self.var and other.ranking == self.ranking
                and (other.space is self.space or other.space == self.space))

    def __hash__(self) -> int:
        return hash((self.space._hash, self.var, self.ranking))

    def __repr__(self) -> str:
        return f"({self.variable}, {' > '.join(self.ranking_names())})"


class LexModel:
    """A (possibly empty) sequence of stages over pairwise distinct variables."""

    __slots__ = ("space", "stages", "vmask", "_stage_index")

    def __init__(self, space: VariableSpace,
                 stages: Sequence[TotalValueOrder] = ()):
        stages = tuple(stages)
        vmask = 0
        for st in stages:
            if st.space is not space and st.space != space:
                raise ValueError("stage built over a different space")
            bit = 1 << st.var
            if vmask & bit:
                raise ValueError(
                    f"variable {st.variable!r} appears in more than one stage")
            vmask |= bit
        self.space = space
        self.stages = stages
        self.vmask = vmask

    @property
    def variables(self) -> frozenset[str]:
        return self.space.names_of(self.vmask)

    def stage_index(self) -> tuple[list[int], dict[int, TotalValueOrder]]:
        """``(prefix, stage_of)``, built on the first call and kept.

        ``prefix[k]`` is the mask of the first ``k`` stages' variables, for
        k from 0 to ``len(self)``; ``stage_of`` maps each model variable to
        its stage.
        """
        try:
            return self._stage_index
        except AttributeError:
            pass
        stages = self.stages
        index = self._stage_index = (
            list(accumulate((1 << st.var for st in stages), or_, initial=0)),
            {st.var: st for st in stages})
        return index

    def key(self, outcome: Outcome) -> tuple[int, ...]:
        """Stage-wise rank vector; lexicographically smaller means better."""
        values = outcome.values
        return tuple(st.rank_of[values[st.var]] for st in self.stages)

    def __len__(self) -> int:
        return len(self.stages)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LexModel) and other.stages == self.stages
                and (other.space is self.space or other.space == self.space))

    def __hash__(self) -> int:
        return hash((self.space._hash, self.stages))

    def __repr__(self) -> str:
        if not self.stages:
            return "LexModel(empty)"
        return "LexModel[" + "; ".join(repr(st) for st in self.stages) + "]"

    def format(self) -> str:
        """Diff-friendly rendering: ``(var, v1 > v2); (var2, ...)``."""
        if not self.stages:
            return "(empty)"
        return "; ".join(f"({st.variable}, {' > '.join(st.ranking_names())})"
                         for st in self.stages)


def project(outcome: Outcome, names: Iterable[str]) -> PartialAssignment:
    """Restrict a total outcome to a subset of the variables."""
    space = outcome.space
    vals = {}
    for name in names:
        i = space.var_index(name)
        vals[i] = outcome.values[i]
    return PartialAssignment(space, vals)


def lex_compare(model: LexModel, alpha: Outcome, beta: Outcome) -> Cmp:
    """Compare two outcomes on the first stage where they differ.

    Returns EQUIVALENT when they agree on every stage variable, which makes
    the induced relation a total pre-order.
    """
    space = model.space
    if (alpha.space is not space and alpha.space != space) or \
            (beta.space is not space and beta.space != space):
        raise ValueError("outcomes must live in the model's space")
    a = alpha.values
    b = beta.values
    for st in model.stages:
        av = a[st.var]
        bv = b[st.var]
        if av != bv:
            return Cmp.BETTER if st.rank_of[av] < st.rank_of[bv] else Cmp.WORSE
    return Cmp.EQUIVALENT


def compose(left: LexModel, right: LexModel) -> LexModel:
    """Stages of ``left`` followed by the stages of ``right`` on fresh variables."""
    if left.space is not right.space and left.space != right.space:
        raise ValueError("models must share a space")
    if not left.stages:
        return right
    if not right.stages:
        return left
    stages = list(left.stages)
    for st in right.stages:
        if not left.vmask & (1 << st.var):
            stages.append(st)
    return LexModel(left.space, tuple(stages))


def extends(bigger: LexModel, smaller: LexModel) -> bool:
    """True when ``bigger`` strictly extends ``smaller`` (begins with it)."""
    return (extends_or_equals(bigger, smaller)
            and len(bigger.stages) > len(smaller.stages))


def extends_or_equals(bigger: LexModel, smaller: LexModel) -> bool:
    """True when ``bigger`` begins with ``smaller`` (or equals it)."""
    if bigger.space is not smaller.space and bigger.space != smaller.space:
        raise ValueError("models must share a space")
    k = len(smaller.stages)
    return len(bigger.stages) >= k and bigger.stages[:k] == smaller.stages
