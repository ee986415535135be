"""Line-oriented instance file format.

One declaration per line, ``#`` starts a comment::

    var NAME: v1, v2[, v3]
    outcome NAME: VAR=val, VAR=val, ...        # must assign every variable
    stmt NAME: STATEMENT
    alts: NAME, NAME, ...

A ``STATEMENT`` (and an ``infer`` query) has one of three shapes, with
whitespace free between tokens::

    [VAR=val, ...] OP [VAR=val, ...] || {VAR, ...}
    not ([VAR=val, ...] >= [VAR=val, ...] || {VAR, ...})
    OUTNAME OP OUTNAME                         # outcome comparison shorthand

``OP`` is ``>=`` (non-strict), ``>>`` (fully strict) or ``>`` (weakly
strict); a query may also compare two outcomes with ``==``.  Either
bracketed list may be empty, and the ``|| {...}`` held-variable clause may
be omitted when empty.  Names are runs of letters, digits and ``_.+-``;
``not`` starts a negation only when ``(`` follows it, so it is also a valid
outcome name.  Variable declarations must precede everything else.  The
alternatives are the outcomes the ``alts:`` lines name, in order; each
must be listed once, and no two may be the same outcome (give every
variable the same value).

Every malformed line is rejected with an error that names its line;
trailing input after a statement and an unclosed held set also give their
column, counted from the start of the line (of the query, for a query).
Re-serialising a parsed file is lossless up to canonicalisation of the
statements.

Lists spelled as :func:`format_instance` writes them (items joined by
``", "``, no blank next to a bracket or brace, one blank after an
``outcome`` line's colon) are read by table: each item, with one blank
before it, is looked up once in tables built per parse, and a statement's
left and right blocks are split from its agreement block by item text
before any lookup.  The agreement block's values are read from the text
only when asked for; a consistency check reads only its mask.  Every
other spelling, and every list with an unknown name, a repeated
variable, a one-value variable on a side or a held name that overlaps a
side, is read by the full reader (:func:`_assignment`, then
:func:`lexpref.statements.canonicalize`), which gives the same result and
every error message.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress, filterfalse
from typing import NamedTuple

from .core import Outcome, PartialAssignment, VariableSpace
from .errors import ParseError
from .optimality import AlternativeSet
from .statements import (PrefStatement, StatementKind, canonicalize,
                         negate_non_strict)

_NAME = r"[A-Za-z0-9_.+-]+"
_NAME_RE = re.compile(rf"^{_NAME}$")
_OPS = {">=": StatementKind.NON_STRICT,
        ">>": StatementKind.FULLY_STRICT,
        ">": StatementKind.WEAKLY_STRICT}
_OP_NAMES = {kind: op for op, kind in _OPS.items()}
# Each list runs to its closing bracket: a one-character class is scanned
# by re's literal loop.  _shape refuses a '[' in a side or a '{' in the
# held set as the grammar does.
_STMT_RE = re.compile(
    r"\s*(?P<neg>not\s*\(\s*)?"
    r"\[(?P<p>[^]]*)\]\s*(?P<op>>=|>>|>)\s*\[(?P<q>[^]]*)\]"
    r"(?:\s*\|\|\s*\{(?P<t>[^}]*)(?P<close>\})?)?"
    r"(?(neg)\s*\))\s*")
_CMP_RE = re.compile(
    rf"\s*(?P<left>{_NAME})\s*(?P<op>>=|>>|==|>)\s*(?P<right>{_NAME})\s*")
_SHAPES = ("expected '[VAR=val, ...] OP [VAR=val, ...] || {VAR, ...}', "
           "'not ([...] >= [...] || {...})' or 'OUTCOME OP OUTCOME', "
           "with OP one of '>=', '>>', '>'")
_QUERY_SHAPES = _SHAPES + " ('==' too, between outcomes)"
# The usage message and the error noun of each named declaration.
_DECLS = {"var": ("expected 'var NAME: v1, v2, ...'", "variable"),
          "outcome": ("expected 'outcome NAME: VAR=val, ...'", "outcome"),
          "stmt": ("expected 'stmt NAME: ...'", "statement")}


@dataclass
class Instance:
    """A parsed problem: space, named outcomes, statements, alternatives."""

    space: VariableSpace
    outcomes: dict[str, Outcome]
    statements: tuple[PrefStatement, ...]
    alt_names: tuple[str, ...]

    @property
    def alternatives(self) -> AlternativeSet | None:
        if not self.alt_names:
            return None
        return AlternativeSet(self.space,
                              [self.outcomes[n] for n in self.alt_names])


def _assignment(text: str) -> dict[str, str]:
    """A ``VAR=val, ...`` list as a name-to-value mapping; blank is empty."""
    out: dict[str, str] = {}
    if not text.strip():
        return out
    for item in text.split(","):
        var, sep, val = item.partition("=")
        var, val = var.strip(), val.strip()
        if not (sep and var and val):
            raise ValueError(f"expected VAR=val, got {item.strip()!r}")
        if var in out:
            raise ValueError(f"variable {var!r} assigned twice")
        out[var] = val
    return out


class _Items(NamedTuple):
    """Per-parse lookup tables, keyed by item text with one blank before it.

    ``pair`` maps ``" VAR=val"`` to its ``(variable, value)`` indices and
    ``bit`` maps it to its variable's bit, except for one-value variables,
    which a statement holds and never puts on a side; ``held`` maps
    ``" VAR"`` to its variable's bit.
    """

    pair: dict[str, tuple[int, int]]
    bit: dict[str, int]
    held: dict[str, int]


def _item_table(space: VariableSpace) -> _Items:
    """The lookup tables of ``space``, built once per parse.

    Only texts that the full readers read back as that one name or pair
    get an entry: a name with a comma or surrounding blanks, or a variable
    with an ``=``, would be split elsewhere (variable ``a`` with value
    ``b=c`` and variable ``a=b`` with value ``c`` both spell ``a=b=c``).
    Kept off the space, which outlives the parse.
    """
    pair: dict[str, tuple[int, int]] = {}
    bit: dict[str, int] = {}
    held: dict[str, int] = {}
    singles = space.singleton_mask
    for i, (var, domain) in enumerate(zip(space.variables, space.domains)):
        if var != var.strip() or "," in var:
            continue
        held[f" {var}"] = 1 << i
        if not var or "=" in var:
            continue
        for j, val in enumerate(domain):
            if val and val == val.strip() and "," not in val:
                pair[f" {var}={val}"] = (i, j)
                if not singles >> i & 1:
                    bit[f" {var}={val}"] = 1 << i
    return _Items(pair, bit, held)


def _items(text: str) -> list[str]:
    """A bracketed list's items, each with one blank before it."""
    return f" {text}".split(",") if text else []


def _table_statement(match: re.Match, space: VariableSpace, items: _Items,
                     label: str) -> PrefStatement | None:
    """The statement a ``_STMT_RE`` match spells, read by table; ``None``
    when the full reader must read it.

    The left block is p's items that q does not hold and the right block
    q's items that p does not hold, found by text; the agreement block is
    the rest of p.  Only its mask is computed here: its values are read
    from p's text when first asked for (:func:`_agreement`).  Each mask is
    a sum of bits, so a variable repeated within a side shows as a
    popcount short of the side's length, one on both sides as an overlap,
    and an item of p that q repeats as a q longer than its agreement and
    right blocks.  These tests, and the tables, which hold no one-value
    variable on a side, cover every check of the statement's constructor,
    so the statement is built unchecked.
    """
    kind = _OPS[match["op"]]
    if match["neg"] is not None:
        if kind is not StatementKind.NON_STRICT:
            return None
        kind = StatementKind.NEGATED_NON_STRICT
    p_text, q_text, t_text = match.group("p", "q", "t")
    p, q, held = _items(p_text), _items(q_text), _items(t_text)
    s_set = set(q)
    r = [*filterfalse(s_set.__contains__, p)]
    s_set.difference_update(p)
    s = [*filter(s_set.__contains__, q)] if s_set else []
    bit = items.bit.__getitem__
    try:
        p_mask, r_mask, s_mask = (sum(map(bit, p)), sum(map(bit, r)),
                                  sum(map(bit, s)))
        t_mask = sum(map(items.held.__getitem__, held))
    except KeyError:
        return None
    u_mask = p_mask ^ r_mask
    p_len, s_len = len(p), len(s)
    if (p_len - len(r) + s_len != len(q)
            or p_mask.bit_count() != p_len
            or s_mask.bit_count() != s_len
            or t_mask.bit_count() != len(held)
            or u_mask & s_mask
            or t_mask & (p_mask | s_mask)
            or kind is StatementKind.NEGATED_NON_STRICT and r_mask != s_mask):
        return None
    pair = items.pair.__getitem__
    return PrefStatement._trusted(
        space, kind, _Agreement(space, u_mask, p_text, r_mask),
        PartialAssignment._trusted(space, dict(map(pair, r)), r_mask),
        PartialAssignment._trusted(space, dict(map(pair, s)), s_mask),
        t_mask | space.singleton_mask, label=label)


class _Agreement(PartialAssignment):
    """The agreement block of a statement read by table.

    Its mask is set at once; its values are read from the left side's
    text, with the left block's variables dropped, the first time they are
    asked for (:func:`_agreement`), which a consistency check never does.
    """

    __slots__ = ("_text", "_drop")

    def __init__(self, space: VariableSpace, mask: int, text: str,
                 drop: int):
        self.space = space
        self.mask = mask
        self._text = text
        self._drop = drop

    def __getattr__(self, name: str):
        # reached only while a slot is empty, so ``vals`` is read once
        if name != "vals":
            raise AttributeError(name)
        vals = self.vals = _agreement(self.space, self._text, self._drop)
        return vals


def _agreement(space: VariableSpace, p_text: str,
               r_mask: int) -> dict[int, int]:
    """The agreement block's values: p's, read in full, minus R's, in p's
    order."""
    return {i: v for i, v in space.partial(_assignment(p_text)).vals.items()
            if not r_mask >> i & 1}


def _outcome_line(space: VariableSpace, items: _Items,
                  text: str) -> Outcome:
    """The assignment of an ``outcome`` line, which names every variable."""
    parts = text.split(",")
    try:
        vals = dict(map(items.pair.__getitem__, parts))
    except KeyError:
        vals = {}
    if len(vals) != space.n or len(parts) != space.n:
        return space.outcome(_assignment(text))
    return Outcome._trusted(space, tuple(map(vals.__getitem__,
                                             range(space.n))))


def _outcome(outcomes: dict[str, Outcome], name: str) -> Outcome:
    try:
        return outcomes[name]
    except KeyError:
        raise ValueError(f"unknown outcome {name!r}") from None


def _shape(text: str, offset: int, query: bool) -> re.Match:
    """Match one statement (or query) shape against all of ``text``.

    Columns in errors are 1-based and count ``offset`` characters before
    ``text``; errors are ``ValueError``.
    """
    match = _STMT_RE.match(text) or _CMP_RE.match(text)
    shapes = _QUERY_SHAPES if query else _SHAPES
    if match is None or (match.re is _CMP_RE and match["op"] == "=="
                         and not query):
        raise ValueError(shapes)
    if match.re is _STMT_RE:
        # A '[' in a side matches no shape.  A held set ends at a '{' as at
        # a missing '}', unless a negation then has no ')' before the '{'
        # to close on.  Each list is searched in place, not copied.
        held_at, held_end = match.span("t")
        brace = -1 if held_at < 0 else text.find("{", held_at, held_end)
        if (text.find("[", *match.span("p")) >= 0
                or text.find("[", *match.span("q")) >= 0
                or (brace >= 0 and match["neg"] is not None
                    and text.find(")", held_at, brace) < 0)):
            raise ValueError(shapes)
        if held_at >= 0 and (brace >= 0 or match["close"] is None):
            raise ValueError(f"held set opened at column "
                             f"{offset + held_at} lacks its closing '}}'")
    if match.end() < len(text):
        raise ValueError(
            f"trailing input at column {offset + match.end() + 1}")
    return match


def _statement(match: re.Match, space: VariableSpace, items: _Items | None,
               outcomes: dict[str, Outcome], label: str) -> PrefStatement:
    """The statement a ``_shape`` match spells; errors are ``ValueError``.

    ``items`` is the space's :func:`_item_table`, or ``None`` to read the
    statement in full.
    """
    if match.re is _STMT_RE:
        st = (None if items is None
              else _table_statement(match, space, items, label))
        if st is not None:
            return st
        p, q = (space.partial(_assignment(match[side])) for side in "pq")
        held = match["t"] or ""
        t_vars = [v.strip() for v in held.split(",")] if held.strip() else []
        negated = match["neg"] is not None
    else:
        p, q = (PartialAssignment(
            space, dict(enumerate(_outcome(outcomes, match[side]).values)))
            for side in ("left", "right"))
        t_vars, negated = [], False
    st = canonicalize(space, p, q, t_vars, _OPS[match["op"]], label=label)
    return negate_non_strict(st, label=label) if negated else st


def parse_instance(text: str) -> Instance:
    domains: dict[str, list[str]] = {}
    space: VariableSpace | None = None
    items: _Items | None = None             # _item_table(space)
    outcomes: dict[str, Outcome] = {}
    statements: dict[str, PrefStatement] = {}
    alts: dict[tuple[int, ...], str] = {}   # names by outcome values
    declared = {"var": domains, "outcome": outcomes, "stmt": statements}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, rest = line.partition(":")
        if not sep:
            raise ParseError("expected 'KEYWORD ...:' declaration", lineno)
        head_parts = head.split()
        keyword = head_parts[0] if head_parts else ""

        if keyword == "var":
            if space is not None:
                raise ParseError(
                    "variable declarations must precede outcomes and "
                    "statements", lineno)
        elif space is None:
            if not domains:
                raise ParseError("no variables declared yet", lineno)
            space = VariableSpace(list(domains), domains)
            items = _item_table(space)

        if keyword == "alts" and len(head_parts) == 1:
            for item in rest.split(","):
                name = item.strip()
                if name not in outcomes:
                    raise ParseError(f"alternatives: unknown outcome {name!r}",
                                     lineno)
                key = outcomes[name].values
                other = alts.get(key)
                if other == name:
                    raise ParseError(
                        f"alternatives: outcome {name!r} listed twice", lineno)
                if other is not None:
                    raise ParseError(
                        f"alternatives: outcomes {other!r} and {name!r} are "
                        f"the same outcome", lineno)
                alts[key] = name
            continue

        decl = _DECLS.get(keyword)
        if decl is None:
            raise ParseError(f"unknown declaration {keyword!r}", lineno)
        usage, noun = decl
        if len(head_parts) != 2 or not _NAME_RE.match(head_parts[1]):
            raise ParseError(usage, lineno)
        name = head_parts[1]
        if name in declared[keyword]:
            raise ParseError(f"{noun} {name!r} declared twice", lineno)
        if keyword == "var":
            values = [v.strip() for v in rest.split(",")]
            if not all(map(_NAME_RE.match, values)):
                raise ParseError(f"bad value list for variable {name!r}",
                                 lineno)
            if len(set(values)) != len(values):
                raise ParseError(f"domain of {name!r} has duplicate values",
                                 lineno)
            domains[name] = values
            continue
        try:
            if keyword == "outcome":
                outcomes[name] = _outcome_line(space, items, rest)
            else:
                # columns count from the start of the raw line
                offset = len(raw) - len(raw.lstrip()) + len(head) + 1
                statements[name] = _statement(
                    _shape(rest, offset, query=False), space, items,
                    outcomes, name)
        except ValueError as exc:
            raise ParseError(f"{noun} {name}: {exc}", lineno) from None

    if space is None:
        if not domains:
            raise ParseError("instance declares no variables", None)
        space = VariableSpace(list(domains), domains)
    return Instance(space=space, outcomes=outcomes,
                    statements=tuple(statements.values()),
                    alt_names=tuple(alts.values()))


def parse_query(instance: Instance, text: str):
    """An inference query: outcome comparison or statement expression.

    Returns ``("cmp", op, left, right)`` for ``NAME >=|>|== NAME`` or
    ``("stmt", statement)`` for anything in statement syntax.
    """
    try:
        match = _shape(text, 0, query=True)
        if match.re is _STMT_RE:
            # one statement is read faster in full than a table is built
            return ("stmt", _statement(match, instance.space, None,
                                       instance.outcomes, "query"))
        left, right = (_outcome(instance.outcomes, match[side])
                       for side in ("left", "right"))
    except ValueError as exc:
        raise ParseError(f"query: {exc}", None) from None
    op = match["op"]
    return ("cmp", ">" if op == ">>" else op, left, right)


_BITS = bytes.maketrans(b"01", b"\0\1")


def _selectors(mask: int) -> bytes:
    """One byte per variable index, non-zero where ``mask`` has its bit."""
    return format(mask, "b").encode()[::-1].translate(_BITS)


def _format_side(space: VariableSpace, vals: dict[int, int],
                 mask: int) -> str:
    """``vals`` (whose keys are ``mask``'s bits) in variable order."""
    names, domains = space.variables, space.domains
    parts = ", ".join([f"{names[i]}={domains[i][vals[i]]}"
                       for i in compress(range(space.n), _selectors(mask))])
    return f"[{parts}]"


def format_statement(st: PrefStatement) -> str:
    space = st.space
    u, u_mask = st.u.vals, st.u_mask
    left = _format_side(space, {**u, **st.r.vals}, u_mask | st.r_mask)
    right = _format_side(space, {**u, **st.s.vals}, u_mask | st.s_mask)
    held = ", ".join(compress(space.variables, _selectors(st.t_mask)))
    if st.kind is StatementKind.NEGATED_NON_STRICT:
        return f"not ({left} >= {right} || {{{held}}})"
    return f"{left} {_OP_NAMES[st.kind]} {right} || {{{held}}}"


def format_instance(instance: Instance, header: str | None = None) -> str:
    lines: list[str] = []
    if header:
        for h in header.splitlines():
            lines.append(f"# {h}")
    space = instance.space
    for i, var in enumerate(space.variables):
        lines.append(f"var {var}: " + ", ".join(space.domains[i]))
    for name, outcome in instance.outcomes.items():
        assign = ", ".join(f"{v}={dom[j]}" for v, dom, j
                           in zip(space.variables, space.domains,
                                  outcome.values))
        lines.append(f"outcome {name}: {assign}")
    for i, st in enumerate(instance.statements):
        name = st.label or f"s{i}"
        lines.append(f"stmt {name}: {format_statement(st)}")
    if instance.alt_names:
        lines.append("alts: " + ", ".join(instance.alt_names))
    return "\n".join(lines) + "\n"
