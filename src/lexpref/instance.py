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
outcome name.  Variable declarations must precede everything else.

Every error in a file names its line; trailing input after a statement and
an unclosed held set also give their column, counted from the start of the
line (of the query, for a query).  Re-serialising a parsed file is lossless
up to canonicalisation of the statements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (Outcome, PartialAssignment, VariableSpace, index_mask,
                   iter_bits)
from .errors import ParseError
from .optimality import AlternativeSet
from .statements import (PrefStatement, StatementKind, canonicalize,
                         negate_non_strict)

_NAME = r"[A-Za-z0-9_.+-]+"
_NAME_RE = re.compile(rf"^{_NAME}$")
_OPS = {">=": StatementKind.NON_STRICT,
        ">>": StatementKind.FULLY_STRICT,
        ">": StatementKind.WEAKLY_STRICT}
_STMT_RE = re.compile(
    r"\s*(?P<neg>not\s*\(\s*)?"
    r"\[(?P<p>[^\[\]]*)\]\s*(?P<op>>=|>>|>)\s*\[(?P<q>[^\[\]]*)\]"
    r"(?:\s*\|\|\s*\{(?P<t>[^{}]*)(?P<close>\})?)?"
    r"(?(neg)\s*\))\s*")
_CMP_RE = re.compile(
    rf"\s*(?P<left>{_NAME})\s*(?P<op>>=|>>|==|>)\s*(?P<right>{_NAME})\s*")
_SHAPES = ("expected '[VAR=val, ...] OP [VAR=val, ...] || {VAR, ...}', "
           "'not ([...] >= [...] || {...})' or 'OUTCOME OP OUTCOME', "
           "with OP one of '>=', '>>', '>'")
_QUERY_SHAPES = _SHAPES + " ('==' too, between outcomes)"


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


def _item_table(space: VariableSpace) -> dict[str, tuple[int, int]]:
    """Each ``VAR=val`` text to its ``(variable, value)`` indices.

    Only texts that :func:`_assignment` reads back as that one pair get an
    entry: a name with a comma or surrounding blanks, or a variable with an
    ``=``, would be split elsewhere (variable ``a`` with value ``b=c`` and
    variable ``a=b`` with value ``c`` both spell ``a=b=c``).  Built once per
    parse; kept off the space, which outlives the parse.
    """
    table: dict[str, tuple[int, int]] = {}
    for i, (var, domain) in enumerate(zip(space.variables, space.domains)):
        if not var or var != var.strip() or "=" in var or "," in var:
            continue
        for j, val in enumerate(domain):
            if val and val == val.strip() and "," not in val:
                table[f"{var}={val}"] = (i, j)
    return table


def _lookup(items: dict[str, tuple[int, int]],
            text: str) -> dict[int, int] | None:
    """A ``VAR=val, ...`` list as value indices by variable index, one
    table lookup per item; ``None`` when an item misses the table or a
    variable repeats.

    The callers then read ``text`` with :func:`_assignment`, which gives
    the same result when the list is valid and every error message when
    it is not.
    """
    try:
        vals = dict(map(items.__getitem__, map(str.strip, text.split(","))))
    except KeyError:
        return None
    return vals if len(vals) == text.count(",") + 1 else None


def _side(space: VariableSpace, items: dict[str, tuple[int, int]],
          text: str) -> PartialAssignment:
    """A bracketed side of a statement."""
    vals = _lookup(items, text)
    if vals is None:
        return space.partial(_assignment(text))
    return PartialAssignment._trusted(space, vals, index_mask(vals))


def _outcome_line(space: VariableSpace, items: dict[str, tuple[int, int]],
                  text: str) -> Outcome:
    """The assignment of an ``outcome`` line, which names every variable."""
    vals = _lookup(items, text)
    if vals is None or len(vals) != space.n:
        return space.outcome(_assignment(text))
    return Outcome(space, tuple(map(vals.__getitem__, range(space.n))))


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
    if match is None or (match.re is _CMP_RE and match["op"] == "=="
                         and not query):
        raise ValueError(_QUERY_SHAPES if query else _SHAPES)
    if match.re is _STMT_RE and match["t"] is not None and not match["close"]:
        raise ValueError(f"held set opened at column "
                         f"{offset + match.start('t')} lacks its closing '}}'")
    if match.end() < len(text):
        raise ValueError(
            f"trailing input at column {offset + match.end() + 1}")
    return match


def _statement(match: re.Match, space: VariableSpace,
               items: dict[str, tuple[int, int]],
               outcomes: dict[str, Outcome], label: str) -> PrefStatement:
    """The statement a ``_shape`` match spells; errors are ``ValueError``.

    ``items`` is the space's :func:`_item_table`.
    """
    if match.re is _STMT_RE:
        p, q = (_side(space, items, match[side]) for side in "pq")
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
    var_names: list[str] = []
    var_domains: dict[str, list[str]] = {}
    space: VariableSpace | None = None
    items: dict[str, tuple[int, int]] = {}     # _item_table(space)
    outcomes: dict[str, Outcome] = {}
    statements: list[PrefStatement] = []
    stmt_names: set[str] = set()
    alt_names: list[str] = []

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
            if len(head_parts) != 2 or not _NAME_RE.match(head_parts[1]):
                raise ParseError("expected 'var NAME: v1, v2, ...'", lineno)
            name = head_parts[1]
            if name in var_domains:
                raise ParseError(f"variable {name!r} declared twice", lineno)
            values = [v.strip() for v in rest.split(",")]
            if not values or any(not _NAME_RE.match(v) for v in values):
                raise ParseError(f"bad value list for variable {name!r}",
                                 lineno)
            if len(set(values)) != len(values):
                raise ParseError(f"domain of {name!r} has duplicate values",
                                 lineno)
            var_names.append(name)
            var_domains[name] = values
            continue

        if space is None:
            if not var_names:
                raise ParseError("no variables declared yet", lineno)
            space = VariableSpace(var_names, var_domains)
            items = _item_table(space)

        if keyword == "outcome":
            if len(head_parts) != 2 or not _NAME_RE.match(head_parts[1]):
                raise ParseError("expected 'outcome NAME: VAR=val, ...'",
                                 lineno)
            name = head_parts[1]
            if name in outcomes:
                raise ParseError(f"outcome {name!r} declared twice", lineno)
            try:
                outcomes[name] = _outcome_line(space, items, rest)
            except ValueError as exc:
                raise ParseError(f"outcome {name}: {exc}", lineno) from None
            continue

        if keyword == "stmt":
            if len(head_parts) != 2 or not _NAME_RE.match(head_parts[1]):
                raise ParseError("expected 'stmt NAME: ...'", lineno)
            name = head_parts[1]
            if name in stmt_names:
                raise ParseError(f"statement {name!r} declared twice", lineno)
            # columns count from the start of the raw line
            offset = len(raw) - len(raw.lstrip()) + len(head) + 1
            try:
                statements.append(_statement(
                    _shape(rest, offset, query=False), space, items,
                    outcomes, name))
            except ValueError as exc:
                raise ParseError(f"statement {name}: {exc}", lineno) from None
            stmt_names.add(name)
            continue

        if keyword == "alts" and len(head_parts) == 1:
            for item in rest.split(","):
                name = item.strip()
                if name not in outcomes:
                    raise ParseError(f"alternatives: unknown outcome {name!r}",
                                     lineno)
                if name in alt_names:
                    raise ParseError(
                        f"alternatives: outcome {name!r} listed twice", lineno)
                alt_names.append(name)
            continue

        raise ParseError(f"unknown declaration {keyword!r}", lineno)

    if space is None:
        if not var_names:
            raise ParseError("instance declares no variables", None)
        space = VariableSpace(var_names, var_domains)
    return Instance(space=space, outcomes=outcomes,
                    statements=tuple(statements), alt_names=tuple(alt_names))


def parse_query(instance: Instance, text: str):
    """An inference query: outcome comparison or statement expression.

    Returns ``("cmp", op, left, right)`` for ``NAME >=|>|== NAME`` or
    ``("stmt", statement)`` for anything in statement syntax.
    """
    try:
        match = _shape(text, 0, query=True)
        if match.re is _STMT_RE:
            space = instance.space
            return ("stmt", _statement(match, space, _item_table(space),
                                       instance.outcomes, "query"))
        left, right = (_outcome(instance.outcomes, match[side])
                       for side in ("left", "right"))
    except ValueError as exc:
        raise ParseError(f"query: {exc}", None) from None
    op = match["op"]
    return ("cmp", ">" if op == ">>" else op, left, right)


def _format_side(space: VariableSpace, vals: dict[int, int]) -> str:
    parts = ", ".join(f"{space.variables[i]}={space.domains[i][v]}"
                      for i, v in sorted(vals.items()))
    return f"[{parts}]"


def format_statement(st: PrefStatement) -> str:
    space = st.space
    left = _format_side(space, {**st.u.vals, **st.r.vals})
    right = _format_side(space, {**st.u.vals, **st.s.vals})
    held = ", ".join(map(space.variables.__getitem__, iter_bits(st.t_mask)))
    if st.kind is StatementKind.NEGATED_NON_STRICT:
        return f"not ({left} >= {right} || {{{held}}})"
    op = {StatementKind.NON_STRICT: ">=",
          StatementKind.FULLY_STRICT: ">>",
          StatementKind.WEAKLY_STRICT: ">"}[st.kind]
    return f"{left} {op} {right} || {{{held}}}"


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
