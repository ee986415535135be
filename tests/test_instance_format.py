"""Instance file parsing, serialization and query parsing."""

import dataclasses
import hashlib
import re
import time

import pytest

import lexpref.instance
from lexpref import (GenConfig, Instance, ParseError, PartialAssignment,
                     PrefStatement, StatementKind, VariableSpace,
                     canonicalize, consistent, entails, entails_general,
                     format_instance, gen_instance, negate_non_strict,
                     outcome_comparison, parse_instance, parse_query)
from lexpref.cli import main as cli_main
from lexpref.instance import (_CMP_RE, _OPS, _QUERY_SHAPES, _SHAPES,
                              _STMT_RE, _assignment, _item_table,
                              _outcome_line, _shape, _statement,
                              _table_statement, format_statement)
from lexpref.rng import SplitMix64

FLIGHT_FILE = """\
# flight booking example
var airline: KLM, LAN
var time: day, night
var class: economy, business

outcome a: airline=KLM, time=day, class=economy
outcome b: airline=KLM, time=night, class=business
outcome g: airline=LAN, time=day, class=economy
outcome d: airline=LAN, time=night, class=business

stmt s1: a > b
stmt s2: b >= g
alts: a, b, g, d
"""


class TestParse:
    def test_flight_file(self):
        inst = parse_instance(FLIGHT_FILE)
        assert inst.space.variables == ("airline", "time", "class")
        assert set(inst.outcomes) == {"a", "b", "g", "d"}
        assert len(inst.statements) == 2
        assert inst.statements[0].kind is StatementKind.WEAKLY_STRICT
        assert inst.statements[1].kind is StatementKind.NON_STRICT
        assert inst.alt_names == ("a", "b", "g", "d")
        res = consistent(inst.space, inst.statements)
        assert res.consistent

    def test_bracket_statement_forms(self):
        text = """\
var x: a, b
var y: c, d
stmt s1: [x=a] >= [x=b] || {y}
stmt s2: [x=a, y=c] >> [x=b]
stmt s3: [y=c] > [y=d]
stmt s4: not ([x=a] >= [x=b] || {y})
stmt s5: [] >= [x=a]
"""
        inst = parse_instance(text)
        kinds = [st.kind for st in inst.statements]
        assert kinds == [StatementKind.NON_STRICT, StatementKind.FULLY_STRICT,
                         StatementKind.WEAKLY_STRICT,
                         StatementKind.NEGATED_NON_STRICT,
                         StatementKind.NON_STRICT]
        assert inst.statements[0].t_vars == frozenset({"y"})
        assert inst.statements[4].s_vars == frozenset({"x"})

    def test_comments_and_blank_lines_ignored(self):
        text = "var x: a, b  # domain\n\n# nothing\nstmt s: [x=a] >= [x=b]\n"
        inst = parse_instance(text)
        assert len(inst.statements) == 1

    def test_round_trip_is_lossless_modulo_canonical_form(self):
        inst = parse_instance(FLIGHT_FILE)
        again = parse_instance(format_instance(inst))
        assert again.space == inst.space
        assert again.alt_names == inst.alt_names
        assert format_instance(inst) == format_instance(again)
        # Generated sets are the inputs that mix all four kinds with held
        # sets: the re-parsed statements must equal the generated ones.
        for n, g, seed in ((4, 12, 1), (8, 40, 2), (12, 60, 3)):
            gen = gen_instance(GenConfig(n=n, g=g, m=5, seed=seed,
                                         domain_max=4))
            names = tuple(f"a{i}" for i in range(len(gen.alternatives)))
            inst = Instance(space=gen.space,
                            outcomes=dict(zip(names, gen.alternatives.outcomes)),
                            statements=gen.gamma, alt_names=names)
            again = parse_instance(format_instance(inst))
            assert format_instance(again) == format_instance(inst)
            assert len(again.statements) == len(gen.gamma)
            for got, want in zip(again.statements, gen.gamma):
                assert (got.kind, got.label, got.u, got.r, got.s,
                        got.t_mask) == (want.kind, want.label, want.u,
                                        want.r, want.s, want.t_mask)

    @pytest.mark.parametrize("n,g", [(12, 60), (50, 200), (200, 250)])
    @pytest.mark.parametrize("domain_max", [3, 5])
    def test_parse_builds_what_checked_constructors_build(self, n, g,
                                                          domain_max):
        gen = gen_instance(GenConfig(n=n, g=g, m=3, seed=n + domain_max,
                                     domain_max=domain_max))
        assert {st.kind for st in gen.gamma} == set(StatementKind)
        space = gen.space
        inst = Instance(space=space, outcomes={}, statements=gen.gamma,
                        alt_names=())
        parsed = parse_instance(format_instance(inst)).statements
        assert len(parsed) == len(gen.gamma)
        for got, st in zip(parsed, gen.gamma):
            negated = st.kind is StatementKind.NEGATED_NON_STRICT
            want = canonicalize(
                space, PartialAssignment(space, {**st.u.vals, **st.r.vals}),
                PartialAssignment(space, {**st.u.vals, **st.s.vals}),
                st.t_mask,
                StatementKind.NON_STRICT if negated else st.kind,
                label=st.label)
            if negated:
                want = negate_non_strict(want, label=st.label)
            assert (got.kind, got.label, got.t_mask) == \
                (want.kind, want.label, want.t_mask)
            for side in "urs":
                a, b = getattr(got, side), getattr(want, side)
                assert (a.vals, a.mask) == (b.vals, b.mask)
                assert a.mask == sum(1 << i for i in a.vals)

    def test_outcome_names_can_start_with_keyword_letters(self):
        text = ("var x: a, b\noutcome north: x=a\noutcome s: x=b\n"
                "stmt q: north > s\n")
        inst = parse_instance(text)
        assert inst.statements[0].kind is StatementKind.WEAKLY_STRICT

    def test_outcome_named_not(self):
        # 'not' opens a negation only when '(' follows it.
        text = ("var x: a, b\noutcome not: x=a\noutcome s: x=b\n"
                "stmt q: not > s\n")
        inst = parse_instance(text)
        assert inst.statements[0].kind is StatementKind.WEAKLY_STRICT
        assert inst.statements[0].r.as_dict() == {"x": "a"}
        st = parse_query(inst, "not > s")
        assert st.kind is StatementKind.WEAKLY_STRICT
        assert st.r.as_dict() == {"x": "a"}

    def test_repeated_held_variable_is_held_once(self):
        inst = parse_instance("var x: a, b\nvar y: c, d\n"
                              "stmt s: [x=a] >= [x=b] || {y, y}\n")
        assert inst.statements[0].t_mask == 1 << inst.space.var_index("y")

    def test_var_lines_only(self):
        inst = parse_instance("var x: a, b\nvar y: c\n")
        assert inst.space == VariableSpace(["x", "y"],
                                           {"x": ["a", "b"], "y": ["c"]})
        assert inst.outcomes == {} and inst.statements == ()
        assert inst.alternatives is None

    def test_many_alternatives_parse_in_linear_time(self):
        # 20,000 distinct outcomes over 15 two-value variables, all listed
        # on one alts: line; a list scanned once per name made it quadratic
        n, m = 15, 20_000
        lines = [f"var x{i}: a, b" for i in range(n)]
        lines += [f"outcome o{k}: " + ", ".join(
            f"x{i}={'ab'[k >> i & 1]}" for i in range(n)) for k in range(m)]
        lines.append("alts: " + ", ".join(f"o{k}" for k in range(m)))
        text = "\n".join(lines) + "\n"
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            inst = parse_instance(text)
            best = min(best, time.perf_counter() - start)
        assert len(inst.alternatives) == m
        assert best < 1.0, best

    def test_negated_statement_round_trips(self):
        text = ("var x: a, b\nvar y: c, d\n"
                "stmt s1: not ([x=a] >= [x=b] || {y})\n")
        inst = parse_instance(text)
        assert inst.statements[0].kind is StatementKind.NEGATED_NON_STRICT
        again = parse_instance(format_instance(inst))
        assert again.statements[0].kind is StatementKind.NEGATED_NON_STRICT
        assert format_instance(again) == format_instance(inst)


FLIGHT = parse_instance(FLIGHT_FILE)
A, B, G = (FLIGHT.outcomes[name] for name in "abg")
X_SPACE = VariableSpace(["x"], {"x": ["a", "b"]})


class TestFormatRefusals:
    """``format_instance`` refuses to write what ``parse_instance`` would
    refuse or read under other names."""

    @pytest.mark.parametrize("changes,message", [
        # an unlabelled statement is written under its position, s0 here
        ({"statements": (outcome_comparison(FLIGHT.space, A, B, True),
                         outcome_comparison(FLIGHT.space, B, G, False,
                                            label="s0"))},
         "statement name 's0' written twice"),
        ({"statements": (outcome_comparison(FLIGHT.space, A, B, True,
                                            label="a b"),)},
         "statement name 'a b' is not a NAME"),
        ({"outcomes": {"a:": A}, "alt_names": ()},
         "outcome name 'a:' is not a NAME"),
        ({"alt_names": ("a", "b", "a")}, "alternative name 'a' written twice"),
        ({"space": VariableSpace(["x y"], {"x y": ["a", "b"]}),
          "outcomes": {}, "statements": (), "alt_names": ()},
         "variable name 'x y' is not a NAME"),
        ({"space": VariableSpace(["x"], {"x": ["a", "b\n"]}),
          "outcomes": {}, "statements": (), "alt_names": ()},
         "value name 'b\\n' is not a NAME"),
        ({"space": X_SPACE, "statements": (), "alt_names": ()},
         "outcome built over a different space"),
        ({"space": X_SPACE, "outcomes": {}, "alt_names": ()},
         "statement built over a different space"),
    ], ids=["default-name-taken", "statement", "outcome", "alternative",
            "variable", "value", "outcome-space", "statement-space"])
    def test_raises(self, changes, message):
        with pytest.raises(ValueError) as err:
            format_instance(dataclasses.replace(FLIGHT, **changes))
        assert str(err.value) == message


class TestParseErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("stmt s: [x=a] >= []\n", "no variables"),
        ("var x: a, b\nvar x: c, d\n", "declared twice"),
        ("var x: a, a\n", "duplicate"),
        ("var x: a, a\n", "line 1: domain of 'x' has duplicate values"),
        ("var x: a, a\nvar y: c, d\n\nstmt s: [y=c] >= [y=d]\n",
         "line 1: domain of 'x' has duplicate values"),
        ("var x: a, b\noutcome o: x=c\n", "unknown value"),
        ("var x: a, b\noutcome o: y=a\n", "outcome o"),
        ("var x: a, b\nstmt s: [x=a] >= [y=b]\n", "unknown variable"),
        ("var x: a, b\nstmt s: [x=a] >= [x=b] || {x}\n", "overlaps"),
        ("var x: a, b\nvar y: c, d\nstmt s: not ([x=a] >= [y=d])\n",
         "matching difference"),
        ("var x: a, b\nstmt s: not ([x=a] > [x=b])\n", "non-strict"),
        ("var x: a, b\nstmt s: [x=a, x=b] >= []\n", "assigned twice"),
        ("var x: a, b\noutcome o: x=a\nstmt s: o > missing\n",
         "unknown outcome"),
        ("var x: a, b\nstmt s: [x=a] >= [x=b] trailing\n", "trailing"),
        ("var x: a, b\nwhatever helper: x\n", "unknown declaration"),
        ("var x: a, b\noutcome o: x=a\nstmt s: o >= o\nalts: o, o\n",
         "listed twice"),
        ("var x: a, b\nalts: o\n", "unknown outcome"),
        ("", "no variables"),
        ("var x: a, b\noutcome o: x=a\nvar y: c, d\n", "must precede"),
        ("var x: a, b\nstmt s: not ([x=a] >= [x=b]\n", "line 2: statement s"),
        ("var x: a, b\nstmt s: [x=a >= [x=b]\n", "line 2: statement s"),
        ("var x: a, b\nvar y: c, d\nstmt s: [x=a] >= [x=b] || {y\n",
         "line 3: statement s"),
        ("var x: a, b\nstmt s: [x] >= [x=b]\n", "line 2: statement s"),
        # the VAR=val list is read whole before any name is looked up
        ("var x: a, b\nstmt s: [zz=a, q] >= [x=b]\n",
         "line 2: statement s: expected VAR=val, got 'q'"),
        ("var x: a, b\nstmt s: [zz=a, zz=b] >= [x=b]\n",
         "line 2: statement s: variable 'zz' assigned twice"),
        # columns count from the start of the line, indentation included
        ("var x: a, b\nstmt s: [x=a] >= [x=b] trailing\n",
         "line 2: statement s: trailing input at column 24"),
        ("var x: a, b\n  stmt s: [x=a] >= [x=b] trailing\n",
         "trailing input at column 26"),
        ("var x: a, b\nvar y: c, d\nstmt s: [x=a] >= [x=b] || {y\n",
         "held set opened at column 27 lacks its closing '}'"),
        ("var x: a, b\noutcome o: x=a\noutcome p: x=b\nstmt s: o == p\n",
         "line 4: statement s: expected"),
        # held names are stripped one by one, so an empty item is a name too
        ("var x: a, b\nvar y: c, d\nstmt s: [x=a] >= [x=b] || {zz}\n",
         "line 3: statement s: unknown variable 'zz'"),
        ("var x: a, b\nvar y: c, d\nstmt s: [x=a] >= [x=b] || {y, }\n",
         "line 3: statement s: unknown variable ''"),
        # each named declaration's head and repeat checks
        ("var : a, b\n", "line 1: expected 'var NAME: v1, v2, ...'"),
        ("var x: a, \n", "line 1: bad value list for variable 'x'"),
        ("var x: a, b\noutcome: x=a\n",
         "line 2: expected 'outcome NAME: VAR=val, ...'"),
        ("var x: a, b\noutcome o: x=a\noutcome o: x=b\n",
         "line 3: outcome 'o' declared twice"),
        ("var x: a, b\nstmt s t: [x=a] >= [x=b]\n",
         "line 2: expected 'stmt NAME: ...'"),
        ("var x: a, b\nstmt s: [x=a] >= [x=b]\nstmt s: [x=b] >= [x=a]\n",
         "line 3: statement 's' declared twice"),
        # the order of checks within a line
        ("var x: a, b\noutcome o: x=a\nvar y z: c, d\n",
         "line 3: variable declarations must precede"),
        ("outcome: x=a\n", "line 1: no variables declared yet"),
        # two names of one outcome are one alternative
        ("var x: a, b\nvar y: c, d\noutcome o1: x=a, y=c\n"
         "outcome o2: x=a, y=c\nalts: o1, o2\n",
         "line 5: alternatives: outcomes 'o1' and 'o2' are the same outcome"),
    ])
    def test_positioned_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert fragment in str(err.value)


class TestQueries:
    def test_comparison_queries(self):
        inst = parse_instance(FLIGHT_FILE)
        st = parse_query(inst, "g > d")
        assert st.kind is StatementKind.WEAKLY_STRICT
        assert st.u.as_dict() == {"airline": "LAN"}
        assert st.r.as_dict() == {"time": "day", "class": "economy"}
        assert entails_general(inst.space, inst.statements, st)
        left, right = parse_query(inst, "a == b")
        assert (left, right) == (inst.outcomes["a"], inst.outcomes["b"])
        # read as a stmt line reads it; between complete outcomes the two
        # strict readings give one verdict
        st = parse_query(inst, "a >> b")
        assert st.kind is StatementKind.FULLY_STRICT
        assert st.r_mask == st.s_mask and st.w_mask == 0
        assert (entails_general(inst.space, inst.statements, st)
                == entails(inst.space, inst.statements, ">",
                           inst.outcomes["a"], inst.outcomes["b"]))

    def test_statement_query(self):
        inst = parse_instance(FLIGHT_FILE)
        st = parse_query(inst, "[airline=KLM] >= [airline=LAN] || {time}")
        assert st.kind is StatementKind.NON_STRICT
        assert st.r_vars == frozenset({"airline"})

    def test_negated_statement_query(self):
        inst = parse_instance(FLIGHT_FILE)
        st = parse_query(inst, "not ([airline=KLM] >= [airline=LAN])")
        assert st.kind is StatementKind.NEGATED_NON_STRICT

    def test_query_errors_count_columns_from_the_query(self):
        inst = parse_instance(FLIGHT_FILE)
        text = "[airline=KLM] >= [airline=LAN] || {time"
        with pytest.raises(ParseError) as err:
            parse_query(inst, text)
        assert (f"query: held set opened at column {text.index('{') + 1} "
                f"lacks its closing '}}'") in str(err.value)
        with pytest.raises(ParseError, match="trailing input at column 7"):
            parse_query(inst, "a > b extra")

    def test_shape_message_lists_equivalence_for_queries_only(self):
        inst = parse_instance(FLIGHT_FILE)
        with pytest.raises(ParseError) as query_err:
            parse_query(inst, "a <> b")
        assert "'=='" in str(query_err.value)
        with pytest.raises(ParseError) as file_err:
            parse_instance(FLIGHT_FILE + "stmt s9: a == b\n")
        assert "OP one of" in str(file_err.value)
        assert "'=='" not in str(file_err.value)

    def test_bad_queries_rejected(self):
        inst = parse_instance(FLIGHT_FILE)
        for text in ("a <> b", "a > nosuch", "a > b extra", "a >"):
            with pytest.raises(ParseError):
                parse_query(inst, text)


# Variables whose names _assignment cannot read back as themselves: 'a=b'
# holds an '=', ' p' a blank, 'q,r' a comma, '' is empty; 'a' has a value
# with an '='.  "a=b=c" reads as variable 'a', value 'b=c', never as 'a=b'
# and 'c'.
AWKWARD = VariableSpace(["a", "a=b", " p", "q,r", "", "u"],
                        {"a": ["b=c", "d"], "a=b": ["c", "e"],
                         " p": ["v", "w"], "q,r": ["v", "w"], "": ["k"],
                         "u": ["on", " off", "x,y", ""]})


def _items_text(rng, space, full, order=None):
    """A ``VAR=val`` list over ``space`` (over ``order``'s variables when
    given), often malformed on purpose."""
    if order is None and full:
        order = list(range(space.n))
        rng.shuffle(order)
    elif order is None:
        order = [rng.randrange(space.n) for _ in range(rng.randrange(5))]
    items = []
    for i in order:
        var, val = space.variables[i], space.domains[i][
            rng.randrange(len(space.domains[i]))]
        roll = rng.randrange(40)
        if roll == 0:
            var = "zz"
        elif roll == 1:
            val = "nope"
        elif roll == 2:
            items.append("")
        elif roll == 3:
            var, val = var + " ", " " + val
        elif roll == 4:
            var, val = "\t" + var, val + "\t"
        elif roll == 5:
            items.append(var)
            continue
        items.append(f"{var}={val}")
        if roll == 6:
            items.append(items[-1])
    text = (", " if rng.coin() else ",").join(items)
    return text + "," if rng.randrange(10) == 0 else text


def _mask_by_name(space, names):
    mask = 0
    for name in names:
        mask |= 1 << space.var_index(name)
    return mask


def _result(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def _space(seed):
    """AWKWARD, or a generated space with one-value variables."""
    if seed == 0:
        return AWKWARD
    return gen_instance(GenConfig(n=2 + seed, g=1, m=1, seed=seed,
                                  domain_min=1, domain_max=3)).space


class TestItemTable:
    """The table lookups against the readers they stand in for."""

    @pytest.mark.parametrize("seed", range(6))
    def test_lookups_match_the_full_readers(self, seed):
        space = _space(seed)
        items = _item_table(space)
        rng = SplitMix64(seed)
        sides, errors = [], 0
        for _ in range(400):
            text = _items_text(rng, space, full=False)
            side = _result(lambda t: space.partial(_assignment(t)), text)
            if side[0] == "error":
                errors += 1
            else:
                sides.append(side[1])

            full = _items_text(rng, space, full=True)
            # an outcome line's list starts after the blank that follows
            # its colon
            for line in (text, full, " " + text, " " + full):
                assert _result(_outcome_line, space, items, line) == _result(
                    lambda t: space.outcome(_assignment(t)), line), line

            for held in (re.sub("=[^,]*", "", text),
                         re.sub("=[^,]*", "", full)):
                names = [v.strip() for v in held.split(",")]
                assert _result(space.mask_of, names) == _result(
                    _mask_by_name, space, names), held
        assert len(sides) > 50 and errors > 50

        # canonicalize against its definition: one-value variables go to
        # the held set, each block keeps the order of its side
        multi = [len(d) > 1 for d in space.domains]
        for p, q in zip(sides, sides[1:]):
            st = canonicalize(space, p, q, 0, StatementKind.NON_STRICT)
            u = {i: v for i, v in p.vals.items()
                 if multi[i] and q.vals.get(i) == v}
            r = {i: v for i, v in p.vals.items() if multi[i] and i not in u}
            s = {i: v for i, v in q.vals.items() if multi[i] and i not in u}
            for got, want in ((st.u, u), (st.r, r), (st.s, s)):
                assert list(got.vals.items()) == list(want.items())
                assert got.mask == sum(1 << i for i in want)
            assert st.t_mask == space.singleton_mask

    def test_query_reads_names_as_the_full_reader_does(self):
        inst = Instance(space=AWKWARD, outcomes={}, statements=(),
                        alt_names=())
        for p, q in (("a=b=c", "a=d"), ("a=b=c, u=on", "a=d"),
                     ("a = b=c", "a=d"), (" u=on ", "a=d")):
            st = parse_query(inst, f"[{p}] >= [{q}]")
            want = canonicalize(AWKWARD, AWKWARD.partial(_assignment(p)),
                                AWKWARD.partial(_assignment(q)), 0,
                                StatementKind.NON_STRICT, label="query")
            assert (st.u, st.r, st.s) == (want.u, want.r, want.s)
        st = parse_query(inst, "[a=b=c] >= []")
        assert st.r.as_dict() == {"a": "b=c"}


def _stmt_line(rng, space):
    """A whole statement line over ``space``, often malformed on purpose."""
    order = list(range(space.n))
    rng.shuffle(order)
    del order[rng.randrange(min(space.n, 5) + 1):]
    p = _items_text(rng, space, False, order)
    # q often over p's variables, so that negations are often well formed
    q = _items_text(rng, space, False, order if rng.coin() else None)
    negated = rng.randrange(4) == 0
    op = (">=", ">>", ">")[rng.randrange(3)]
    if negated and rng.coin():
        op = ">="
    names = [space.variables[i] for i in range(space.n)
             if i not in order and rng.coin()]
    roll = rng.randrange(8)
    if roll == 0:
        names.append("zz")
    elif roll == 1:
        names.append("")
    elif roll == 2 and names:
        names.append(names[0])
    elif roll == 3 and order:
        names.append(space.variables[order[0]])     # overlaps a side
    line = f"[{p}] {op} [{q}]"
    if rng.randrange(4):
        held = (", " if rng.coin() else ",").join(names)
        line += f" || {{{held}}}"
    return f"not ({line})" if negated else line


def _reference_statement(space, match, label):
    """The full reader: each side, then canonicalize and the negation."""
    p, q = (space.partial(_assignment(match[side])) for side in "pq")
    held = match["t"] or ""
    t_vars = [v.strip() for v in held.split(",")] if held.strip() else []
    st = canonicalize(space, p, q, t_vars, _OPS[match["op"]], label=label)
    return negate_non_strict(st, label=label) if match["neg"] else st


def _blocks(st):
    return (st.kind, st.label, st.t_mask,
            *((list(b.vals.items()), b.mask) for b in (st.u, st.r, st.s)))


# The statement grammar with classes that stop at any bracket: a side at
# '[' or ']', a held set at '{' or '}'.  _STMT_RE's lists run to their
# closing bracket, and _shape must refuse what this pattern refuses.
_REFERENCE_STMT_RE = re.compile(
    r"\s*(?P<neg>not\s*\(\s*)?"
    r"\[(?P<p>[^\[\]]*)\]\s*(?P<op>>=|>>|>)\s*\[(?P<q>[^\[\]]*)\]"
    r"(?:\s*\|\|\s*\{(?P<t>[^{}]*)(?P<close>\})?)?"
    r"(?(neg)\s*\))\s*")


def _reference_shape(text, offset, query):
    match = _REFERENCE_STMT_RE.match(text) or _CMP_RE.match(text)
    if match is None or (match.re is _CMP_RE and match["op"] == "=="
                         and not query):
        raise ValueError(_QUERY_SHAPES if query else _SHAPES)
    if (match.re is _REFERENCE_STMT_RE and match["t"] is not None
            and not match["close"]):
        raise ValueError(f"held set opened at column "
                         f"{offset + match.start('t')} lacks its closing '}}'")
    if match.end() < len(text):
        raise ValueError(
            f"trailing input at column {offset + match.end() + 1}")
    return match


class TestStatementRoute:
    """Whole statement lines, read by table, against the full reader."""

    @pytest.mark.parametrize("seed", range(6))
    def test_lines_read_as_the_full_reader_reads_them(self, seed):
        space = _space(seed)
        items = _item_table(space)
        rng = SplitMix64(100 + seed)
        outcomes = {"ok": 0, "error": 0, "table": 0}
        for _ in range(1000):
            line = _stmt_line(rng, space)
            match = _shape(line, 0, query=False)
            got = _result(_statement, match, space, items, {}, "s")
            want = _result(_reference_statement, space, match, "s")
            assert got[0] == want[0], line
            outcomes[got[0]] += 1
            if got[0] == "error":
                assert got == want, line
                continue
            assert _blocks(got[1]) == _blocks(want[1]), line
            st = _table_statement(match, space, items, "s")
            if st is not None:
                # built unchecked, it passes every check of the constructor
                PrefStatement(space, st.kind, st.u, st.r, st.s, st.t_mask)
                outcomes["table"] += 1
        # both readers and both outcomes are exercised
        assert outcomes["error"] > 100 and outcomes["table"] >= 20
        assert outcomes["ok"] > outcomes["table"]

    def test_negation_with_other_difference_sets_goes_to_the_full_reader(
            self):
        # the table builds statements unchecked, so it must leave this one
        # to the full reader, whose constructor names what is wrong
        space = VariableSpace(["x", "y"], {"x": ["a", "b"], "y": ["c", "d"]})
        match = _shape("not ([x=a] >= [y=d])", 0, query=False)
        assert _table_statement(match, space, _item_table(space), "s") is None
        with pytest.raises(ValueError, match="matching difference"):
            _statement(match, space, _item_table(space), {}, "s")

    @pytest.mark.parametrize("seed", range(3))
    def test_queries_read_in_full_as_by_table(self, seed, monkeypatch):
        space = _space(seed)
        items = _item_table(space)
        inst = Instance(space=space, outcomes={}, statements=(),
                        alt_names=())
        rng = SplitMix64(300 + seed)
        lines = [_stmt_line(rng, space) for _ in range(400)]
        matches = [_shape(line, 0, query=True) for line in lines]
        wants = [_result(_statement, match, space, items, {}, "query")
                 for match in matches]
        by_table = 0     # lines the table route read
        for match in matches:
            status, st = _result(_table_statement, match, space, items,
                                 "query")
            by_table += status == "ok" and st is not None

        def no_table(space):
            raise AssertionError("parse_query built an item table")

        monkeypatch.setattr(lexpref.instance, "_item_table", no_table)
        for line, (status, want) in zip(lines, wants):
            if status == "ok":
                st = parse_query(inst, line)
                assert _blocks(st) == _blocks(want), line
            else:
                with pytest.raises(ParseError) as err:
                    parse_query(inst, line)
                assert str(err.value) == f"query: {want}", line
        assert by_table >= 10 and sum(s == "error" for s, _ in wants) > 50

    @pytest.mark.parametrize("seed", range(3))
    def test_brackets_inside_lists_give_the_reference_shape(self, seed):
        space = _space(seed)
        rng = SplitMix64(200 + seed)
        errors = set()
        for _ in range(1500):
            chars = list(_stmt_line(rng, space))
            for _ in range(1 + rng.randrange(3)):
                chars.insert(rng.randrange(len(chars) + 1),
                             "[]{})"[rng.randrange(5)])
            line = "".join(chars)
            offset, query = rng.randrange(20), rng.coin()
            got = _result(_shape, line, offset, query)
            want = _result(_reference_shape, line, offset, query)
            if want[0] == "error":
                assert got == want, line
                errors.add(want[1].split()[0])
                continue
            assert got[0] == "ok", line
            assert (got[1].re is _STMT_RE, got[1].groupdict(), got[1].end()) \
                == (want[1].re is _REFERENCE_STMT_RE, want[1].groupdict(),
                    want[1].end()), line
        assert errors == {"expected", "held", "trailing"}


@pytest.fixture(scope="module")
def large_file(tmp_path_factory):
    """The text ``lexpref gen --vars 200 --stmts 1000 --alts 1 --seed 5``
    writes (its digest is pinned in test_cli.py and CI)."""
    path = tmp_path_factory.mktemp("large") / "big.lex"
    assert cli_main(["gen", "--vars", "200", "--stmts", "1000", "--alts", "1",
                 "--seed", "5", "-o", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7fb1ab8d89cdd3357483381149eb144b8fbaa46351db7d9cc258531ffbfc62a9")
    return text


class TestDeferredAgreement:
    """A statement read by table fills its agreement block on first read."""

    @staticmethod
    def count_reads(monkeypatch) -> list:
        reads = []
        fill = lexpref.instance._agreement

        def counted(*args):
            reads.append(args)
            return fill(*args)

        monkeypatch.setattr(lexpref.instance, "_agreement", counted)
        return reads

    def test_round_trip_of_a_large_file(self, large_file):
        header, _, _ = large_file.partition("\n")
        inst = parse_instance(large_file)
        assert format_instance(inst, header=header[2:]) == large_file

    def test_check_reads_no_agreement_block(self, large_file, monkeypatch):
        reads = self.count_reads(monkeypatch)
        inst = parse_instance(large_file)
        res = consistent(inst.space, inst.statements, verify=True)
        assert res.consistent and reads == []
        st = inst.statements[0]
        assert st.u_mask and format_statement(st) == format_statement(st)
        assert len(reads) == 1          # filled once, then kept

    def test_deferred_block_equals_the_eager_one(self, large_file,
                                                 monkeypatch):
        reads = self.count_reads(monkeypatch)
        inst = parse_instance(large_file)
        space = inst.space
        lines = [line for line in large_file.splitlines()
                 if line.startswith("stmt ")]
        assert len(lines) == len(inst.statements)
        for line, st in zip(lines, inst.statements):
            match = _shape(line.partition(":")[2], 0, query=False)
            want = _reference_statement(space, match, st.label)
            assert hash(st.u) == hash(want.u)       # the first read
        inst = parse_instance(large_file)       # unread blocks again
        for line, st in zip(lines, inst.statements):
            match = _shape(line.partition(":")[2], 0, query=False)
            want = _reference_statement(space, match, st.label)
            assert st.u == want.u and want.u == st.u  # the first read
            assert list(st.u.vals.items()) == list(want.u.vals.items())
            assert st.u.mask == want.u.mask
            assert _blocks(st) == _blocks(want)
        # every statement was read by table, each parse filling U once
        assert len(reads) == 2 * len(lines)
