"""Instance file parsing, serialization and query parsing."""

import pytest

from lexpref import (GenConfig, Instance, ParseError, PartialAssignment,
                     StatementKind, canonicalize, consistent, entails,
                     format_instance, gen_instance, negate_non_strict,
                     parse_instance, parse_query)

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
        kind, op, left, _ = parse_query(inst, "not > s")
        assert (kind, op) == ("cmp", ">")
        assert left is inst.outcomes["not"]

    def test_negated_statement_round_trips(self):
        text = ("var x: a, b\nvar y: c, d\n"
                "stmt s1: not ([x=a] >= [x=b] || {y})\n")
        inst = parse_instance(text)
        assert inst.statements[0].kind is StatementKind.NEGATED_NON_STRICT
        again = parse_instance(format_instance(inst))
        assert again.statements[0].kind is StatementKind.NEGATED_NON_STRICT
        assert format_instance(again) == format_instance(inst)


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
    ])
    def test_positioned_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert fragment in str(err.value)


class TestQueries:
    def test_comparison_queries(self):
        inst = parse_instance(FLIGHT_FILE)
        kind, op, left, right = parse_query(inst, "g > d")
        assert kind == "cmp" and op == ">"
        assert left.value_name("airline") == "LAN"
        assert entails(inst.space, inst.statements, op, left, right)
        kind, op, _, _ = parse_query(inst, "a == b")
        assert op == "=="
        kind, op, _, _ = parse_query(inst, "a >> b")
        assert op == ">"    # complete outcomes: both strict forms coincide

    def test_statement_query(self):
        inst = parse_instance(FLIGHT_FILE)
        kind, st = parse_query(inst, "[airline=KLM] >= [airline=LAN] || {time}")
        assert kind == "stmt"
        assert st.r_vars == frozenset({"airline"})

    def test_negated_statement_query(self):
        inst = parse_instance(FLIGHT_FILE)
        kind, st = parse_query(inst, "not ([airline=KLM] >= [airline=LAN])")
        assert kind == "stmt"
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
