"""Core model algebra: projection, comparison, composition, extension."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (FLIGHT_A, FLIGHT_B, FLIGHT_G, FLIGHT_SPACE,
                     random_model, random_outcome, small_space)
from lexpref import (AlternativeSet, Cmp, LexModel, Outcome, TotalValueOrder,
                     VariableSpace, compose, extends, extends_or_equals,
                     lex_compare, project)
from lexpref.rng import SplitMix64

PI = FLIGHT_SPACE.model([("airline", ["KLM", "LAN"]),
                         ("time", ["day", "night"])])
PI_PRIME = FLIGHT_SPACE.model([("class", ["economy", "business"]),
                               ("time", ["night", "day"])])


class TestProject:
    def test_flight_projection(self):
        proj = project(FLIGHT_A, ["airline", "class"])
        assert proj.as_dict() == {"airline": "KLM", "class": "economy"}

    def test_empty_projection(self):
        assert project(FLIGHT_B, []).as_dict() == {}

    def test_full_projection_is_identity(self):
        proj = project(FLIGHT_G, FLIGHT_SPACE.variables)
        assert proj.as_dict() == FLIGHT_G.as_dict()

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            project(FLIGHT_A, ["seat"])


class TestLexCompare:
    def test_flight_chain(self):
        assert lex_compare(PI, FLIGHT_A, FLIGHT_B) is Cmp.BETTER
        assert lex_compare(PI, FLIGHT_B, FLIGHT_G) is Cmp.BETTER
        assert lex_compare(PI, FLIGHT_B, FLIGHT_A) is Cmp.WORSE

    def test_flight_equivalence(self):
        assert lex_compare(PI_PRIME, FLIGHT_A, FLIGHT_G) is Cmp.EQUIVALENT
        assert lex_compare(PI_PRIME, FLIGHT_G, FLIGHT_B) is Cmp.BETTER

    def test_empty_model_everything_equivalent(self):
        empty = LexModel(FLIGHT_SPACE)
        for x, y in itertools.product([FLIGHT_A, FLIGHT_B, FLIGHT_G], repeat=2):
            assert lex_compare(empty, x, y) is Cmp.EQUIVALENT

    def test_reflexive_equivalent(self):
        rng = SplitMix64(11)
        for _ in range(100):
            space = small_space(rng)
            pi = random_model(rng, space)
            o = random_outcome(rng, space)
            assert lex_compare(pi, o, o) is Cmp.EQUIVALENT

    def test_total_preorder_transitive_on_enumeration(self):
        # exhaustive check on a 2-variable space
        space = VariableSpace(["x", "y"], {"x": ["a", "b"], "y": ["c", "d"]})
        pi = space.model([("x", ["b", "a"]), ("y", ["c", "d"])])
        outs = list(space.iter_outcomes())

        def geq(p, q):
            return lex_compare(pi, p, q) is not Cmp.WORSE

        for p, q, r in itertools.product(outs, repeat=3):
            assert geq(p, q) or geq(q, p)          # total
            if geq(p, q) and geq(q, r):
                assert geq(p, r)                   # transitive


class TestCompose:
    def test_flight_composition(self):
        composed = compose(PI, PI_PRIME)
        assert composed == FLIGHT_SPACE.model([
            ("airline", ["KLM", "LAN"]),
            ("time", ["day", "night"]),
            ("class", ["economy", "business"])])

    def test_identity_element(self):
        empty = LexModel(FLIGHT_SPACE)
        assert compose(PI, empty) == PI
        assert compose(empty, PI) == PI

    def test_associativity_random(self):
        rng = SplitMix64(21)
        for _ in range(500):
            space = small_space(rng)
            p1, p2, p3 = (random_model(rng, space) for _ in range(3))
            assert compose(compose(p1, p2), p3) == compose(p1, compose(p2, p3))


class TestExtends:
    def test_composition_extends_left(self):
        assert extends_or_equals(compose(PI, PI_PRIME), PI)

    def test_strict_extension_excludes_equality(self):
        assert not extends(PI, PI)
        assert extends_or_equals(PI, PI)

    def test_nonempty_extends_empty(self):
        empty = LexModel(FLIGHT_SPACE)
        assert extends(PI, empty)
        assert not extends(empty, empty)

    def test_models_over_other_spaces_are_rejected(self):
        # the empty model has nothing to compare stage by stage, so only
        # the space check can reject it
        other = LexModel(VariableSpace(["x"], {"x": ["a", "b"]}))
        for check in (extends, extends_or_equals):
            for bigger, smaller in ((PI, other), (other, PI)):
                with pytest.raises(ValueError, match="share a space"):
                    check(bigger, smaller)

    def test_extends_iff_compose_fixpoint(self):
        rng = SplitMix64(31)
        for _ in range(500):
            space = small_space(rng)
            a = random_model(rng, space)
            b = random_model(rng, space)
            assert extends_or_equals(b, a) == (compose(a, b) == b)


class TestMonotonicityAndComposition:
    def test_extension_monotonicity_random(self):
        # extending a model preserves strict wins and only refines ties
        rng = SplitMix64(41)
        for _ in range(500):
            space = small_space(rng)
            base = random_model(rng, space)
            ext = compose(base, random_model(rng, space))
            a = random_outcome(rng, space)
            b = random_outcome(rng, space)
            big = lex_compare(ext, a, b)
            small = lex_compare(base, a, b)
            if small is Cmp.BETTER:
                assert big is Cmp.BETTER
            if big is not Cmp.WORSE:
                assert small is not Cmp.WORSE

    def test_composition_agreement_random(self):
        rng = SplitMix64(51)
        for _ in range(500):
            space = small_space(rng)
            p1 = random_model(rng, space)
            p2 = random_model(rng, space)
            a = random_outcome(rng, space)
            b = random_outcome(rng, space)
            c1 = lex_compare(p1, a, b)
            c2 = lex_compare(p2, a, b)
            both = lex_compare(compose(p1, p2), a, b)
            if c1 is not Cmp.WORSE and c2 is not Cmp.WORSE:
                assert both is not Cmp.WORSE
            if c1 is not Cmp.WORSE and c2 is Cmp.BETTER:
                assert both is Cmp.BETTER
                assert lex_compare(compose(p2, p1), a, b) is Cmp.BETTER
            if c1 is Cmp.EQUIVALENT:
                assert both is c2


class TestValidation:
    def test_duplicate_variable_names(self):
        with pytest.raises(ValueError):
            VariableSpace(["x", "x"], {"x": ["a"]})

    def test_empty_domain(self):
        with pytest.raises(ValueError):
            VariableSpace(["x"], {"x": []})

    def test_duplicate_domain_values(self):
        with pytest.raises(ValueError):
            VariableSpace(["x"], {"x": ["a", "a"]})

    def test_ranking_must_be_permutation(self):
        with pytest.raises(ValueError):
            FLIGHT_SPACE.value_order("airline", ["KLM", "KLM"])
        with pytest.raises(ValueError):
            FLIGHT_SPACE.value_order("airline", ["KLM"])

    def test_duplicate_stage_variable(self):
        with pytest.raises(ValueError):
            FLIGHT_SPACE.model([("time", ["day", "night"]),
                                ("time", ["night", "day"])])

    def test_list_arguments_build_the_tuple_built_values(self):
        space = VariableSpace(["x", "y"], {"x": ["a", "b"], "y": ["c", "d"]})
        order = TotalValueOrder(space, 0, (1, 0))
        pairs = [(Outcome(space, [0, 1]), Outcome(space, (0, 1))),
                 (TotalValueOrder(space, 0, [1, 0]), order),
                 (LexModel(space, [order]), LexModel(space, (order,)))]
        for from_list, from_tuple in pairs:
            assert from_list == from_tuple
            assert hash(from_list) == hash(from_tuple)
        alts = AlternativeSet(space, [Outcome(space, [0, 1]),
                                      Outcome(space, [1, 0])])
        assert alts.index_of(Outcome(space, (1, 0))) == 1

    def test_equal_domains_share_one_tuple_and_one_index(self):
        space = VariableSpace(["x", "y", "z"], {"x": ["a", "b"],
                                                "y": ("a", "b"),
                                                "z": ["b", "a"]})
        assert space.domains == (("a", "b"), ("a", "b"), ("b", "a"))
        assert space.domains[0] is space.domains[1]
        assert space.domains[0] is not space.domains[2]
        assert [space.value_index(i, "a") for i in range(3)] == [0, 0, 1]
        with pytest.raises(ValueError, match="unknown value 'c' for "
                                             "variable 'y'"):
            space.value_index(1, "c")

    def test_outcome_must_be_total(self):
        with pytest.raises(ValueError):
            FLIGHT_SPACE.outcome({"airline": "KLM"})
        with pytest.raises(ValueError):
            FLIGHT_SPACE.outcome({"airline": "KLM", "time": "day",
                                  "class": "economy", "seat": "1A"})


@given(st.integers(min_value=0, max_value=2 ** 62))
@settings(max_examples=60)
def test_compose_associativity_hypothesis(seed):
    rng = SplitMix64(seed)
    space = small_space(rng)
    p1, p2, p3 = (random_model(rng, space) for _ in range(3))
    assert compose(compose(p1, p2), p3) == compose(p1, compose(p2, p3))
