"""Statement canonicalization and the two satisfaction relations."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (FLIGHT_A, FLIGHT_B, FLIGHT_G, FLIGHT_SPACE,
                     random_model, random_statement, reference_satisfies,
                     small_space)
from lexpref import (CapExceededError, Cmp, LexModel, PartialAssignment,
                     PrefStatement, StatementKind, TotalValueOrder,
                     VariableSpace, canonicalize, compose, extends,
                     inner_statement, lex_compare, negate_non_strict,
                     outcome_comparison, pairs, projection, satisfies,
                     satisfies_star, statement_consistent)
from lexpref.rng import SplitMix64

SP = FLIGHT_SPACE
ONE_VALUE = VariableSpace(["x", "y"], {"x": ["a", "b"], "y": ["c"]})


def flight_statement(kind=StatementKind.NON_STRICT):
    """[airline=KLM] OP [airline=LAN] holding time constant."""
    return canonicalize(SP, SP.partial({"airline": "KLM"}),
                        SP.partial({"airline": "LAN"}), ["time"], kind)


class TestCanonicalize:
    def test_flight_statement_blocks(self):
        st = flight_statement()
        assert st.u_vars == frozenset()
        assert st.r_vars == st.s_vars == frozenset({"airline"})
        assert st.t_vars == frozenset({"time"})
        assert st.w_vars == frozenset({"class"})

    def test_agreement_moves_to_u(self):
        st = canonicalize(SP, SP.partial({"airline": "KLM"}),
                          SP.partial({"airline": "KLM"}), [],
                          StatementKind.NON_STRICT)
        assert st.u_vars == frozenset({"airline"})
        assert st.r_vars == st.s_vars == frozenset()
        assert st.w_vars == frozenset({"time", "class"})

    def test_full_outcome_comparison_blocks(self):
        st = outcome_comparison(SP, FLIGHT_A, FLIGHT_B, strict=False)
        assert st.u_vars == frozenset({"airline"})
        assert st.r_vars == st.s_vars == frozenset({"time", "class"})
        assert st.w_vars == frozenset()

    def test_one_value_domains_move_to_held_set(self):
        space = VariableSpace(["x", "unit"], {"x": ["a", "b"], "unit": ["only"]})
        st = canonicalize(space, space.partial({"x": "a", "unit": "only"}),
                          space.partial({"x": "b"}), [],
                          StatementKind.NON_STRICT)
        assert st.t_vars == frozenset({"unit"})
        assert st.r_vars == frozenset({"x"})

    def test_held_set_overlap_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(SP, SP.partial({"airline": "KLM"}),
                         SP.partial({"airline": "LAN"}), ["airline"],
                         StatementKind.NON_STRICT)

    def test_negation_requires_matching_difference_sets(self):
        st = canonicalize(SP, SP.partial({"airline": "KLM"}),
                          SP.partial({"time": "day"}), [],
                          StatementKind.NON_STRICT)
        with pytest.raises(ValueError):
            negate_non_strict(st)

    def test_negation_of_strict_rejected(self):
        with pytest.raises(ValueError):
            negate_non_strict(flight_statement(StatementKind.WEAKLY_STRICT))

    @pytest.mark.parametrize("space,kind,u,r,s,t_mask,message", [
        (SP, StatementKind.NON_STRICT, SP.partial({"airline": "KLM"}),
         SP.partial({"airline": "KLM"}), SP.partial({"airline": "LAN"}), 0,
         "blocks U, T and R|S must be pairwise disjoint"),
        (SP, StatementKind.NON_STRICT, SP.partial({}),
         SP.partial({"airline": "KLM"}), SP.partial({"airline": "LAN"}),
         1 << 3, "held-constant set mentions unknown variables"),
        (ONE_VALUE, StatementKind.NON_STRICT, ONE_VALUE.partial({}),
         ONE_VALUE.partial({"x": "a"}), ONE_VALUE.partial({"x": "b"}), 0,
         "one-value variables belong in the held set"),
        (SP, StatementKind.NON_STRICT, SP.partial({}),
         SP.partial({"airline": "KLM"}), SP.partial({"airline": "KLM"}), 0,
         "sides agree on 'airline'; that variable belongs in the agreement "
         "block"),
        (SP, StatementKind.NEGATED_NON_STRICT, SP.partial({}),
         SP.partial({"airline": "KLM"}), SP.partial({"time": "day"}), 0,
         "only non-strict statements with matching difference variable sets "
         "can be negated"),
    ], ids=["overlap", "unknown-held", "one-value", "agree", "negation"])
    def test_constructor_rejects_bad_blocks(self, space, kind, u, r, s,
                                            t_mask, message):
        with pytest.raises(ValueError) as err:
            PrefStatement(space, kind, u, r, s, t_mask)
        assert str(err.value) == message

    def test_out_of_domain_value_rejected(self):
        with pytest.raises(ValueError):
            SP.partial({"airline": "RYANAIR"})


class TestPairs:
    def test_flight_statement_has_eight_pairs(self):
        # 2 time values x 2 left classes x 2 right classes
        prs = pairs(flight_statement())
        assert len(prs) == 8
        for left, right in prs:
            assert left.value_name("airline") == "KLM"
            assert right.value_name("airline") == "LAN"
            assert left.value_name("time") == right.value_name("time")

    def test_all_held_or_agreed_gives_diagonal(self):
        st = canonicalize(SP, SP.partial({"airline": "KLM"}),
                          SP.partial({"airline": "KLM"}),
                          ["time", "class"], StatementKind.NON_STRICT)
        prs = pairs(st)
        assert len(prs) == 4
        assert all(left == right for left, right in prs)
        assert all(left.value_name("airline") == "KLM" for left, _ in prs)

    def test_complete_outcomes_give_single_pair(self):
        st = outcome_comparison(SP, FLIGHT_A, FLIGHT_B, strict=False)
        assert pairs(st) == {(FLIGHT_A, FLIGHT_B)}

    def test_cap(self):
        with pytest.raises(CapExceededError):
            pairs(flight_statement(), cap=4)


class TestStatementConsistent:
    def test_non_strict_always(self):
        assert statement_consistent(flight_statement())

    def test_fully_strict_needs_shared_difference(self):
        assert statement_consistent(flight_statement(StatementKind.FULLY_STRICT))
        # complete-outcome >> with identical sides has no difference at all
        st = canonicalize(SP, SP.partial({"airline": "KLM"}),
                          SP.partial({"time": "day"}), [],
                          StatementKind.FULLY_STRICT)
        assert st.rs_mask == 0
        assert not statement_consistent(st)

    def test_weakly_strict_self_comparison_inconsistent(self):
        st = outcome_comparison(SP, FLIGHT_A, FLIGHT_A, strict=True)
        assert not statement_consistent(st)

    def test_negated_tautology_inconsistent(self):
        inner = canonicalize(SP, SP.partial({"airline": "KLM"}),
                             SP.partial({"airline": "KLM"}),
                             ["time", "class"], StatementKind.NON_STRICT)
        st = negate_non_strict(inner)
        assert st.r_mask == 0 and st.w_mask == 0
        assert not statement_consistent(st)

    def test_matches_brute_force_on_random_statements(self):
        from lexpref import brute_consistent
        rng = SplitMix64(61)
        for _ in range(150):
            space = small_space(rng)
            st = random_statement(rng, space)
            ok, _ = brute_consistent(space, [st])
            assert statement_consistent(st) == ok


class TestProjection:
    def test_flight_examples(self):
        st = flight_statement()
        assert projection(st, [], "airline") == {("KLM", "LAN")}
        assert projection(st, [], "time") == {("day", "day"),
                                              ("night", "night")}
        assert projection(st, [], "class") == {
            (a, b) for a in ("economy", "business")
            for b in ("economy", "business")}

    def test_agreement_through_both_difference_blocks_empties_it(self):
        st = outcome_comparison(SP, FLIGHT_A, FLIGHT_B, strict=False)
        assert projection(st, ["time"], "class") == set()

    def test_variable_must_not_be_in_agreement_set(self):
        with pytest.raises(ValueError):
            projection(flight_statement(), ["airline"], "airline")

    def test_matches_definition_on_random_statements(self):
        rng = SplitMix64(71)
        for _ in range(120):
            space = small_space(rng)
            st = random_statement(rng, space)
            prs = pairs(st)
            names = list(space.variables)
            y = names[rng.randrange(len(names))]
            rest = [v for v in names if v != y]
            agree = [v for v in rest if rng.coin()]
            agree_idx = [space.var_index(v) for v in agree]
            want = {(left.value_name(y), right.value_name(y))
                    for left, right in prs
                    if all(left.values[i] == right.values[i]
                           for i in agree_idx)}
            assert projection(st, agree, y) == want


class TestSatisfies:
    def test_flight_model_satisfies_both_statements(self):
        pi = SP.model([("airline", ["KLM", "LAN"]), ("time", ["day", "night"])])
        s1 = outcome_comparison(SP, FLIGHT_A, FLIGHT_B, strict=True)
        s2 = outcome_comparison(SP, FLIGHT_B, FLIGHT_G, strict=False)
        assert satisfies(pi, s1) and satisfies(pi, s2)

    def test_empty_model_satisfies_every_non_strict(self):
        rng = SplitMix64(81)
        for _ in range(200):
            space = small_space(rng)
            st = random_statement(rng, space)
            if st.kind is StatementKind.NON_STRICT:
                assert satisfies(LexModel(space), st)

    def test_empty_model_fails_consistent_strict_statements(self):
        empty = LexModel(SP)
        assert not satisfies(empty, flight_statement(StatementKind.FULLY_STRICT))
        assert not satisfies(empty, flight_statement(StatementKind.WEAKLY_STRICT))

    def test_matches_pair_definition_on_random_inputs(self):
        # the stage walk must agree with quantification over the pair set
        rng = SplitMix64(91)
        for _ in range(400):
            space = small_space(rng)
            st = random_statement(rng, space)
            pi = random_model(rng, space)
            prs = pairs(st)
            cmps = [lex_compare(pi, a, b) for a, b in prs]
            nonstrict = all(c is not Cmp.WORSE for c in cmps)
            if st.kind is StatementKind.NON_STRICT:
                want = nonstrict
            elif st.kind is StatementKind.FULLY_STRICT:
                want = all(c is Cmp.BETTER for c in cmps)
            elif st.kind is StatementKind.WEAKLY_STRICT:
                want = nonstrict and any(c is Cmp.BETTER for c in cmps)
            else:
                want = not all(c is not Cmp.WORSE
                               for c in (lex_compare(pi, a, b)
                                         for a, b in pairs(inner_statement(st))))
            assert satisfies(pi, st) == want


def _wide_statement(rng, space):
    """A statement of any kind whose share of stopping variables varies.

    A third of the statements put no variable in W or in both difference
    blocks, so that nothing stops the walk; the rest have a few or many.
    """
    kind = tuple(StatementKind)[rng.randrange(4)]
    negated = kind is StatementKind.NEGATED_NON_STRICT
    stops = rng.randrange(3)       # none, a few, many
    p_vals, q_vals, held = {}, {}, []
    for x in range(space.n):
        d = space.domain_size(x)
        block = rng.randrange(6)   # 0 T, 1 U, 2 RS, 3 R, 4 S, 5 W
        if negated and block in (3, 4):
            block = 2
        if block == 2 and d < 2:
            block = 5
        if block in (2, 5) and (stops == 0
                                or (stops == 1 and rng.randrange(16))):
            block = rng.randrange(2)
        if block == 0:
            held.append(space.variables[x])
        elif block == 1:
            p_vals[x] = q_vals[x] = rng.randrange(d)
        elif block == 2:
            p_vals[x] = rng.randrange(d)
            q_vals[x] = (p_vals[x] + 1 + rng.randrange(d - 1)) % d
        elif block == 3:
            p_vals[x] = rng.randrange(d)
        elif block == 4:
            q_vals[x] = rng.randrange(d)
    st = canonicalize(space, PartialAssignment(space, p_vals),
                      PartialAssignment(space, q_vals), space.mask_of(held),
                      StatementKind.NON_STRICT if negated else kind)
    return negate_non_strict(st) if negated else st


def _pinning_model(rng, space, st, size):
    """A model of ``size`` random stages, each R-only (S-only) stage of
    ``st`` putting the left (right) value on top (bottom) half the time."""
    stages = []
    for x in rng.permutation(space.n)[:size]:
        ranking = rng.permutation(space.domain_size(x))
        bit = 1 << x
        if st.r_mask & ~st.s_mask & bit and rng.coin():
            ranking.remove(st.r.vals[x])
            ranking.insert(0, st.r.vals[x])
        elif st.s_mask & ~st.r_mask & bit and rng.coin():
            ranking.remove(st.s.vals[x])
            ranking.append(st.s.vals[x])
        stages.append(TotalValueOrder(space, x, ranking))
    return LexModel(space, stages)


def _walk_case(model, st):
    """Where the walk stops ('W', 'RS' or 'none'), and whether R-only or
    S-only variables are staged before that point, and all pin."""
    pins, held = 0, True
    for stage in model.stages:
        x = stage.var
        if (st.w_mask | st.rs_mask) >> x & 1:
            return ("W" if st.w_mask >> x & 1 else "RS"), pins > 0, held
        if st.r_mask >> x & 1:
            pins += 1
            held = held and stage.ranking[0] == st.r.vals[x]
        elif st.s_mask >> x & 1:
            pins += 1
            held = held and stage.ranking[-1] == st.s.vals[x]
    return "none", pins > 0, held


class TestSatisfiesByPrefixMasks:
    def test_agrees_with_the_stage_walk_on_wide_spaces(self):
        # n >= 64, so that every stage-prefix mask spans several int digits
        rng = SplitMix64(2024)
        cases, kinds = {}, set()
        for case in range(120):
            n = 64 + rng.randrange(67)
            names = [f"x{i}" for i in range(n)]
            space = VariableSpace(names, {
                name: [f"v{j}" for j in range(1 + rng.randrange(4))]
                for name in names})
            for _ in range(12):
                st = _wide_statement(rng, space)
                size = (0, 1 + rng.randrange(n - 1), n)[rng.randrange(3)]
                model = _pinning_model(rng, space, st, size)
                assert satisfies(model, st) == reference_satisfies(model, st)
                stop, pinned, held = _walk_case(model, st)
                key = (stop, pinned, pinned and held)
                cases[key] = cases.get(key, 0) + 1
                kinds.add((st.kind, size == 0, 0 < size < n))
        assert len(kinds) == 4 * 3
        for stop in ("W", "RS", "none"):
            for key in ((stop, False, False), (stop, True, False),
                        (stop, True, True)):
                assert cases.get(key, 0) >= 10, (key, cases)

    def test_index_is_built_once_per_model(self):
        model = SP.model([("time", ["night", "day"]),
                          ("airline", ["KLM", "LAN"])])
        prefix, stage_of = index = model.stage_index()
        assert model.stage_index() is index
        assert prefix == [0, 0b010, 0b011]
        assert stage_of == {1: model.stages[0], 0: model.stages[1]}
        assert LexModel(SP).stage_index() == ([0], {})


class TestSatisfiesStar:
    def test_single_stage_flight_model(self):
        pi = SP.model([("airline", ["KLM", "LAN"])])
        s1 = outcome_comparison(SP, FLIGHT_A, FLIGHT_B, strict=True)
        s2 = outcome_comparison(SP, FLIGHT_B, FLIGHT_G, strict=False)
        assert satisfies_star(pi, s1) and satisfies_star(pi, s2)
        # the strict statement itself is not yet satisfied
        assert not satisfies(pi, s1)

    def test_empty_model_star_satisfies_every_consistent_statement(self):
        rng = SplitMix64(101)
        for _ in range(300):
            space = small_space(rng)
            st = random_statement(rng, space)
            if statement_consistent(st):
                assert satisfies_star(LexModel(space), st)

    def test_satisfies_implies_star(self):
        rng = SplitMix64(111)
        for _ in range(400):
            space = small_space(rng)
            st = random_statement(rng, space)
            if not statement_consistent(st):
                continue
            pi = random_model(rng, space)
            if satisfies(pi, st):
                assert satisfies_star(pi, st)

    def test_star_equals_extension_enumeration(self):
        rng = SplitMix64(121)
        for _ in range(250):
            space = small_space(rng)
            st = random_statement(rng, space)
            if not statement_consistent(st):
                continue
            pi = random_model(rng, space)
            assert satisfies_star(pi, st) == _star_by_enumeration(space, pi, st)

    def test_strong_compositionality_witness(self):
        # star-satisfaction plus a true satisfier composes to a satisfier
        rng = SplitMix64(131)
        hits = 0
        for _ in range(2000):
            space = small_space(rng)
            st = random_statement(rng, space)
            if not statement_consistent(st):
                continue
            p1 = random_model(rng, space)
            p2 = random_model(rng, space)
            if satisfies_star(p1, st) and satisfies(p2, st):
                hits += 1
                assert satisfies(compose(p1, p2), st)
        assert hits > 100

    def test_non_strict_statements_are_downward_closed(self):
        rng = SplitMix64(141)
        for _ in range(300):
            space = small_space(rng)
            st = random_statement(rng, space)
            if st.kind is not StatementKind.NON_STRICT:
                continue
            base = random_model(rng, space)
            ext = compose(base, random_model(rng, space))
            if extends(ext, base) and satisfies(ext, st):
                assert satisfies(base, st)

    def test_inconsistent_statement_rejected(self):
        st = outcome_comparison(SP, FLIGHT_A, FLIGHT_A, strict=True)
        with pytest.raises(ValueError):
            satisfies_star(LexModel(SP), st)


@given(st_seed=st.integers(min_value=0, max_value=2 ** 62))
@settings(max_examples=150)
def test_canonical_form_invariants(st_seed):
    # blocks partition the variables; difference values disagree pointwise;
    # one-value variables are always held
    rng = SplitMix64(st_seed)
    space = small_space(rng, min_domain=1)
    stmt = random_statement(rng, space)
    masks = [stmt.u_mask, stmt.t_mask, stmt.r_mask | stmt.s_mask, stmt.w_mask]
    assert (stmt.u_mask | stmt.t_mask | stmt.r_mask | stmt.s_mask
            | stmt.w_mask) == space.full_mask
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            assert a & b == 0
    for x in range(space.n):
        if stmt.rs_mask & (1 << x):
            assert stmt.r.vals[x] != stmt.s.vals[x]
    assert space.singleton_mask & ~stmt.t_mask == 0


def _star_by_enumeration(space, pi, st):
    remaining = [i for i in range(space.n) if not (pi.vmask >> i) & 1]
    for k in range(len(remaining) + 1):
        for seq in itertools.permutations(remaining, k):
            all_orders = [
                [TotalValueOrder(space, x, perm)
                 for perm in itertools.permutations(range(space.domain_size(x)))]
                for x in seq]
            for orders in itertools.product(*all_orders):
                if satisfies(LexModel(space, pi.stages + tuple(orders)), st):
                    return True
    return False
