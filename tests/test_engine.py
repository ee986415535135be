"""Greedy engine: extension construction, consistency, inference."""

import itertools

import pytest

from helpers import (FLIGHT_A, FLIGHT_B, FLIGHT_D, FLIGHT_G,
                     FLIGHT_SPACE, random_gamma,
                     reference_encoding, small_space)
from lexpref import (FailureReason, GenConfig, InconsistentError, LexModel,
                     StatementKind, TotalValueOrder, UnsupportedQueryError,
                     VariableSpace, brute_consistent, brute_entails,
                     brute_maximal_models, build_maximal_star_model,
                     canonicalize, compose, consistent, entails,
                     entails_general, entails_max, enumerate_models,
                     gen_instance, negate_non_strict,
                     outcome_comparison, satisfies, satisfies_star,
                     statement_consistent, v_gamma, valid_extension)
from lexpref.engine import EncodedGamma
from lexpref.rng import SplitMix64

SP = FLIGHT_SPACE


def flight_gamma():
    return [outcome_comparison(SP, FLIGHT_A, FLIGHT_B, strict=True, label="s1"),
            outcome_comparison(SP, FLIGHT_B, FLIGHT_G, strict=False, label="s2")]


def reference_greedy(space, gamma):
    """The greedy built from :func:`valid_extension`: append the first
    variable admitting a valid extension until none does."""
    model = LexModel(space)
    while True:
        for x, name in enumerate(space.variables):
            if model.vmask & (1 << x):
                continue
            order = valid_extension(space, gamma, model, name)
            if order is not None:
                model = LexModel(space, model.stages + (order,))
                break
        else:
            return model


def redeclared(space, st):
    """``st`` rebuilt by names over ``space``, which declares the same
    variables and domains as ``st.space``, possibly in another order."""
    u = st.u.as_dict()
    return canonicalize(space, space.partial({**u, **st.r.as_dict()}),
                        space.partial({**u, **st.s.as_dict()}),
                        st.space.names_of(st.t_mask), st.kind, label=st.label)


class TestValidExtension:
    def test_flight_airline_order(self):
        order = valid_extension(SP, flight_gamma(), LexModel(SP), "airline")
        assert order is not None
        assert order.ranking_names() == ("KLM", "LAN")

    def test_best_equal_worst_with_two_values_fails(self):
        # one statement pins value a best on x, another pins the same a worst
        space = VariableSpace(["x", "y", "z"],
                              {"x": ["a", "b"], "y": ["c", "d"], "z": ["e", "f"]})
        best_a = canonicalize(space, space.partial({"x": "a"}),
                              space.partial({"y": "c"}), [],
                              StatementKind.NON_STRICT)
        worst_a = canonicalize(space, space.partial({"y": "d"}),
                               space.partial({"x": "a"}), [],
                               StatementKind.NON_STRICT)
        gamma = [best_a, worst_a]
        assert valid_extension(space, gamma, LexModel(space), "x") is None
        # enumeration confirms: no single-stage x-order star-satisfies both
        for perm in itertools.permutations(range(2)):
            pi = LexModel(space, (TotalValueOrder(space, 0, perm),))
            assert not all(satisfies_star(pi, st) for st in gamma)

    def test_empty_statement_set_gives_canonical_order(self):
        order = valid_extension(SP, [], LexModel(SP), "class")
        assert order.ranking_names() == ("economy", "business")

    def test_empty_model_airline(self):
        # the strict comparison pins KLM above LAN; the reverse order fails it
        gamma = flight_gamma()
        order = valid_extension(SP, gamma, LexModel(SP), "airline")
        assert order.ranking_names() == ("KLM", "LAN")
        reversed_pi = SP.model([("airline", ["LAN", "KLM"])])
        assert not all(satisfies_star(reversed_pi, st) for st in gamma)

    def test_after_airline_time(self):
        # with airline placed, the outcome comparison statement keeps its
        # shared-difference blocks live and pins day above night; the other
        # statement's blocks include airline, so it constrains nothing
        gamma = flight_gamma()
        pi = SP.model([("airline", ["KLM", "LAN"])])
        order = valid_extension(SP, gamma, pi, "time")
        assert order.ranking_names() == ("day", "night")
        reversed_pi = SP.model([("airline", ["KLM", "LAN"]),
                                ("time", ["night", "day"])])
        assert not all(satisfies_star(reversed_pi, st) for st in gamma)

    def test_empty_statement_set(self):
        # no statement constrains any variable: each gets its declared order
        for name in SP.variables:
            order = valid_extension(SP, [], LexModel(SP), name)
            assert order.ranking == tuple(range(SP.domain_size(SP.var_index(name))))

    def test_variable_already_in_model_rejected(self):
        pi = SP.model([("airline", ["KLM", "LAN"])])
        with pytest.raises(ValueError):
            valid_extension(SP, flight_gamma(), pi, "airline")

    def test_negated_statement_contributes_reversed_pair(self):
        inner = canonicalize(SP, SP.partial({"airline": "KLM"}),
                             SP.partial({"airline": "LAN"}),
                             ["time", "class"], StatementKind.NON_STRICT)
        order = valid_extension(SP, [negate_non_strict(inner)], LexModel(SP),
                                "airline")
        assert order.ranking_names() == ("LAN", "KLM")

    def test_round_trip_against_star_satisfaction(self):
        # returned orders must star-preserve; refusals must be genuine
        rng = SplitMix64(181)
        done = 0
        while done < 300:
            space = small_space(rng)
            gamma = [st for st in random_gamma(rng, space)
                     if statement_consistent(st)]
            if not gamma:
                continue
            pi = build_maximal_star_model(space, gamma)
            prefix = LexModel(space, pi.stages[:rng.randrange(len(pi.stages) + 1)])
            free = [v for v in space.variables
                    if not prefix.vmask & (1 << space.var_index(v))]
            if not free:
                continue
            x = free[rng.randrange(len(free))]
            order = valid_extension(space, gamma, prefix, x)
            xi = space.var_index(x)
            perms = itertools.permutations(range(space.domain_size(xi)))
            feasible = [
                perm for perm in perms
                if all(satisfies_star(
                    compose(prefix, LexModel(space, (TotalValueOrder(space, xi, perm),))),
                    st) for st in gamma)]
            if order is None:
                assert feasible == []
            else:
                assert order.ranking in feasible
            done += 1


class TestBuildMaximalStarModel:
    def test_flight_witness_structure(self):
        pi = build_maximal_star_model(SP, flight_gamma())
        assert pi.stages[0].variable == "airline"
        assert pi.stages[0].ranking_names() == ("KLM", "LAN")
        assert pi.variables == frozenset(SP.variables)
        # it is maximal: the oracle's maximal set contains it
        _, sats = brute_consistent(SP, flight_gamma())
        assert pi in brute_maximal_models(SP, sats)

    def test_empty_statement_set_uses_canonical_orders(self):
        pi = build_maximal_star_model(SP, [])
        assert [st.variable for st in pi.stages] == list(SP.variables)
        for st in pi.stages:
            assert st.ranking == tuple(range(len(st.ranking)))

    def test_negated_statement_forces_reversed_order(self):
        inner = canonicalize(SP, SP.partial({"airline": "KLM"}),
                             SP.partial({"airline": "LAN"}),
                             ["time", "class"], StatementKind.NON_STRICT)
        pi = build_maximal_star_model(SP, [negate_non_strict(inner)])
        stage = {st.variable: st for st in pi.stages}["airline"]
        assert stage.ranking_names() == ("LAN", "KLM")

    def test_individually_unsatisfiable_statement_rejected(self):
        bad = outcome_comparison(SP, FLIGHT_A, FLIGHT_A, strict=True)
        with pytest.raises(ValueError):
            build_maximal_star_model(SP, [bad])


class TestEncodedGamma:
    @staticmethod
    def assert_tables_match_reference(space, gamma):
        enc = EncodedGamma(space, gamma)
        want = reference_encoding(space, gamma)
        got = {name: getattr(enc, name) for name in want}
        for name in ("pairs", "bests", "worsts"):
            got[name] = [(every, dict(entries))
                         for every, entries in got[name]]
        assert got == want

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 200])
    def test_tables_match_bit_walk(self, n):
        for mix, domain_min in (((1, 1, 1, 1), 2), ((0, 0, 0, 1), 2),
                                ((1, 1, 1, 1), 1)):
            if domain_min == 1 and n == 1:
                continue    # a lone variable may get a one-value domain
            gen = gen_instance(GenConfig(n=n, g=2 * n + 3, m=1, seed=n,
                                         domain_min=domain_min,
                                         kind_mix=mix))
            self.assert_tables_match_reference(gen.space, gen.gamma)
            self.assert_tables_match_reference(gen.space, [])

    def test_tables_match_bit_walk_on_arbitrary_blocks(self):
        rng = SplitMix64(41)
        for _ in range(200):
            space = small_space(rng, max_vars=10, max_domain=4)
            self.assert_tables_match_reference(
                space, random_gamma(rng, space, max_statements=12))


class TestConsistent:
    def test_flight_instance_consistent(self):
        res = consistent(SP, flight_gamma())
        assert res.consistent
        assert res.failures == ()
        assert res.v_gamma == frozenset(SP.variables)
        assert res.witness.stages[0].ranking_names() == ("KLM", "LAN")

    def test_opposite_strict_comparisons_inconsistent(self):
        gamma = [outcome_comparison(SP, FLIGHT_A, FLIGHT_B, strict=True),
                 outcome_comparison(SP, FLIGHT_B, FLIGHT_A, strict=True)]
        res = consistent(SP, gamma)
        assert not res.consistent
        assert res.failures

    def test_strict_cycle_inconsistent(self):
        gamma = flight_gamma() + [
            outcome_comparison(SP, FLIGHT_G, FLIGHT_A, strict=True, label="s3")]
        res = consistent(SP, gamma)
        assert not res.consistent
        ok, _ = brute_consistent(SP, gamma)
        assert not ok

    def test_verify_rejects_a_witness_that_stops_early(self, monkeypatch):
        # z is held in the only statement and declared last, so a kernel
        # result without z's stage still satisfies exactly the statements
        # it reports; only the maximality check sees the missing stage
        space = VariableSpace(["x", "y", "z"], {"x": ["a", "b"],
                                                "y": ["c", "d"],
                                                "z": ["e", "f"]})
        gamma = [canonicalize(space, space.partial({"x": "a"}),
                              space.partial({"x": "b"}), ["y", "z"],
                              StatementKind.FULLY_STRICT)]
        assert consistent(space, gamma).witness.stages[-1].variable == "z"
        run = EncodedGamma.run

        def early_stop(self, *args):
            ok, stages, *rest = run(self, *args)
            return (ok, stages[:-1], *rest)

        monkeypatch.setattr(EncodedGamma, "run", early_stop)
        assert consistent(space, gamma, verify=False).v_gamma == {"x", "y"}
        with pytest.raises(RuntimeError, match="not maximal, z extends"):
            consistent(space, gamma)

    def test_unsatisfiable_statement_short_circuits(self):
        bad = outcome_comparison(SP, FLIGHT_A, FLIGHT_A, strict=True,
                                 label="bad")
        res = consistent(SP, flight_gamma() + [bad])
        assert not res.consistent
        assert [f.label for f in res.failures] == ["bad"]
        assert res.failures[0].reason is FailureReason.STATEMENT_UNSATISFIABLE
        assert res.v_gamma is None

    def test_failure_reasons_by_kind(self):
        # block x's difference variable, then each strict kind fails its
        # own witnessing condition
        space = VariableSpace(["x", "y"], {"x": ["a", "b"], "y": ["c", "d"]})
        pin = canonicalize(space, space.partial({"x": "a"}),
                           space.partial({"x": "b"}), ["y"],
                           StatementKind.NON_STRICT)
        pin_rev = canonicalize(space, space.partial({"x": "b"}),
                               space.partial({"x": "a"}), ["y"],
                               StatementKind.NON_STRICT)
        fully = canonicalize(space, space.partial({"x": "a"}),
                             space.partial({"x": "b"}), ["y"],
                             StatementKind.FULLY_STRICT)
        res = consistent(space, [pin, pin_rev, fully])
        assert not res.consistent
        reasons = {f.label or f.index: f.reason for f in res.failures}
        assert list(reasons.values()) == [
            FailureReason.NEEDS_SHARED_DIFFERENCE_STAGE]

    def test_matches_oracle_on_random_sets(self):
        rng = SplitMix64(191)
        for _ in range(150):
            space = small_space(rng)
            gamma = random_gamma(rng, space)
            ok, _ = brute_consistent(space, gamma)
            res = consistent(space, gamma)
            assert res.consistent == ok
            if res.consistent:
                assert all(satisfies(res.witness, st) for st in gamma)

    @pytest.mark.parametrize("max_vars, min_domain, max_domain, "
                             "max_statements",
                             [(5, 2, 4, 6), (4, 2, 9, 12), (3, 65, 70, 12)])
    def test_kernel_matches_reference_greedy(self, max_vars, min_domain,
                                             max_domain, max_statements):
        # the wider cases meet pin/pair clashes on domains of up to nine
        # values, and on domains of 65 to 70 values, whose successor masks
        # span more than one machine word
        rng = SplitMix64(223)
        done = 0
        while done < 400:
            space = small_space(rng, max_vars=max_vars, min_domain=min_domain,
                                max_domain=max_domain)
            gamma = [st for st in random_gamma(rng, space, max_statements)
                     if statement_consistent(st)]
            if not gamma:
                continue
            res = consistent(space, gamma)
            want = reference_greedy(space, gamma)
            assert res.witness == want
            assert [f.index for f in res.failures] == [
                j for j, st in enumerate(gamma) if not satisfies(want, st)]
            done += 1

    def test_tie_break_order_does_not_change_satisfied_subset(self):
        # the greedy tries variables in declaration order; declaring them in
        # another order builds another maximal star-model, which satisfies
        # the same statements and mentions the same variables (V_Gamma)
        rng = SplitMix64(211)
        done = 0
        while done < 80:
            space = small_space(rng)
            gamma = [st for st in random_gamma(rng, space)
                     if statement_consistent(st)]
            if not gamma:
                continue
            base = consistent(space, gamma)
            names = [space.variables[i] for i in rng.permutation(space.n)]
            permuted = VariableSpace(
                names, {v: space.domains[space.var_index(v)] for v in names})
            shuffled = consistent(permuted, [redeclared(permuted, st)
                                             for st in gamma])
            assert base.consistent == shuffled.consistent
            assert ([f.index for f in base.failures]
                    == [f.index for f in shuffled.failures])
            assert base.v_gamma == shuffled.v_gamma
            done += 1


class TestEntails:
    def test_flight_inferences(self):
        gamma = flight_gamma()
        assert entails(SP, gamma, ">", FLIGHT_G, FLIGHT_D)
        assert entails(SP, gamma, ">=", FLIGHT_A, FLIGHT_B)
        # every model starts with airline KLM > LAN, hence this also holds
        assert entails(SP, gamma, ">", FLIGHT_B, FLIGHT_G)

    def test_flight_non_inferences(self):
        gamma = flight_gamma()
        eps = SP.outcome({"airline": "KLM", "time": "day",
                          "class": "business"})
        assert not entails(SP, gamma, ">=", FLIGHT_A, eps)
        assert not entails(SP, gamma, ">=", eps, FLIGHT_A)

    def test_reflexive_weak_preference(self):
        rng = SplitMix64(221)
        for _ in range(30):
            space = small_space(rng)
            gamma = random_gamma(rng, space)
            o = space.outcome_from_indices(
                tuple(rng.randrange(space.domain_size(i))
                      for i in range(space.n)))
            assert entails(space, gamma, ">=", o, o)

    def test_equivalence_query_vacuous_on_inconsistent_premises(self):
        gamma = [outcome_comparison(SP, FLIGHT_A, FLIGHT_B, strict=True),
                 outcome_comparison(SP, FLIGHT_B, FLIGHT_A, strict=True)]
        assert entails(SP, gamma, "==", FLIGHT_A, FLIGHT_D)

    def test_equivalence_query_uses_maximal_variables(self):
        space = VariableSpace(["x", "y"], {"x": ["a", "b"], "y": ["c", "d"]})
        # conflicting orders block y entirely, so models never mention it
        pin = canonicalize(space, space.partial({"y": "c"}),
                           space.partial({"y": "d"}), ["x"],
                           StatementKind.NON_STRICT)
        pin_rev = canonicalize(space, space.partial({"y": "d"}),
                               space.partial({"y": "c"}), ["x"],
                               StatementKind.NON_STRICT)
        gamma = [pin, pin_rev]
        assert v_gamma(space, gamma) == frozenset({"x"})
        same_x = (space.outcome({"x": "a", "y": "c"}),
                  space.outcome({"x": "a", "y": "d"}))
        assert entails(space, gamma, "==", *same_x)
        diff_x = (space.outcome({"x": "a", "y": "c"}),
                  space.outcome({"x": "b", "y": "c"}))
        assert not entails(space, gamma, "==", *diff_x)

    def test_matches_oracle_on_random_queries(self):
        rng = SplitMix64(231)
        for _ in range(150):
            space = small_space(rng)
            gamma = random_gamma(rng, space, max_statements=3)
            left = space.outcome_from_indices(
                tuple(rng.randrange(space.domain_size(i))
                      for i in range(space.n)))
            right = space.outcome_from_indices(
                tuple(rng.randrange(space.domain_size(i))
                      for i in range(space.n)))
            strict = rng.coin()
            query = outcome_comparison(space, left, right, strict=strict)
            want = brute_entails(space, gamma, query)
            got = entails(space, gamma, ">" if strict else ">=", left, right)
            assert got == want


class TestEntailsGeneral:
    def test_non_strict_statement_query_matches_oracle(self):
        gamma = [outcome_comparison(SP, FLIGHT_A, FLIGHT_B, strict=True)]
        st = canonicalize(SP, SP.partial({"airline": "KLM"}),
                          SP.partial({"airline": "LAN"}), ["time"],
                          StatementKind.NON_STRICT)
        assert entails_general(SP, gamma, st) == brute_entails(SP, gamma, st)

    def test_random_negatable_queries_match_oracle(self):
        rng = SplitMix64(241)
        done = 0
        while done < 120:
            space = small_space(rng)
            gamma = random_gamma(rng, space, max_statements=3)
            from helpers import random_statement
            st = random_statement(rng, space)
            try:
                got = entails_general(space, gamma, st)
            except UnsupportedQueryError:
                continue
            assert got == brute_entails(space, gamma, st)
            done += 1

    def test_inconsistent_premises_entail_everything(self):
        gamma = [outcome_comparison(SP, FLIGHT_A, FLIGHT_B, strict=True),
                 outcome_comparison(SP, FLIGHT_B, FLIGHT_A, strict=True)]
        st = canonicalize(SP, SP.partial({"airline": "LAN"}),
                          SP.partial({"airline": "KLM"}), [],
                          StatementKind.NON_STRICT)
        assert entails_general(SP, gamma, st)

    def test_unsupported_statements_rejected(self):
        st = canonicalize(SP, SP.partial({"airline": "KLM"}),
                          SP.partial({"time": "day"}), [],
                          StatementKind.WEAKLY_STRICT)
        with pytest.raises(UnsupportedQueryError):
            entails_general(SP, [], st)

    def test_negated_statement_queries_supported(self):
        inner = canonicalize(SP, SP.partial({"airline": "LAN"}),
                             SP.partial({"airline": "KLM"}),
                             ["time", "class"], StatementKind.NON_STRICT)
        neg = negate_non_strict(inner)
        gamma = flight_gamma()
        assert entails_general(SP, gamma, neg) == brute_entails(SP, gamma, neg)


class TestVGamma:
    def test_flight_uses_every_variable(self):
        assert v_gamma(SP, flight_gamma()) == frozenset(SP.variables)

    def test_empty_statement_set_uses_every_variable(self):
        assert v_gamma(SP, []) == frozenset(SP.variables)

    def test_blocked_variable_is_excluded(self):
        space = VariableSpace(["x", "y", "z"],
                              {"x": ["a", "b"], "y": ["c", "d"],
                               "z": ["e", "f"]})
        pin = canonicalize(space, space.partial({"z": "e"}),
                           space.partial({"z": "f"}), ["x", "y"],
                           StatementKind.NON_STRICT)
        pin_rev = canonicalize(space, space.partial({"z": "f"}),
                               space.partial({"z": "e"}), ["x", "y"],
                               StatementKind.NON_STRICT)
        gamma = [pin, pin_rev]
        assert v_gamma(space, gamma) == frozenset({"x", "y"})
        # oracle: maximal models mention exactly x and y
        _, sats = brute_consistent(space, gamma)
        maximal = brute_maximal_models(space, sats)
        assert {m.vmask for m in maximal} == {space.mask_of(["x", "y"])}

    def test_blocked_variable_with_a_strict_statement_still_consistent(self):
        # z's required orders clash, but the strict statement also pins a
        # best value on x, so it is witnessed without z ever entering
        space = VariableSpace(["x", "y", "z"],
                              {"x": ["a", "b"], "y": ["c", "d"],
                               "z": ["e", "f"]})
        strict = canonicalize(space, space.partial({"x": "a", "z": "e"}),
                              space.partial({"z": "f"}), ["y"],
                              StatementKind.WEAKLY_STRICT)
        counter = canonicalize(space, space.partial({"z": "f"}),
                               space.partial({"z": "e"}), ["x", "y"],
                               StatementKind.NON_STRICT)
        gamma = [strict, counter]
        res = consistent(space, gamma)
        assert res.consistent
        assert res.v_gamma == frozenset({"x", "y"})
        _, sats = brute_consistent(space, gamma)
        maximal = brute_maximal_models(space, sats)
        assert {m.vmask for m in maximal} == {space.mask_of(["x", "y"])}

    def test_inconsistent_set_rejected(self):
        gamma = [outcome_comparison(SP, FLIGHT_A, FLIGHT_B, strict=True),
                 outcome_comparison(SP, FLIGHT_B, FLIGHT_A, strict=True)]
        with pytest.raises(InconsistentError):
            v_gamma(SP, gamma)


class TestEntailsMax:
    def test_entailment_implies_max_entailment(self):
        gamma = flight_gamma()
        st = outcome_comparison(SP, FLIGHT_G, FLIGHT_D, strict=True)
        assert entails_max(SP, gamma, st)

    def test_unconstrained_comparison_not_max_entailed(self):
        st = outcome_comparison(SP, FLIGHT_A, FLIGHT_G, strict=False)
        assert not entails_max(SP, [], st)

    def test_max_entailed_without_plain_entailment(self):
        # the empty model satisfies the inner statement, so its negation is
        # not plainly entailed; but adding that inner statement blocks x
        # out of the maximal models, so every maximal model denies it
        space = VariableSpace(["x", "y"], {"x": ["a", "b"], "y": ["c", "d"]})
        psi = canonicalize(space, space.partial({"x": "a"}),
                           space.partial({"x": "b"}), ["y"],
                           StatementKind.NON_STRICT)
        chi = canonicalize(space, space.partial({"x": "b"}),
                           space.partial({"x": "a"}), ["y"],
                           StatementKind.NON_STRICT)
        query = negate_non_strict(chi)
        gamma = [psi]
        assert not entails_general(space, gamma, query)
        assert entails_max(space, gamma, query)
        # oracle confirms: every maximal model of gamma satisfies the query
        _, sats = brute_consistent(space, gamma)
        for pi in brute_maximal_models(space, sats):
            assert satisfies(pi, query)

    def test_requires_consistent_premises(self):
        gamma = [outcome_comparison(SP, FLIGHT_A, FLIGHT_B, strict=True),
                 outcome_comparison(SP, FLIGHT_B, FLIGHT_A, strict=True)]
        st = outcome_comparison(SP, FLIGHT_A, FLIGHT_B, strict=False)
        with pytest.raises(InconsistentError):
            entails_max(SP, gamma, st)

    def test_matches_maximal_model_quantification(self):
        rng = SplitMix64(251)
        done = 0
        while done < 100:
            space = small_space(rng)
            gamma = random_gamma(rng, space, max_statements=3)
            models = list(enumerate_models(space))
            ok, sats = brute_consistent(space, gamma, models=models)
            if not ok:
                continue
            from helpers import random_statement
            st = random_statement(rng, space)
            try:
                got = entails_max(space, gamma, st)
            except UnsupportedQueryError:
                continue
            maximal = brute_maximal_models(space, sats)
            want = all(satisfies(pi, st) for pi in maximal)
            assert got == want
            done += 1
