"""The brute-force reference: counts, enumeration, self-consistency."""

from itertools import combinations
from math import factorial, prod

import pytest

from helpers import (FLIGHT_A, FLIGHT_B, FLIGHT_G, FLIGHT_SPACE, random_gamma,
                     random_model, small_space)
from lexpref import (AlternativeSet, CapExceededError, LexModel,
                     VariableSpace, brute_consistent, brute_maximal_models,
                     brute_optimal_sets, compose, enumerate_models,
                     model_count, optimal_in_model, outcome_comparison)
from lexpref.rng import SplitMix64


class TestEnumeration:
    def test_single_binary_variable_has_three_models(self):
        space = VariableSpace(["x"], {"x": ["a", "b"]})
        assert model_count(space) == 3
        models = list(enumerate_models(space))
        assert len(models) == 3
        assert LexModel(space) in models

    def test_two_binary_variables_have_thirteen_models(self):
        space = VariableSpace(["x", "y"], {"x": ["a", "b"], "y": ["c", "d"]})
        assert model_count(space) == 13
        assert len(list(enumerate_models(space))) == 13

    def test_flight_space_has_seventy_nine_models(self):
        assert model_count(FLIGHT_SPACE) == 79
        models = list(enumerate_models(FLIGHT_SPACE))
        assert len(models) == 79
        # exhaustive and duplicate-free
        assert len({m.stages for m in models}) == 79

    def test_count_equals_the_subset_sum(self):
        # the definition: over every variable subset, its orderings times
        # the value orders of each variable in it
        rng = SplitMix64(29)
        for _ in range(200):
            sizes = [1 + rng.randrange(4) for _ in range(1 + rng.randrange(9))]
            space = VariableSpace(
                [f"x{i}" for i in range(len(sizes))],
                {f"x{i}": [f"v{j}" for j in range(d)]
                 for i, d in enumerate(sizes)})
            assert model_count(space) == sum(
                factorial(len(subset)) * prod(factorial(sizes[i])
                                              for i in subset)
                for k in range(len(sizes) + 1)
                for subset in combinations(range(len(sizes)), k))

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            list(enumerate_models(FLIGHT_SPACE, cap=10))


class TestBruteConsistent:
    def test_flight_instance(self):
        s1 = outcome_comparison(FLIGHT_SPACE, FLIGHT_A, FLIGHT_B, strict=True)
        s2 = outcome_comparison(FLIGHT_SPACE, FLIGHT_B, FLIGHT_G, strict=False)
        ok, sats = brute_consistent(FLIGHT_SPACE, [s1, s2])
        assert ok
        pi = FLIGHT_SPACE.model([("airline", ["KLM", "LAN"]),
                                 ("time", ["day", "night"])])
        assert pi in sats
        # the satisfiers are exactly the two minimal models and their extensions
        assert len(sats) == 6

    def test_self_contradiction(self):
        s1 = outcome_comparison(FLIGHT_SPACE, FLIGHT_A, FLIGHT_B, strict=True)
        s2 = outcome_comparison(FLIGHT_SPACE, FLIGHT_B, FLIGHT_A, strict=True)
        ok, sats = brute_consistent(FLIGHT_SPACE, [s1, s2])
        assert not ok and sats == []


class TestMaximalModels:
    def test_flight_maximal_models(self):
        s1 = outcome_comparison(FLIGHT_SPACE, FLIGHT_A, FLIGHT_B, strict=True)
        s2 = outcome_comparison(FLIGHT_SPACE, FLIGHT_B, FLIGHT_G, strict=False)
        _, sats = brute_consistent(FLIGHT_SPACE, [s1, s2])
        maximal = brute_maximal_models(FLIGHT_SPACE, sats)
        assert len(maximal) == 4
        exhibited = FLIGHT_SPACE.model([("airline", ["KLM", "LAN"]),
                                        ("time", ["day", "night"]),
                                        ("class", ["business", "economy"])])
        assert exhibited in maximal

    def test_maximal_models_share_their_variable_set(self):
        rng = SplitMix64(151)
        checked = 0
        while checked < 60:
            space = small_space(rng)
            gamma = random_gamma(rng, space)
            models = list(enumerate_models(space))
            ok, sats = brute_consistent(space, gamma, models=models)
            if not ok:
                continue
            maximal = brute_maximal_models(space, sats)
            vsets = {m.vmask for m in maximal}
            assert len(vsets) == 1
            # non-maximal satisfiers use a subset of those variables
            vmask = vsets.pop()
            assert all(pi.vmask & ~vmask == 0 for pi in sats)
            checked += 1


class TestOracleSelfConsistency:
    def test_class_chain_on_random_instances(self):
        rng = SplitMix64(161)
        checked = 0
        while checked < 80:
            space = small_space(rng)
            gamma = random_gamma(rng, space, max_statements=3)
            models = list(enumerate_models(space))
            ok, _ = brute_consistent(space, gamma, models=models)
            if not ok:
                continue
            pool = list(space.iter_outcomes())
            rng.shuffle(pool)
            m = 2 + rng.randrange(min(5, len(pool) - 1))
            alts = AlternativeSet(space, pool[:m])
            sets = brute_optimal_sets(space, gamma, alts, models=models)
            assert sets.no | sets.pso <= sets.mpo
            assert sets.mpo <= sets.po
            assert sets.pso == sets.mpo == sets.pom
            assert sets.ext <= sets.csd & sets.po
            assert sets.mpo           # never empty
            if sets.no:
                assert sets.no == sets.mpo == sets.ext == sets.csd
            checked += 1

    def test_iterated_maximisation_equals_composed_model(self):
        rng = SplitMix64(171)
        for _ in range(150):
            space = small_space(rng)
            pool = list(space.iter_outcomes())
            rng.shuffle(pool)
            m = 2 + rng.randrange(min(5, len(pool) - 1))
            alts = AlternativeSet(space, pool[:m])
            seq = [random_model(rng, space)
                   for _ in range(1 + rng.randrange(3))]
            surviving = set(range(m))
            for pi in seq:
                keys = {i: pi.key(alts[i]) for i in surviving}
                best = min(keys.values())
                surviving = {i for i in surviving if keys[i] == best}
            composed = seq[0]
            for pi in seq[1:]:
                composed = compose(composed, pi)
            assert surviving == set(optimal_in_model(composed, alts))
