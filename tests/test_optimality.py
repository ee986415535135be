"""Optimality classes against the brute-force reference."""

import pytest

from helpers import (FLIGHT_A, FLIGHT_B, FLIGHT_D, FLIGHT_G,
                     FLIGHT_SPACE, random_gamma, small_space)
from lexpref import (AlternativeSet, InconsistentError, LexModel, OptimalSets,
                     StatementKind, brute_consistent,
                     brute_optimal_sets, canonicalize, compute_sets,
                     compute_sets_timed, csd_membership, enumerate_models,
                     equivalence_classes, no_membership, optimal_in_model,
                     outcome_comparison, po_membership, pso_membership)
from lexpref.generator import GenConfig, gen_instance
from lexpref.rng import SplitMix64, derive_seed

SP = FLIGHT_SPACE


def flight_gamma():
    return [outcome_comparison(SP, FLIGHT_A, FLIGHT_B, strict=True, label="s1"),
            outcome_comparison(SP, FLIGHT_B, FLIGHT_G, strict=False, label="s2")]


def flight_alts():
    return AlternativeSet(SP, [FLIGHT_A, FLIGHT_B, FLIGHT_G, FLIGHT_D])


class TestAlternativeSet:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            AlternativeSet(SP, [FLIGHT_A, FLIGHT_A])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AlternativeSet(SP, [])


class TestOptimalInModel:
    def test_flight_model(self):
        pi = SP.model([("airline", ["KLM", "LAN"]), ("time", ["day", "night"])])
        assert optimal_in_model(pi, flight_alts()) == {0}

    def test_empty_model_keeps_everything(self):
        assert optimal_in_model(LexModel(SP), flight_alts()) == {0, 1, 2, 3}

    def test_singleton(self):
        alts = AlternativeSet(SP, [FLIGHT_B])
        pi = SP.model([("class", ["economy", "business"])])
        assert optimal_in_model(pi, alts) == {0}


class TestEquivalenceClasses:
    def test_no_statements_gives_singletons(self):
        classes = equivalence_classes(SP, [], flight_alts())
        assert classes == ((0,), (1,), (2,), (3,))

    def test_blocked_variables_merge_classes(self):
        # opposite pins block time and class; only airline matters
        space = SP
        gamma = []
        for a, b in (("day", "night"), ("night", "day")):
            gamma.append(canonicalize(
                space, space.partial({"time": a}), space.partial({"time": b}),
                ["airline", "class"], StatementKind.NON_STRICT))
        for a, b in (("economy", "business"), ("business", "economy")):
            gamma.append(canonicalize(
                space, space.partial({"class": a}), space.partial({"class": b}),
                ["airline", "time"], StatementKind.NON_STRICT))
        classes = equivalence_classes(space, gamma, flight_alts())
        # a, b share airline KLM; g, d share airline LAN
        assert classes == ((0, 1), (2, 3))

    def test_inconsistent_set_rejected(self):
        gamma = [outcome_comparison(SP, FLIGHT_A, FLIGHT_B, strict=True),
                 outcome_comparison(SP, FLIGHT_B, FLIGHT_A, strict=True)]
        with pytest.raises(InconsistentError):
            equivalence_classes(SP, gamma, flight_alts())


class TestFlightMemberships:
    def test_first_alternative_dominates(self):
        gamma, alts = flight_gamma(), flight_alts()
        assert po_membership(SP, gamma, alts, FLIGHT_A)
        assert pso_membership(SP, gamma, alts, FLIGHT_A)
        assert csd_membership(SP, gamma, alts, FLIGHT_A)
        assert no_membership(SP, gamma, alts, FLIGHT_A)

    def test_dominated_alternative_is_nowhere(self):
        gamma, alts = flight_gamma(), flight_alts()
        assert not po_membership(SP, gamma, alts, FLIGHT_D)
        assert not no_membership(SP, gamma, alts, FLIGHT_B)

    def test_compute_sets_flight(self):
        sets = compute_sets(SP, flight_gamma(), flight_alts())
        assert sets.po == sets.pso == sets.csd == sets.no == {0}
        assert sets.mpo == sets.pom == sets.ext == sets.pso

    def test_unconstrained_instance(self):
        sets = compute_sets(SP, [], flight_alts())
        assert sets.po == sets.pso == sets.csd == {0, 1, 2, 3}
        assert sets.no == frozenset()

    def test_all_equivalent_alternatives_are_necessarily_optimal(self):
        # block everything but airline; both alternatives agree on airline
        gamma = []
        for a, b in (("day", "night"), ("night", "day")):
            gamma.append(canonicalize(
                SP, SP.partial({"time": a}), SP.partial({"time": b}),
                ["airline", "class"], StatementKind.NON_STRICT))
        for a, b in (("economy", "business"), ("business", "economy")):
            gamma.append(canonicalize(
                SP, SP.partial({"class": a}), SP.partial({"class": b}),
                ["airline", "time"], StatementKind.NON_STRICT))
        alts = AlternativeSet(SP, [FLIGHT_A, FLIGHT_B])
        sets = compute_sets(SP, gamma, alts)
        assert sets.no == {0, 1}
        assert sets.pso == sets.csd == {0, 1}


class TestAgainstOracle:
    def test_random_instances(self):
        rng = SplitMix64(261)
        checked = 0
        while checked < 120:
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
            want = brute_optimal_sets(space, gamma, alts, models=models)
            got = compute_sets(space, gamma, alts)
            assert got.po == want.po
            assert got.pso == want.pso
            assert got.csd == want.csd
            assert got.no == want.no
            checked += 1

    def test_po_membership_monotone_under_competitor_removal(self):
        rng = SplitMix64(271)
        checked = 0
        while checked < 60:
            space = small_space(rng)
            gamma = random_gamma(rng, space, max_statements=3)
            ok, _ = brute_consistent(space, gamma)
            if not ok:
                continue
            pool = list(space.iter_outcomes())
            rng.shuffle(pool)
            m = 3 + rng.randrange(min(4, len(pool) - 2))
            alts = AlternativeSet(space, pool[:m])
            sets = compute_sets(space, gamma, alts)
            drop = 1 + rng.randrange(m - 1)
            smaller = AlternativeSet(
                space, [o for i, o in enumerate(alts) if i != drop])
            smaller_sets = compute_sets(space, gamma, smaller)
            for i in sets.po:
                if i == drop:
                    continue
                j = i if i < drop else i - 1
                assert j in smaller_sets.po
            checked += 1


class TestComputeSetsMechanics:
    def test_inconsistent_set_rejected(self):
        gamma = [outcome_comparison(SP, FLIGHT_A, FLIGHT_B, strict=True),
                 outcome_comparison(SP, FLIGHT_B, FLIGHT_A, strict=True)]
        with pytest.raises(InconsistentError):
            compute_sets(SP, gamma, flight_alts())

    def test_timed_variant_reports_all_classes(self):
        _, times = compute_sets_timed(SP, flight_gamma(), flight_alts())
        assert set(times) == {"po", "pso", "csd", "no"}
        assert all(t >= 0 for t in times.values())

    def test_class_invariants_enforced(self):
        with pytest.raises(ValueError):
            OptimalSets(po=frozenset({0}), pso=frozenset({0, 1}),
                        csd=frozenset({0, 1}), no=frozenset(),
                        eq_classes=((0,), (1,)))


# (n, g, domain_max, rep, class with members outside PSO)
CHAIN_CASES = [(n, g, 3, 0, None) for n in (10, 20) for g in (10, 50, 100)
               ] + [(20, 5, 3, 3, "po"), (10, 10, 4, 6, "csd")]


def chain_instance(n, g, domain_max, rep):
    gen = gen_instance(GenConfig(n=n, g=g, m=12, domain_max=domain_max,
                                 seed=derive_seed(331, n, g, rep)))
    return gen.space, gen.gamma, gen.alternatives


class TestChainAgainstDirectDefinitions:
    # beyond the oracle's reach: the chain shortcuts of compute_sets must
    # match each class's own membership test on every alternative.  The
    # desk grid (n, g) gives PO = PSO = CSD, so two more instances add
    # classes outside PSO that lie in PO, and in CSD.
    @pytest.mark.parametrize("n,g,domain_max,rep,beyond_pso", CHAIN_CASES)
    def test_generated_instance(self, n, g, domain_max, rep, beyond_pso):
        space, gamma, alts = chain_instance(n, g, domain_max, rep)
        got = compute_sets(space, gamma, alts)
        for name, member in (("po", po_membership), ("pso", pso_membership),
                             ("csd", csd_membership), ("no", no_membership)):
            want = frozenset(i for i, alpha in enumerate(alts)
                             if member(space, gamma, alts, alpha))
            assert getattr(got, name) == want, name
        if beyond_pso:
            assert getattr(got, beyond_pso) > got.pso

    def test_cases_cover_both_pso_shapes(self):
        # NO is read off PSO, so the cases above must include a lone PSO
        # class (NO = PSO) and several PSO classes (NO empty)
        shapes = set()
        for n, g, domain_max, rep, _ in CHAIN_CASES:
            sets = compute_sets(*chain_instance(n, g, domain_max, rep))
            pso_classes = sum(1 for cls in sets.eq_classes
                              if cls[0] in sets.pso)
            shapes.add((pso_classes == 1, bool(sets.no)))
        assert {(True, True), (False, False)} <= shapes
