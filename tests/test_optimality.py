"""Optimality classes against the brute-force reference."""

import pytest

from helpers import (FLIGHT_A, FLIGHT_B, FLIGHT_D, FLIGHT_G,
                     FLIGHT_SPACE, random_gamma, small_space, stage_model)
from lexpref import (AlternativeSet, Cmp, InconsistentError, LexModel,
                     OptimalSets, Outcome, StatementKind, VariableSpace,
                     brute_consistent, brute_optimal_sets, canonicalize,
                     compose, compute_sets, compute_sets_timed, consistent,
                     csd_membership, entails, enumerate_models,
                     equivalence_classes, lex_compare, no_membership,
                     optimal_in_model, outcome_comparison, po_membership,
                     pso_membership, satisfies)
from lexpref.core import iter_bits
from lexpref.engine import EncodedGamma, consistent_with_comparisons
from lexpref.generator import GenConfig, gen_instance
from lexpref.optimality import _MembershipRun
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

    def test_outcome_over_another_space_rejected(self):
        # the same value tuples over another space name other alternatives
        a = VariableSpace(["x"], {"x": ["a", "b"]})
        b = VariableSpace(["y"], {"y": ["a", "b"]})
        alts = AlternativeSet(a, [Outcome(a, (0,)), Outcome(a, (1,))])
        with pytest.raises(ValueError, match="different space"):
            alts.index_of(Outcome(b, (1,)))
        with pytest.raises(ValueError, match="different space"):
            po_membership(a, [], alts, Outcome(b, (1,)))


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


class PlainTests:
    """Each class's membership test by kernel runs alone: one run per test,
    nothing remembered between tests, each comparison of a representative
    above a set of others run as outcome_comparison statements."""

    def __init__(self, space, gamma, alts):
        self.enc = EncodedGamma(space, gamma)
        self.eq_classes = equivalence_classes(space, gamma, alts)
        self.reps = [alts[cls[0]] for cls in self.eq_classes]

    def holds(self, p, rest, strict) -> bool:
        """Can the rep at p lie above each rep in the mask ``rest``?"""
        return not rest or consistent_with_comparisons(
            self.enc, [(self.reps[p], self.reps[q])
                       for q in iter_bits(rest)], strict)

    def above_rest(self, p, strict) -> bool:
        return self.holds(p, (1 << len(self.reps)) - 1 ^ 1 << p, strict)

    def beats(self, p, q) -> bool:
        return self.holds(p, 1 << q, strict=True)

    def member(self, name, p) -> bool:
        others = [q for q in range(len(self.reps)) if q != p]
        if name == "po":
            return self.above_rest(p, strict=False)
        if name == "pso":
            return self.above_rest(p, strict=True)
        if name == "csd":
            return all(self.beats(p, q) for q in others)
        return not any(self.beats(q, p) for q in others)

    def chain(self):
        """The classes walked in ``compute_sets``'s order: PO on every
        class, PSO on PO, CSD outside PSO, NO read off PSO."""
        every = range(len(self.reps))
        po = [p for p in every if self.member("po", p)]
        pso = [p for p in po if self.member("pso", p)]
        csd = pso + [p for p in every
                     if p not in pso and self.member("csd", p)]
        no = pso if len(pso) == 1 else []
        return {name: frozenset(i for p in held for i in self.eq_classes[p])
                for name, held in (("po", po), ("pso", pso), ("csd", csd),
                                   ("no", no))}


class TestChainAgainstDirectDefinitions:
    # beyond the oracle's reach: compute_sets, with its chain shortcuts and
    # certificates, must match each class's own membership test answered by
    # kernel runs alone, and so must the *_membership functions.  The desk
    # grid (n, g) gives PO = PSO = CSD, so two more instances add classes
    # outside PSO that lie in PO, and in CSD.
    @pytest.mark.parametrize("n,g,domain_max,rep,beyond_pso", CHAIN_CASES)
    def test_generated_instance(self, n, g, domain_max, rep, beyond_pso):
        space, gamma, alts = chain_instance(n, g, domain_max, rep)
        got = compute_sets(space, gamma, alts)
        plain = PlainTests(space, gamma, alts)
        assert got.eq_classes == plain.eq_classes
        for name, member in (("po", po_membership), ("pso", pso_membership),
                             ("csd", csd_membership), ("no", no_membership)):
            want = frozenset(i for p, cls in enumerate(plain.eq_classes)
                             if plain.member(name, p) for i in cls)
            assert getattr(got, name) == want, name
            assert want == frozenset(i for i, alpha in enumerate(alts)
                                     if member(space, gamma, alts, alpha)), name
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


def oracle_scale_instances(count):
    """Consistent random statement sets on 2-3 variables with 2-6
    alternatives, as in ``TestAgainstOracle``."""
    rng = SplitMix64(347)
    found = 0
    while found < count:
        space = small_space(rng)
        gamma = random_gamma(rng, space, max_statements=3)
        if not consistent(space, gamma, verify=False).consistent:
            continue
        pool = list(space.iter_outcomes())
        rng.shuffle(pool)
        m = 2 + rng.randrange(min(5, len(pool) - 1))
        yield space, gamma, AlternativeSet(space, pool[:m])
        found += 1


def long_run_instance():
    """One (n=100, g=10, m=100) instance of the desk-scale acceptance grid.

    Its models order all 100 variables, while the 100 representatives
    stand alone after a few stages, so every ranking stops mid-run.
    """
    gen = gen_instance(GenConfig(n=100, g=10, m=100,
                                 seed=derive_seed(20260808, 100, 10, 0)))
    return gen.space, gen.gamma, gen.alternatives


class TestCertificates:
    @pytest.mark.parametrize("source", ["chain", "oracle", "long-runs"])
    def test_every_certificate_is_sound(self, source, monkeypatch):
        if source == "chain":
            instances = [chain_instance(n, g, d, rep)
                         for n, g, d, rep, _ in CHAIN_CASES]
        elif source == "oracle":
            instances = oracle_scale_instances(200)
        else:
            instances = [long_run_instance()]
        # the long-run instance has some 10,000 certificates: the plain
        # runs check a seeded half of them there, and all of them elsewhere
        rng = SplitMix64(353)
        share = 2 if source == "long-runs" else 1

        def sampled() -> bool:
            return rng.randrange(share) == 0

        original = EncodedGamma.run
        for space, gamma, alts in instances:
            models = []

            def recording(self, *args, **kwargs):
                result = original(self, *args, **kwargs)
                ok, stages, *_ = result
                if ok:
                    models.append(stage_model(space, stages))
                return result

            with monkeypatch.context() as patch:
                patch.setattr(EncodedGamma, "run", recording)
                run = _MembershipRun(space, gamma, alts)
                seeded = (run.top, run.sole_top, list(run.beats))
                k = len(run.reps)
                for test in (run.po_rep, run.pso_rep, run.csd_rep, run.no_rep):
                    for p in range(k):
                        test(p)
            # the maximal model, then one model per successful kernel run
            assert models
            for model in models:
                assert all(satisfies(model, st) for st in gamma)
            reps = [alts[i] for i in run.reps]
            # each model's strict relation on the reps, read by lex_compare
            # alone: p is top when no rep is better than p
            better = [[[lex_compare(model, a, b) is Cmp.BETTER for b in reps]
                       for a in reps] for model in models]
            # exactly the maximal model's certificates before any test, and
            # exactly every model's after them all
            for (top_mask, sole_mask, beats), seen in (
                    (seeded, better[:1]),
                    ((run.top, run.sole_top, run.beats), better)):
                tops = [{p for p in range(k)
                         if not any(rel[q][p] for q in range(k))}
                        for rel in seen]
                assert [bool(top_mask >> p & 1) for p in range(k)] == [
                    any(p in top for top in tops) for p in range(k)]
                assert [bool(sole_mask >> p & 1) for p in range(k)] == [
                    any(top == {p} for top in tops) for p in range(k)]
                assert [[bool(beats[p] >> q & 1) for q in range(k)]
                        for p in range(k)] == [
                    [any(rel[p][q] for rel in seen) for q in range(k)]
                    for p in range(k)]
            # each certificate answers what a plain kernel run answers
            plain = PlainTests(space, gamma, alts)
            for p in range(k):
                if run.top >> p & 1 and sampled():
                    assert plain.above_rest(p, strict=False)
                if run.sole_top >> p & 1 and sampled():
                    assert plain.above_rest(p, strict=True)
                for q in range(k):
                    if run.beats[p] >> q & 1 and sampled():
                        assert plain.beats(p, q)

    def test_certificates_save_kernel_runs(self, monkeypatch):
        # compute_sets makes at most the runs of the plain chain on every
        # case, and strictly fewer in total; a pipeline that stops
        # consulting its certificates makes exactly as many
        calls = [0]
        original = EncodedGamma.run

        def counted(self, *args, **kwargs):
            calls[0] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(EncodedGamma, "run", counted)
        cached, plain = [], []
        for n, g, domain_max, rep, _ in CHAIN_CASES:
            space, gamma, alts = chain_instance(n, g, domain_max, rep)
            calls[0] = 0
            got = compute_sets(space, gamma, alts)
            cached.append(calls[0])
            calls[0] = 0
            want = PlainTests(space, gamma, alts).chain()
            plain.append(calls[0])
            assert {"po": got.po, "pso": got.pso, "csd": got.csd,
                    "no": got.no} == want
        assert all(c <= p for c, p in zip(cached, plain)), (cached, plain)
        assert sum(cached) < sum(plain), (cached, plain)


# One-variable spaces that differ only in their variable's name.
X_SPACE, Y_SPACE = (VariableSpace([v], {v: ["a", "b"]}) for v in "xy")
X_MODEL = X_SPACE.model([("x", ["b", "a"])])
Y_MODEL = Y_SPACE.model([("y", ["b", "a"])])
Y_ALTS = AlternativeSet(Y_SPACE, [Outcome(Y_SPACE, (0,)),
                                  Outcome(Y_SPACE, (1,))])
OTHER_ALTS = "alternatives built over a different space"


class TestRejectedArguments:
    """Each check that a call's arguments share one space, and the other
    argument checks of the model and optimality layers."""

    @pytest.mark.parametrize("call,message", [
        (lambda: LexModel(X_SPACE, [Y_SPACE.value_order("y", ["b", "a"])]),
         "stage built over a different space"),
        (lambda: lex_compare(X_MODEL, Y_ALTS[0], Y_ALTS[1]),
         "outcomes must live in the model's space"),
        (lambda: compose(X_MODEL, Y_MODEL), "models must share a space"),
        (lambda: canonicalize(X_SPACE, Y_SPACE.partial({"y": "a"}),
                              Y_SPACE.partial({"y": "b"}), [],
                              StatementKind.NON_STRICT),
         "sides built over a different space"),
        (lambda: EncodedGamma(X_SPACE, [outcome_comparison(
            Y_SPACE, Y_ALTS[0], Y_ALTS[1], strict=False)]),
         "statement built over a different space"),
        (lambda: AlternativeSet(X_SPACE, Y_ALTS),
         "alternative built over a different space"),
        (lambda: optimal_in_model(X_MODEL, Y_ALTS), OTHER_ALTS),
        (lambda: compute_sets(X_SPACE, [], Y_ALTS), OTHER_ALTS),
        (lambda: equivalence_classes(X_SPACE, [], Y_ALTS), OTHER_ALTS),
        (lambda: po_membership(X_SPACE, [], Y_ALTS, Y_ALTS[0]), OTHER_ALTS),
        (lambda: pso_membership(X_SPACE, [], Y_ALTS, Y_ALTS[0]), OTHER_ALTS),
        (lambda: csd_membership(X_SPACE, [], Y_ALTS, Y_ALTS[0]), OTHER_ALTS),
        (lambda: no_membership(X_SPACE, [], Y_ALTS, Y_ALTS[0]), OTHER_ALTS),
        (lambda: AlternativeSet(Y_SPACE, Y_ALTS[:1]).index_of(Y_ALTS[1]),
         "outcome is not one of the alternatives"),
        (lambda: entails(X_SPACE, [], "<", Outcome(X_SPACE, (0,)),
                         Outcome(X_SPACE, (1,))),
         "unknown comparison operator '<'"),
    ], ids=["LexModel", "lex_compare", "compose", "canonicalize",
            "EncodedGamma", "AlternativeSet", "optimal_in_model",
            "compute_sets", "equivalence_classes", "po_membership",
            "pso_membership", "csd_membership", "no_membership", "index_of",
            "entails"])
    def test_raises(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
