"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import time
from contextlib import contextmanager

from helpers import (FLIGHT_A, FLIGHT_B, FLIGHT_D, FLIGHT_G, FLIGHT_SPACE,
                     all_two_three_spaces, random_gamma, random_model,
                     random_statement, small_space)
from lexpref import (AlternativeSet, GenConfig, LexModel, TotalValueOrder,
                     brute_consistent, brute_maximal_models,
                     brute_optimal_sets, build_maximal_star_model, compose,
                     compute_sets, consistent, entails, enumerate_models,
                     extends_or_equals, gen_instance, lex_compare, Cmp,
                     outcome_comparison, satisfies, satisfies_star,
                     statement_consistent, valid_extension)
from lexpref.cli import main
from lexpref.kernel import EncodedGamma
from lexpref.rng import SplitMix64, derive_seed

GRID_SEED = 20260808


@contextmanager
def criterion(num: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] {name}: FAIL "
              f"({time.perf_counter() - start:.1f}s)")
        raise
    print(f"\n[criterion {num}] {name}: PASS "
          f"({time.perf_counter() - start:.1f}s)")


def flight_gamma():
    sp = FLIGHT_SPACE
    return [outcome_comparison(sp, FLIGHT_A, FLIGHT_B, strict=True, label="s1"),
            outcome_comparison(sp, FLIGHT_B, FLIGHT_G, strict=False, label="s2")]


def test_criterion_1_flight_example():
    with criterion(1, "flight example verdicts"):
        sp = FLIGHT_SPACE
        gamma = flight_gamma()

        def verdicts():
            res = consistent(sp, gamma)
            e1 = entails(sp, gamma, ">", FLIGHT_G, FLIGHT_D)
            e2 = entails(sp, gamma, ">=", FLIGHT_A, FLIGHT_B)
            return res, e1, e2

        verdicts()                      # warm path once, untimed
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            res, entails_gd, entails_ab = verdicts()
            best = min(best, time.perf_counter() - start)

        assert res.consistent
        assert entails_gd
        assert entails_ab
        first = res.witness.stages[0]
        assert first.variable == "airline"
        assert first.ranking_names() == ("KLM", "LAN")

        exhibited = sp.model([("airline", ["KLM", "LAN"]),
                              ("time", ["day", "night"]),
                              ("class", ["business", "economy"])])
        assert all(satisfies(exhibited, st) for st in gamma)
        _, sats = brute_consistent(sp, gamma)
        assert exhibited in brute_maximal_models(sp, sats)

        assert best < 0.010, f"verdicts took {best * 1000:.2f} ms"


def test_criterion_2_consistency_matches_brute_force():
    with criterion(2, "consistency agrees with brute force on 2000+ sweeps"):
        start = time.perf_counter()
        rng = SplitMix64(derive_seed(GRID_SEED, 2))
        spaces = all_two_three_spaces()
        per_space = 170
        total = inconsistent_seen = 0
        for space in spaces:
            models = list(enumerate_models(space))
            for trial in range(per_space):
                if trial % 10 == 0 and space.n >= 2:
                    # plant a strict two-cycle so inconsistent sets are
                    # guaranteed to appear (total size stays within 4)
                    gamma = random_gamma(rng, space, max_statements=2)
                    pool = list(space.iter_outcomes())
                    a = pool[rng.randrange(len(pool))]
                    b = pool[rng.randrange(len(pool))]
                    gamma = gamma + [
                        outcome_comparison(space, a, b, strict=True),
                        outcome_comparison(space, b, a, strict=True)]
                else:
                    gamma = random_gamma(rng, space, max_statements=4)
                want, _ = brute_consistent(space, gamma, models=models)
                got = consistent(space, gamma)
                assert got.consistent == want, (space.variables, gamma)
                total += 1
                inconsistent_seen += not want
        assert total >= 2000
        assert inconsistent_seen >= 200          # both verdicts well covered
        assert total - inconsistent_seen >= 200
        elapsed = time.perf_counter() - start
        assert elapsed <= 120, f"sweep took {elapsed:.0f}s"


def test_criterion_3_optimality_matches_brute_force():
    with criterion(3, "optimal sets agree with brute force on 500+ instances"):
        start = time.perf_counter()
        rng = SplitMix64(derive_seed(GRID_SEED, 3))
        checked = 0
        while checked < 500:
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
            # the three collapsed classes coincide at oracle level too
            assert want.pso == want.mpo == want.pom
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed <= 120, f"sweep took {elapsed:.0f}s"


def test_criterion_4_desk_scale_reproduction(monkeypatch):
    # every kernel run and its elementary tests, over the whole grid
    counts = {"runs": 0, "tests": 0}
    run = EncodedGamma.run

    def counting_run(self, *args):
        result = run(self, *args)
        counts["runs"] += 1
        counts["tests"] += result[6]
        return result

    monkeypatch.setattr(EncodedGamma, "run", counting_run)
    with criterion(4, "desk-scale benchmark reproduction"):
        start = time.perf_counter()
        grid = (10, 50, 100)
        means = {}
        po_eq_pso = total = 0
        for n in grid:
            for g in grid:
                sizes = []
                for rep in range(10):
                    gen = gen_instance(GenConfig(
                        n=n, g=g, m=100, seed=derive_seed(GRID_SEED, n, g, rep)))
                    sets = compute_sets(gen.space, gen.gamma, gen.alternatives)
                    # hard inclusion chain on every instance
                    assert sets.no <= sets.pso
                    assert sets.pso <= sets.csd & sets.po
                    total += 1
                    po_eq_pso += sets.po == sets.pso
                    sizes.append((len(sets.no), len(sets.csd)))
                means[(n, g)] = (sum(s[0] for s in sizes) / len(sizes),
                                 sum(s[1] for s in sizes) / len(sizes))
        rate = po_eq_pso / total
        print(f"  possibly-optimal == strictly-possibly-optimal in "
              f"{po_eq_pso}/{total} instances ({rate:.1%})")
        assert rate >= 0.95
        for g in grid:
            csd_means = [means[(n, g)][1] for n in grid]
            no_means = [means[(n, g)][0] for n in grid]
            assert csd_means == sorted(csd_means), \
                f"undominated-set trend broken at g={g}: {csd_means}"
            assert no_means == sorted(no_means, reverse=True), \
                f"necessary-set trend broken at g={g}: {no_means}"
        elapsed = time.perf_counter() - start
        assert elapsed <= 300, f"grid took {elapsed:.0f}s"
        print(f"  {counts['runs']} kernel runs, {counts['tests']} tests")
        # deterministic, since generation is a pinned splitmix64 stream; a
        # change that lowers either count updates it here (14,934 runs and
        # 7,339,046 tests before CSD was skipped when NO is non-empty)
        assert counts == {"runs": 13_736, "tests": 7_156_161}


def test_criterion_5_scaling_envelope():
    with criterion(5, "n=200 g=1000 consistency under 1s, test count bounded"):
        n, g = 200, 1000
        for rep in range(3):
            gen = gen_instance(GenConfig(
                n=n, g=g, m=1, seed=derive_seed(GRID_SEED, 5, rep)))
            start = time.perf_counter()
            res = consistent(gen.space, gen.gamma)
            elapsed = time.perf_counter() - start
            assert res.consistent
            assert elapsed < 1.0, f"consistency took {elapsed:.2f}s"
            assert res.test_count <= 4 * n * n * g, res.test_count
            print(f"  rep {rep}: {elapsed * 1000:.0f} ms, "
                  f"{res.test_count} satisfaction tests "
                  f"(bound {4 * n * n * g})")


def _random_outcome(rng, space):
    return space.outcome_from_indices(
        tuple(rng.randrange(space.domain_size(i)) for i in range(space.n)))


def test_criterion_6_algebraic_property_suite():
    with criterion(6, "10^4 randomized checks per algebraic property"):
        rounds = 10_000

        rng = SplitMix64(derive_seed(GRID_SEED, 6, 1))
        for _ in range(rounds):     # composition is associative
            space = small_space(rng)
            p1, p2, p3 = (random_model(rng, space) for _ in range(3))
            assert compose(compose(p1, p2), p3) == compose(p1, compose(p2, p3))

        rng = SplitMix64(derive_seed(GRID_SEED, 6, 2))
        for _ in range(rounds):     # extension <=> composition fixpoint
            space = small_space(rng)
            a, b = random_model(rng, space), random_model(rng, space)
            assert extends_or_equals(b, a) == (compose(a, b) == b)

        rng = SplitMix64(derive_seed(GRID_SEED, 6, 3))
        for _ in range(rounds):     # extension refines ties, keeps wins
            space = small_space(rng)
            base = random_model(rng, space)
            ext = compose(base, random_model(rng, space))
            x, y = _random_outcome(rng, space), _random_outcome(rng, space)
            if lex_compare(base, x, y) is Cmp.BETTER:
                assert lex_compare(ext, x, y) is Cmp.BETTER
            if lex_compare(ext, x, y) is not Cmp.WORSE:
                assert lex_compare(base, x, y) is not Cmp.WORSE

        rng = SplitMix64(derive_seed(GRID_SEED, 6, 4))
        for _ in range(rounds):     # composition preserves agreement
            space = small_space(rng)
            p1, p2 = random_model(rng, space), random_model(rng, space)
            x, y = _random_outcome(rng, space), _random_outcome(rng, space)
            c1, c2 = lex_compare(p1, x, y), lex_compare(p2, x, y)
            both = lex_compare(compose(p1, p2), x, y)
            if c1 is not Cmp.WORSE and c2 is not Cmp.WORSE:
                assert both is not Cmp.WORSE
            if c1 is not Cmp.WORSE and c2 is Cmp.BETTER:
                assert both is Cmp.BETTER
                assert lex_compare(compose(p2, p1), x, y) is Cmp.BETTER
            if c1 is Cmp.EQUIVALENT:
                assert both is c2

        rng = SplitMix64(derive_seed(GRID_SEED, 6, 5))
        witnessed = 0
        for _ in range(rounds):     # star-satisfier composes with satisfier
            space = small_space(rng)
            st = random_statement(rng, space)
            if not statement_consistent(st):
                continue
            p1, p2 = random_model(rng, space), random_model(rng, space)
            if satisfies_star(p1, st) and satisfies(p2, st):
                witnessed += 1
                assert satisfies(compose(p1, p2), st)
        assert witnessed >= rounds // 20

        rng = SplitMix64(derive_seed(GRID_SEED, 6, 6))
        done = 0
        while done < rounds:        # valid-extension round trip
            space = small_space(rng)
            gamma = [st for st in random_gamma(rng, space, max_statements=3)
                     if statement_consistent(st)]
            if not gamma:
                continue
            pi = build_maximal_star_model(space, gamma)
            prefix = LexModel(space,
                              pi.stages[:rng.randrange(len(pi.stages) + 1)])
            free = [v for v in space.variables
                    if not prefix.vmask & (1 << space.var_index(v))]
            if not free:
                continue
            x = free[rng.randrange(len(free))]
            order = valid_extension(space, gamma, prefix, x)
            xi = space.var_index(x)
            feasible = [
                perm
                for perm in itertools.permutations(range(space.domain_size(xi)))
                if all(satisfies_star(
                    compose(prefix,
                            LexModel(space, (TotalValueOrder(space, xi, perm),))),
                    st) for st in gamma)]
            if order is None:
                assert feasible == []
            else:
                assert order.ranking in feasible
            done += 1


def test_criterion_7_bench_determinism(tmp_path):
    with criterion(7, "benchmark output is reproducible"):
        args = ["bench", "--vars", "8,12", "--stmts", "10", "--alts", "20",
                "--reps", "2", "--seed", "1234"]

        frozen = []
        for name in ("f1.csv", "f2.csv"):
            out = tmp_path / name
            assert main(args + ["--no-timings", "-o", str(out)]) == 0
            frozen.append(out.read_bytes())
        assert frozen[0] == frozen[1]       # byte-identical CSV

        timed = []
        for name in ("t1.csv", "t2.csv"):
            out = tmp_path / name
            assert main(args + ["-o", str(out)]) == 0
            timed.append(out.read_text())
        # measured wall times vary; every other column must be identical
        for row_a, row_b in zip(timed[0].splitlines(), timed[1].splitlines()):
            assert row_a.split(",")[:8] == row_b.split(",")[:8]
        assert len(timed[0].splitlines()) == len(timed[1].splitlines()) == 5
