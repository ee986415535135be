"""Comparison rows against statements, unsatisfiable rows and the kernel
on wider domains."""

import tracemalloc

import pytest

from helpers import (random_gamma, random_outcome, random_statement,
                     small_space)
from lexpref import (FailureReason, GenConfig, LexModel, StatementKind,
                     VariableSpace, brute_consistent, canonicalize,
                     consistent, gen_instance, negate_non_strict,
                     outcome_comparison, parse_instance, satisfies,
                     statement_consistent, valid_extension)
from lexpref.core import index_mask, iter_bits
from lexpref.engine import consistent_with_comparisons
from lexpref.kernel import EncodedGamma, value_masks
from lexpref.rng import SplitMix64, derive_seed


def _rest_cases(alts, rng, count):
    """``(left, rest)`` cases over the alternatives: ``count`` of them, each
    above all the others, above one seeded competitor, and above itself."""
    everyone = (1 << len(alts)) - 1
    out = []
    for _ in range(count):
        i = rng.randrange(len(alts))
        out.append((i, everyone ^ 1 << i))
        out.append((i, 1 << rng.randrange(len(alts))))
        out.append((i, 1 << i))
    return out


# the optimal-desk grid (m=20) and three criterion-4 cells (m=100), with
# the number of alternatives whose rows each cell checks
ROW_CELLS = [(n, g, 20, 5) for n in (10, 20) for g in (10, 50, 100)] + [
    (n, g, 100, 4) for n, g in ((10, 100), (50, 50), (100, 10))]


class TestRowsAreStatements:
    # one left outcome above a set of row outcomes must act exactly as the
    # outcome_comparison statements of left and each row outcome appended
    # to the set; the reference run goes through the statement tables
    # only, never through the row code

    @staticmethod
    def assert_rows_are_statements(space, gamma, left, outcomes, rest):
        enc = EncodedGamma(space, gamma)
        g = len(enc.statements)
        rows = value_masks(space, [o.values for o in outcomes])
        below = list(iter_bits(rest))
        for strict in (False, True):
            ok, stages, *unmet, live, _ = enc.run(
                rows, left.values, rest, strict)
            want = EncodedGamma(space, list(gamma) + [
                outcome_comparison(space, left, outcomes[q], strict)
                for q in below]).run()
            assert (ok, stages) == want[:2]
            # a row's statement is weakly strict or non-strict
            full, weak, neg = want[2:5]
            assert unmet == [full, weak & (1 << g) - 1, neg]
            # the undecided rows: those equal to left on every model
            # variable; when strict, exactly the rows never witnessed
            assert live == index_mask(
                q for q in below if all(outcomes[q].values[x]
                                        == left.values[x]
                                        for x, _ in stages))
            if strict:
                assert live == index_mask(
                    q for k, q in enumerate(below) if weak >> g + k & 1)

    def test_random_small_sets(self):
        # oracle-scale sets, inconsistent ones too, with up to four row
        # outcomes, a third of them equal to left, and any subset of them
        rng = SplitMix64(401)
        for _ in range(300):
            space = small_space(rng)
            gamma = random_gamma(rng, space)
            left = random_outcome(rng, space)
            outcomes = [left if rng.randrange(3) == 0
                        else random_outcome(rng, space)
                        for _ in range(rng.randrange(5))]
            rest = rng.randrange(1 << len(outcomes))
            self.assert_rows_are_statements(space, gamma, left, outcomes,
                                            rest)

    @pytest.mark.parametrize("n, g, m, count", ROW_CELLS)
    def test_generated_instances(self, n, g, m, count):
        gen = gen_instance(GenConfig(n=n, g=g, m=m,
                                     seed=derive_seed(20260808, n, g, 0)))
        rng = SplitMix64(derive_seed(409, n, g))
        alts = gen.alternatives
        for i, rest in _rest_cases(alts, rng, count):
            self.assert_rows_are_statements(gen.space, gen.gamma, alts[i],
                                            alts.outcomes, rest)


class TestKernelRejectsUnsatisfiableRows:
    # neither EncodedGamma nor the kernel's rows screen anything before the
    # kernel runs, so the kernel alone must reject each of these

    SPACE = VariableSpace(["x", "y"], {"x": ["a", "b"], "y": ["c", "d"]})

    def statement(self, p, q, held, kind):
        sp = self.SPACE
        return canonicalize(sp, sp.partial(p), sp.partial(q), held, kind)

    def test_each_unsatisfiable_kind_fails_its_own_code(self):
        cases = (
            # strict, but no variable in both difference blocks
            (self.statement({"x": "a"}, {}, [], StatementKind.FULLY_STRICT),
             (1, 0, 0)),
            # strict, but no difference variable at all
            (self.statement({"x": "a"}, {"x": "a"}, ["y"],
                            StatementKind.WEAKLY_STRICT), (0, 1, 0)),
            # a negation with no difference or residual variable
            (negate_non_strict(self.statement(
                {"x": "a"}, {"x": "a"}, ["y"], StatementKind.NON_STRICT)),
             (0, 0, 1)),
        )
        for st, unmet in cases:
            assert not statement_consistent(st)
            enc = EncodedGamma(self.SPACE, [st])
            result = enc.run()
            assert (result[0], result[2:5]) == (False, unmet)
            assert not consistent_with_comparisons(enc, [], False)

    def test_unsatisfiable_statement_fails_among_others(self):
        rng = SplitMix64(307)
        done = 0
        while done < 300:
            space = small_space(rng)
            st = random_statement(rng, space)
            if statement_consistent(st):
                continue
            gamma = random_gamma(rng, space) + [st]
            ok, _, *unmet, _, _ = EncodedGamma(space, gamma).run()
            assert ok is False
            assert (unmet[0] | unmet[1] | unmet[2]) >> len(gamma) - 1 == 1
            done += 1

    def test_strict_row_between_equal_outcomes_fails(self):
        rng = SplitMix64(311)
        for _ in range(100):
            space = small_space(rng)
            enc = EncodedGamma(space, random_gamma(rng, space))
            o = random_outcome(rng, space)
            result = enc.run(value_masks(space, [o.values]), o.values, 1,
                             True)
            assert (result[0], result[5]) == (False, 1)
            assert not consistent_with_comparisons(enc, [(o, o)], True)


class TestWiderDomains:
    def test_agreement_on_four_value_domains(self):
        # exercises the topological completion with more middle values
        rng = SplitMix64(281)
        space = VariableSpace(
            ["x", "y"], {"x": [f"a{i}" for i in range(4)],
                         "y": [f"b{i}" for i in range(4)]})
        for _ in range(80):
            gamma = random_gamma(rng, space, max_statements=4)
            want, _ = brute_consistent(space, gamma)
            res = consistent(space, gamma)
            assert res.consistent == want
            if want:
                assert all(satisfies(res.witness, st) for st in gamma)

    def test_one_value_domains_are_inert(self):
        space = VariableSpace(["x", "unit"],
                              {"x": ["a", "b"], "unit": ["only"]})
        rng = SplitMix64(291)
        for _ in range(40):
            gamma = random_gamma(rng, space, max_statements=3)
            want, _ = brute_consistent(space, gamma)
            res = consistent(space, gamma)
            assert res.consistent == want
            if want:
                # one-value variables still join the maximal model
                assert "unit" in res.v_gamma


class TestFourThousandValues:
    # one 4,000-value variable: a check must stay within a few MiB, which
    # a d x d value graph (some 120 MiB at this size) would not

    D = 4000
    HEAD = ("var x: " + ", ".join(f"v{i}" for i in range(D))
            + "\nvar y: a, b\n")

    @staticmethod
    def checked(text):
        """The parsed instance and its verified ``consistent`` result,
        whose traced allocation peak must stay under 8 MiB."""
        instance = parse_instance(text)
        tracemalloc.start()
        try:
            res = consistent(instance.space, instance.statements)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        return instance, res

    def test_x_appended(self):
        # x takes a pair, a pinned best v7 and a pinned worst v3998; y's
        # two pairs clash, so the strict statement on y is never witnessed
        d = self.D
        instance, res = self.checked(self.HEAD + f"""\
stmt s0: [x=v{d - 1}] > [x=v0] || {{y}}
stmt s1: [x=v7, y=a] >= [y=b] || {{}}
stmt s2: [y=b] >= [x=v{d - 2}, y=a] || {{}}
stmt s3: [y=a] > [y=b] || {{x}}
""")
        ranking = (7, *range(1, 7), *range(8, d - 2), d - 1, 0, d - 2)
        assert [(st.variable, st.ranking)
                for st in res.witness.stages] == [("x", ranking)]
        assert [(f.label, f.reason) for f in res.failures] == [
            ("s3", FailureReason.NEEDS_DIFFERENCE_STAGE)]
        assert (res.consistent, res.test_count) == (False, 20)
        # the reference completion ranks x the same way
        assert valid_extension(instance.space, instance.statements,
                               LexModel(instance.space),
                               "x") == res.witness.stages[0]

    def test_x_blocked(self):
        # x's two opposite pairs stay live, so x never enters the model and
        # the verifying check sends it through the reference completion
        _, res = self.checked(self.HEAD + """\
stmt s0: [x=v0] >= [x=v1] || {y}
stmt s1: [x=v1] >= [x=v0] || {y}
stmt s2: [y=a] > [y=b] || {x}
""")
        assert [(st.variable, st.ranking_names())
                for st in res.witness.stages] == [("y", ("a", "b"))]
        assert (res.consistent, res.failures, res.test_count) == (True, (), 17)


class TestResidualColumns:
    # wblk and kill against a bit-by-bit transpose of the statements'
    # residual blocks, across byte boundaries and with no statement at all

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 200])
    @pytest.mark.parametrize("g", [0, 1, 3, 1000])
    def test_masks_match_a_naive_transpose(self, n, g):
        gen = gen_instance(GenConfig(n=n, g=max(g, 1), m=1, seed=n * g + 7))
        gamma = gen.gamma[:g]
        enc = EncodedGamma(gen.space, gamma)
        neg = [st.kind is StatementKind.NEGATED_NON_STRICT for st in gamma]
        for x in range(n):
            w = [st.w_mask >> x & 1 for st in gamma]
            both = [st.rs_mask >> x & 1 for st in gamma]
            assert enc.wblk[x] == sum(
                1 << j for j in range(g) if w[j] and not neg[j])
            assert enc.kill[x] == sum(
                1 << j for j in range(g) if both[j] or w[j] and neg[j])
        if g == 1000 and n > 1:     # the residual masks are not all empty
            assert any(enc.wblk) and any(neg)
