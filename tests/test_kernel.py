"""Backend selection, argument forms, unsatisfiable rows and the kernel on
wider domains."""

from helpers import (random_gamma, random_outcome, random_statement,
                     reference_encoding, small_space)
from lexpref import (StatementKind, VariableSpace, brute_consistent,
                     canonicalize, consistent, negate_non_strict, satisfies,
                     statement_consistent)
from lexpref import kernel
from lexpref.engine import _comparison_arrays, consistent_with_comparisons
from lexpref.kernel import HAS_NUMBA, EncodedGamma, backend_name
from lexpref.rng import SplitMix64


class TestBackendSelection:
    def test_auto_prefers_numba_when_available(self):
        assert backend_name() == ("numba" if HAS_NUMBA else "python")

    def test_warm_up_runs_the_kernel_once(self, monkeypatch):
        # the body only runs under numba; run it over the Python kernel
        results = []

        def spy(*args):
            results.append(kernel._greedy_impl(*args))
            return results[-1]

        monkeypatch.setattr(kernel, "HAS_NUMBA", True)
        monkeypatch.setattr(kernel, "greedy", spy)
        kernel.warm_up()
        assert len(results) == 1
        ok, nstages, stage_vars, *_ = results[0]
        assert (ok, nstages, stage_vars[0]) == (1, 1, 0)


class TestArgumentForms:
    def test_arrays_and_lists_run_alike(self):
        # one kernel source over the numpy arrays the compiled kernel takes
        # and over the lists the interpreter runs, on the instances of
        # test_backends_agree_exactly, with and without a comparison row;
        # a 2-D subscript or a list-only method breaks one of the two
        rng = SplitMix64(201)
        for _ in range(200):
            space = small_space(rng)
            arrays = reference_encoding(space, random_gamma(rng, space))
            lists = kernel._as_lists(arrays)
            row = (random_outcome(rng, space), random_outcome(rng, space),
                   rng.randrange(2) == 1)
            for rows in (((), (), ()), _comparison_arrays([row])):
                from_arrays = kernel._greedy_impl(
                    *arrays, *kernel._as_arrays(space.n, *rows))
                from_lists = kernel._greedy_impl(*lists, *rows)
                assert from_arrays == from_lists


class TestKernelRejectsUnsatisfiableRows:
    # consistent_with_comparisons screens nothing before the kernel runs,
    # so the kernel alone must reject each of these

    SPACE = VariableSpace(["x", "y"], {"x": ["a", "b"], "y": ["c", "d"]})

    def statement(self, p, q, held, kind):
        sp = self.SPACE
        return canonicalize(sp, sp.partial(p), sp.partial(q), held, kind)

    def test_each_unsatisfiable_kind_fails_its_own_code(self):
        cases = (
            # strict, but no variable in both difference blocks
            (self.statement({"x": "a"}, {}, [], StatementKind.FULLY_STRICT),
             2),
            # strict, but no difference variable at all
            (self.statement({"x": "a"}, {"x": "a"}, ["y"],
                            StatementKind.WEAKLY_STRICT), 3),
            # a negation with no difference or residual variable
            (negate_non_strict(self.statement(
                {"x": "a"}, {"x": "a"}, ["y"], StatementKind.NON_STRICT)),
             4),
        )
        for st, code in cases:
            assert not statement_consistent(st)
            enc = EncodedGamma(self.SPACE, [st])
            ok, _, _, _, fail, _, _ = enc.run()
            assert (ok, list(fail)) == (0, [code])
            assert not consistent_with_comparisons(enc, [])

    def test_unsatisfiable_statement_fails_among_others(self):
        rng = SplitMix64(307)
        done = 0
        while done < 300:
            space = small_space(rng)
            st = random_statement(rng, space)
            if statement_consistent(st):
                continue
            gamma = random_gamma(rng, space) + [st]
            ok, _, _, _, fail, _, _ = EncodedGamma(space, gamma).run()
            assert ok == 0
            assert fail[-1] in (2, 3, 4)
            done += 1

    def test_strict_row_between_equal_outcomes_fails(self):
        rng = SplitMix64(311)
        for _ in range(100):
            space = small_space(rng)
            enc = EncodedGamma(space, random_gamma(rng, space))
            o = random_outcome(rng, space)
            ok, _, _, _, _, xfail, _ = enc.run([o.values], [o.values], [True])
            assert (ok, list(xfail)) == (0, [2])
            assert not consistent_with_comparisons(enc, [(o, o, True)])


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
