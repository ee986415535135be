"""Backend selection and the kernel on wider domains."""

from helpers import random_gamma
from lexpref import VariableSpace, brute_consistent, consistent, satisfies
from lexpref import kernel
from lexpref.kernel import HAS_NUMBA, backend_name
from lexpref.rng import SplitMix64


class TestBackendSelection:
    def test_auto_prefers_numba_when_available(self):
        assert backend_name() == ("numba" if HAS_NUMBA else "numpy")

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
