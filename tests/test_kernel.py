"""Backend selection and cross-backend agreement on larger inputs."""

import pytest

from helpers import BACKENDS, random_gamma
from lexpref import VariableSpace, brute_consistent, consistent, satisfies
from lexpref.kernel import HAS_NUMBA, backend_name, get_kernel
from lexpref.rng import SplitMix64


class TestBackendSelection:
    def test_auto_prefers_numba_when_available(self):
        assert backend_name("auto") == ("numba" if HAS_NUMBA else "numpy")

    def test_env_var_is_honoured(self, monkeypatch):
        monkeypatch.setenv("LEXPREF_KERNEL", "numpy")
        assert backend_name() == "numpy"
        monkeypatch.setenv("LEXPREF_KERNEL", "auto")
        assert backend_name() == ("numba" if HAS_NUMBA else "numpy")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            backend_name("fortran")

    def test_backends_are_distinct_callables(self):
        if not HAS_NUMBA:
            pytest.skip("numba unavailable")
        assert get_kernel("numba") is not get_kernel("numpy")


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
            for backend in BACKENDS:
                res = consistent(space, gamma, kernel=backend)
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
