"""Planted-model instance generation: audit, determinism, mix."""

from collections import Counter

import pytest

from lexpref import (GenConfig, StatementKind, consistent, gen_instance,
                     satisfies)


def small_cfg(**overrides):
    base = dict(n=6, g=12, m=8, seed=42)
    base.update(overrides)
    return GenConfig(**base)


class TestPlantedModel:
    def test_hidden_model_satisfies_every_statement(self):
        for seed in range(10):
            gen = gen_instance(small_cfg(seed=seed))
            assert len(gen.hidden_model.stages) == gen.space.n
            for st in gen.gamma:
                assert satisfies(gen.hidden_model, st)

    def test_engine_confirms_consistency(self):
        for seed in (1, 2, 3, 4, 5):
            gen = gen_instance(small_cfg(seed=seed, n=10, g=30, m=5))
            res = consistent(gen.space, gen.gamma)
            assert res.consistent

    def test_single_statement_instance(self):
        gen = gen_instance(GenConfig(n=2, g=1, m=2, seed=9))
        assert consistent(gen.space, gen.gamma).consistent


class TestDeterminism:
    def test_identical_configs_give_identical_instances(self):
        cfg = small_cfg(seed=777)
        a = gen_instance(cfg)
        b = gen_instance(cfg)
        assert a.hidden_model == b.hidden_model
        assert len(a.gamma) == len(b.gamma)
        for s, t in zip(a.gamma, b.gamma):
            assert repr(s) == repr(t)
        assert [o.values for o in a.alternatives] == \
               [o.values for o in b.alternatives]

    def test_instances_share_their_name_strings(self):
        # instances kept side by side (a benchmark's set-up) hold one copy
        # of each variable and value name
        a = gen_instance(small_cfg(seed=1))
        b = gen_instance(small_cfg(seed=2))
        assert all(x is y for x, y in zip(a.space.variables,
                                          b.space.variables))
        values = [v for space in (a.space, b.space)
                  for domain in space.domains for v in domain]
        assert len({id(v) for v in values}) == len(set(values))

    def test_different_seeds_differ(self):
        a = gen_instance(small_cfg(seed=1))
        b = gen_instance(small_cfg(seed=2))
        assert (a.hidden_model != b.hidden_model
                or [repr(s) for s in a.gamma] != [repr(s) for s in b.gamma])


class TestShape:
    def test_kind_mix_within_one_of_equal_quarters(self):
        for g in (4, 10, 17, 40):
            gen = gen_instance(small_cfg(g=g))
            counts = Counter(st.kind for st in gen.gamma)
            lo, hi = g // 4, g // 4 + 1
            for kind in StatementKind:
                assert lo <= counts.get(kind, 0) <= hi

    def test_alternatives_distinct_and_counted(self):
        gen = gen_instance(small_cfg(m=20))
        assert len(gen.alternatives) == 20
        assert len({o.values for o in gen.alternatives}) == 20

    def test_domain_sizes_within_range(self):
        gen = gen_instance(GenConfig(n=15, g=5, m=3, seed=5,
                                     domain_min=2, domain_max=4))
        sizes = {gen.space.domain_size(i) for i in range(gen.space.n)}
        assert sizes <= {2, 3, 4}

    def test_dense_alternative_request_enumerates(self):
        # 2 binary variables, all 4 outcomes requested
        gen = gen_instance(GenConfig(n=2, g=2, m=4, seed=3,
                                     domain_min=2, domain_max=2))
        assert len(gen.alternatives) == 4


class TestValidation:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            GenConfig(n=0, g=1, m=1, seed=0)
        with pytest.raises(ValueError):
            GenConfig(n=1, g=0, m=1, seed=0)

    def test_rejects_bad_domain_range(self):
        with pytest.raises(ValueError):
            GenConfig(n=1, g=1, m=1, seed=0, domain_min=3, domain_max=2)
        with pytest.raises(ValueError):
            GenConfig(n=1, g=1, m=1, seed=0, domain_min=2, domain_max=10)

    def test_rejects_oversized_alternative_request(self):
        with pytest.raises(ValueError):
            gen_instance(GenConfig(n=2, g=1, m=5, seed=0,
                                   domain_min=2, domain_max=2))
