"""Metamorphic relations at criterion-4 sizes, where the oracle cannot reach.

Each instance goes through its file text: ``format_instance``, then a
rewrite of the text that must not change the answers, then
``parse_instance``.  Every answer is compared by name, so the relations
hold whatever indices the rewritten file gives its variables, values and
statements:

* shuffled ``stmt`` lines keep the verdict, the witness, the failures,
  ``v_gamma``, all four optimal sets and the equivalence classes;
* shuffled ``var`` lines, or each domain's value list shuffled, keep all of
  these but the witness: the greedy then meets variables and values in
  another order and builds another maximal model, over the same variables
  (every maximal model has the same variable set).

On the consistent instances, two more:

* the ``alts:`` list shuffled keeps everything: the alternatives are
  renumbered, so the four sets and the classes are permuted with them;
* comparisons that :func:`lexpref.engine.entails` reports as entailed,
  added as statements, keep the verdict, the failures, ``v_gamma``, the
  four sets and the classes: the set keeps the same models.

The same instances, and criterion 5's three (n=200, g=1000) ones, also
replay the kernel's witness through :func:`lexpref.engine.valid_extension`,
the independent reference: each stage is the extension of the prefix
before it, and no variable outside the witness extends it.  On the
consistent ones, every optimality certificate (``top``, ``sole_top`` and
``beats``) is the one that :func:`lexpref.core.lex_compare` alone reads off
the models the membership tests recorded.
"""

from functools import cmp_to_key

import pytest

from helpers import stage_model
from lexpref import (Cmp, GenConfig, Instance, LexModel, Outcome,
                     StatementKind, format_instance, gen_instance, lex_compare,
                     outcome_comparison, satisfies)
from lexpref.core import index_mask
from lexpref.engine import (EncodedGamma, consistent, entails, negation_of,
                            valid_extension)
from lexpref.errors import UnsupportedQueryError
from lexpref.instance import format_statement, parse_instance
from lexpref.optimality import _MembershipRun, compute_sets
from lexpref.rng import SplitMix64, derive_seed

SEED = 20261018
# (n, g), m = 100; (100, 10) has every alternative in PO, PSO and CSD,
# (100, 150) has the same long runs and leaves most of them out
SIZES = [(10, 100), (50, 50), (100, 100), (100, 10), (100, 150)]


def _contradiction(gamma):
    """The negation of the first statement in ``gamma`` that has one."""
    for st in gamma:
        try:
            return negation_of(st)
        except UnsupportedQueryError:
            continue
    raise AssertionError("no negatable statement to contradict")


def _instance_text(n, g, contradict=False):
    gen = gen_instance(GenConfig(n=n, g=g, m=100,
                                 seed=derive_seed(SEED, n, g)))
    names = tuple(f"a{i}" for i in range(len(gen.alternatives)))
    text = format_instance(Instance(
        space=gen.space, outcomes=dict(zip(names, gen.alternatives.outcomes)),
        statements=gen.gamma, alt_names=names))
    if contradict:
        text += f"stmt contra: {format_statement(_contradiction(gen.gamma))}\n"
    return text


CONSISTENT = [pytest.param((n, g, False), id=f"n{n}-g{g}") for n, g in SIZES]
CASES = CONSISTENT + [pytest.param((50, 50, True), id="n50-g50-contradicted")]


def _answers(text):
    """Everything the relations compare, by name."""
    instance = parse_instance(text)
    space, gamma = instance.space, instance.statements
    res = consistent(space, gamma)
    out = {
        "consistent": res.consistent,
        "witness": [(st.variable, st.ranking_names())
                    for st in res.witness.stages],
        "failures": sorted((f.label, f.reason.value) for f in res.failures),
        "v_gamma": res.v_gamma,
    }
    if res.consistent:
        sets = compute_sets(space, gamma, instance.alternatives)
        names = instance.alt_names
        for key in ("po", "pso", "csd", "no"):
            out[key] = {names[i] for i in getattr(sets, key)}
        out["eq_classes"] = sorted(sorted(names[i] for i in cls)
                                   for cls in sets.eq_classes)
    return out


def _shuffle_lines(text, rng, prefix):
    """The lines starting with ``prefix`` permuted among their places."""
    lines = text.splitlines()
    at = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    moved = [lines[at[k]] for k in rng.permutation(len(at))]
    for i, line in zip(at, moved):
        lines[i] = line
    return "\n".join(lines) + "\n"


def _shuffle_domains(text, rng):
    """Each ``var NAME: v1, v2, ...`` line with its values permuted."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("var "):
            head, values = line.split(": ")
            values = values.split(", ")
            lines[i] = head + ": " + ", ".join(
                values[k] for k in rng.permutation(len(values)))
    return "\n".join(lines) + "\n"


def _shuffle_alternatives(text, rng):
    """The ``alts:`` line with its names permuted."""
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("alts: "))
    names = lines[i][len("alts: "):].split(", ")
    lines[i] = "alts: " + ", ".join(names[k]
                                    for k in rng.permutation(len(names)))
    return "\n".join(lines) + "\n"


def _entailed_comparisons(text, count):
    """``count`` comparisons that ``entails`` reports as entailed, each an
    outcome pair of one of the set's first statements: one alternative
    with the statement's left side written over it, and with its right
    side, so the two agree on the statement's held variables."""
    instance = parse_instance(text)
    space, gamma = instance.space, instance.statements
    alts = instance.alternatives
    out = []
    for k, st in enumerate(gamma):
        if st.kind is StatementKind.NEGATED_NON_STRICT:
            continue
        base = alts[k % len(alts)].values
        left, right = list(base), list(base)
        for x, v in {**st.u.vals, **st.r.vals}.items():
            left[x] = v
        for x, v in {**st.u.vals, **st.s.vals}.items():
            right[x] = v
        left, right = Outcome(space, left), Outcome(space, right)
        if left == right:
            continue
        op = next(op for op in (">", ">=")
                  if entails(space, gamma, op, left, right))
        out.append(outcome_comparison(space, left, right, strict=op == ">"))
        if len(out) == count:
            return out
    raise AssertionError("too few statements to instantiate")


def _case(param):
    text = _instance_text(*param)
    answers = _answers(text)
    assert answers["consistent"] != param[2]
    return text, answers


@pytest.fixture(scope="module", params=CASES)
def case(request):
    return _case(request.param)


@pytest.fixture(scope="module", params=CONSISTENT)
def consistent_case(request):
    return _case(request.param)


def test_statement_order_changes_nothing(case):
    text, want = case
    rng = SplitMix64(SEED + 1)
    shuffled = _shuffle_lines(text, rng, "stmt ")
    assert shuffled != text
    assert _answers(shuffled) == want


@pytest.mark.parametrize("rewrite", [
    pytest.param(lambda text, rng: _shuffle_lines(text, rng, "var "),
                 id="var-lines"),
    pytest.param(_shuffle_domains, id="domain-values"),
])
def test_variable_and_value_order_change_all_but_the_witness(case, rewrite):
    text, want = case
    shuffled = rewrite(text, SplitMix64(SEED + 2))
    assert shuffled != text
    got = _answers(shuffled)
    assert {k: v for k, v in got.items() if k != "witness"} == {
        k: v for k, v in want.items() if k != "witness"}


def test_alternative_order_permutes_the_sets(consistent_case):
    text, want = consistent_case
    shuffled = _shuffle_alternatives(text, SplitMix64(SEED + 3))
    assert shuffled != text
    assert _answers(shuffled) == want


def test_entailed_comparisons_change_no_set(consistent_case):
    text, want = consistent_case
    added = _entailed_comparisons(text, 3)
    got = _answers(text + "".join(f"stmt entailed{k}: {format_statement(st)}\n"
                                  for k, st in enumerate(added)))
    assert {k: v for k, v in got.items() if k != "witness"} == {
        k: v for k, v in want.items() if k != "witness"}


def test_a_long_run_cell_decides_real_answers():
    # in (100, 150) the certificates decide real answers: PO, PSO and CSD
    # are proper subsets of the alternatives, and CSD reaches beyond PSO
    got = _answers(_instance_text(100, 150))
    everyone = {f"a{i}" for i in range(100)}
    assert got["pso"] == got["po"] < got["csd"] < everyone


def _assert_replays(space, gamma):
    """The witness replayed stage by stage, then checked for maximality."""
    witness = consistent(space, gamma, verify=False).witness
    prefix = LexModel(space)
    for stage in witness.stages:
        assert valid_extension(space, gamma, prefix, stage.variable) == stage
        prefix = LexModel(space, prefix.stages + (stage,))
    outside = [x for x in space.variables if x not in witness.variables]
    assert [valid_extension(space, gamma, witness, x) for x in outside] == [
        None] * len(outside)


def test_witness_replays_and_is_maximal(case):
    text, _ = case
    instance = parse_instance(text)
    _assert_replays(instance.space, instance.statements)


@pytest.mark.parametrize("rep", [0, 1, 2])
def test_criterion_5_witness_replays_and_is_maximal(rep):
    # the instances of tests/test_acceptance.py's criterion 5
    gen = gen_instance(GenConfig(n=200, g=1000, m=1,
                                 seed=derive_seed(20260808, 5, rep)))
    _assert_replays(gen.space, gen.gamma)


_ORDER = {Cmp.BETTER: -1, Cmp.EQUIVALENT: 0, Cmp.WORSE: 1}


def _certificates_by_lex_compare(models, reps):
    """``(top, sole_top, beats)`` over ``reps`` as the models rank them,
    each ranking sorted and tied by lex_compare alone."""
    k = len(reps)
    top = sole_top = 0
    beats = [0] * k
    for model in models:
        def cmp(p, q):
            return _ORDER[lex_compare(model, reps[p], reps[q])]
        groups = []
        for p in sorted(range(k), key=cmp_to_key(cmp)):
            if groups and cmp(groups[-1][0], p) == 0:
                groups[-1].append(p)
            else:
                groups.append([p])
        below = 0
        for group in reversed(groups):
            for p in group:
                beats[p] |= below
            below |= index_mask(group)
        top |= index_mask(groups[0])
        if len(groups[0]) == 1:
            sole_top |= 1 << groups[0][0]
    return top, sole_top, beats


@pytest.mark.parametrize("n, g", SIZES)
def test_certificates_match_lex_compare(n, g, monkeypatch):
    # every membership test on every representative, each model a kernel
    # run returns recorded; the certificates must be exactly what those
    # models (each a model of the set) give under lex_compare
    instance = parse_instance(_instance_text(n, g))
    space, gamma = instance.space, instance.statements
    alts = instance.alternatives
    models = []
    original = EncodedGamma.run

    def recording(self, *args):
        result = original(self, *args)
        ok, stages, *_ = result
        if ok:
            models.append(stage_model(space, stages))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(EncodedGamma, "run", recording)
        run = _MembershipRun(space, gamma, alts)
        for test in (run.po_rep, run.pso_rep, run.csd_rep, run.no_rep):
            for p in range(len(run.reps)):
                test(p)
    assert len(models) > 1
    for model in models:
        assert all(satisfies(model, st) for st in gamma)
    reps = [alts[i] for i in run.reps]
    assert (run.top, run.sole_top, run.beats) == \
        _certificates_by_lex_compare(models, reps)
