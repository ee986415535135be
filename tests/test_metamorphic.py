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
"""

import pytest

from lexpref import GenConfig, Instance, format_instance, gen_instance
from lexpref.engine import consistent, negation_of
from lexpref.errors import UnsupportedQueryError
from lexpref.instance import format_statement, parse_instance
from lexpref.optimality import compute_sets
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


CASES = ([pytest.param((n, g, False), id=f"n{n}-g{g}") for n, g in SIZES]
         + [pytest.param((50, 50, True), id="n50-g50-contradicted")])


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


@pytest.fixture(scope="module", params=CASES)
def case(request):
    text = _instance_text(*request.param)
    answers = _answers(text)
    assert answers["consistent"] != request.param[2]
    return text, answers


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


def test_a_long_run_cell_decides_real_answers():
    # in (100, 150) the certificates decide real answers: PO, PSO and CSD
    # are proper subsets of the alternatives, and CSD reaches beyond PSO
    got = _answers(_instance_text(100, 150))
    everyone = {f"a{i}" for i in range(100)}
    assert got["pso"] == got["po"] < got["csd"] < everyone
