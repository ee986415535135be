"""Exhaustive small-scope checks: every canonical statement of the {2,2}
space against the brute-force oracle.

Random sweeps sample the statement language; enumerating it on the
smallest space with two two-value variables (336 canonical statements,
13 models) checks each pairwise interaction once.  One model list is
shared by every oracle call.
"""

import itertools

from helpers import all_statements
from lexpref import (AlternativeSet, StatementKind, VariableSpace,
                     brute_consistent, brute_entails, brute_maximal_models,
                     brute_optimal_sets, compute_sets, consistent,
                     entails_general, entails_max, enumerate_models,
                     parse_instance, parse_query, satisfies)

SPACE = VariableSpace(["x", "y"], {"x": ["a", "b"], "y": ["c", "d"]})
STATEMENTS = all_statements(SPACE)
MODELS = list(enumerate_models(SPACE))


def test_counts():
    assert len(STATEMENTS) == 336 and len(MODELS) == 13
    assert sum(st.kind is StatementKind.NEGATED_NON_STRICT
               for st in STATEMENTS) == 36


def test_every_pair_matches_the_oracle():
    mismatches, pairs = [], 0
    for i, a in enumerate(STATEMENTS):
        for b in STATEMENTS[i:]:
            want, _ = brute_consistent(SPACE, [a, b], models=MODELS)
            if consistent(SPACE, [a, b]).consistent != want:
                mismatches.append((a, b))
            pairs += 1
    assert pairs == 56_616
    assert not mismatches, mismatches[:5]


OUTCOME_FILE = """\
var x: a, b
var y: c, d
outcome ac: x=a, y=c
outcome ad: x=a, y=d
outcome bc: x=b, y=c
outcome bd: x=b, y=d
"""


def test_every_outcome_query_matches_the_oracle():
    # Each comparison of two named outcomes is read as on a stmt line, so
    # '>>' reaches the engine as a fully strict statement; under every
    # premise set of at most one statement both readings of inference
    # must give the oracle's verdict.
    inst = parse_instance(OUTCOME_FILE)
    assert inst.space == SPACE
    queries = [parse_query(inst, f"{left} {op} {right}")
               for left in inst.outcomes for right in inst.outcomes
               for op in (">=", ">", ">>")]
    mismatches, checks = [], 0
    for gamma in [()] + [(st,) for st in STATEMENTS]:
        ok, sats = brute_consistent(SPACE, gamma, models=MODELS)
        maximal = brute_maximal_models(SPACE, sats)
        for query in queries:
            want = brute_entails(SPACE, gamma, query, models=MODELS)
            if entails_general(SPACE, gamma, query) != want:
                mismatches.append(("general", gamma, query))
            if ok and entails_max(SPACE, gamma, query) != all(
                    satisfies(pi, query) for pi in maximal):
                mismatches.append(("max", gamma, query))
            checks += 1
    assert checks == 16_176
    assert not mismatches, mismatches[:5]


def test_every_optimal_set_matches_the_oracle():
    # Every consistent premise set of at most one statement, against each
    # non-empty set of the four outcomes; the brute MPO and POM sets must
    # equal PSO there too.
    outcomes = list(parse_instance(OUTCOME_FILE).outcomes.values())
    alt_sets = [AlternativeSet(SPACE, combo) for k in range(1, 5)
                for combo in itertools.combinations(outcomes, k)]
    gammas = [gamma for gamma in [()] + [(st,) for st in STATEMENTS]
              if brute_consistent(SPACE, gamma, models=MODELS)[0]]
    assert len(gammas) == 248 and len(alt_sets) == 15
    mismatches = []
    for gamma in gammas:
        for alts in alt_sets:
            want = brute_optimal_sets(SPACE, gamma, alts, models=MODELS)
            got = compute_sets(SPACE, gamma, alts)
            if (any(getattr(got, name) != getattr(want, name)
                    for name in ("po", "pso", "csd", "no"))
                    or not want.mpo == want.pom == want.pso):
                mismatches.append((gamma, alts))
    assert not mismatches, mismatches[:5]
