"""Consistency, inference and optimal-set computation for lexicographic
preference statements.

Decide whether a set of comparative preference statements admits a
lexicographic model, answer entailment queries by reduction to
consistency, and compute the possibly / strictly possibly / undominated /
necessarily optimal subsets of a finite alternative set.  A brute-force
oracle, a seeded instance generator and a benchmark harness round out the
toolbox.
"""

__version__ = "0.1.0"

from .core import (Cmp, LexModel, Outcome, PartialAssignment, TotalValueOrder,
                   VariableSpace, compose, extends, extends_or_equals,
                   lex_compare, project)
from .engine import (ConsistencyResult, EncodedGamma, FailureReason,
                     StatementFailure, build_maximal_star_model, consistent,
                     entails, entails_general, entails_max, negation_of,
                     v_gamma, valid_extension)
from .errors import (CapExceededError, InconsistentError, LexPrefError,
                     ParseError, UnsupportedQueryError)
from .generator import GenConfig, GeneratedInstance, gen_instance
from .instance import (Instance, format_instance, parse_instance, parse_query)
from .optimality import (AlternativeSet, OptimalSets, compute_sets,
                         compute_sets_timed, csd_membership,
                         equivalence_classes, no_membership,
                         optimal_in_model, po_membership, pso_membership)
from .oracle import (BruteOptimalSets, brute_consistent, brute_entails,
                     brute_maximal_models, brute_optimal_sets,
                     enumerate_models, model_count)
from .statements import (OutcomePair, PrefStatement, StatementKind,
                         canonicalize, inner_statement, negate_non_strict,
                         outcome_comparison, pairs, projection, satisfies,
                         satisfies_star, statement_consistent)

__all__ = [name for name in dir() if not name.startswith("_")]
