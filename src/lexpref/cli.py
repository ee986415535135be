"""Command-line interface.

Subcommands::

    check FILE [--json]            consistency verdict + witness model
    infer FILE --query "a > b"     entailment verdict
    optimal FILE --set all|po|pso|csd|no [--oracle]
    gen --vars N --stmts G --alts M --seed K -o FILE
    bench --vars LIST --stmts LIST --alts M --reps R --seed K -o CSV
    oracle FILE                    brute-force cross-check at small scale

Exit codes: 0 success / positive verdict, 1 inconsistent or negative
verdict, 2 usage error, 3 input error, 141 (128 + SIGPIPE) standard output
closed by its reader (``lexpref check FILE --json | head -1``).  Given
identical arguments and files, all output except measured timings is
byte-identical across runs; ``bench --no-timings`` zeroes the timing
columns for fully reproducible CSV files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from time import perf_counter

from . import __version__
from .engine import consistent, entails, entails_general, entails_max
from .errors import (InconsistentError, LexPrefError, ParseError,
                     UnsupportedQueryError)
from .generator import GenConfig, GeneratedInstance, gen_instance
from .instance import (Instance, format_instance, parse_instance, parse_query)
from .kernel import warm_up
from .optimality import compute_sets_timed
from .oracle import (MODEL_CAP_DEFAULT, brute_consistent, brute_optimal_sets,
                     model_count)
from .rng import derive_seed
from .statements import outcome_comparison

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_BROKEN_PIPE = 141

BENCH_HEADER = ("n,g,m,rep,NO,PO,PSO,CSD,"
                "t_check_ms,t_po_ms,t_pso_ms,t_csd_ms,t_no_ms")


def _load(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_instance(handle.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc


def _write_output(path: str, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when ``path`` is ``-``."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise LexPrefError(f"cannot write {path}: {exc.strerror}") from exc


def _witness_json(result) -> list[list]:
    return [[st.variable, list(st.ranking_names())]
            for st in result.witness.stages]


def cmd_check(args) -> int:
    instance = _load(args.file)
    result = consistent(instance.space, instance.statements)
    if args.json:
        payload = {
            "consistent": result.consistent,
            "witness": _witness_json(result),
            "variables": sorted(result.v_gamma) if result.v_gamma is not None
                         else None,
            "failures": [{"statement": f.label, "reason": f.reason.value}
                         for f in result.failures],
            "statement_count": len(instance.statements),
            "test_count": result.test_count,
        }
        print(json.dumps(payload, indent=2))
    else:
        print("consistent" if result.consistent else "inconsistent")
        print(f"witness: {result.witness.format()}")
        if result.consistent:
            print("variables: "
                  + ", ".join(sorted(result.v_gamma,
                                     key=instance.space.var_index)))
        for f in result.failures:
            print(f"failed: {f.label} ({f.reason.value})")
    return EXIT_OK if result.consistent else EXIT_NEGATIVE


def cmd_infer(args) -> int:
    instance = _load(args.file)
    query = parse_query(instance, args.query)
    space, gamma = instance.space, instance.statements
    if query[0] == "cmp" and query[1] == "==":
        if args.max_model:
            raise UnsupportedQueryError(
                "maximal-model inference does not support '=='")
        verdict = entails(space, gamma, *query[1:])
    else:
        if query[0] == "cmp":
            _, op, left, right = query
            st = outcome_comparison(space, left, right, strict=op == ">")
        else:
            _, st = query
        verdict = (entails_max if args.max_model
                   else entails_general)(space, gamma, st)
    if args.json:
        print(json.dumps({"query": args.query, "entailed": verdict,
                          "max_model": bool(args.max_model)}, indent=2))
    else:
        print("entailed" if verdict else "not entailed")
    return EXIT_OK if verdict else EXIT_NEGATIVE


_SET_NAMES = ("po", "pso", "csd", "no")


def cmd_optimal(args) -> int:
    instance = _load(args.file)
    alternatives = instance.alternatives
    if alternatives is None:
        raise ParseError("instance has no 'alts:' line")
    space, gamma = instance.space, instance.statements
    try:
        sets, _ = compute_sets_timed(space, gamma, alternatives)
    except InconsistentError:
        print("inconsistent", file=sys.stderr)
        return EXIT_NEGATIVE
    wanted = _SET_NAMES if args.set == "all" else (args.set,)
    names = instance.alt_names

    def render(indices) -> list[str]:
        return [names[i] for i in sorted(indices)]

    oracle_report = None
    if args.oracle:
        count = model_count(space)
        if count > args.oracle_cap:
            oracle_report = (f"oracle skipped: {count} models exceed "
                             f"cap {args.oracle_cap}")
        else:
            brute = brute_optimal_sets(space, gamma, alternatives,
                                       cap=args.oracle_cap)
            diffs = [name for name in _SET_NAMES
                     if getattr(sets, name) != getattr(brute, name)]
            oracle_report = ("oracle agrees" if not diffs
                             else "oracle DISAGREES on: " + ", ".join(diffs))
    if args.json:
        payload = {name: render(getattr(sets, name)) for name in wanted}
        payload["eq_classes"] = [[names[i] for i in cls]
                                 for cls in sets.eq_classes]
        if oracle_report is not None:
            payload["oracle"] = oracle_report
        print(json.dumps(payload, indent=2))
    else:
        for name in wanted:
            members = ", ".join(render(getattr(sets, name)))
            print(f"{name.upper()}: {{{members}}}")
        if oracle_report is not None:
            print(oracle_report)
    return EXIT_OK


def _instance_to_file(gen: GeneratedInstance, header: str) -> str:
    names = [f"a{i}" for i in range(len(gen.alternatives))]
    outcomes = dict(zip(names, gen.alternatives.outcomes))
    instance = Instance(space=gen.space, outcomes=outcomes,
                        statements=gen.gamma, alt_names=tuple(names))
    return format_instance(instance, header=header)


def cmd_gen(args) -> int:
    cfg = GenConfig(n=args.vars, g=args.stmts, m=args.alts, seed=args.seed,
                    domain_min=args.domain_min, domain_max=args.domain_max)
    gen = gen_instance(cfg)
    header = (f"generated instance: vars={cfg.n} stmts={cfg.g} "
              f"alts={cfg.m} seed={cfg.seed} "
              f"domains={cfg.domain_min}..{cfg.domain_max}")
    _write_output(args.output, _instance_to_file(gen, header))
    return EXIT_OK


def _parse_int_list(raw: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {raw!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("list entries must be positive")
    return values


def bench_rows(vars_list, stmts_list, alts, reps, seed, timings=True):
    """Benchmark rows in deterministic (n, g, rep) order.

    Each cell gets its own derived seed, so the produced instances do not
    depend on which other cells are requested.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    warm_up()
    rows = []
    for n in vars_list:
        for g in stmts_list:
            for rep in range(reps):
                cfg = GenConfig(n=n, g=g, m=alts,
                                seed=derive_seed(seed, n, g, rep))
                gen = gen_instance(cfg)
                start = perf_counter()
                result = consistent(gen.space, gen.gamma, verify=False)
                t_check = (perf_counter() - start) * 1000.0
                if not result.consistent:
                    raise RuntimeError("internal error: generated instance "
                                       "reported inconsistent")
                sets, times = compute_sets_timed(gen.space, gen.gamma,
                                                 gen.alternatives)
                def fmt(ms: float) -> str:
                    return f"{ms:.3f}" if timings else "0.000"
                rows.append(
                    f"{n},{g},{alts},{rep},{len(sets.no)},{len(sets.po)},"
                    f"{len(sets.pso)},{len(sets.csd)},{fmt(t_check)},"
                    f"{fmt(times['po'])},{fmt(times['pso'])},"
                    f"{fmt(times['csd'])},{fmt(times['no'])}")
    return rows


def cmd_bench(args) -> int:
    rows = bench_rows(args.vars, args.stmts, args.alts, args.reps, args.seed,
                      timings=not args.no_timings)
    _write_output(args.output, "\n".join([BENCH_HEADER] + rows) + "\n")
    return EXIT_OK


def cmd_oracle(args) -> int:
    instance = _load(args.file)
    space, gamma = instance.space, instance.statements
    count = model_count(space)
    if count > args.cap:
        print(f"oracle refused: {count} models exceed cap {args.cap}",
              file=sys.stderr)
        return EXIT_INPUT
    ok, models = brute_consistent(space, gamma, cap=args.cap)
    engine_result = consistent(space, gamma)
    report = {
        "models_total": count,
        "models_satisfying": len(models),
        "consistent": ok,
        "engine_agrees": ok == engine_result.consistent,
    }
    alternatives = instance.alternatives
    if ok and alternatives is not None:
        brute = brute_optimal_sets(space, gamma, alternatives, cap=args.cap)
        names = instance.alt_names
        for key in _SET_NAMES:
            report[key] = [names[i] for i in sorted(getattr(brute, key))]
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print("consistent" if ok else "inconsistent")
        print(f"models: {len(models)} of {count} satisfy")
        print("engine agrees" if report["engine_agrees"]
              else "engine DISAGREES")
        for key in _SET_NAMES:
            if key in report:
                print(f"{key.upper()}: {{{', '.join(report[key])}}}")
    if not report["engine_agrees"]:
        return EXIT_INPUT
    return EXIT_OK if ok else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexpref",
        description="consistency, inference and optimal sets for "
                    "lexicographic preference statements")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide consistency of an instance")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("infer", help="decide an entailment query")
    p.add_argument("file")
    p.add_argument("--query", required=True,
                   help="e.g. \"a > b\", \"a == b\", or statement syntax")
    p.add_argument("--max-model", action="store_true",
                   help="quantify over maximal models only")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("optimal", help="compute optimal subsets of the "
                                       "alternatives")
    p.add_argument("file")
    p.add_argument("--set", choices=("all",) + _SET_NAMES, default="all")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against brute-force enumeration")
    p.add_argument("--oracle-cap", type=int, default=MODEL_CAP_DEFAULT)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_optimal)

    p = sub.add_parser("gen", help="generate a random consistent instance")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--stmts", type=int, required=True)
    p.add_argument("--alts", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--domain-min", type=int, default=2)
    p.add_argument("--domain-max", type=int, default=3)
    p.add_argument("-o", "--output", required=True,
                   help="output file, or - for stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="benchmark harness over generated "
                                     "instances")
    p.add_argument("--vars", type=_parse_int_list, required=True,
                   help="comma-separated variable counts")
    p.add_argument("--stmts", type=_parse_int_list, required=True,
                   help="comma-separated statement counts")
    p.add_argument("--alts", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--no-timings", action="store_true",
                   help="zero the timing columns (byte-reproducible CSV)")
    p.add_argument("-o", "--output", required=True,
                   help="output CSV file, or - for stdout")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="brute-force cross-check (small "
                                      "instances only)")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=MODEL_CAP_DEFAULT)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: building it costs about a millisecond."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        status = args.func(args)
        sys.stdout.flush()    # a reader that left surfaces here, not at exit
    except (LexPrefError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that flush
        # write to the null device instead of raising a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return status


if __name__ == "__main__":
    sys.exit(main())
