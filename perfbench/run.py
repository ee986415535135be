#!/usr/bin/env python3
"""Layered benchmark of lexpref: end-to-end metrics, or per-layer ones.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload check-large --seed 1 --seconds 30 --trace 0

Each workload (see ``workloads.py`` and ``README.md``) is a closed loop with
one client in this process.  ``--trace 0`` times ops untraced and reports
the end-to-end metrics; ``--trace 1`` alternates an untraced and a traced
pass over the same first ops and reports the per-layer metrics.  The last
line of standard output is the result object; the line before it is a
report with the environment, the output digest and the failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs this many times before the timed loop and again after it, so
# its median draws on two moments of the run; one set-up lasts a few seconds
# and otherwise sits wholly inside one phase of the machine's speed.
SETUP_REPEATS_EACH_SIDE = 2
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile


def _parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def _import_library():
    """Import lexpref from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lexpref
    if src not in Path(lexpref.__file__).resolve().parents:
        raise ImportError(f"lexpref imported from {lexpref.__file__}, "
                          f"not from {src}")
    return lexpref


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import importlib.util
    import platform

    import numpy
    from lexpref.kernel import backend_name
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend_name(),
        "LEXPREF_THREADS": os.environ.get("LEXPREF_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def closed_loop(ops, seconds: float, minimum: int, tracer=None, root=None):
    """Run ops in order, one at a time, for ``seconds`` and at least
    ``minimum`` ops.  Returns latencies, outputs (an exception stands in
    for a failed op) and the loop's wall time."""
    latencies, outputs = [], []
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while i < minimum or perf_counter() < deadline:
        op = ops[i % len(ops)]
        t0 = perf_counter()
        if tracer is not None:
            tracer.enter(root)
        try:
            out = op.run()
        except Exception as exc:  # any exception is a failed op
            out = exc
        finally:
            if tracer is not None:
                tracer.exit()
        latencies.append(perf_counter() - t0)
        outputs.append(out)
        i += 1
    return latencies, outputs, perf_counter() - start


def judge(ops, outputs, window: int):
    """Check every output; return the failure reasons and the digest of
    the first ``window`` outputs.  An input whose output changes between
    two runs of it also fails."""
    reasons, first_seen = [], {}
    digest = hashlib.sha256()
    for i, out in enumerate(outputs):
        op = ops[i % len(ops)]
        text = out if isinstance(out, str) else f"error: {out!r}"
        if i < window:
            digest.update(f"{op.key}\n{text}\n".encode())
        if not isinstance(out, str):
            reasons.append(f"{op.key}: {text}")
            continue
        if first_seen.setdefault(op.key, out) != out:
            reasons.append(f"{op.key}: output differs from an earlier run")
            continue
        try:
            why = op.check(out)
        except Exception as exc:  # a malformed output is a wrong answer
            why = f"check raised {exc!r}"
        if why is not None:
            reasons.append(f"{op.key}: {why}")
    return reasons, digest.hexdigest()


def tail(latencies) -> tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it, and
    which percentile that is; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(ops, workload, seconds):
    latencies, outputs, wall = closed_loop(ops, seconds,
                                           workload.count_window)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ops_per_s": (len(latencies) / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report = {"op_tail_percentile": round(tail_pct, 2),
              "op_samples": len(latencies)}
    return metrics, outputs, report


def per_layer(window, workload, seconds):
    from spans import Tracer
    from workloads import implied_csd_calls

    tracer = Tracer()
    plain, traced, outputs = [], [], []
    first = None
    deadline = perf_counter() + seconds
    while first is None or perf_counter() < deadline:
        lat, out, _ = closed_loop(window, 0, len(window))
        plain += lat
        outputs += out
        with tracer.installed():
            lat, out, _ = closed_loop(window, 0, len(window), tracer,
                                      workload.root_span)
        traced += lat
        if first is None:
            first = tracer.totals()
            first_outputs = out
        outputs += out

    ops_traced = len(traced)
    own = tracer.self_s

    def per_op_ms(seconds_total):
        return seconds_total * 1e3 / ops_traced

    def self_of(prefix, exclude=()):
        return sum(t for name, t in own.items()
                   if name.startswith(prefix) and name not in exclude)

    k = len(window)
    kernel_calls = first["count"].get("kernel.run", 0)
    csd_calls = first["class_calls"].get("optimality.csd", 0)
    useful = 0.0
    if csd_calls:
        implied = sum(implied_csd_calls(out) for out in first_outputs
                      if isinstance(out, str))
        useful = (csd_calls - implied) / csd_calls
    all_kernel = tracer.count.get("kernel.run", 0)
    self_sum = sum(own.values())
    metrics = {
        "instance.parse_ms": (per_op_ms(own.get("instance.parse", 0)), "ms"),
        "engine.encode_ms": (per_op_ms(own.get("engine.encode", 0)), "ms"),
        "engine.encode_calls": (first["count"].get("engine.encode", 0) / k,
                                "count"),
        "engine.self_ms": (per_op_ms(self_of("engine.",
                                             ("engine.encode",))), "ms"),
        "kernel.run_ms": (per_op_ms(own.get("kernel.run", 0)), "ms"),
        "kernel.calls": (kernel_calls / k, "count"),
        "kernel.tests": (first["tests"] / k, "count"),
        "kernel.us_per_call": (own.get("kernel.run", 0) * 1e6 / all_kernel
                               if all_kernel else 0.0, "us"),
        "statements.satisfies_ms": (
            per_op_ms(own.get("statements.satisfies", 0)), "ms"),
    }
    for cls in ("po", "pso", "csd", "no"):
        metrics[f"optimality.{cls}_ms"] = (
            per_op_ms(tracer.incl.get(f"optimality.{cls}", 0)), "ms")
        metrics[f"optimality.{cls}_calls"] = (
            first["class_calls"].get(f"optimality.{cls}", 0) / k, "count")
    metrics.update({
        "optimality.csd_useful_ratio": (useful, "ratio"),
        "optimality.self_ms": (per_op_ms(self_of("optimality.")), "ms"),
        "cli.self_ms": (per_op_ms(own.get("cli.main", 0)), "ms"),
        "trace.self_sum_ms": (per_op_ms(self_sum), "ms"),
        "trace.op_mean_ms": (statistics.fmean(traced) * 1e3, "ms"),
        "trace.overhead_pct": ((statistics.median(traced)
                                / statistics.median(plain) - 1) * 100, "%"),
    })
    report = {"traced_ops": ops_traced, "untraced_ops": len(plain),
              "untraced_op_p50_ms": statistics.median(plain) * 1e3,
              "missing_hooks": sorted(tracer.missing)}
    return metrics, outputs, report


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        _import_library()
    except ImportError as exc:
        print(f"error: cannot import lexpref from this checkout: {exc}",
              file=sys.stderr)
        return 2
    from lexpref.kernel import warm_up
    from workloads import WORKLOADS

    args = _parse_args(argv, sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]
    setups, gens = [], []
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=os.getcwd()) as tmp:
        def set_up():
            start = perf_counter()
            prepared = workload.prepare(args.seed, Path(tmp), args.tiny)
            warm_up()
            setups.append(perf_counter() - start)
            gens.append(prepared.gen_s)
            return prepared.ops

        for _ in range(SETUP_REPEATS_EACH_SIDE):
            ops = set_up()
        ops[0].run()   # untimed: first-call costs stay out of the metrics
        if args.trace:
            # the first count_window ops, cycling a pool smaller than that
            ops = [ops[i % len(ops)] for i in range(workload.count_window)]
            metrics, outputs, report = per_layer(ops, workload, args.seconds)
        else:
            metrics, outputs, report = end_to_end(ops, workload, args.seconds)
        reasons, digest = judge(ops, outputs, workload.count_window)
        del ops
        for _ in range(SETUP_REPEATS_EACH_SIDE):
            set_up()
    if args.trace:
        metrics["generator.gen_s"] = (statistics.median(gens), "s")
    else:
        metrics = {"setup_s": (statistics.median(setups), "s"), **metrics}
    report["setup_runs_s"] = setups

    attempted = len(outputs)
    report.update({"workload": workload.name, "trace": args.trace,
                   "env": environment(args.seed), "output_digest": digest,
                   "count_window": workload.count_window,
                   "failed_ratio": len(reasons) / attempted,
                   "failures": reasons[:5]})
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not reasons,
        "attempted": attempted,
        "failed": len(reasons),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not reasons else 1


if __name__ == "__main__":
    sys.exit(main())
