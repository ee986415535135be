"""The two workloads: seeded inputs, one op each, and its correctness check.

Every op goes through a public entry point of ``lexpref`` and returns its
output as text; the matching check reads only that text plus what the
generator planted (the hidden model every statement was drawn to satisfy),
and returns ``None`` when the output is right or a one-line reason when it
is not.  Why each workload exists is written up in ``README.md``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from lexpref import (AlternativeSet, GenConfig, Instance, format_instance,
                     gen_instance, optimal_in_model, satisfies)
from lexpref.cli import main as cli_main


@dataclass(frozen=True)
class Op:
    """One prepared operation: ``run`` times it, ``check`` judges its output."""

    key: str
    run: Callable[[], str]
    check: Callable[[str], str | None]


@dataclass(frozen=True)
class Prepared:
    ops: list[Op]
    gen_s: float          # time spent inside gen_instance


@dataclass(frozen=True)
class Workload:
    name: str
    root_span: str        # span opened around each op in a traced pass
    count_window: int     # first ops whose outputs and counts must repeat
    prepare: Callable[[int, Path, bool], Prepared]


def derive(seed: int, *parts) -> int:
    """A 63-bit generator seed for one input, fixed by the workload seed."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8],
                          "big") >> 1


def _generate(n: int, g: int, m: int, seed: int):
    start = perf_counter()
    gen = gen_instance(GenConfig(n=n, g=g, m=m, seed=seed))
    return gen, perf_counter() - start


def _write_instance(gen, path: Path) -> None:
    names = tuple(f"a{i}" for i in range(len(gen.alternatives)))
    instance = Instance(space=gen.space,
                        outcomes=dict(zip(names, gen.alternatives.outcomes)),
                        statements=gen.gamma, alt_names=names)
    path.write_text(format_instance(instance), encoding="utf-8")


def _cli(argv: list[str]) -> str:
    """``lexpref.cli.main`` in-process; output is the exit code, then stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return f"{code}\n{out.getvalue()}"


def _split(output: str) -> tuple[int, dict]:
    code, _, body = output.partition("\n")
    return int(code), json.loads(body)


# ---------------------------------------------------------------- check-large

def check_consistent_output(gen, output: str) -> str | None:
    """The planted model makes the set consistent; the witness must satisfy
    every statement under the independent stage-walk test."""
    code, payload = _split(output)
    if code != 0 or payload.get("consistent") is not True:
        return f"exit {code}, consistent={payload.get('consistent')!r}"
    witness = gen.space.model([(var, ranking)
                               for var, ranking in payload["witness"]])
    for st in gen.gamma:
        if not satisfies(witness, st):
            return f"witness violates statement {st.label}"
    return None


# Sizes rise in even steps up to the criterion-5 cell, so the op costs of a
# run spread over a range wider than the machine's speed swings instead of
# sitting in one narrow cluster.  The median of a narrow cluster jumps by
# the whole speed step whenever the machine's speed phase changes during a
# run; over a wide spread it moves with the mean.
CHECK_SIZES = tuple((200, g) for g in range(250, 1001, 125))


def prepare_check_large(seed: int, workdir: Path, tiny: bool) -> Prepared:
    sizes = [(12, 30), (12, 40)] if tiny else CHECK_SIZES
    ops, gen_s = [], 0.0
    for i, (n, g) in enumerate(sizes):
        gen, took = _generate(n, g, 1, derive(seed, "check-large", i))
        gen_s += took
        path = workdir / f"check-large-{n}-{g}.lex"
        _write_instance(gen, path)
        ops.append(Op(key=f"check-{n}-{g}",
                      run=functools.partial(_cli, ["check", str(path),
                                                   "--json"]),
                      check=functools.partial(check_consistent_output,
                                              gen)))
    return Prepared(ops, gen_s)


# --------------------------------------------------------------- optimal-desk

DESK_VARS = (10, 20)
DESK_STMTS = (10, 50, 100)
DESK_ALTS = 20
DESK_PER_CELL = 40


def check_optimal_output(hidden, alternatives: AlternativeSet,
                         output: str) -> str | None:
    """Whatever the planted model makes optimal is possibly optimal, and
    whatever is necessarily optimal is optimal in the planted model."""
    code, payload = _split(output)
    if code != 0:
        return f"exit {code}"
    in_hidden = optimal_in_model(hidden, alternatives)
    po = {int(name[1:]) for name in payload["po"]}
    no = {int(name[1:]) for name in payload["no"]}
    if not in_hidden <= po:
        return "an alternative optimal in the planted model is missing from PO"
    if not no <= in_hidden:
        return "NO holds an alternative the planted model does not make optimal"
    return None


def implied_csd_calls(output: str) -> int:
    """CSD kernel calls whose answer PSO already gave: a PSO class is in CSD,
    so each of its calls against the other classes must come out true."""
    _, payload = _split(output)
    pso = set(payload["pso"])
    classes = payload["eq_classes"]
    in_pso = sum(1 for cls in classes if pso.intersection(cls))
    return in_pso * (len(classes) - 1)


def prepare_optimal_desk(seed: int, workdir: Path, tiny: bool) -> Prepared:
    if tiny:
        cells, m, per_cell = [(4, 5), (6, 10)], 8, 1
    else:
        cells = [(n, g) for n in DESK_VARS for g in DESK_STMTS]
        m, per_cell = DESK_ALTS, DESK_PER_CELL
    ops, gen_s = [], 0.0
    for rep in range(per_cell):
        for n, g in cells:
            gen, took = _generate(n, g, m, derive(seed, "optimal-desk",
                                                  n, g, rep))
            gen_s += took
            path = workdir / f"optimal-desk-{n}-{g}-{rep}.lex"
            _write_instance(gen, path)
            ops.append(Op(key=f"desk-{n}-{g}-{rep}",
                          run=functools.partial(_cli, ["optimal", str(path),
                                                       "--json"]),
                          check=functools.partial(
                              check_optimal_output, gen.hidden_model,
                              gen.alternatives)))
    return Prepared(ops, gen_s)


WORKLOADS = {
    w.name: w for w in (
        Workload("check-large", "cli.main", 7, prepare_check_large),
        Workload("optimal-desk", "cli.main", 60, prepare_optimal_desk),
    )
}
