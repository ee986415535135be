"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json

import pytest

import run

run._import_library()

import workloads  # noqa: E402  (needs lexpref importable first)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(capsys, tmp_path, monkeypatch, name, trace, seed=7):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", name, "--seed", str(seed),
                     "--seconds", "0.2", "--trace", str(trace), "--tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(capsys, tmp_path, monkeypatch,
                                       name, trace):
    code, report, result = _bench(capsys, tmp_path, monkeypatch, name, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert report["failed_ratio"] == 0.0
    assert report.get("missing_hooks", []) == []
    assert set(report["env"]) >= {"git_sha", "python", "numpy",
                                  "numba_importable", "kernel_backend",
                                  "LEXPREF_THREADS", "nproc", "seed"}
    assert list(tmp_path.iterdir()) == []    # the work directory is gone


def test_spec_names_every_workload():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_instances_and_digest(capsys, tmp_path, monkeypatch,
                                             name):
    prepare = workloads.WORKLOADS[name].prepare
    texts = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        ops = prepare(3, tmp_path / sub, True).ops
        texts.append(([op.key for op in ops],
                      {p.name: p.read_bytes()
                       for p in sorted((tmp_path / sub).iterdir())},
                      [op.run() for op in ops]))
    assert texts[0] == texts[1]

    digests = set()
    for sub, trace in (("c", 0), ("d", 0), ("e", 1)):
        (tmp_path / sub).mkdir()
        _, report, _ = _bench(capsys, tmp_path / sub, monkeypatch, name,
                              trace)
        digests.add(report["output_digest"])
    assert len(digests) == 1


def test_counts_repeat_exactly(capsys, tmp_path, monkeypatch):
    counts = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        _, _, result = _bench(capsys, tmp_path / sub, monkeypatch,
                              "optimal-desk", 1)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["kernel.calls"] > 0
    assert counts[0]["optimality.csd_calls"] > 0


def test_another_seed_gives_other_instances(tmp_path):
    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        workloads.prepare_check_large(seed, tmp_path / str(seed), True)
    assert (tmp_path / "1" / "check-large-12-30.lex").read_bytes() != \
        (tmp_path / "2" / "check-large-12-30.lex").read_bytes()


def _first_output(prepare, tmp_path):
    ops = prepare(5, tmp_path, True).ops
    out = ops[0].run()
    assert ops[0].check(out) is None
    return ops[0], out


def test_check_large_rejects_wrong_answers(tmp_path):
    op, out = _first_output(workloads.prepare_check_large, tmp_path)
    body = out.split("\n", 1)[1]
    payload = json.loads(body)
    assert op.check(f"1\n{body}") is not None
    assert op.check("0\n" + json.dumps({**payload, "consistent": False})) \
        is not None
    # the empty model witnesses no strict statement
    assert op.check("0\n" + json.dumps({**payload, "witness": []})) is not None


def test_optimal_desk_rejects_wrong_answers(tmp_path):
    op, out = _first_output(workloads.prepare_optimal_desk, tmp_path)
    body = out.split("\n", 1)[1]
    payload = json.loads(body)
    everyone = [name for cls in payload["eq_classes"] for name in cls]
    assert op.check(f"3\n{body}") is not None
    assert op.check("0\n" + json.dumps({**payload, "po": []})) is not None
    assert op.check("0\n" + json.dumps({**payload, "no": everyone})) \
        is not None


def test_exceptions_and_changing_outputs_count_as_failures():
    def boom():
        raise RuntimeError("planted")
    outputs = iter(["x", "x", "y"])
    ops = [workloads.Op("ok", lambda: next(outputs), lambda out: None),
           workloads.Op("bad", boom, lambda out: None)]
    _, results, _ = run.closed_loop(ops, 0, 5)
    reasons, _ = run.judge(ops, results, 2)
    assert reasons == ["bad: error: RuntimeError('planted')",
                       "bad: error: RuntimeError('planted')",
                       "ok: output differs from an earlier run"]


def test_tail_leaves_ten_samples_beyond():
    value, pct = run.tail([i / 100 for i in range(100)])
    assert value == 0.89 and pct == 90.0
    assert run.tail([0.5, 0.1]) == (0.5, 100.0)


def test_library_must_come_from_the_checkout(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run.sys, "path", list(run.sys.path))
    with pytest.raises(ImportError):
        run._import_library()
