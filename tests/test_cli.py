"""End-to-end command-line behaviour."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lexpref import cli
from lexpref.cli import main
from test_instance_format import FLIGHT_FILE


@pytest.fixture
def flight_file(tmp_path):
    path = tmp_path / "flight.lpq"
    path.write_text(FLIGHT_FILE)
    return str(path)


class TestCheck:
    def test_consistent_instance(self, flight_file, capsys):
        code = main(["check", flight_file])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "consistent"
        assert "witness: (airline, KLM > LAN);" in out

    def test_json_schema(self, flight_file, capsys):
        code = main(["check", flight_file, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["consistent"] is True
        assert payload["witness"][0] == ["airline", ["KLM", "LAN"]]
        assert payload["variables"] == ["airline", "class", "time"]
        assert payload["failures"] == []
        assert payload["statement_count"] == 2
        assert payload["test_count"] > 0

    def test_inconsistent_instance(self, tmp_path, capsys):
        path = tmp_path / "bad.lpq"
        path.write_text(FLIGHT_FILE + "stmt s3: b > a\n")
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines()[0] == "inconsistent"
        assert "failed:" in out

    def test_byte_identical_output(self, flight_file, capsys):
        main(["check", flight_file])
        first = capsys.readouterr().out
        main(["check", flight_file])
        second = capsys.readouterr().out
        assert first == second


class TestInfer:
    def test_entailed_query(self, flight_file, capsys):
        code = main(["infer", flight_file, "--query", "g > d"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "entailed"

    def test_not_entailed_query(self, flight_file, capsys):
        code = main(["infer", flight_file, "--query", "d >= a"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "not entailed"

    def test_statement_query(self, flight_file, capsys):
        code = main(["infer", flight_file, "--query",
                     "[airline=KLM] >= [airline=LAN]"])
        assert code in (0, 1)
        assert capsys.readouterr().out.strip() in ("entailed", "not entailed")

    def test_equivalence_query(self, flight_file, capsys):
        code = main(["infer", flight_file, "--query", "a == a"])
        assert code == 0

    def test_max_model_flag(self, flight_file, capsys):
        code = main(["infer", flight_file, "--query", "g > d", "--max-model"])
        assert code == 0

    def test_json_schema(self, flight_file, capsys):
        code = main(["infer", flight_file, "--query", "g > d", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload == {"query": "g > d", "entailed": True,
                           "max_model": False}

    def test_unsupported_query_is_input_error(self, flight_file, capsys):
        code = main(["infer", flight_file, "--query",
                     "[airline=KLM] > [time=day]"])
        assert code == 3
        assert "error" in capsys.readouterr().err


class TestOptimal:
    def test_all_sets(self, flight_file, capsys):
        code = main(["optimal", flight_file, "--set", "all"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PO: {a}" in out
        assert "PSO: {a}" in out
        assert "CSD: {a}" in out
        assert "NO: {a}" in out

    def test_single_set_json(self, flight_file, capsys):
        code = main(["optimal", flight_file, "--set", "po", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["po"] == ["a"]
        assert "eq_classes" in payload

    @pytest.mark.parametrize("flags", [["--oracle"],
                                       ["--oracle-cap", "10"]])
    def test_oracle_flags_are_usage_errors(self, flight_file, capsys, flags):
        # the brute-force cross-check is `lexpref oracle`'s alone
        assert main(["optimal", flight_file] + flags) == 2
        capsys.readouterr()

    def test_missing_alternatives_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "noalts.lpq"
        path.write_text("var x: a, b\nstmt s: [x=a] >= [x=b]\n")
        assert main(["optimal", str(path)]) == 3

    def test_inconsistent_instance_is_negative_verdict(self, tmp_path, capsys):
        path = tmp_path / "inc.lpq"
        path.write_text(FLIGHT_FILE + "stmt s3: b > a\n")
        assert main(["optimal", str(path)]) == 1
        assert "inconsistent" in capsys.readouterr().err


class TestGenAndBench:
    def test_gen_then_check_pipeline(self, tmp_path, capsys):
        out_file = tmp_path / "inst.lpq"
        code = main(["gen", "--vars", "6", "--stmts", "10", "--alts", "5",
                     "--seed", "11", "-o", str(out_file)])
        assert code == 0
        assert main(["check", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["optimal", str(out_file), "--set", "po"]) == 0

    def test_gen_deterministic(self, tmp_path):
        paths = [tmp_path / "a.lpq", tmp_path / "b.lpq"]
        for p in paths:
            assert main(["gen", "--vars", "5", "--stmts", "8", "--alts", "4",
                         "--seed", "3", "-o", str(p)]) == 0
        assert paths[0].read_text() == paths[1].read_text()

    def test_bench_csv_shape(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--vars", "4,6", "--stmts", "5", "--alts", "6",
                     "--reps", "2", "--seed", "5", "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("n,g,m,rep,NO,PO,PSO,CSD,"
                            "t_check_ms,t_po_ms,t_pso_ms,t_csd_ms,t_no_ms")
        assert len(lines) == 1 + 2 * 2
        for row in lines[1:]:
            fields = row.split(",")
            assert len(fields) == 13
            n, g, m, rep = map(int, fields[:4])
            no, po, pso, csd = map(int, fields[4:8])
            assert m == 6 and rep in (0, 1)
            assert no <= pso <= min(po, csd)

    def test_bench_no_timings_byte_identical(self, tmp_path):
        outs = [tmp_path / "b1.csv", tmp_path / "b2.csv"]
        for out in outs:
            assert main(["bench", "--vars", "4", "--stmts", "6", "--alts", "5",
                         "--reps", "2", "--seed", "9", "--no-timings",
                         "-o", str(out)]) == 0
        assert outs[0].read_text() == outs[1].read_text()

    def test_bench_csv_digest_is_pinned(self, tmp_path):
        # the recorded digest of this command's CSV; a change to generation,
        # the kernel or the optimality pipeline that moves a byte shows here
        out = tmp_path / "out.csv"
        assert main(["bench", "--vars", "8,12", "--stmts", "10", "--alts",
                     "20", "--reps", "2", "--seed", "1234", "--no-timings",
                     "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ed74bd79ecf2d6457e9987b5a8bee99e069991038e3130f2ead9177265e1230f")

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_bench_rejects_non_positive_reps(self, tmp_path, capsys, reps):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--vars", "4", "--stmts", "5", "--alts", "6",
                     "--reps", reps, "--seed", "1", "-o", str(out)])
        assert code == 3
        assert not out.exists()
        assert "reps" in capsys.readouterr().err


class TestPinnedOutputs:
    # recorded digests of the JSON the commands print on generated files;
    # a change to the kernel, its encoding or the optimality pipeline that
    # moves a witness, a set or test_count shows here

    @staticmethod
    def digest(argv, capsys) -> str:
        capsys.readouterr()
        assert main(argv) == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    def generate(self, tmp_path, n, g, m, seed) -> str:
        path = str(tmp_path / f"gen-{n}-{g}.lpq")
        assert main(["gen", "--vars", str(n), "--stmts", str(g), "--alts",
                     str(m), "--seed", str(seed), "-o", path]) == 0
        return path

    @pytest.mark.parametrize("n, g, m, seed, want", [
        (200, 1000, 1, 5,
         "7fb1ab8d89cdd3357483381149eb144b8fbaa46351db7d9cc258531ffbfc62a9"),
        (20, 100, 20, 101,
         "c4da9bb15756c096e0873845bcc1acd49b35593498a0212cbef8154ca8f24ac9"),
    ])
    def test_generated_file(self, tmp_path, n, g, m, seed, want):
        # the bytes gen writes pin the random stream and the file format
        path = self.generate(tmp_path, n, g, m, seed)
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == want

    def test_check_json_on_a_large_file(self, tmp_path, capsys):
        path = self.generate(tmp_path, 200, 1000, 1, 5)
        assert self.digest(["check", path, "--json"], capsys) == (
            "02054f328e402b11148a1876c32b856f1602a45bf9598a1b0d7fbeaee3837760")

    @pytest.mark.parametrize("n, g, want", [
        (10, 10,
         "cf127525d12fba562c60ae3bea2341c534d094d89c1ce05ad54c77d8d9fb177c"),
        (10, 50,
         "d93d347e112073ba858de8f10e01b23800bae36eeb104645f31336521c926766"),
        (10, 100,
         "0584429643025c59cad5a4693690ef2dc4272f33e1090b82eb3c7d10382ac41a"),
        (20, 10,
         "1cec85e8e725ed96dbd7a62d58d187b6043eb18e72167ef447fecbd3bdaacc74"),
        (20, 50,
         "3592e1f5cd13d5777550f4839ed0efa363e2c06740a690eee7b6ed7db56547b7"),
        (20, 100,
         "34024c1de933658a7ff336c34b542f06b074a8ff81355df46020a5f72284000e"),
    ])
    def test_optimal_json_per_desk_cell(self, tmp_path, capsys, n, g, want):
        path = self.generate(tmp_path, n, g, 20, 101)
        assert self.digest(["optimal", path, "--json"], capsys) == want


class TestJsonOutput:
    @pytest.mark.parametrize("argv", [
        ["check"], ["optimal"], ["optimal", "--set", "po"],
        ["oracle"],
        ["infer", "--query", "a > b"], ["infer", "--query", "a == b"]])
    def test_every_json_command_prints_what_json_dumps_prints(
            self, flight_file, capsys, argv):
        # the commands indent their JSON themselves, byte for byte as the
        # stdlib's indenting encoder does
        main(argv[:1] + [flight_file] + argv[1:] + ["--json"])
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestOracleCommand:
    def test_flight_cross_check(self, flight_file, capsys):
        code = main(["oracle", flight_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "engine agrees" in out
        assert "NO: {a}" in out

    def test_json(self, flight_file, capsys):
        code = main(["oracle", flight_file, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["models_total"] == 79
        assert payload["models_satisfying"] == 6
        assert payload["engine_agrees"] is True
        assert payload["po"] == ["a"]

    def test_cap_refusal(self, flight_file, capsys):
        code = main(["oracle", flight_file, "--cap", "10"])
        assert code == 3
        assert "refused" in capsys.readouterr().err

    def test_refuses_a_large_space_at_once(self, tmp_path, capsys):
        # counting the models of n=200 variables must not walk 2^200 subsets
        path = str(tmp_path / "large.lex")
        assert main(["gen", "--vars", "200", "--stmts", "20", "--alts", "1",
                     "--seed", "5", "-o", path]) == 0
        start = time.perf_counter()
        code = main(["oracle", path])
        assert time.perf_counter() - start < 10
        assert code == 3
        assert capsys.readouterr().err.startswith("oracle refused: ")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_set_disagreement_is_input_error(self, flight_file, capsys,
                                             monkeypatch, json_flag):
        real = cli.compute_sets_timed

        def wrong_po(space, gamma, alternatives):
            sets, times = real(space, gamma, alternatives)
            every = frozenset(range(len(alternatives)))
            return dataclasses.replace(sets, po=every), times

        monkeypatch.setattr(cli, "compute_sets_timed", wrong_po)
        code = main(["oracle", flight_file] + json_flag)
        out = capsys.readouterr().out
        assert code == 3
        if json_flag:
            payload = json.loads(out)
            assert payload["engine_agrees"] is False
            assert payload["po"] == ["a"]    # the brute-force sets
        else:
            assert "engine DISAGREES" in out


class TestParserReuse:
    def test_one_parser_prints_what_fresh_ones_print(self, flight_file,
                                                     capsys, monkeypatch):
        calls = (["check", flight_file], ["check"], ["optimal", flight_file])
        real = cli.build_parser
        builds = []

        def counting():
            builds.append(None)
            return real()

        def run(argv):
            code = main(argv)
            return (code, *capsys.readouterr())

        monkeypatch.setattr(cli, "build_parser", counting)
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        cli._parser.cache_clear()
        reused = [run(argv) for argv in calls]
        cli._parser.cache_clear()
        assert len(builds) == len(calls) + 1
        assert [code for code, _, _ in reused] == [0, 2, 0]
        assert reused == fresh


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["check"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/x.lpq"]) == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gen", "--vars", "4", "--stmts", "5", "--alts", "3", "--seed", "1"],
        ["bench", "--vars", "4", "--stmts", "5", "--alts", "3", "--reps", "1",
         "--seed", "1"],
    ])
    def test_unwritable_output_is_input_error(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "x"
        assert main(argv + ["-o", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n")

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.lpq"
        path.write_text("var x a b\n")
        assert main(["check", str(path)]) == 3
        err = capsys.readouterr().err
        assert "line 1" in err

    @pytest.mark.parametrize("argv", [["check"], ["optimal", "--json"]])
    def test_alternative_named_twice_is_a_positioned_error(self, tmp_path,
                                                           capsys, argv):
        # o1 and o2 are one outcome, so the alts: line lists it twice
        path = tmp_path / "same.lpq"
        path.write_text("var x: a, b\nvar y: c, d\noutcome o1: x=a, y=c\n"
                        "outcome o2: x=a, y=c\nalts: o1, o2\n")
        assert main([argv[0], str(path), *argv[1:]]) == 3
        assert "line 5:" in capsys.readouterr().err

    def test_closed_stdout_exits_141_quietly(self, flight_file):
        # the reader is gone before the command starts, as after `| head`
        # has read enough; no traceback, and not a negative verdict
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "lexpref.cli", "check", flight_file,
                 "--json"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")


_RUN_ALL_COMMANDS = """\
import json, sys
from lexpref.cli import main
lex, csv = sys.argv[1:]
codes = [
    main(["gen", "--vars", "6", "--stmts", "8", "--alts", "5", "--seed", "3",
          "-o", lex]),
    main(["check", lex, "--json"]),
    main(["optimal", lex, "--json"]),
    main(["infer", lex, "--query", "[x1=v1] >= [x1=v2]"]),
    main(["bench", "--vars", "4", "--stmts", "5", "--alts", "3", "--reps",
          "1", "--seed", "1", "--no-timings", "-o", csv]),
]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


class TestRuntimeImports:
    def test_no_command_imports_numpy(self, tmp_path):
        # the package has no third-party runtime dependency; a fresh
        # process runs every command without loading numpy
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_ALL_COMMANDS,
             str(tmp_path / "x.lpq"), str(tmp_path / "bench.csv")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["codes"][:3] == [0, 0, 0]
        assert result["codes"][3] in (0, 1)     # entailed or not
        assert result["codes"][4] == 0
        assert result["numpy"] is False
