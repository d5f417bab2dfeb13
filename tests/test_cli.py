import json
import pathlib
import time

import numpy as np
import pytest
from causal_kernel.cli import main

MODELS_DIR = pathlib.Path(__file__).resolve().parent.parent / "models"
SEQ = str(MODELS_DIR / "sequential_qubit.json")
SWITCH = str(MODELS_DIR / "switch_qubit.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_unit_pair(self, capsys):
        code, out, _ = run(capsys, "eval", "--model", SEQ, "--b", "I", "--a", "I")
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["re"] - 1.0) < 1e-10
        assert abs(obj["im"]) < 1e-10

    def test_sequential_two_point_matches_oracle(self, capsys):
        # shipped model: psi = |0>, U = Hadamard, x = sx, y = sz
        code, out, _ = run(capsys, "eval", "--model", SEQ, "--b", "I", "--a", "x*y")
        assert code == 0
        obj = json.loads(out)
        from causal_kernel.oracle import heisenberg_correlator

        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        # model stores psi_2 and U_{1,2}: recover one compatible pair
        expected = heisenberg_correlator(np.array([1.0, 0.0]), h, np.eye(2), sx, sz)
        assert abs(complex(obj["re"], obj["im"]) - expected) < 1e-10

    def test_unbound_symbol_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--model", SEQ, "--b", "I", "--a", "nosuch")
        assert code == 2
        assert "unbound symbol nosuch" in err
        assert err.startswith("1:1:")

    def test_parse_error_exits_2_with_position(self, capsys):
        code, _, err = run(capsys, "eval", "--model", SEQ, "--b", "I", "--a", "x*")
        assert code == 2
        assert err.startswith("1:3:")

    def test_pretty_format(self, capsys):
        code, out, _ = run(capsys, "eval", "--model", SEQ, "--b", "I", "--a", "I",
                           "--format", "pretty")
        assert code == 0
        assert out.startswith("omega(b, a) = ")


class TestModelErrors:
    def test_invalid_model_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        obj = json.load(open(SEQ))
        obj["unitaries"][0][0][0] = [2.0, 0.0]  # breaks unitarity
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "eval", "--model", str(path),
                           "--b", "I", "--a", "I")
        assert code == 3
        assert "model error" in err

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--model", str(tmp_path / "nope.json"),
                           "--b", "I", "--a", "I")
        assert code == 3

    def test_dimension_mismatch_exits_4(self, capsys, tmp_path):
        path = tmp_path / "dim.json"
        obj = json.load(open(SEQ))
        obj["symbols"]["x"]["matrix"] = [[[1.0, 0.0]] * 3] * 3
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "eval", "--model", str(path),
                           "--b", "I", "--a", "I")
        assert code == 4
        assert "dimension error" in err


    @pytest.mark.parametrize("edit", [
        lambda obj: obj["psi"][0].__setitem__(0, float("nan")),
        lambda obj: obj["symbols"]["x"].__setitem__("factor", 3),
        lambda obj: obj.__setitem__("dim", "abc"),
    ], ids=["nan", "unknown-factor", "dim-text"])
    def test_malformed_numbers_exit_3(self, capsys, tmp_path, edit):
        path = tmp_path / "bad.json"
        obj = json.load(open(SEQ))
        edit(obj)
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "eval", "--model", str(path),
                             "--b", "I", "--a", "I")
        assert (code, out) == (3, "")
        assert err.startswith("model error:")

    def test_overflowing_scalar_exits_2(self, capsys):
        code, out, err = run(capsys, "eval", "--model", SEQ, "--b", "1e400",
                             "--a", "1e400")
        assert (code, out) == (2, "")
        assert err.startswith("1:1: ")

    # finite literals whose product overflows: inf, and inf * 0 = nan
    @pytest.mark.parametrize("b, a", [("1e200", "1e200"), ("1e200*1e200", "1")])
    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_non_finite_value_exits_2(self, capsys, b, a, fmt):
        code, out, err = run(capsys, "eval", "--model", SEQ, "--b", b, "--a", a,
                             "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("eval error: ") and err.endswith("is not finite\n")
        assert err.count("\n") == 1


class TestVerify:
    def test_valid_model_exits_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", SEQ, "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        for entry in report["properties"].values():
            assert entry["passed"] is True

    def test_fixed_seed_is_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", "--model", SWITCH, "--seed", "42")
        _, out2, _ = run(capsys, "verify", "--model", SWITCH, "--seed", "42")
        assert out1 == out2

    def test_different_seeds_differ(self, capsys):
        _, out1, _ = run(capsys, "verify", "--model", SEQ, "--seed", "1")
        _, out2, _ = run(capsys, "verify", "--model", SEQ, "--seed", "2")
        assert out1 != out2

    def test_impossible_tolerance_exits_1(self, capsys):
        code, out, err = run(capsys, "verify", "--model", SEQ, "--seed", "7",
                             "--tol", "1e-30")
        assert code == 1
        assert "verification failed" in err
        report = json.loads(out)
        assert report["passed"] is False


class TestGramAndGns:
    def test_gram_json(self, capsys):
        code, out, _ = run(capsys, "gram", "--model", SEQ, "--max-len", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["basisSize"] == 7
        g = obj["gram"]
        assert abs(g[0][0][0] - 1.0) < 1e-10

    def test_gram_csv_shape(self, capsys):
        code, out, _ = run(capsys, "gram", "--model", SEQ, "--max-len", "1",
                           "--format", "csv")
        assert code == 0
        rows = [line for line in out.splitlines() if line]
        assert len(rows) == 7
        assert all(len(row.split(",")) == 7 for row in rows)
        first = rows[0].split(",")[0]
        assert abs(complex(first) - 1.0) < 1e-10

    def test_gns_report_keys(self, capsys):
        code, out, _ = run(capsys, "gns", "--model", SEQ, "--max-len", "2")
        assert code == 0
        report = json.loads(out)
        for key in ("basisSize", "nullRank", "minEigenvalue",
                    "leftIdealMaxViolation", "reconstructionMaxError"):
            assert key in report
        assert report["basisSize"] == 25
        assert report["nullRank"] + report["quotientDim"] == 25

    def test_gns_pretty_prints_json_scalars(self, capsys):
        code, out, _ = run(capsys, "gns", "--model", SEQ, "--max-len", "2",
                           "--format", "pretty")
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        report = json.loads(run(capsys, "gns", "--model", SEQ, "--max-len", "2")[1])
        assert lines["reconstructionMaxError"] == "null"
        assert {k: json.loads(v) for k, v in lines.items()} == report

    @pytest.mark.parametrize("model", [SEQ, SWITCH])
    def test_gns_max_len_one_reports_no_reconstruction(self, capsys, model):
        # the domain is the unit word alone: nothing to reconstruct
        code, out, _ = run(capsys, "gns", "--model", model, "--max-len", "1")
        report = json.loads(out)
        assert code == 0
        assert report["leftIdealEvaluatedPairs"] == 0
        assert report["reconstructionMaxError"] is None

    @pytest.mark.parametrize("argv", [
        ("gns", "--max-len", "-1"),
        ("gns", "--max-len", "0"),
        ("gram", "--max-len", "-1"),
    ])
    def test_out_of_range_arguments_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--model", SEQ])
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize("command, tol", [
        ("gns", "0"), ("gns", "-1"), ("gns", "1"), ("gns", "nan"), ("gns", "inf"),
        ("gns", "abc"), ("verify", "-1"), ("verify", "nan"), ("verify", "inf"),
    ])
    def test_tolerance_out_of_range_is_a_usage_error(self, capsys, command, tol):
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", SEQ, f"--tol={tol}"])
        assert exc.value.code == 2
        assert "argument --tol" in capsys.readouterr().err

    def test_gns_tolerance_at_rounding_level_exits_5(self, capsys):
        code, out, err = run(capsys, "gns", "--model", SWITCH, "--max-len", "2",
                             "--tol", "1e-18")
        assert (code, out) == (5, "")
        assert "null-space split" in err

    def test_gns_max_len_above_word_cap_exits_5(self, capsys):
        code, out, err = run(capsys, "gns", "--model", SEQ, "--max-len", "6")
        assert code == 5
        assert out == ""
        assert err.startswith("gns error:")
        assert "word-length cap 6" in err

    def test_gram_max_len_zero_is_the_unit_word(self, capsys):
        code, out, _ = run(capsys, "gram", "--model", SEQ, "--max-len", "0")
        assert code == 0
        assert json.loads(out)["basisSize"] == 1

    # switch at max-len 3 has 20,629 words: a 6.3 GiB dense Gram matrix
    @pytest.mark.parametrize("command, model, max_len, messages", [
        ("gram", "sequential_qubit.json", "7", ["word-length cap 6"]),
        ("gns", "switch_qubit.json", "3", ["basis of 20629 words", "limit of 1 GiB"]),
        ("gram", "switch_qubit.json", "3", ["basis of 20629 words", "limit of 1 GiB"]),
    ], ids=["gram-sequential-L7", "gns-switch-L3", "gram-switch-L3"])
    def test_basis_is_refused_before_allocating(self, capsys, command, model,
                                                max_len, messages):
        t0 = time.perf_counter()
        code, out, err = run(capsys, command, "--model", str(MODELS_DIR / model),
                             "--max-len", max_len)
        assert time.perf_counter() - t0 < 2.0
        assert code == 5
        assert out == ""
        assert all(m in err for m in messages)

    # without --max-len: 3 where the size limit admits it, else the largest
    # length it admits (switch at 3 would need 20,629 words)
    @pytest.mark.parametrize("command, fmt", [("gns", "json"), ("gram", "pretty")])
    @pytest.mark.parametrize("model, max_len", [(SEQ, "3"), (SWITCH, "2")],
                             ids=["sequential", "switch"])
    def test_default_max_len_is_the_largest_admitted(self, capsys, command, fmt,
                                                     model, max_len):
        code, default, _ = run(capsys, command, "--model", model, "--format", fmt)
        assert code == 0
        code, explicit, _ = run(capsys, command, "--model", model, "--format", fmt,
                                "--max-len", max_len)
        assert code == 0
        assert default == explicit


class TestDemos:
    def test_demo_switch_rows_all_ok(self, capsys):
        code, out, _ = run(capsys, "demo-switch")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["rows"]) == 4
        assert all(row["ok"] for row in obj["rows"])

    def test_demo_fuzz_rows_all_ok(self, capsys):
        code, out, _ = run(capsys, "demo-fuzz")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["rows"]) == 2
        assert all(row["ok"] for row in obj["rows"])

    def test_demo_deterministic(self, capsys):
        _, out1, _ = run(capsys, "demo-switch")
        _, out2, _ = run(capsys, "demo-switch")
        assert out1 == out2


# the flags each subcommand reads, besides --model, --b and --a
SUBCOMMANDS = {
    "eval": (["--model", SEQ, "--b", "I", "--a", "I"], ["--format", "pretty"]),
    "gram": (["--model", SEQ], ["--max-len", "0", "--format", "csv"]),
    "gns": (["--model", SEQ], ["--max-len", "1", "--tol", "1e-6",
                               "--format", "pretty"]),
    "verify": (["--model", SEQ], ["--seed", "3", "--tol", "1e-3"]),
    "demo-switch": ([], ["--format", "pretty"]),
    "demo-fuzz": ([], ["--format", "pretty"]),
}
FLAG_VALUES = {"--format": "json", "--seed": "1", "--tol": "1e-8",
               "--jobs": "0", "--max-len": "1"}
UNREAD = [(command, flag) for command, (_, reads) in SUBCOMMANDS.items()
          for flag in FLAG_VALUES if flag not in reads]


class TestOptionSets:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_read_flags_are_accepted(self, capsys, command):
        base, reads = SUBCOMMANDS[command]
        code, out, _ = run(capsys, command, *base, *reads)
        assert code == 0
        assert out

    @pytest.mark.parametrize("command, flag", UNREAD)
    def test_unread_flag_is_a_usage_error(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, *SUBCOMMANDS[command][0], flag, FLAG_VALUES[flag]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "gns", "demo-switch", "demo-fuzz"])
    def test_csv_is_only_for_gram(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, *SUBCOMMANDS[command][0], "--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err
