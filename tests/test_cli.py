import copy
import functools
import json
import operator
import pathlib
import time
import warnings

import numpy as np
import pytest
from causal_kernel import cli
from causal_kernel.cli import main
from causal_kernel.expr import MAX_DEPTH

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

    # chains of any length are flat; nesting beyond MAX_DEPTH is refused at the
    # column of the opening token
    @pytest.mark.parametrize("text, code, err", [
        ("+".join(["x1"] * 5000), 0, ""),
        ("*".join(["2"] * 1000), 0, ""),
        ("(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH, 0, ""),
        ("x1+x1*adj(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH, 0, ""),
        ("(" * (MAX_DEPTH + 1) + "x1" + ")" * (MAX_DEPTH + 1), 2,
         f"1:{MAX_DEPTH + 1}: nesting deeper than {MAX_DEPTH}\n"),
        ("(" * 500 + "x1" + ")" * 500, 2, f"1:{MAX_DEPTH + 1}: nesting deeper"),
        ("adj(" * 400 + "x1" + ")" * 400, 2, f"1:{4 * MAX_DEPTH + 1}: nesting deeper"),
    ], ids=["sum-5000", "product-1000", "parens-at-limit", "mixed-at-limit",
            "parens-over-limit", "parens-500", "adj-400"])
    def test_long_chains_and_deep_nesting(self, capsys, text, code, err):
        got, out, stderr = run(capsys, "eval", "--model", SEQ, "--b", "I", "--a", text)
        assert (got, bool(out)) == (code, code == 0)
        assert stderr.startswith(err)
        assert "Traceback" not in stderr

    def test_fourth_power_bytes_are_pinned(self, capsys):
        # 2,681 cold words, evaluated in one batched pass; the bytes are those
        # of the route that evaluated each word as its own batch of one
        power = "*".join(["(x1+y1+u1+v1+x2+y2+u2+v2)"] * 4)
        got = run(capsys, "eval", "--model", SWITCH, "--b", "I", "--a", power)
        assert got == (0, '{"re":189.00000000000006,"im":-31.000000000000014}\n', "")


class TestModelErrors:
    def test_invalid_model_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        obj = json.loads(pathlib.Path(SEQ).read_text())
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
        obj = json.loads(pathlib.Path(SEQ).read_text())
        obj["symbols"]["x"]["matrix"] = [[[1.0, 0.0]] * 3] * 3
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "eval", "--model", str(path),
                           "--b", "I", "--a", "I")
        assert code == 4
        assert "dimension error" in err

    def test_oversized_factor_exits_4_before_allocating(self, capsys, tmp_path):
        # target dimension 50 gives control factors of dimension 100, whose
        # basis tables would need about 12 GiB
        dim = 50
        eye = [[[float(i == j), 0.0] for j in range(dim)] for i in range(dim)]
        psi = [[1.0, 0.0]] + [[0.0, 0.0]] * (2 * dim - 1)
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "version": 1, "family": "switch", "dim": dim, "psi": psi,
            "unitaries": dict.fromkeys(("vx0", "xy0", "yu0", "vy1", "yx1", "xu1"), eye),
        }))
        t0 = time.perf_counter()
        code, out, err = run(capsys, "eval", "--model", str(path),
                             "--b", "I", "--a", "I")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (4, "")
        assert err.startswith("dimension error: factor 3: dimension 100")
        assert "limit of 1 GiB" in err

    @pytest.mark.parametrize("edit", [
        lambda obj: obj["psi"][0].__setitem__(0, float("nan")),
        lambda obj: obj["symbols"]["x"].__setitem__("factor", 3),
        lambda obj: obj.__setitem__("dim", "abc"),
        lambda obj: obj.__setitem__("family", ["sequential"]),
        lambda obj: obj.__setitem__("family", {"sequential": 1}),
    ], ids=["nan", "unknown-factor", "dim-text", "family-list", "family-object"])
    def test_malformed_numbers_exit_3(self, capsys, tmp_path, edit):
        path = tmp_path / "bad.json"
        obj = json.loads(pathlib.Path(SEQ).read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "eval", "--model", str(path),
                             "--b", "I", "--a", "I")
        assert (code, out) == (3, "")
        assert err.startswith("model error:")

    # a 1e308 entry overflows the checks' arithmetic to inf or NaN: the model
    # is refused with one line on standard error, and no numpy warning
    @pytest.mark.parametrize("model, path", [
        ("sequential_qubit.json", ("psi", 0, 0)),
        ("sequential_qubit.json", ("unitaries", 0, 0, 0, 0)),
        ("switch_qubit.json", ("unitaries", "xu1", 1, 1, 0)),
        ("fuzz_two_branch.json", ("branches", 0, "weight")),
        ("fuzz_two_branch.json", ("branches", 0, "unitaries", 1, 0, 1, 0)),
        ("superspacetime_two_branch.json", ("branches", 0, "amplitude", 0)),
        ("superspacetime_two_branch.json", ("branches", 0, "hamiltonians", 0, 0, 1, 0)),
        ("superspacetime_two_branch.json", ("targetPsi", 0, 0)),
    ], ids=["psi", "unitary", "switch-unitary", "weight", "fuzz-unitary",
            "amplitude", "hamiltonian", "target-psi"])
    def test_huge_entry_exits_3_with_one_line(self, capsys, tmp_path, model, path):
        file = tmp_path / model
        obj = json.loads((MODELS_DIR / model).read_text())
        file.write_text(json.dumps(_mutated(obj, path, 1e308)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "eval", "--model", str(file),
                                 "--b", "I", "--a", "I")
        assert (code, out) == (3, "")
        assert [str(w.message) for w in caught] == []
        assert err.startswith("model error: ") and err.count("\n") == 1

    def test_non_utf8_file_exits_3(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe\x00")
        code, out, err = run(capsys, "eval", "--model", str(path),
                             "--b", "I", "--a", "I")
        assert (code, out) == (3, "")
        assert err.startswith("model error: model file is not valid UTF-8")

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

    @pytest.mark.parametrize("seed", ["-1", "abc"])
    def test_bad_seed_is_a_usage_error(self, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--model", SEQ, f"--seed={seed}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed" in err
        assert "Traceback" not in err

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

    # gns admits the bases gram admits: --max-len 6 runs, 7 is over the cap
    def test_gns_max_len_above_word_cap_exits_5(self, capsys):
        code, out, err = run(capsys, "gns", "--model", SEQ, "--max-len", "7")
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


MUTANT_VALUES = [None, True, "abc", -1, 0, 1e308, 10**30, [], {}]
DELETE = object()
DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
EXPR_TOKENS = ["x1", "y2", "x", "nosuch", "I", "i", "adj(", "(", ")", "+", "-", "*",
               "2.5", "0.5i", "1e200", "1e400", " ", "\n", "$"]


def _node_paths(obj, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        children = ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _mutated(obj, path, value):
    """A copy of ``obj`` with the node at ``path`` replaced, or deleted."""
    if not path:
        return value
    obj = copy.deepcopy(obj)
    parent = functools.reduce(operator.getitem, path[:-1], obj)
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


def _exit_code(capsys, *argv):
    try:
        return run(capsys, *argv)[0]
    except Exception as exc:  # an escaped exception is the failure looked for
        pytest.fail(f"{argv!r} raised {exc!r}")


class TestMutations:
    """Seeded mutations of model files and expressions: every run ends in a
    documented exit code, never an exception."""

    @pytest.mark.parametrize("model", sorted(p.name for p in MODELS_DIR.glob("*.json")))
    def test_model_mutations(self, capsys, tmp_path, model):
        obj = json.loads((MODELS_DIR / model).read_text())
        # a key (str) can be deleted; a list index (int) only replaced
        cases = [(path, value) for path in _node_paths(obj) for value in
                 MUTANT_VALUES + ([DELETE] if path and isinstance(path[-1], str) else [])]
        path_file = tmp_path / model
        for k in np.random.default_rng(2026).choice(len(cases), size=120, replace=False):
            path, value = cases[k]
            path_file.write_text(json.dumps(_mutated(obj, path, value)))
            code = _exit_code(capsys, "gram", "--model", str(path_file), "--max-len", "0")
            assert code in DOCUMENTED_EXITS, (path, value, code)

    def test_random_expressions(self, capsys):
        rng = np.random.default_rng(7)
        for _ in range(200):
            text = "".join(rng.choice(EXPR_TOKENS, size=int(rng.integers(13))))
            # "--a=" keeps a leading "-" from reading as a flag
            code = _exit_code(capsys, "eval", "--model", SEQ, "--b", "I", f"--a={text}")
            assert code in DOCUMENTED_EXITS, (text, code)


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

    @pytest.mark.parametrize("command, report", [
        ("demo-switch", "demo_switch_report"), ("demo-fuzz", "demo_fuzz_report"),
    ])
    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_failed_row_exits_1_after_the_report(self, capsys, monkeypatch,
                                                 command, report, fmt):
        rows = [{"check": "holds", "ok": True}, {"check": "broken", "ok": False}]
        monkeypatch.setattr(cli, report, lambda: {"demo": "stub", "rows": rows})
        code, out, err = run(capsys, command, "--format", fmt)
        assert code == 1
        assert '"broken"' in out
        assert err == "demo failed: rows [1] are not ok\n"


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
