import json
import pathlib
import re

import numpy as np
import pytest

from causal_kernel.algebra import DimensionMismatchError
from causal_kernel.cli import main
from causal_kernel.models import (
    ModelFormatError,
    load_model,
    load_model_obj,
    slot_prefixes,
)
from causal_kernel.oracle import chain_amplitude
from causal_kernel.states import (
    ModelValidationError,
    SequentialModel,
    SuperspacetimeBranch,
    SuperspacetimeModel,
    SwitchModel,
)
from conftest import SWITCH_NAMES

MODELS_DIR = pathlib.Path(__file__).resolve().parent.parent / "models"


def c(z):
    z = complex(z)
    return [z.real, z.imag]


def vec(v):
    return [c(z) for z in v]


def mat(m):
    return [[c(z) for z in row] for row in np.asarray(m)]


def sequential_obj(**overrides):
    obj = {
        "version": 1,
        "family": "sequential",
        "dim": 2,
        "psi": vec([1, 0]),
        "unitaries": [mat(np.eye(2))],
    }
    obj.update(overrides)
    return obj


class TestLoading:
    @pytest.mark.parametrize("name", [
        "sequential_qubit",
        "switch_qubit",
        "fuzz_two_branch",
        "superspacetime_two_branch",
    ])
    def test_shipped_samples_load(self, name):
        model = load_model(MODELS_DIR / f"{name}.json")
        assert abs(model.state.eval_words((), ()) - 1.0) < 1e-10

    def test_sequential_round_values(self):
        model = load_model_obj(sequential_obj())
        assert model.family == "sequential"
        assert model.state.dim == 2

    def test_auto_symbols_cover_all_letters(self):
        model = load_model_obj(sequential_obj())
        for name in ("x1", "x2", "x3", "y1", "y2", "y3"):
            assert name in model.symbols

    def test_user_symbols_shadow_auto_names(self):
        obj = sequential_obj(symbols={
            "x1": {"factor": 2, "matrix": mat([[0, 1], [1, 0]])},
        })
        model = load_model_obj(obj)
        (word, coeff), = model.symbols["x1"].items()
        assert word == ((2, 0),)

    def test_switch_prefixes(self):
        assert slot_prefixes("switch", 4) == ("x", "y", "u", "v")
        assert slot_prefixes("sequential", 2) == ("x", "y")
        assert slot_prefixes("sequential", 5)[-1] == "s5"


class TestFormatErrors:
    def test_wrong_version(self):
        with pytest.raises(ModelFormatError, match="version"):
            load_model_obj(sequential_obj(version=2))

    # true and 1.0 compare equal to 1, but only the JSON integer 1 is the version
    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_is_the_integer_one(self, version):
        with pytest.raises(ModelFormatError) as err:
            load_model_obj(shipped_obj("sequential_qubit", _set(("version",), version)))
        assert str(err.value) == f"version: expected 1, got {version!r}"

    # a name the expression grammar reads as something else, or cannot read
    @pytest.mark.parametrize("name", ["I", "i", "adj", "x y", "1x", "(x)", "x*y", ""])
    def test_unreachable_symbol_name(self, name):
        edit = _set(("symbols", name), {"factor": 1, "matrix": mat(np.eye(2))})
        with pytest.raises(ModelFormatError,
                           match=f"^symbols\\.{re.escape(name)}: an expression cannot"):
            load_model_obj(shipped_obj("sequential_qubit", edit))

    def test_reachable_symbol_names(self):
        edit = _set(("symbols",), {n: {"factor": 1, "matrix": mat(np.eye(2))}
                                   for n in ("_a1", "x1", "adjoint", "I2", "ii")})
        model = load_model_obj(shipped_obj("sequential_qubit", edit))
        assert {"_a1", "x1", "adjoint", "I2", "ii"} <= set(model.symbols)

    def test_unknown_family(self):
        with pytest.raises(ModelFormatError, match="family"):
            load_model_obj(sequential_obj(family="nope"))

    # an unhashable family cannot be looked up among the loaders
    @pytest.mark.parametrize("family", [["switch"], {"switch": 1}])
    def test_family_must_be_a_string(self, family):
        with pytest.raises(ModelFormatError, match="family"):
            load_model_obj(sequential_obj(family=family))

    def test_missing_key(self):
        obj = sequential_obj()
        del obj["psi"]
        with pytest.raises(ModelFormatError, match="psi"):
            load_model_obj(obj)

    def test_bad_complex_pair(self):
        with pytest.raises(ModelFormatError, match=r"\[re, im\]"):
            load_model_obj(sequential_obj(psi=[[1.0], [0.0, 0.0]]))

    def test_ragged_matrix(self):
        bad = [[c(1), c(0)], [c(0)]]
        with pytest.raises(ModelFormatError, match="inconsistent"):
            load_model_obj(sequential_obj(unitaries=[bad]))

    def test_partial_basis_sum_rejected(self):
        with pytest.raises(ModelFormatError, match="phiBasis"):
            load_model_obj(sequential_obj(phiBasis="sampled"))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ModelFormatError, match="cannot read"):
            load_model(tmp_path / "missing.json")

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ModelFormatError, match="not valid UTF-8"):
            load_model(path)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError, match="valid JSON"):
            load_model(path)

    @pytest.mark.parametrize("key", ["vx0", "xy0", "yu0", "vy1", "yx1", "xu1"])
    def test_switch_segment_missing(self, key):
        obj = shipped_obj("switch_qubit", lambda o: o["unitaries"].pop(key))
        # SwitchModel owns the segment-name rule, for files and library callers
        with pytest.raises(ModelValidationError) as err:
            load_model_obj(obj)
        assert str(err.value) == f"unitaries: missing required key {key!r}"


class TestValidationErrors:
    def test_non_unitary_matrix(self):
        bad = mat([[1, 0], [0, 2]])
        with pytest.raises(ModelValidationError, match="unitary"):
            load_model_obj(sequential_obj(unitaries=[bad]))

    def test_unnormalized_state(self):
        with pytest.raises(ModelValidationError, match="normalized"):
            load_model_obj(sequential_obj(psi=vec([1, 1])))

    def test_symbol_dimension_mismatch(self):
        obj = sequential_obj(symbols={
            "x": {"factor": 1, "matrix": mat(np.eye(3))},
        })
        with pytest.raises(DimensionMismatchError):
            load_model_obj(obj)

    def test_fuzz_norm_breaking_weights(self):
        obj = {
            "version": 1,
            "family": "fuzz",
            "dim": 2,
            "psi": vec(np.kron([0.6, 0.8], [1, 0])),
            "branches": [
                {"weight": 2.0, "order": "yx",
                 "unitaries": [mat(np.eye(2))] * 3},
                {"weight": 2.0, "order": "xy",
                 "unitaries": [mat(np.eye(2))] * 3},
            ],
        }
        with pytest.raises(ModelValidationError, match="normalization"):
            load_model_obj(obj)


def shipped_obj(name, edit):
    """A committed model file's object after ``edit(obj)``."""
    obj = json.loads((MODELS_DIR / f"{name}.json").read_text())
    edit(obj)
    return obj


def _set(path, value):
    def edit(obj):
        *head, last = path
        for key in head:
            obj = obj[key]
        obj[last] = value

    return edit


class TestMalformedNumbers:
    @pytest.mark.parametrize("name, path, value, key", [
        ("sequential_qubit", ("dim",), "abc", "dim"),
        ("sequential_qubit", ("dim",), 2.5, "dim"),
        ("sequential_qubit", ("dim",), True, "dim"),
        ("sequential_qubit", ("dim",), 0, "dim"),
        ("sequential_qubit", ("psi", 0, 0), float("nan"), r"psi\[0\]\[0\]"),
        ("sequential_qubit", ("psi", 1, 1), float("inf"), r"psi\[1\]\[1\]"),
        ("sequential_qubit", ("psi", 1, 1), 10**400, r"psi\[1\]\[1\]"),
        ("switch_qubit", ("unitaries", "xy0", 0, 1, 0), float("-inf"),
         r"unitaries.xy0\[0\]\[1\]\[0\]"),
        ("sequential_qubit", ("symbols", "x", "factor"), "x", "symbols.x.factor"),
        ("sequential_qubit", ("symbols", "x", "factor"), 7, "symbols.x.factor"),
        ("fuzz_two_branch", ("branches", 0, "weight"), "w", r"branches\[0\].weight"),
        ("fuzz_two_branch", ("branches", 1, "weight"), float("nan"),
         r"branches\[1\].weight"),
        ("superspacetime_two_branch", ("branches", 0, "times", 2), float("inf"),
         r"branches\[0\].times\[2\]"),
        ("superspacetime_two_branch", ("reference",), 5, "reference"),
        ("superspacetime_two_branch", ("branches", 1, "permutation"), [True, False],
         r"branches\[1\].permutation"),
    ], ids=["dim-text", "dim-fraction", "dim-bool", "dim-zero", "psi-nan", "psi-inf",
            "psi-huge-int", "unitary-minus-inf", "factor-text", "factor-unknown",
            "weight-text", "weight-nan", "time-inf", "reference-not-a-list",
            "permutation-bool"])
    def test_is_a_format_error_naming_the_key(self, name, path, value, key):
        with pytest.raises(ModelFormatError, match=f"^{key}"):
            load_model_obj(shipped_obj(name, _set(path, value)))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_json_non_finite_literals_are_refused(self, tmp_path, literal):
        text = (MODELS_DIR / "sequential_qubit.json").read_text()
        path = tmp_path / "model.json"
        path.write_text(text.replace('"psi": [\n    [\n      1.0',
                                     f'"psi": [\n    [\n      {literal}', 1))
        assert path.read_text() != text
        with pytest.raises(ModelFormatError, match=r"psi\[0\]\[0\]"):
            load_model(path)

    @pytest.mark.parametrize("where", ["psi", "unitary"])
    def test_nan_fails_the_state_checks(self, where):
        psi = np.array([np.nan, 0.0]) if where == "psi" else np.array([1.0, 0.0])
        u = np.full((2, 2), np.nan) if where == "unitary" else np.eye(2)
        with pytest.raises(ModelValidationError):
            SequentialModel(2, psi, [u])


class TestSwitchFile:
    def test_kernel_is_the_readme_branch_chains(self):
        """omega(e, a) on the switch file, against each control branch's chain
        written out here from the raw JSON and the README schema: control 0
        runs yu0, y, xy0, x, vx0 and control 1 runs xu1, x, yx1, y, vy1, with
        u before and v after both on control (x) target.

        The words run over all four slots: in omega(e, a) with no v letter in
        a, the last segment of each branch cancels against itself (it is
        unitary), so words on x and y alone cannot tell vx0 from vy1."""
        raw = json.loads((MODELS_DIR / "switch_qubit.json").read_text())

        def complex_array(pairs):
            return np.asarray(pairs, dtype=float) @ np.array([1.0, 1.0j])

        d = raw["dim"]
        psi = complex_array(raw["psi"]).reshape(2, d)
        seg = {k: complex_array(m) for k, m in raw["unitaries"].items()}

        def chain(k, x, y):
            """Control k's branch, latest segment first as chain_amplitude
            reads it."""
            if k == 0:
                return [seg["vx0"], x, seg["xy0"], y, seg["yu0"]]
            return [seg["vy1"], y, seg["yx1"], x, seg["xu1"]]

        def block(m, i, j):
            return m[i * d:(i + 1) * d, j * d:(j + 1) * d]

        state = load_model(MODELS_DIR / "switch_qubit.json").state
        alg = state.algebra
        letters = [(f, k) for f in (1, 2, 3, 4) for k in range(len(alg.factor(f).basis))]
        words = [(), *((b,) for b in letters),
                 *((b, a) for b in letters for a in letters if b[0] != a[0])]
        eye_t, eye_c = np.eye(d), np.eye(2 * d)
        worst = 0.0
        for word in words:
            x, y, u, v = (next((alg.factor(f).basis[k] for g, k in word if g == f),
                               eye_t if f < 3 else eye_c) for f in (1, 2, 3, 4))
            # <r(e)| = sum_l <l| (x) <psi_l| chain_l(1, 1)^dagger, and
            # |r(a)> = v (sum_k |k><k| (x) chain_k(x, y)) u |psi>
            expected = sum(
                chain_amplitude(
                    [*(m.conj().T for m in reversed(chain(l, eye_t, eye_t))),
                     block(v, l, k), *chain(k, x, y), block(u, k, j)],
                    psi[j], psi[l],
                )
                for l in range(2) for k in range(2) for j in range(2)
            )
            worst = max(worst, abs(state.eval_words((), word) - expected))
        assert len(words) == 865
        assert worst <= 1e-12


NON_UNITARY = mat([[2, 0], [0, 1]])
ONE_BY_ONE = mat([[1]])


def _drop(path):
    def edit(obj):
        *head, last = path
        for key in head:
            obj = obj[key]
        del obj[last]

    return edit


def _zero_amplitudes(obj):
    for branch in obj["branches"]:
        branch["amplitude"] = c(0)


# one edit to a committed model file each, and the start of its refusal
DATA_REFUSALS = [
    ("sequential_qubit", _set(("unitaries",), []),
     "unitaries: expected at least one unitary"),
    ("sequential_qubit", _set(("unitaries", 0), ONE_BY_ONE),
     "unitaries[0]: expected a 2x2 matrix"),
    ("sequential_qubit", _set(("psi",), vec([1, 1])), "psi: not normalized"),
    ("switch_qubit", _set(("unitaries", "yx1"), NON_UNITARY),
     "unitaries.yx1: not unitary"),
    ("switch_qubit", _set(("unitaries", "vx0"), ONE_BY_ONE),
     "unitaries.vx0: expected a 2x2 matrix"),
    ("switch_qubit", _drop(("unitaries", "xy0")),
     "unitaries: missing required key 'xy0'"),
    ("switch_qubit", _set(("unitaries", "zz9"), mat(np.eye(2))),
     "unitaries: unknown key 'zz9'"),
    ("fuzz_two_branch", _set(("branches",), []),
     "branches: at least one branch is required"),
    ("fuzz_two_branch", _set(("branches", 1, "unitaries", 2), NON_UNITARY),
     "branches[1].unitaries[2]: not unitary"),
    ("fuzz_two_branch", _set(("branches", 0, "weight"), -1.0),
     "branches[0].weight: must be positive"),
    ("fuzz_two_branch", _set(("branches", 1, "order"), "yy"),
     "branches[1].order: must be 'yx' or 'xy'"),
    ("fuzz_two_branch", _set(("branches", 0, "weight"), 2.0),
     "branches: weights and psi do not preserve normalization"),
    ("superspacetime_two_branch", _set(("branches",), []),
     "branches: at least one branch is required"),
    ("superspacetime_two_branch", _set(("branches", 0, "hamiltonians", 1, 0, 1), c(1)),
     "branches[0].hamiltonians[1]: not hermitian"),
    ("superspacetime_two_branch", _set(("branches", 1, "hamiltonians", 2), ONE_BY_ONE),
     "branches[1].hamiltonians[2]: expected a 2x2 matrix"),
    ("superspacetime_two_branch", _drop(("branches", 0, "hamiltonians", 2)),
     "branches[0].hamiltonians: expected three matrices"),
    ("superspacetime_two_branch", _drop(("branches", 1, "times", 0)),
     "branches[1].times: expected three durations"),
    ("superspacetime_two_branch", _set(("branches", 0, "permutation"), [0, 0]),
     "branches[0].permutation: identification map"),
    ("superspacetime_two_branch", _set(("targetPsi",), vec([1, 1])),
     "targetPsi: not normalized"),
    ("superspacetime_two_branch", _set(("reference",), ["p0"]),
     "reference: must name exactly two insertion points"),
    ("superspacetime_two_branch", _set(("reference",), ["p0", "p0"]),
     "reference: the two insertion points have the same label 'p0'"),
    # a label is any JSON value, so the labels are compared, not hashed
    ("superspacetime_two_branch", _set(("reference",), [{"at": [0]}, {"at": [0]}]),
     "reference: the two insertion points have the same label"),
    ("superspacetime_two_branch", _zero_amplitudes,
     "branches: amplitude vector is not normalizable"),
    # the norm overflows to inf, which would scale every amplitude to 0
    ("superspacetime_two_branch", _set(("branches", 0, "amplitude"), [1e308, 0.0]),
     "branches: amplitude vector is not normalizable"),
]
DATA_REFUSAL_IDS = [
    "sequential-no-unitary", "sequential-unitary-shape", "sequential-psi",
    "switch-not-unitary", "switch-shape", "switch-missing-key", "switch-unknown-key",
    "fuzz-no-branch", "fuzz-not-unitary", "fuzz-weight", "fuzz-order",
    "fuzz-normalization", "superspacetime-no-branch", "superspacetime-not-hermitian",
    "superspacetime-shape", "superspacetime-two-hamiltonians",
    "superspacetime-two-times", "superspacetime-permutation", "superspacetime-target-psi",
    "superspacetime-reference", "superspacetime-equal-labels",
    "superspacetime-equal-unhashable-labels", "superspacetime-zero-amplitudes",
    "superspacetime-overflowing-amplitude",
]


class TestDataRefusalsNameTheKey:
    """The family constructor is the one place that checks a model's data,
    and each of its refusals starts with the model-file key it refuses."""

    @pytest.mark.parametrize("name, edit, start", DATA_REFUSALS, ids=DATA_REFUSAL_IDS)
    def test_refusal_starts_with_the_key(self, name, edit, start):
        with pytest.raises(ModelValidationError) as err:
            load_model_obj(shipped_obj(name, edit))
        assert str(err.value).startswith(start)

    @pytest.mark.parametrize("k", [3, 6],
                             ids=["switch-not-unitary", "switch-unknown-key"])
    def test_cli_exits_3_naming_the_key(self, capsys, tmp_path, k):
        name, edit, start = DATA_REFUSALS[k]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(shipped_obj(name, edit)))
        code = main(["eval", "--model", str(path), "--b", "I", "--a", "I"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith(f"model error: {start}") and err.count("\n") == 1

    def test_library_switch_refusal_is_the_file_message(self):
        with pytest.raises(ModelValidationError) as from_file:
            load_model_obj(shipped_obj("switch_qubit", DATA_REFUSALS[6][1]))
        segments = dict.fromkeys((*SWITCH_NAMES, "zz9"), np.eye(2))
        with pytest.raises(ModelValidationError) as from_library:
            SwitchModel(2, np.eye(4)[0], segments)
        assert str(from_library.value) == str(from_file.value)

    def test_library_equal_reference_labels_are_the_file_message(self):
        edit = _set(("reference",), [["p"], ["p"]])
        with pytest.raises(ModelValidationError) as from_file:
            load_model_obj(shipped_obj("superspacetime_two_branch", edit))
        still = SuperspacetimeBranch(1.0, (0, 1), (np.zeros((2, 2)),) * 3, (0.0,) * 3)
        with pytest.raises(ModelValidationError) as from_library:
            SuperspacetimeModel(2, [["p"], ["p"]], np.eye(2)[0], [still])
        assert str(from_library.value) == str(from_file.value)
        assert str(from_file.value).startswith("reference: ")

    def test_distinct_unhashable_labels_load(self):
        edit = _set(("reference",), [["p"], {"q": 1}])
        assert load_model_obj(shipped_obj("superspacetime_two_branch", edit))


def _rename(path, new):
    def edit(obj):
        *head, last = path
        for key in head:
            obj = obj[key]
        obj[new] = obj.pop(last)

    return edit


# a key the schema does not name, at each level of a model file, and the
# whole refusal
UNKNOWN_KEYS = [
    ("sequential_qubit", _rename(("symbols",), "symbol"), "model: unknown key 'symbol'"),
    ("sequential_qubit", _set(("phiBasys",), "sampled"), "model: unknown key 'phiBasys'"),
    ("fuzz_two_branch", _set(("branches", 0, "wieght"), 1.0),
     "branches[0]: unknown key 'wieght'"),
    ("superspacetime_two_branch", _rename(("branches", 1, "times"), "time"),
     "branches[1]: unknown key 'time'"),
    ("sequential_qubit", _set(("symbols", "x", "factr"), 1),
     "symbols.x: unknown key 'factr'"),
]


class TestUnknownKeys:
    @pytest.mark.parametrize("name, edit, message", UNKNOWN_KEYS, ids=[
        "model-renamed", "model-misspelt", "fuzz-branch", "superspacetime-branch",
        "symbol-entry"])
    def test_is_a_format_error_naming_the_level(self, name, edit, message):
        with pytest.raises(ModelFormatError) as err:
            load_model_obj(shipped_obj(name, edit))
        assert str(err.value) == message

    def test_cli_exits_3(self, capsys, tmp_path):
        name, edit, message = UNKNOWN_KEYS[0]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(shipped_obj(name, edit)))
        code = main(["eval", "--model", str(path), "--b", "I", "--a", "I"])
        assert (code, capsys.readouterr()) == (3, ("", f"model error: {message}\n"))
