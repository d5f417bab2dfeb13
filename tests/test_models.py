import json
import pathlib

import numpy as np
import pytest

from causal_kernel.algebra import DimensionMismatchError
from causal_kernel.models import (
    ModelFormatError,
    load_model,
    load_model_obj,
    slot_prefixes,
)
from causal_kernel.states import ModelValidationError, SequentialModel

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

    def test_unknown_family(self):
        with pytest.raises(ModelFormatError, match="family"):
            load_model_obj(sequential_obj(family="nope"))

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

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError, match="valid JSON"):
            load_model(path)


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
    ], ids=["dim-text", "dim-fraction", "dim-bool", "dim-zero", "psi-nan", "psi-inf",
            "psi-huge-int", "unitary-minus-inf", "factor-text", "factor-unknown",
            "weight-text", "weight-nan", "time-inf", "reference-not-a-list"])
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
