"""Loading state models and their expression symbol tables from JSON.

Complex numbers are ``[re, im]`` pairs, vectors are lists of pairs, matrices
nested lists of pairs.  Every file carries ``"version": 1`` and a ``family``
tag; the remaining keys are family-specific (see README for the schema).

Each loaded model exposes a symbol table for the expression DSL: automatic
names for every basis letter (``x1..``, ``y1..`` and so on per slot), plus
any explicit ``symbols`` entries, which embed arbitrary factor matrices and
shadow the automatic names.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .algebra import FreeElement
from .states import (
    FuzzBranch,
    FuzzModel,
    GeneralizedState,
    ModelValidationError,
    SequentialModel,
    SuperspacetimeBranch,
    SuperspacetimeModel,
    SwitchModel,
)

SCHEMA_VERSION = 1

_SEQUENTIAL_PREFIXES = ("x", "y", "z", "w")
_SWITCH_PREFIXES = ("x", "y", "u", "v")


class ModelFormatError(Exception):
    """The model file does not match the documented schema."""


def _real_from(value, where: str) -> float:
    """A finite JSON number; ``json`` also reads NaN, Infinity and 1e400."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ModelFormatError(f"{where}: expected a finite number, got {value!r}")


def _int_from(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ModelFormatError(f"{where}: expected a positive integer, got {value!r}")
    return value


def _complex_from(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ModelFormatError(f"{where}: expected a [re, im] pair, got {value!r}")
    real, imag = (_real_from(x, f"{where}[{k}]") for k, x in enumerate(value))
    return complex(real, imag)


def _vector_from(value, where: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or not value:
        raise ModelFormatError(f"{where}: expected a non-empty list of [re, im] pairs")
    return np.array(
        [_complex_from(entry, f"{where}[{i}]") for i, entry in enumerate(value)]
    )


def _matrix_from(value, where: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or not value:
        raise ModelFormatError(f"{where}: expected a non-empty nested list")
    rows = [_vector_from(row, f"{where}[{i}]") for i, row in enumerate(value)]
    widths = {row.shape[0] for row in rows}
    if len(widths) != 1:
        raise ModelFormatError(f"{where}: rows have inconsistent lengths")
    return np.stack(rows)


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ModelFormatError(f"{where}: missing required key {key!r}")
    return obj[key]


def slot_prefixes(family: str, n_slots: int) -> tuple[str, ...]:
    if family == "sequential":
        base = list(_SEQUENTIAL_PREFIXES[:n_slots])
        base += [f"s{i + 1}" for i in range(len(base), n_slots)]
        return tuple(base)
    return _SWITCH_PREFIXES[:n_slots]


@dataclass(frozen=True)
class LoadedModel:
    state: GeneralizedState
    symbols: dict
    family: str

    @property
    def algebra(self):
        return self.state.algebra


def _auto_symbols(state: GeneralizedState, family: str) -> dict[str, FreeElement]:
    out: dict[str, FreeElement] = {}
    prefixes = slot_prefixes(family, len(state.slots))
    for prefix, factor in zip(prefixes, state.slots):
        n = len(state.algebra.factor(factor).basis)
        for k in range(n):
            out[f"{prefix}{k + 1}"] = state.algebra.word_element(((factor, k),))
    return out


def _user_symbols(state: GeneralizedState, spec) -> dict[str, FreeElement]:
    if spec is None:
        return {}
    if not isinstance(spec, dict):
        raise ModelFormatError("symbols: expected an object of name -> entry")
    out = {}
    for name, entry in spec.items():
        if not isinstance(entry, dict):
            raise ModelFormatError(f"symbols.{name}: expected an object")
        factor = _int_from(_require(entry, "factor", f"symbols.{name}"),
                           f"symbols.{name}.factor")
        if factor not in state.slots:
            raise ModelFormatError(
                f"symbols.{name}.factor: {factor} is not one of the slots {state.slots}"
            )
        matrix = _matrix_from(_require(entry, "matrix", f"symbols.{name}"),
                              f"symbols.{name}.matrix")
        out[name] = state.algebra.embed(factor, matrix)
    return out


def _load_sequential(obj: dict) -> GeneralizedState:
    dim = _int_from(_require(obj, "dim", "model"), "dim")
    psi = _vector_from(_require(obj, "psi", "model"), "psi")
    raw_us = _require(obj, "unitaries", "model")
    if not isinstance(raw_us, (list, tuple)) or not raw_us:
        raise ModelFormatError("unitaries: expected a non-empty list of matrices")
    us = [_matrix_from(u, f"unitaries[{i}]") for i, u in enumerate(raw_us)]
    return SequentialModel(dim, psi, us)


_SWITCH_KEYS = ("vx0", "xy0", "yu0", "vy1", "yx1", "xu1")


def _load_switch(obj: dict) -> GeneralizedState:
    dim = _int_from(_require(obj, "dim", "model"), "dim")
    psi = _vector_from(_require(obj, "psi", "model"), "psi")
    raw_us = _require(obj, "unitaries", "model")
    if not isinstance(raw_us, dict):
        raise ModelFormatError(
            f"unitaries: expected an object with keys {_SWITCH_KEYS}"
        )
    mats = {}
    for key in _SWITCH_KEYS:
        mats[key] = _matrix_from(_require(raw_us, key, "unitaries"), f"unitaries.{key}")
    return SwitchModel(
        dim, psi,
        mats["vx0"], mats["xy0"], mats["yu0"],
        mats["vy1"], mats["yx1"], mats["xu1"],
    )


def _load_fuzz(obj: dict) -> GeneralizedState:
    dim = _int_from(_require(obj, "dim", "model"), "dim")
    psi = _vector_from(_require(obj, "psi", "model"), "psi")
    raw = _require(obj, "branches", "model")
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ModelFormatError("branches: expected a non-empty list")
    branches = []
    for i, entry in enumerate(raw):
        where = f"branches[{i}]"
        if not isinstance(entry, dict):
            raise ModelFormatError(f"{where}: expected an object")
        weight = _real_from(_require(entry, "weight", where), f"{where}.weight")
        order = _require(entry, "order", where)
        us = _require(entry, "unitaries", where)
        if not isinstance(us, (list, tuple)) or len(us) != 3:
            raise ModelFormatError(
                f"{where}.unitaries: expected [pre, mid, post] in temporal order"
            )
        branches.append(
            FuzzBranch(
                weight, str(order),
                pre=_matrix_from(us[0], f"{where}.unitaries[0]"),
                mid=_matrix_from(us[1], f"{where}.unitaries[1]"),
                post=_matrix_from(us[2], f"{where}.unitaries[2]"),
            )
        )
    return FuzzModel(dim, psi, branches)


def _load_superspacetime(obj: dict) -> GeneralizedState:
    dim = _int_from(_require(obj, "dim", "model"), "dim")
    reference = _require(obj, "reference", "model")
    if not isinstance(reference, (list, tuple)):
        raise ModelFormatError("reference: expected a list of insertion-point labels")
    target_psi = _vector_from(_require(obj, "targetPsi", "model"), "targetPsi")
    raw = _require(obj, "branches", "model")
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ModelFormatError("branches: expected a non-empty list")
    branches = []
    for i, entry in enumerate(raw):
        where = f"branches[{i}]"
        if not isinstance(entry, dict):
            raise ModelFormatError(f"{where}: expected an object")
        amplitude = _complex_from(_require(entry, "amplitude", where), f"{where}.amplitude")
        permutation = _require(entry, "permutation", where)
        if (
            not isinstance(permutation, (list, tuple))
            or len(permutation) != 2
            or not all(isinstance(p, int) for p in permutation)
        ):
            raise ModelFormatError(f"{where}.permutation: expected two integers")
        hams = _require(entry, "hamiltonians", where)
        times = _require(entry, "times", where)
        if not isinstance(hams, (list, tuple)) or len(hams) != 3:
            raise ModelFormatError(f"{where}.hamiltonians: expected three matrices")
        if not isinstance(times, (list, tuple)) or len(times) != 3:
            raise ModelFormatError(f"{where}.times: expected three durations")
        branches.append(
            SuperspacetimeBranch(
                amplitude=amplitude,
                permutation=tuple(permutation),
                hamiltonians=tuple(
                    _matrix_from(h, f"{where}.hamiltonians[{j}]")
                    for j, h in enumerate(hams)
                ),
                durations=tuple(
                    _real_from(t, f"{where}.times[{j}]") for j, t in enumerate(times)
                ),
            )
        )
    return SuperspacetimeModel(dim, reference, target_psi, branches).to_fuzz()


_LOADERS = {
    "sequential": _load_sequential,
    "switch": _load_switch,
    "fuzz": _load_fuzz,
    "superspacetime": _load_superspacetime,
}


def load_model_obj(obj: dict) -> LoadedModel:
    if not isinstance(obj, dict):
        raise ModelFormatError("model: expected a JSON object")
    version = _require(obj, "version", "model")
    if version != SCHEMA_VERSION:
        raise ModelFormatError(
            f"version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    family = _require(obj, "family", "model")
    loader = _LOADERS.get(family)
    if loader is None:
        raise ModelFormatError(
            f"family: expected one of {sorted(_LOADERS)}, got {family!r}"
        )
    phi_basis = obj.get("phiBasis", "full")
    if phi_basis != "full":
        raise ModelFormatError(
            f"phiBasis: only \"full\" is supported, got {phi_basis!r}"
        )
    state = loader(obj)
    symbols = _auto_symbols(state, family)
    symbols.update(_user_symbols(state, obj.get("symbols")))
    return LoadedModel(state=state, symbols=symbols, family=family)


def load_model(path: str | os.PathLike) -> LoadedModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    return load_model_obj(obj)
