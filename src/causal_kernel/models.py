"""Loading state models and their expression symbol tables from JSON.

Complex numbers are ``[re, im]`` pairs, vectors are lists of pairs, matrices
nested lists of pairs.  Every file carries ``"version": 1`` and a ``family``
tag; the remaining keys are family-specific (see README for the schema),
and a key the schema does not name is refused at every level.  The loader
checks keys and JSON types and converts values; the family constructor
checks the data, and each of its refusals names the model-file key.

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
from .expr import ExprError, Name, parse
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

# the keys a model file may hold besides each family's own; any other key,
# at any level, is refused
_COMMON_KEYS = ("version", "family", "phiBasis", "symbols")
_SYMBOL_KEYS = ("factor", "matrix")
_FUZZ_BRANCH_KEYS = ("weight", "order", "unitaries")
_SUPERSPACETIME_BRANCH_KEYS = ("amplitude", "permutation", "hamiltonians", "times")


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


def _list_from(value, where: str, items: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ModelFormatError(f"{where}: expected a list of {items}")
    return value


def _refuse_unknown(obj: dict, keys, where: str) -> None:
    for key in obj:
        if key not in keys:
            raise ModelFormatError(f"{where}: unknown key {key!r}")


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

    @property
    def family(self) -> str:
        return self.state.family

    @property
    def algebra(self):
        return self.state.algebra


def _auto_symbols(state: GeneralizedState) -> dict[str, FreeElement]:
    out: dict[str, FreeElement] = {}
    slots = state.algebra.factor_indices
    for prefix, factor in zip(slot_prefixes(state.family, len(slots)), slots):
        n = len(state.algebra.factor(factor).basis)
        for k in range(n):
            out[f"{prefix}{k + 1}"] = state.algebra.word_element(((factor, k),))
    return out


def _is_name(text: str) -> bool:
    """Whether an expression reaches a symbol called ``text``: the text
    alone parses as that name, not as ``i``, ``I``, a call or a product."""
    try:
        return parse(text) == Name(text)
    except ExprError:
        return False


def _user_symbols(state: GeneralizedState, spec) -> dict[str, FreeElement]:
    if spec is None:
        return {}
    if not isinstance(spec, dict):
        raise ModelFormatError("symbols: expected an object of name -> entry")
    out = {}
    slots = state.algebra.factor_indices
    for name, entry in spec.items():
        if not _is_name(name):
            raise ModelFormatError(
                f"symbols.{name}: an expression cannot name this symbol; expected "
                "an identifier (a letter or _, then letters, digits or _) other "
                "than i, I and adj"
            )
        if not isinstance(entry, dict):
            raise ModelFormatError(f"symbols.{name}: expected an object")
        _refuse_unknown(entry, _SYMBOL_KEYS, f"symbols.{name}")
        factor = _int_from(_require(entry, "factor", f"symbols.{name}"),
                           f"symbols.{name}.factor")
        if factor not in slots:
            raise ModelFormatError(
                f"symbols.{name}.factor: {factor} is not one of the slots {slots}"
            )
        matrix = _matrix_from(_require(entry, "matrix", f"symbols.{name}"),
                              f"symbols.{name}.matrix")
        out[name] = state.algebra.embed(factor, matrix)
    return out


def _entries(obj: dict, key: str, keys):
    """``(where, entry)`` for each object of the list ``obj[key]``, each
    holding no key outside ``keys``."""
    raw = _list_from(_require(obj, key, "model"), key, "objects")
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ModelFormatError(f"{key}[{i}]: expected an object")
        _refuse_unknown(entry, keys, f"{key}[{i}]")
        yield f"{key}[{i}]", entry


def _load_sequential(obj: dict) -> GeneralizedState:
    dim = _int_from(_require(obj, "dim", "model"), "dim")
    psi = _vector_from(_require(obj, "psi", "model"), "psi")
    raw_us = _list_from(_require(obj, "unitaries", "model"), "unitaries", "matrices")
    us = [_matrix_from(u, f"unitaries[{i}]") for i, u in enumerate(raw_us)]
    return SequentialModel(dim, psi, us)


def _load_switch(obj: dict) -> GeneralizedState:
    dim = _int_from(_require(obj, "dim", "model"), "dim")
    psi = _vector_from(_require(obj, "psi", "model"), "psi")
    raw_us = _require(obj, "unitaries", "model")
    if not isinstance(raw_us, dict):
        raise ModelFormatError("unitaries: expected an object of segment name -> matrix")
    mats = {key: _matrix_from(u, f"unitaries.{key}") for key, u in raw_us.items()}
    return SwitchModel(dim, psi, mats)


def _load_fuzz(obj: dict) -> GeneralizedState:
    dim = _int_from(_require(obj, "dim", "model"), "dim")
    psi = _vector_from(_require(obj, "psi", "model"), "psi")
    branches = []
    for where, entry in _entries(obj, "branches", _FUZZ_BRANCH_KEYS):
        weight = _real_from(_require(entry, "weight", where), f"{where}.weight")
        order = _require(entry, "order", where)
        us = _require(entry, "unitaries", where)
        if not isinstance(us, (list, tuple)) or len(us) != 3:
            raise ModelFormatError(
                f"{where}.unitaries: expected [pre, mid, post] in temporal order"
            )
        segs = (_matrix_from(u, f"{where}.unitaries[{j}]") for j, u in enumerate(us))
        branches.append(FuzzBranch(weight, order, *segs))
    return FuzzModel(dim, psi, branches)


def _load_superspacetime(obj: dict) -> GeneralizedState:
    dim = _int_from(_require(obj, "dim", "model"), "dim")
    reference = _list_from(_require(obj, "reference", "model"), "reference",
                           "insertion-point labels")
    target_psi = _vector_from(_require(obj, "targetPsi", "model"), "targetPsi")
    branches = []
    for where, entry in _entries(obj, "branches", _SUPERSPACETIME_BRANCH_KEYS):
        amplitude = _complex_from(_require(entry, "amplitude", where),
                                  f"{where}.amplitude")
        permutation = _require(entry, "permutation", where)
        # a bool is an int to isinstance, so the type is compared exactly
        if not (isinstance(permutation, (list, tuple))
                and all(type(p) is int for p in permutation)):
            raise ModelFormatError(f"{where}.permutation: expected a list of integers")
        hams = _list_from(_require(entry, "hamiltonians", where),
                          f"{where}.hamiltonians", "matrices")
        times = _list_from(_require(entry, "times", where), f"{where}.times", "durations")
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
    return SuperspacetimeModel(dim, reference, target_psi, branches)


# each family's loader and the keys of its file besides _COMMON_KEYS
_LOADERS = {
    "sequential": (_load_sequential, ("dim", "psi", "unitaries")),
    "switch": (_load_switch, ("dim", "psi", "unitaries")),
    "fuzz": (_load_fuzz, ("dim", "psi", "branches")),
    "superspacetime": (_load_superspacetime,
                       ("dim", "reference", "targetPsi", "branches")),
}


def load_model_obj(obj: dict) -> LoadedModel:
    if not isinstance(obj, dict):
        raise ModelFormatError("model: expected a JSON object")
    version = _require(obj, "version", "model")
    # the JSON integer: true and 1.0 compare equal to 1
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ModelFormatError(
            f"version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    family = _require(obj, "family", "model")
    # a list or object family is unhashable, so it cannot be looked up
    if not (isinstance(family, str) and family in _LOADERS):
        raise ModelFormatError(
            f"family: expected one of {sorted(_LOADERS)}, got {family!r}"
        )
    loader, keys = _LOADERS[family]
    _refuse_unknown(obj, _COMMON_KEYS + keys, "model")
    phi_basis = obj.get("phiBasis", "full")
    if phi_basis != "full":
        raise ModelFormatError(
            f"phiBasis: only \"full\" is supported, got {phi_basis!r}"
        )
    state = loader(obj)
    symbols = _auto_symbols(state)
    symbols.update(_user_symbols(state, obj.get("symbols")))
    return LoadedModel(state=state, symbols=symbols)


def load_model(path: str | os.PathLike) -> LoadedModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"model file is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    return load_model_obj(obj)
