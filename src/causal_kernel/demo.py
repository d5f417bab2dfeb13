"""Bundled walkthrough models for the demo subcommands.

Both demos use a qubit control and qubit target with fixed, hand-picked
unitaries so their output is deterministic.  Rows carry the compared values
and their difference so a reader (or test) can see each check directly.
"""

from __future__ import annotations

import numpy as np

from . import oracle
from .states import FuzzBranch, FuzzModel, SwitchModel

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_S = np.array([[1.0, 0.0], [0.0, 1.0j]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_T = np.array([[1.0, 0.0], [0.0, np.exp(0.25j * np.pi)]])
_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)
_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)

_SEGMENTS = {
    "vx0": _H, "xy0": _S, "yu0": _X,
    "vy1": _T, "yx1": _H, "xu1": _S,
}

# the six segments as the two weight-1 fuzz branches: control 0 runs
# yu0, y, xy0, x, vx0 and control 1 runs xu1, x, yx1, y, vy1.  These and
# _fixed_order_value do not read states.SWITCH_SEGMENTS on purpose: a switch
# segment on the wrong branch fails a demo row only if the rows state the map
# on their own, and rows read from the table would check it against itself.
_BRANCHES = (
    FuzzBranch(1.0, "yx", pre=_SEGMENTS["yu0"], mid=_SEGMENTS["xy0"],
               post=_SEGMENTS["vx0"]),
    FuzzBranch(1.0, "xy", pre=_SEGMENTS["xu1"], mid=_SEGMENTS["yx1"],
               post=_SEGMENTS["vy1"]),
)


def _c(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _row(key: str, label: str, name: str, value: complex, reference: complex) -> dict:
    """One demo row: ``value`` under ``name`` beside its reference."""
    difference = float(abs(value - reference))
    return {
        key: label,
        name: _c(value),
        "reference": _c(reference),
        "difference": difference,
        "ok": difference <= 1e-10,
    }


def _switch_with_control(control: np.ndarray) -> SwitchModel:
    psi = np.kron(control, _KET0)
    return SwitchModel(2, psi, _SEGMENTS)


def _omega_xy(model: FuzzModel, x: np.ndarray, y: np.ndarray) -> complex:
    """omega(e, x*y) with x in slot 1 and y in slot 2."""
    algebra = model.algebra
    return model.eval_bilinear(algebra.unit(), algebra.embed(1, x) * algebra.embed(2, y))


def _fixed_order_value(order: str, x: np.ndarray, y: np.ndarray) -> complex:
    """omega(e, x*y) for a control concentrated on one order, recomputed
    as an explicit operator chain."""
    if order == "yx":
        full = _SEGMENTS["vx0"] @ _SEGMENTS["xy0"] @ _SEGMENTS["yu0"]
        ops = [full.conj().T, _SEGMENTS["vx0"], x, _SEGMENTS["xy0"], y, _SEGMENTS["yu0"]]
    else:
        full = _SEGMENTS["vy1"] @ _SEGMENTS["yx1"] @ _SEGMENTS["xu1"]
        ops = [full.conj().T, _SEGMENTS["vy1"], y, _SEGMENTS["yx1"], x, _SEGMENTS["xu1"]]
    return oracle.chain_amplitude(ops, _KET0, _KET0)


def demo_switch_report() -> dict:
    """omega(e, x*y) for control |0>, |1> and (|0>+|1>)/sqrt(2), checked
    against fixed-order chains and amplitude branch linearity."""
    x_mat, y_mat = _X, np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    rows = []
    references = {"yx": _fixed_order_value("yx", x_mat, y_mat),
                  "xy": _fixed_order_value("xy", x_mat, y_mat)}
    controls = [("|0>", _KET0), ("|1>", _KET1), ("(|0>+|1>)/sqrt2", _PLUS)]
    for label, control in controls:
        value = _omega_xy(_switch_with_control(control), x_mat, y_mat)
        if label == "|0>":
            reference = references["yx"]
        elif label == "|1>":
            reference = references["xy"]
        else:
            reference = 0.5 * (references["yx"] + references["xy"])
        rows.append(_row("control", label, "omega", value, reference))
    # amplitude branch linearity: superposed control = weighted branch sum
    sup = _switch_with_control(_PLUS)
    m0 = _switch_with_control(_KET0)
    m1 = _switch_with_control(_KET1)
    phi = np.kron(_PLUS, _KET0)
    args = (phi, x_mat, y_mat, np.eye(4), np.eye(4))
    lhs = sup.amplitude(*args)
    rhs = (m0.amplitude(*args) + m1.amplitude(*args)) / np.sqrt(2.0)
    rows.append(_row("control", "branch-linearity", "omega", lhs, rhs))
    return {"demo": "switch", "rows": rows}


def demo_fuzz_report() -> dict:
    """Single-branch measure degeneracy and the two-branch reduction."""
    x_mat, y_mat = _X, np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    rows = []

    single = FuzzModel(2, _KET0, _BRANCHES[:1])
    val_single = _omega_xy(single, x_mat, y_mat)
    val_fixed = _omega_xy(_switch_with_control(_KET0), x_mat, y_mat)
    rows.append(_row("check", "single-branch equals concentrated-control model",
                     "fuzz", val_single, val_fixed))

    two = FuzzModel(2, np.kron(_PLUS, _KET0), _BRANCHES)
    val_two = _omega_xy(two, x_mat, y_mat)
    val_sw = _omega_xy(_switch_with_control(_PLUS), x_mat, y_mat)
    rows.append(_row("check", "two weight-1 branches reproduce the control superposition",
                     "fuzz", val_two, val_sw))
    return {"demo": "fuzz", "rows": rows}
