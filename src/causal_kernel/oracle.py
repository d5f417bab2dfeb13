"""Independent brute-force reference calculator.

Everything here recomputes state values from raw model data with dense
matrices, explicit orthonormal-basis loops, and its own grouping and adjoint
code.  It deliberately shares no evaluation code with the state classes: the
only imports besides numpy are the algebra types needed to read basis
matrices off a word.  Slow on purpose.
"""

from __future__ import annotations

import numpy as np

from .algebra import CanonicalWord, DimensionMismatchError, FreeAlgebra


def _dagger(m: np.ndarray) -> np.ndarray:
    return np.conjugate(np.transpose(m))


def heisenberg_correlator(
    psi: np.ndarray,
    u1: np.ndarray,
    u2: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
) -> complex:
    """<psi| (U1* x U1)(U2* y U2) |psi> by literal matrix-vector products."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    d = psi.shape[0]
    for name, m in (("u1", u1), ("u2", u2), ("x", x), ("y", y)):
        if np.shape(m) != (d, d):
            raise DimensionMismatchError(
                f"{name}: expected shape {(d, d)}, got {np.shape(m)}"
            )
    v = np.asarray(u2, dtype=complex) @ psi
    v = np.asarray(y, dtype=complex) @ v
    v = _dagger(np.asarray(u2, dtype=complex)) @ v
    v = np.asarray(u1, dtype=complex) @ v
    v = np.asarray(x, dtype=complex) @ v
    v = _dagger(np.asarray(u1, dtype=complex)) @ v
    return complex(psi.conj() @ v)


def chain_amplitude(ops, psi: np.ndarray, phi: np.ndarray) -> complex:
    """<phi| op_1 op_2 ... op_n |psi>, applied left to right from the bra."""
    row = np.asarray(phi, dtype=complex).reshape(-1).conj()
    for op in ops:
        op = np.asarray(op, dtype=complex)
        if op.shape[0] != row.shape[0]:
            raise DimensionMismatchError(
                f"chain operator of shape {op.shape} does not match width "
                f"{row.shape[0]}"
            )
        row = row @ op
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if row.shape[0] != psi.shape[0]:
        raise DimensionMismatchError("chain does not match the ket dimension")
    return complex(row @ psi)


def _letter_matrices(
    algebra: FreeAlgebra, word: CanonicalWord
) -> list[tuple[int, np.ndarray]]:
    """Each letter's factor and basis matrix, read through the algebra's
    letter check."""
    return [(f, algebra.letter_factor(f, k).basis[k]) for f, k in word]


def _star_word_matrices(
    algebra: FreeAlgebra, word: CanonicalWord
) -> list[tuple[int, np.ndarray]]:
    """Letters of the word adjoint: reversed order, each matrix daggered."""
    return [(f, _dagger(m)) for f, m in reversed(_letter_matrices(algebra, word))]


def _slot_products(algebra: FreeAlgebra, letters) -> list[np.ndarray]:
    """Grouping reimplemented: per-factor products of ``(factor, matrix)``
    letters in appearance order."""
    slots = algebra.factor_indices
    prods = [np.eye(algebra.factor(f).dim, dtype=complex) for f in slots]
    index_of = {f: i for i, f in enumerate(slots)}
    for f, m in letters:
        i = index_of[f]
        prods[i] = prods[i] @ m
    return prods


def _sequential_bruteforce(model, b: CanonicalWord, a: CanonicalWord) -> complex:
    algebra = model.algebra
    a_groups = _slot_products(algebra, _letter_matrices(algebra, a))
    b_groups = _slot_products(algebra, _letter_matrices(algebra, b))
    us = [np.asarray(u, dtype=complex) for u in model.unitaries]
    psi = np.asarray(model.psi, dtype=complex)
    d = psi.shape[0]
    n = len(a_groups)
    # right chain: A_1 U_1 A_2 ... A_n |psi>
    right_ops = []
    for i in range(n - 1):
        right_ops.append(a_groups[i])
        right_ops.append(us[i])
    right_ops.append(a_groups[n - 1])
    # left chain: <psi| B_n U_{n-1}* ... U_1* B_1
    left_ops = [b_groups[n - 1]]
    for i in range(n - 2, -1, -1):
        left_ops.append(_dagger(us[i]))
        left_ops.append(b_groups[i])
    total = 0j
    for k in range(d):
        e_k = np.zeros(d, dtype=complex)
        e_k[k] = 1.0
        total += chain_amplitude(left_ops, e_k, psi) * chain_amplitude(
            right_ops, psi, e_k
        )
    return total


def _branch_data(model) -> list[tuple[float, str, np.ndarray, np.ndarray, np.ndarray]]:
    return [
        (br.weight, br.order, np.asarray(br.pre, dtype=complex),
         np.asarray(br.mid, dtype=complex), np.asarray(br.post, dtype=complex))
        for br in model.branches
    ]


def _switchlike_middle(branch_data, control_dim, x, y) -> np.ndarray:
    d = x.shape[0]
    total = control_dim * d
    mid = np.zeros((total, total), dtype=complex)
    for k, (weight, order, pre, mseg, post) in enumerate(branch_data):
        if order == "yx":
            chain = post @ x @ mseg @ y @ pre
        else:
            chain = post @ y @ mseg @ x @ pre
        proj = np.zeros((control_dim, control_dim), dtype=complex)
        proj[k, k] = 1.0
        mid += weight * np.kron(proj, chain)
    return mid


def _switchlike_bruteforce(model, b: CanonicalWord, a: CanonicalWord) -> complex:
    algebra = model.algebra
    branch_data = _branch_data(model)
    control_dim = len(branch_data)
    psi = np.asarray(model.psi, dtype=complex)
    total_dim = psi.shape[0]

    xa, ya, ua, va = _slot_products(algebra, _letter_matrices(algebra, a))
    xb, yb, ub, vb = _slot_products(algebra, _star_word_matrices(algebra, b))

    mid_a = _switchlike_middle(branch_data, control_dim, xa, ya)
    mid_b = _switchlike_middle(branch_data, control_dim, xb, yb)

    out = 0j
    for i in range(total_dim):
        phi = np.zeros(total_dim, dtype=complex)
        phi[i] = 1.0
        amp_b = chain_amplitude([vb, mid_b, ub], psi, phi)
        amp_a = chain_amplitude([va, mid_a, ua], psi, phi)
        out += np.conjugate(amp_b) * amp_a
    return out


def state_kernel_bruteforce(model, b: CanonicalWord, a: CanonicalWord) -> complex:
    """omega(b, a) recomputed from model data by full basis enumeration."""
    family = getattr(model, "family", None)
    if family == "sequential":
        return _sequential_bruteforce(model, tuple(b), tuple(a))
    if family in ("switch", "fuzz", "superspacetime"):
        return _switchlike_bruteforce(model, tuple(b), tuple(a))
    raise ValueError(f"no brute-force evaluator for family {family!r}")
