"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed: model files as
JSON text (the committed ones plus random variants in the same schema) and
the expression requests of ``eval-stream``.  Nothing imports the package
under test, so the package only ever sees the generated inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MODEL_DIR = Path("models")
SEQUENTIAL = "sequential_qubit.json"
CONTROL_MODELS = ("switch_qubit.json", "fuzz_two_branch.json",
                  "superspacetime_two_branch.json")
ALL_MODELS = (SEQUENTIAL,) + CONTROL_MODELS

# Upper bound on the word length of a generated expression; the models'
# algebras refuse products longer than 6 letters.
EXPR_MAX_LEN = 4


def stream(seed: int, tag: str) -> np.random.Generator:
    """Independent generator per (seed, purpose), stable across runs."""
    return np.random.default_rng([int(seed), *tag.encode()])


# ----------------------------------------------------------------------
# model files

def _c(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _vec(v) -> list:
    return [_c(z) for z in v]


def _mat(m) -> list:
    return [_vec(row) for row in m]


def _unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def sequential_variant(rng: np.random.Generator) -> dict:
    return {"version": 1, "family": "sequential", "dim": 2,
            "psi": _vec(_unit_vector(rng, 2)),
            "unitaries": [_mat(_unitary(rng, 2))]}


def switch_variant(rng: np.random.Generator) -> dict:
    psi = np.kron(_unit_vector(rng, 2), _unit_vector(rng, 2))
    keys = ("vx0", "xy0", "yu0", "vy1", "yx1", "xu1")
    return {"version": 1, "family": "switch", "dim": 2, "psi": _vec(psi),
            "unitaries": {k: _mat(_unitary(rng, 2)) for k in keys}}


def fuzz_variant(rng: np.random.Generator) -> dict:
    """Two branches; weights rescaled so that omega(e, e) = 1."""
    psi = np.kron(_unit_vector(rng, 2), _unit_vector(rng, 2))
    probs = np.array([np.linalg.norm(psi[2 * b:2 * b + 2]) ** 2 for b in range(2)])
    raw = rng.uniform(0.5, 1.5, size=2)
    raw /= np.sqrt(float(np.sum(raw**2 * probs)))
    branches = [{"weight": float(raw[b]), "order": ("yx", "xy")[int(rng.integers(2))],
                 "unitaries": [_mat(_unitary(rng, 2)) for _ in range(3)]}
                for b in range(2)]
    return {"version": 1, "family": "fuzz", "dim": 2, "psi": _vec(psi),
            "branches": branches}


def superspacetime_variant(rng: np.random.Generator) -> dict:
    branches = [{"amplitude": _c(complex(rng.uniform(0.3, 1.0), rng.normal() * 0.3)),
                 "permutation": [[0, 1], [1, 0]][b],
                 "hamiltonians": [_mat(_hermitian(rng, 2)) for _ in range(3)],
                 "times": [float(t) for t in rng.uniform(0.1, 1.5, size=3)]}
                for b in range(2)]
    return {"version": 1, "family": "superspacetime", "dim": 2,
            "reference": ["p0", "p1"], "targetPsi": _vec(_unit_vector(rng, 2)),
            "branches": branches}


def model_texts(root: Path, names) -> list[str]:
    return [(root / MODEL_DIR / name).read_text(encoding="utf-8") for name in names]


def gns_inputs(root: Path, workload: str, seed: int) -> list[str]:
    """Model texts an op cycles through: committed first, then seeded variants."""
    rng = stream(seed, workload)
    if workload == "gns-control-L2":
        variants = [switch_variant(rng), fuzz_variant(rng), superspacetime_variant(rng)]
        return model_texts(root, CONTROL_MODELS) + [json.dumps(v) for v in variants]
    variants = [sequential_variant(rng) for _ in range(3)]
    return model_texts(root, (SEQUENTIAL,)) + [json.dumps(v) for v in variants]


def quotient_dim(model: dict) -> int:
    """D, the rank of the forward-vector map: d, or control size times d."""
    dim = int(model["dim"])
    family = model["family"]
    if family == "sequential":
        return dim
    if family == "switch":
        return 2 * dim
    return len(model["branches"]) * dim


# ----------------------------------------------------------------------
# expressions (README grammar; no unary minus, no negative literals)

def _scalar(rng: np.random.Generator) -> str:
    x = float(rng.uniform(0.05, 3.0))
    form = int(rng.integers(4))
    if form == 0:
        return f"{x:.3g}"
    if form == 1:
        return f"{x:.3g}i"
    if form == 2:
        return f"{x:.2e}"
    return "i"


def _factor(rng: np.random.Generator, names, budget: int, depth: int) -> tuple[str, int]:
    """One factor and the longest word it can produce."""
    kind = int(rng.integers(10))
    if budget == 0 or kind < 2:
        return (_scalar(rng), 0) if kind % 2 == 0 else ("I", 0)
    if depth < 2 and kind == 2:
        text, length = expression(rng, names, budget, depth + 1)
        return f"adj({text})", length
    if depth < 2 and kind == 3:
        text, length = expression(rng, names, budget, depth + 1)
        return f"({text})", length
    return str(names[int(rng.integers(len(names)))]), 1


def _term(rng: np.random.Generator, names, budget: int, depth: int) -> tuple[str, int]:
    parts, used = [], 0
    for _ in range(int(rng.integers(1, 4))):
        text, length = _factor(rng, names, budget - used, depth)
        parts.append(text)
        used += length
    return "*".join(parts), used


def expression(rng: np.random.Generator, names, budget: int = EXPR_MAX_LEN,
               depth: int = 0) -> tuple[str, int]:
    """A random grammar-valid expression and the bound on its word length."""
    n_terms = int(rng.integers(1, 4 if depth == 0 else 3))
    texts, longest = [], 0
    for k in range(n_terms):
        text, length = _term(rng, names, budget, depth)
        if k:
            texts.append(" + " if rng.integers(2) else " - ")
        texts.append(text)
        longest = max(longest, length)
    return "".join(texts), longest


class RequestStream:
    """``eval-stream`` requests: (model index, b text, a text, pool id).

    Each request is, with probability one half, the next unseen entry of a
    seeded pool, and otherwise a uniform draw from the entries already
    issued.  So about half of all requests repeat an earlier one, whatever
    the number of requests a run gets through.
    """

    def __init__(self, seed: int, names_per_model, session: int = 0):
        self._names = [sorted(n) for n in names_per_model]
        self._pool_rng = stream(seed, f"eval-pool-{session}")
        self._draw_rng = stream(seed, f"eval-draw-{session}")
        self.pool: list[tuple[int, str, str]] = []

    def _new(self) -> tuple[int, str, str]:
        rng = self._pool_rng
        m = int(rng.integers(len(self._names)))
        b, _ = expression(rng, self._names[m])
        a, _ = expression(rng, self._names[m])
        self.pool.append((m, b, a))
        return self.pool[-1]

    def next(self) -> tuple[int, str, str, int]:
        if not self.pool or self._draw_rng.random() < 0.5:
            m, b, a = self._new()
            return m, b, a, len(self.pool) - 1
        k = int(self._draw_rng.integers(len(self.pool)))
        m, b, a = self.pool[k]
        return m, b, a, k

