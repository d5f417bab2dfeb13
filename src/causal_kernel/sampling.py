"""Seeded random matrices, words, elements, and models for test suites.

Everything takes an explicit ``numpy.random.Generator`` so that a seed fully
determines the generated data; nothing here consults the clock or OS entropy.
"""

from __future__ import annotations

import numpy as np

from .algebra import PRUNE_TOL, CanonicalWord, FreeAlgebra, FreeElement
from .states import (
    FuzzBranch,
    FuzzModel,
    SequentialModel,
    SuperspacetimeBranch,
    SuperspacetimeModel,
    SwitchModel,
)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary from a QR decomposition with phase fixing."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_state_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def random_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_word(
    rng: np.random.Generator,
    algebra: FreeAlgebra,
    max_len: int,
) -> CanonicalWord:
    """Random canonical word: alternating factors, random basis indices."""
    length = int(rng.integers(0, max_len + 1))
    word = []
    prev = None
    for _ in range(length):
        choices = [f for f in algebra.factor_indices if f != prev]
        if not choices:
            break
        f = int(choices[int(rng.integers(len(choices)))])
        k = int(rng.integers(len(algebra.factor(f).basis)))
        word.append((f, k))
        prev = f
    return tuple(word)


def random_element(
    rng: np.random.Generator,
    algebra: FreeAlgebra,
    max_len: int = 3,
    max_terms: int = 3,
) -> FreeElement:
    """Sum of up to ``max_terms`` random words with complex normal
    coefficients; the terms are accumulated as ``+`` would, pruned at
    ``PRUNE_TOL``."""
    n_terms = int(rng.integers(1, max_terms + 1))
    terms: dict = {}
    for _ in range(n_terms):
        coeff = complex(rng.normal(), rng.normal())
        word = random_word(rng, algebra, max_len)
        if abs(coeff) <= PRUNE_TOL:
            continue
        total = terms.get(word, 0j) + coeff
        if abs(total) > PRUNE_TOL:
            terms[word] = total
        else:
            terms.pop(word, None)
    return FreeElement(algebra, terms)


def random_sequential(
    rng: np.random.Generator, dim: int = 2, n_slots: int = 2
) -> SequentialModel:
    return SequentialModel(
        dim,
        random_state_vector(rng, dim),
        [random_unitary(rng, dim) for _ in range(n_slots - 1)],
    )


def random_switch(rng: np.random.Generator, dim: int = 2) -> SwitchModel:
    psi = np.kron(random_state_vector(rng, 2), random_state_vector(rng, dim))
    return SwitchModel(dim, psi, *[random_unitary(rng, dim) for _ in range(6)])


def random_fuzz(
    rng: np.random.Generator, dim: int = 2, n_branches: int = 2
) -> FuzzModel:
    """Random branch data with weights rescaled to preserve normalization."""
    psi = np.kron(
        random_state_vector(rng, n_branches), random_state_vector(rng, dim)
    )
    probs = np.array(
        [np.linalg.norm(psi[b * dim:(b + 1) * dim]) ** 2 for b in range(n_branches)]
    )
    raw = rng.uniform(0.5, 1.5, size=n_branches)
    raw /= np.sqrt(float(np.sum(raw**2 * probs)))
    branches = [
        FuzzBranch(
            float(raw[b]),
            "yx" if rng.integers(2) else "xy",
            pre=random_unitary(rng, dim),
            mid=random_unitary(rng, dim),
            post=random_unitary(rng, dim),
        )
        for b in range(n_branches)
    ]
    return FuzzModel(dim, psi, branches)


def random_superspacetime(
    rng: np.random.Generator, dim: int = 2, n_branches: int = 2
) -> SuperspacetimeModel:
    branches = [
        SuperspacetimeBranch(
            amplitude=complex(rng.normal(), rng.normal()),
            permutation=(1, 0) if rng.integers(2) else (0, 1),
            hamiltonians=tuple(random_hermitian(rng, dim) for _ in range(3)),
            durations=tuple(float(t) for t in rng.uniform(0.1, 1.5, size=3)),
        )
        for _ in range(n_branches)
    ]
    return SuperspacetimeModel(
        dim, ("p0", "p1"), random_state_vector(rng, dim), branches
    )
