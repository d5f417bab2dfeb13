"""Hilbert-space construction from a generalized state over a truncated basis.

Pipeline: build the Gram matrix G[a][b] = omega(a*, b) over all canonical
words up to a length cap, split off the numerical null space, check whether
the null space is closed under left multiplication by generator letters (it
need not be; the construction only proceeds conditionally), build the
left-multiplication matrices on the quotient, and measure the reconstruction
identity omega(a*, b) = <Omega| pi(a)^dagger pi(b) |Omega> on the truncated
domain.

The representation is generally not adjoint-compatible: pi(a)^dagger differs
from pi(a*), and nothing here assumes otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import CanonicalWord, FreeAlgebra, FreeElement
from .states import GeneralizedState

GRAM_HERMITIAN_TOL = 1e-9
GRAM_PSD_TOL = 1e-8
NULL_TOL = 1e-8
LEFT_IDEAL_TOL = 1e-8
# largest dense Gram matrix a word basis may need: 1 GiB, n <= 8192 words
MAX_GRAM_BYTES = 2**30


class GnsError(Exception):
    pass


class GramPropertyError(GnsError):
    """The Gram matrix violates a required structural property."""

    def __init__(self, prop: str, magnitude: float):
        super().__init__(f"gram matrix violates {prop} (magnitude {magnitude:.3e})")
        self.property = prop
        self.magnitude = magnitude


class RepresentationError(GnsError):
    """Left-multiplication matrices cannot be built under the given tolerance."""


@dataclass(frozen=True)
class WordBasis:
    """All canonical words of length <= max_len, empty word first."""

    algebra: FreeAlgebra
    max_len: int
    words: tuple

    @classmethod
    def build(cls, algebra: FreeAlgebra, max_len: int) -> "WordBasis":
        """Refuses, before enumerating a word, what ``basis_refusal`` names."""
        max_len = int(max_len)
        reason = basis_refusal(algebra, max_len)
        if reason is not None:
            raise GnsError(reason)
        return cls(algebra, max_len, tuple(algebra.words(max_len)))

    def __len__(self) -> int:
        return len(self.words)

    def index(self) -> dict:
        return {w: i for i, w in enumerate(self.words)}

    def elements(self) -> list[FreeElement]:
        return [self.algebra.word_element(w) for w in self.words]


def basis_refusal(algebra: FreeAlgebra, max_len: int) -> str | None:
    """Why a word basis up to ``max_len`` is refused, or None if it is not:
    a ``max_len`` beyond the algebra's word-length cap, or a basis whose dense
    complex Gram matrix would exceed ``MAX_GRAM_BYTES``."""
    cap = algebra.max_word_len
    if max_len > cap:
        return f"max_len {max_len} exceeds the algebra's word-length cap {cap}"
    n = expected_basis_size(algebra, max_len)
    gram_bytes = n * n * np.dtype(complex).itemsize
    if gram_bytes > MAX_GRAM_BYTES:
        return (
            f"max_len {max_len} gives a basis of {n} words whose Gram matrix "
            f"needs {gram_bytes / 2**30:.1f} GiB, above the limit of "
            f"{MAX_GRAM_BYTES / 2**30:g} GiB"
        )
    return None


def expected_basis_size(algebra: FreeAlgebra, max_len: int) -> int:
    """1 + sum over admissible factor sequences of prod(d_i**2 - 1)."""
    sizes = {f: len(algebra.factor(f).basis) for f in algebra.factor_indices}
    total = 1
    frontier = {f: sizes[f] for f in algebra.factor_indices}
    for _ in range(max_len):
        total += sum(frontier.values())
        nxt = {}
        for f in algebra.factor_indices:
            nxt[f] = sizes[f] * sum(v for g, v in frontier.items() if g != f)
        frontier = nxt
    return total


def gram(state: GeneralizedState, basis: WordBasis, jobs: int = 1) -> np.ndarray:
    """G[a][b] = omega(a*, b) over the word basis, as ``R^dagger R``.

    ``R`` holds the forward vectors of the basis words as columns, evaluated
    in one batch; the result equals evaluating eval_bilinear(star(a), b)
    entry by entry (the test suite cross-checks the two routes).  ``jobs``
    changes neither the computation nor the result; it is kept only because
    the benchmark's layer replay (``perfbench/layers.py``) passes it.
    """
    r = state.forward_vectors(basis.words)
    return r.conj().T @ r


@dataclass(frozen=True)
class NullSpaceResult:
    eigenvalues: np.ndarray
    null_rank: int
    null_vectors: np.ndarray      # columns: coefficient vectors spanning the null space
    quotient_basis: np.ndarray    # columns: G-orthonormal vectors spanning the complement
    cutoff: float

    @property
    def quotient_dim(self) -> int:
        return self.quotient_basis.shape[1]


def null_space(g: np.ndarray, tol: float = NULL_TOL) -> NullSpaceResult:
    """Eigen-split of a hermitian PSD Gram matrix into null and quotient parts.

    The cutoff scales with the largest eigenvalue; eigenvectors above it are
    rescaled to orthonormality in the G-inner product.
    """
    g = np.asarray(g, dtype=complex)
    herm_err = float(np.max(np.abs(g - g.conj().T))) if g.size else 0.0
    if herm_err > GRAM_HERMITIAN_TOL:
        raise GramPropertyError("hermiticity", herm_err)
    evals, evecs = np.linalg.eigh((g + g.conj().T) / 2.0)
    if evals.size and evals[0] < -GRAM_PSD_TOL:
        raise GramPropertyError("positive semidefiniteness", float(-evals[0]))
    scale = max(float(evals[-1]), 1.0) if evals.size else 1.0
    cutoff = tol * scale
    null_mask = evals < cutoff
    null_vectors = evecs[:, null_mask]
    keep = ~null_mask
    quotient = evecs[:, keep] / np.sqrt(evals[keep])
    return NullSpaceResult(
        eigenvalues=evals,
        null_rank=int(null_mask.sum()),
        null_vectors=null_vectors,
        quotient_basis=quotient,
        cutoff=float(cutoff),
    )


@dataclass(frozen=True)
class LeftIdealReport:
    """Measured closure of the null space under left letter multiplication.

    ``R_b`` has the columns ``r(b w)``, the forward vectors of the letter
    ``b`` times each basis word ``w``, evaluated exactly in the full algebra.
    Both violations are squared spectral norms of ``R_b`` on an orthonormal
    null basis, so neither depends on which basis a null space is given in.

    ``max_violation`` is ``max_b ||R_b N_dom||^2``, where ``N_dom`` spans the
    null space of the Gram block on the domain words (length <= max_len - 1,
    the classes the quotient action maps inside the basis).  It is zero
    exactly when left multiplication is well-defined on those classes.
    ``max_violation_unrestricted`` is ``max_b ||R_b P||^2`` with ``P`` the
    projector onto the whole null space, as an additional diagnostic.
    Pairs are letters times null directions: ``evaluated_pairs`` counts
    letters x dim N_dom and ``skipped_pairs`` the remaining
    letters x (null_rank - dim N_dom).
    """

    max_violation: float
    evaluated_pairs: int
    skipped_pairs: int
    max_violation_unrestricted: float

    def passed(self, tol: float = LEFT_IDEAL_TOL) -> bool:
        return self.max_violation <= tol


def _domain(basis: WordBasis) -> list[int]:
    """Indices of the basis words of length <= max_len - 1."""
    return [i for i, w in enumerate(basis.words) if len(w) <= basis.max_len - 1]


def _sq_spectral_norm(m: np.ndarray) -> float:
    """||m||_2^2 as the largest eigenvalue of m m^dagger (m has few rows)."""
    return max(float(np.linalg.eigvalsh(m @ m.conj().T)[-1]), 0.0)


def check_left_ideal(
    state: GeneralizedState,
    basis: WordBasis,
    ns: NullSpaceResult,
) -> LeftIdealReport:
    """For each generator letter b, measure how far b maps null vectors out of
    the null space; see ``LeftIdealReport`` for the quantities."""
    if ns.null_rank == 0:
        # a principal block of a positive-definite Gram matrix has no null space
        return LeftIdealReport(0.0, 0, 0, 0.0)
    algebra = basis.algebra
    dom = _domain(basis)
    letters = list(algebra.generator_letters())
    # every letter x basis-word product once, through the algebra's word join
    # (valid for any state); the distinct product words then go through one
    # batched evaluation together with the domain words
    columns: dict = {}
    terms = []
    for li, letter in enumerate(letters):
        for j, word in enumerate(basis.words):
            for w, c in algebra.join_words((letter,), word).items():
                terms.append((li, j, columns.setdefault(w, len(columns)), c))
    dom_cols = [columns.setdefault(basis.words[i], len(columns)) for i in dom]
    r = state.forward_vectors(list(columns))
    r_dom = r[:, dom_cols]
    evals, evecs = np.linalg.eigh(r_dom.conj().T @ r_dom)
    n_dom = evecs[:, evals < ns.cutoff]
    # rhos[b][:, j] = r(b w_j), the sum of c r(w) over the terms of b * w_j
    li, j, col, c = (np.array(x) for x in zip(*terms))
    rhos = np.zeros((len(letters), r.shape[0], len(basis)), dtype=complex)
    np.add.at(rhos, (li, slice(None), j), c[:, None] * r.T[col])
    max_restricted = 0.0
    max_unrestricted = 0.0
    for rho in rhos:
        max_restricted = max(max_restricted, _sq_spectral_norm(rho[:, dom] @ n_dom))
        max_unrestricted = max(
            max_unrestricted, _sq_spectral_norm(rho @ ns.null_vectors)
        )
    dim_dom = n_dom.shape[1]
    return LeftIdealReport(
        max_violation=max_restricted,
        evaluated_pairs=len(letters) * dim_dom,
        skipped_pairs=len(letters) * (ns.null_rank - dim_dom),
        max_violation_unrestricted=max_unrestricted,
    )


def _quotient_coords(ns: NullSpaceResult, g: np.ndarray) -> np.ndarray:
    """Coordinates of every basis word class in the quotient basis (r x N)."""
    return ns.quotient_basis.conj().T @ g


def represent(
    state: GeneralizedState,
    basis: WordBasis,
    ns: NullSpaceResult,
    report: LeftIdealReport,
    letter: tuple[int, int],
    tol: float = LEFT_IDEAL_TOL,
    coords: np.ndarray | None = None,
) -> np.ndarray:
    """Matrix of [w] -> [letter * w] in quotient coordinates.

    The domain is restricted to classes of words of length <= max_len - 1 so
    that images stay inside the computed basis; products that would leave the
    basis are an error, never silently projected.  Requires the left-ideal
    report to pass, otherwise the map is not well-defined on classes.
    """
    if not report.passed(tol):
        raise RepresentationError(
            "null space is not closed under left multiplication "
            f"(max violation {report.max_violation:.3e} > {tol:.1e}); "
            "the quotient action is not well-defined"
        )
    algebra = basis.algebra
    if coords is None:
        coords = _quotient_coords(ns, gram(state, basis))
    index = basis.index()
    domain = _domain(basis)
    if not domain:
        raise RepresentationError("basis has no words inside the domain cap")
    s = coords[:, domain]
    y = np.zeros((coords.shape[0], len(domain)), dtype=complex)
    for col, i in enumerate(domain):
        vec = np.zeros(len(basis.words), dtype=complex)
        for w, c in algebra.join_words((letter,), basis.words[i]).items():
            j = index.get(w)
            if j is None:
                raise RepresentationError(
                    f"product of {letter} with word {basis.words[i]} leaves the "
                    "truncated basis"
                )
            vec[j] += c
        y[:, col] = coords @ vec
    return y @ np.linalg.pinv(s, rcond=1e-10)


@dataclass(frozen=True)
class GnsResult:
    basis: WordBasis
    gram: np.ndarray
    eigenvalues: np.ndarray
    null_rank: int
    quotient_basis: np.ndarray
    omega_vector: np.ndarray
    letter_reps: dict | None
    left_ideal: LeftIdealReport
    reconstruction_error: float | None

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0]) if self.eigenvalues.size else 0.0

    @property
    def quotient_dim(self) -> int:
        return self.quotient_basis.shape[1]


def represent_word(result: GnsResult, word: CanonicalWord) -> np.ndarray:
    """Ordered product of letter representations for a canonical word."""
    if result.letter_reps is None:
        raise RepresentationError("letter representations were not built")
    if len(word) > result.basis.max_len - 1:
        raise RepresentationError(
            f"word of length {len(word)} is outside the representation domain "
            f"(max {result.basis.max_len - 1})"
        )
    dim = result.quotient_basis.shape[1]
    out = np.eye(dim, dtype=complex)
    for letter in word:
        out = out @ result.letter_reps[letter]
    return out


def reconstruct_check(state: GeneralizedState, basis: WordBasis, result: GnsResult) -> float:
    """max |omega(a*, b) - <Omega| pi(a)^dagger pi(b) |Omega>| on the domain."""
    if result.letter_reps is None:
        raise RepresentationError("letter representations were not built")
    domain = _domain(basis)
    omega = result.omega_vector
    vecs = np.empty((omega.shape[0], len(domain)), dtype=complex)
    for col, i in enumerate(domain):
        v = omega
        for letter in reversed(basis.words[i]):
            v = result.letter_reps[letter] @ v
        vecs[:, col] = v
    model = vecs.conj().T @ vecs
    target = result.gram[np.ix_(domain, domain)]
    return float(np.max(np.abs(model - target)))


def build_gns(
    state: GeneralizedState,
    max_len: int = 3,
    tol: float = NULL_TOL,
) -> GnsResult:
    """Run the full pipeline; representation steps run only when permitted.

    ``tol`` is both the relative null-space cutoff and the left-ideal
    tolerance.  Refuses up front when ``max_len`` leaves the representation
    domain empty, when the left-ideal check's letter products (length
    ``max_len + 1``) would exceed the algebra's word-length cap, or when the
    basis is too large (``WordBasis.build``).
    """
    cap = state.algebra.max_word_len
    if max_len < 1:
        raise GnsError(
            f"max_len {max_len} leaves the representation domain "
            "(words of length <= max_len - 1) empty"
        )
    if max_len + 1 > cap:
        raise GnsError(
            f"max_len {max_len} needs letter products of length {max_len + 1}, "
            f"above the algebra's word-length cap {cap}"
        )
    basis = WordBasis.build(state.algebra, max_len)
    g = gram(state, basis)
    ns = null_space(g, tol=tol)
    report = check_left_ideal(state, basis, ns)
    coords = _quotient_coords(ns, g)
    letter_reps = None
    if report.passed(tol):
        letter_reps = {
            letter: represent(state, basis, ns, report, letter, tol=tol, coords=coords)
            for letter in state.algebra.generator_letters()
        }
    result = GnsResult(
        basis=basis,
        gram=g,
        eigenvalues=ns.eigenvalues,
        null_rank=ns.null_rank,
        quotient_basis=ns.quotient_basis,
        omega_vector=coords[:, 0].copy(),
        letter_reps=letter_reps,
        left_ideal=report,
        reconstruction_error=None,
    )
    if letter_reps is not None:
        result = replace(
            result, reconstruction_error=reconstruct_check(state, basis, result)
        )
    return result


def report_obj(result: GnsResult) -> dict:
    """Machine-readable summary of a pipeline run."""
    return {
        "basisSize": len(result.basis),
        "nullRank": result.null_rank,
        "minEigenvalue": result.min_eigenvalue,
        "leftIdealMaxViolation": result.left_ideal.max_violation,
        "reconstructionMaxError": result.reconstruction_error,
        "quotientDim": result.quotient_dim,
        "leftIdealEvaluatedPairs": result.left_ideal.evaluated_pairs,
        "leftIdealSkippedPairs": result.left_ideal.skipped_pairs,
        "leftIdealMaxViolationUnrestricted": result.left_ideal.max_violation_unrestricted,
    }
