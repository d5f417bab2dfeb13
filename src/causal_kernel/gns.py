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

from .algebra import MAX_WORD_LEN, CanonicalWord, FreeAlgebra, FreeElement
from .states import GeneralizedState

GRAM_HERMITIAN_TOL = 1e-9
GRAM_PSD_TOL = 1e-8
NULL_TOL = 1e-8
LEFT_IDEAL_TOL = 1e-8
# subspace-iteration steps null_space may take to certify its split
SPLIT_REFINE_STEPS = 3
# largest dense Gram matrix a word basis may need: 1 GiB, n <= 8192 words
MAX_GRAM_BYTES = 2**30
# word-length cap used when none is given, if the word basis admits it
DEFAULT_MAX_LEN = 3


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

    def elements(self) -> list[FreeElement]:
        return [self.algebra.word_element(w) for w in self.words]


def basis_refusal(algebra: FreeAlgebra, max_len: int) -> str | None:
    """Why a word basis up to ``max_len`` is refused, or None if it is not:
    a ``max_len`` beyond the word-length cap ``MAX_WORD_LEN``, or a basis
    whose dense complex Gram matrix would exceed ``MAX_GRAM_BYTES``."""
    if max_len > MAX_WORD_LEN:
        return (f"max_len {max_len} exceeds the algebra's word-length cap "
                f"{MAX_WORD_LEN}")
    n = expected_basis_size(algebra, max_len)
    gram_bytes = n * n * np.dtype(complex).itemsize
    if gram_bytes > MAX_GRAM_BYTES:
        return (
            f"max_len {max_len} gives a basis of {n} words whose Gram matrix "
            f"needs {gram_bytes / 2**30:.1f} GiB, above the limit of "
            f"{MAX_GRAM_BYTES / 2**30:g} GiB"
        )
    return None


def default_max_len(algebra: FreeAlgebra) -> int:
    """The word-length cap used when none is given: ``DEFAULT_MAX_LEN`` if
    the word basis admits it, else the largest length it admits; 0, the unit
    word alone, if it admits no longer one."""
    admitted = (n for n in range(DEFAULT_MAX_LEN, 0, -1)
                if basis_refusal(algebra, n) is None)
    return next(admitted, 0)


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
    quotient_basis: np.ndarray    # columns: G-orthonormal vectors spanning the complement
    cutoff: float

    @property
    def quotient_dim(self) -> int:
        return self.quotient_basis.shape[1]

    @property
    def null_vectors(self) -> np.ndarray:
        """Orthonormal columns spanning the null space, the orthogonal
        complement of the quotient span; formed (a complete QR) when read."""
        complete, _ = np.linalg.qr(self.quotient_basis, mode="complete")
        return complete[:, self.quotient_dim:]


def _pivoted_cholesky(h: np.ndarray, rank: int) -> np.ndarray:
    """``rank`` steps of diagonally pivoted Cholesky on a hermitian PSD ``h``:
    the ``n x rank`` factor whose columns span h's dominant range."""
    n = h.shape[0]
    factor = np.zeros((n, rank), dtype=complex)
    diag = np.real(np.diagonal(h)).copy()
    for k in range(rank):
        p = int(np.argmax(diag))
        col = h[:, p] - factor[:, :k] @ factor[p, :k].conj()
        col /= np.sqrt(max(diag[p], np.finfo(float).tiny))
        factor[:, k] = col
        diag -= np.abs(col) ** 2
        diag[p] = -np.inf
    return factor


def null_space(g: np.ndarray, tol: float = NULL_TOL) -> NullSpaceResult:
    """Split of a hermitian PSD Gram matrix into null and quotient parts.

    The full spectrum is measured (``eigvalsh``); the cutoff scales with the
    largest eigenvalue, and the quotient dimension ``r`` counts eigenvalues
    at or above it.  The quotient span comes from ``r`` steps of pivoted
    Cholesky and a Rayleigh-Ritz step on it, so no ``n x n`` eigenvector
    matrix is formed.  The split is certified by the Davis-Kahan bound
    ``||h Q - Q A||_2 / (theta_min - lambda_null_max)`` on the sine of its
    angle to the exact dominant eigenspace; subspace iteration refines it
    up to ``SPLIT_REFINE_STEPS`` times, and a bound still above ``NULL_TOL``
    (a spectral cluster straddling the cutoff) is refused, as is a Cholesky
    factor that is not finite (a cutoff at rounding level).  Quotient vectors
    are Ritz vectors rescaled to orthonormality in the G-inner product.
    """
    g = np.asarray(g, dtype=complex)
    # one n x n buffer holds g - g^H and then (g + g^H) / 2, so the split
    # holds two n x n arrays besides eigvalsh's own copy
    h = np.empty(g.shape, dtype=complex)
    # written so that NaN fails them: a non-finite entry makes g - g^H NaN
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(g, np.conj(g.T, out=h), out=h)
        herm_err = float(np.max(np.abs(h))) if g.size else 0.0
        if not herm_err <= GRAM_HERMITIAN_TOL:
            raise GramPropertyError("hermiticity", herm_err)
        np.conj(g.T, out=h)
        h += g
        h /= 2.0
    evals = np.linalg.eigvalsh(h)
    if evals.size and not evals[0] >= -GRAM_PSD_TOL:
        raise GramPropertyError("positive semidefiniteness", float(-evals[0]))
    scale = max(float(evals[-1]), 1.0) if evals.size else 1.0
    cutoff = tol * scale
    n = evals.size
    rank = int(np.sum(evals >= cutoff))
    # largest eigenvalue left in the null space, the far side of the gap
    null_top = float(evals[n - rank - 1]) if rank < n else -np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        factor = _pivoted_cholesky(h, rank)
    if not np.all(np.isfinite(factor)):
        # a pivot at or below rounding level: the cutoff sits inside the noise
        raise GramPropertyError("null-space split", np.inf)
    q, _ = np.linalg.qr(factor)
    for step in range(SPLIT_REFINE_STEPS + 1):
        hq = h @ q
        a = q.conj().T @ hq
        ritz, rot = np.linalg.eigh(a)
        bound = 0.0
        if 0 < rank < n:
            gap = float(ritz[0]) - null_top
            resid = np.linalg.norm(hq - q @ a, 2)
            bound = resid / gap if gap > 0 else np.inf
        if bound <= NULL_TOL:
            break
        if step == SPLIT_REFINE_STEPS:
            raise GramPropertyError("null-space split", float(bound))
        q, _ = np.linalg.qr(hq)
    return NullSpaceResult(
        eigenvalues=evals,
        null_rank=n - rank,
        quotient_basis=(q @ rot) / np.sqrt(ritz),
        cutoff=float(cutoff),
    )


@dataclass(frozen=True)
class LeftIdealReport:
    """Measured closure of the null space under left letter multiplication.

    ``R_b`` has the columns ``r(b w)``, the forward vectors of the letter
    ``b`` times each basis word ``w`` (``GeneralizedState.letter_vectors``).
    Both violations are squared spectral norms of ``R_b`` on the orthogonal
    complement of a span, so neither depends on which basis a span is given
    in.

    ``max_violation`` is ``max_b ||R_b[:, dom] (1 - P_dom)||^2``, where
    ``P_dom`` projects onto the quotient span of the domain words (length
    <= max_len - 1, the classes the quotient action maps inside the basis),
    the right singular vectors of their forward vectors with ``s^2`` at or
    above the cutoff.  It is zero exactly when left multiplication is
    well-defined on those classes.  ``max_violation_unrestricted`` is the
    same norm of ``R_b`` off the whole quotient span, as an additional
    diagnostic.  Pairs are letters times null directions:
    ``evaluated_pairs`` counts letters x the domain's null dimension and
    ``skipped_pairs`` the remaining letters x (null_rank - that dimension).
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


def _sq_norm_off_span(m: np.ndarray, q: np.ndarray) -> float:
    """``||m (1 - q q^dagger)||_2^2`` for ``q`` with orthonormal columns, as
    the largest eigenvalue of ``M M^dagger``, ``M = m - (m q) q^dagger``
    (``m`` has few rows)."""
    off = m - (m @ q) @ q.conj().T
    return max(float(np.linalg.eigvalsh(off @ off.conj().T)[-1]), 0.0)


def check_left_ideal(
    state: GeneralizedState,
    basis: WordBasis,
    ns: NullSpaceResult,
) -> LeftIdealReport:
    """For each generator letter b, measure how far b maps null vectors out of
    the null space; see ``LeftIdealReport`` for the quantities.  Both spans
    come from the forward vectors, so every problem has the size of ``R_b``:
    the unrestricted one is the orthonormalized quotient span, the in-cap
    one a thin SVD of the domain words' forward vectors."""
    if ns.null_rank == 0:
        # a principal block of a positive-definite Gram matrix has no null space
        return LeftIdealReport(0.0, 0, 0, 0.0)
    dom = _domain(basis)
    letters = list(basis.algebra.generator_letters())
    rhos = state.letter_vectors(letters, basis.words)
    _, sv, vh = np.linalg.svd(
        state.forward_vectors([basis.words[i] for i in dom]), full_matrices=False)
    q_dom = vh[sv**2 >= ns.cutoff].conj().T
    q, _ = np.linalg.qr(ns.quotient_basis)
    dim_dom = len(dom) - q_dom.shape[1]
    return LeftIdealReport(
        max_violation=max(_sq_norm_off_span(rho[:, dom], q_dom) for rho in rhos),
        evaluated_pairs=len(letters) * dim_dom,
        skipped_pairs=len(letters) * (ns.null_rank - dim_dom),
        max_violation_unrestricted=max(_sq_norm_off_span(rho, q) for rho in rhos),
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

    A class's quotient coordinates are ``W^dagger r(class)``, where
    ``W = R Q`` (``Q`` the quotient basis) has orthonormal columns.  On the
    domain words (length <= max_len - 1) the matrix is ``Y pinv(S)`` with
    ``S = W^dagger R[:, dom]`` and ``Y = W^dagger R_letter[:, dom]``, the
    letter's products taken on the slot groups (``letter_vectors``).
    Requires the left-ideal report to pass, otherwise the map is not
    well-defined on classes.  ``coords`` is not read; it is kept only
    because the benchmark's traced op (``perfbench/workloads.py``) passes
    it, like ``gram(jobs=)``.
    """
    if not report.passed(tol):
        raise RepresentationError(
            "null space is not closed under left multiplication "
            f"(max violation {report.max_violation:.3e} > {tol:.1e}); "
            "the quotient action is not well-defined"
        )
    domain = _domain(basis)
    if not domain:
        raise RepresentationError("basis has no words inside the domain cap")
    r = state.forward_vectors(basis.words)
    wh = (r @ ns.quotient_basis).conj().T
    dom_words = [basis.words[i] for i in domain]
    y = wh @ state.letter_vectors([letter], dom_words)[0]
    return y @ np.linalg.pinv(wh @ r[:, domain], rcond=1e-10)


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
    domain = _domain(basis)
    vecs = np.stack(
        [represent_word(result, basis.words[i]) @ result.omega_vector for i in domain],
        axis=1,
    )
    model = vecs.conj().T @ vecs
    target = result.gram[np.ix_(domain, domain)]
    return float(np.max(np.abs(model - target)))


def build_gns(
    state: GeneralizedState,
    max_len: int | None = None,
    tol: float = NULL_TOL,
) -> GnsResult:
    """Run the full pipeline; representation steps run only when permitted:
    the left-ideal check passes and ``max_len >= 2``.

    ``max_len`` defaults to ``default_max_len(state.algebra)``, at least 1.
    ``tol`` is both the relative null-space cutoff and the left-ideal
    tolerance.  Refuses up front a ``tol`` that is not a finite number in
    (0, 1), a ``max_len`` that leaves the representation domain empty, and
    what ``basis_refusal`` names (``WordBasis.build``), the same bases
    ``gram`` refuses.
    """
    if not 0 < tol < 1:
        raise GnsError(f"tol {tol!r} is not a finite number in (0, 1)")
    if max_len is None:
        max_len = max(1, default_max_len(state.algebra))
    if max_len < 1:
        raise GnsError(
            f"max_len {max_len} leaves the representation domain "
            "(words of length <= max_len - 1) empty"
        )
    basis = WordBasis.build(state.algebra, max_len)
    g = gram(state, basis)
    ns = null_space(g, tol=tol)
    report = check_left_ideal(state, basis, ns)
    letter_reps = None
    # at max_len 1 the domain is the unit word alone: the left-ideal check
    # evaluates no pair and a reconstruction compares omega(e, e) with itself
    if max_len >= 2 and report.passed(tol):
        letter_reps = {
            letter: represent(state, basis, ns, report, letter, tol=tol)
            for letter in state.algebra.generator_letters()
        }
    result = GnsResult(
        basis=basis,
        gram=g,
        eigenvalues=ns.eigenvalues,
        null_rank=ns.null_rank,
        quotient_basis=ns.quotient_basis,
        omega_vector=_quotient_coords(ns, g)[:, 0].copy(),
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
