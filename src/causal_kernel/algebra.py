"""Free product of matrix *-algebras with a canonical word normal form.

Each factor is a full matrix algebra ``M_d(C)`` with the generalized
Gell-Mann matrices as its traceless hermitian basis, plus the implicit
identity.  Elements of the free product are complex linear combinations of
reduced words; a word is reduced when no two adjacent letters come from the
same factor and every letter is a single traceless basis matrix.  Reduction
merges adjacent same-factor letters by matrix product, absorbs identity
components into shorter words, and expands the remaining traceless parts in
the factor bases.  The resulting normal form is unique, which makes equality
decidable.

Canonical words are stored as tuples of ``(factor, basis_index)`` pairs; the
empty tuple is the unit word.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

PRUNE_TOL = 1e-13
EQ_TOL = 1e-10
MAX_WORD_LEN = 6
# building a factor's tables holds two d**2 x d**2 complex arrays at once
# (the Gell-Mann list and its stack, then the stack and the dual map), a
# tracemalloc peak of 2.0-2.6 such arrays for d >= 6; charged as three,
# 48 * d**4 bytes, capped at the 1 GiB that also caps a dense Gram matrix
MAX_TABLE_BYTES = 2**30

CanonicalWord = tuple  # tuple[tuple[int, int], ...]


class AlgebraError(Exception):
    """Base class for algebra-level failures."""


class FactorSpecError(AlgebraError):
    """Invalid factor description (bad dimension, duplicate index)."""


class UnknownFactorError(AlgebraError):
    """A letter names a factor that is not registered, or a basis index its
    factor does not have."""


class DimensionMismatchError(AlgebraError):
    """A matrix does not match the dimension of its factor or target."""


class AlgebraMismatchError(AlgebraError):
    """Operands belong to different factor families."""


class WordLengthError(AlgebraError):
    """A reduced word exceeds the length cap ``MAX_WORD_LEN``."""


def gell_mann_basis(dim: int) -> list[np.ndarray]:
    """Generalized Gell-Mann matrices for M_dim(C), identity excluded.

    Ordered as: symmetric off-diagonal, antisymmetric off-diagonal, diagonal.
    For dim=2 this is exactly [sigma_x, sigma_y, sigma_z].
    """
    if dim < 1:
        raise FactorSpecError(f"dimension must be positive, got {dim}")
    mats: list[np.ndarray] = []
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = m[k, j] = 1.0
            mats.append(m)
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    for l in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        for j in range(l):
            m[j, j] = 1.0
        m[l, l] = -float(l)
        m *= np.sqrt(2.0 / (l * (l + 1)))
        mats.append(m)
    return mats


class FactorSpec:
    """One factor algebra: M_d(C) with the generalized Gell-Mann basis.

    The d**2 - 1 basis matrices and the identity together span all of M_d.
    """

    def __init__(self, index: int, dim: int):
        self.index = int(index)
        self.dim = int(dim)
        if self.dim < 1:
            raise FactorSpecError(f"factor {index}: dimension must be positive")
        table_bytes = 48 * self.dim**4
        if table_bytes > MAX_TABLE_BYTES:
            raise FactorSpecError(
                f"factor {index}: dimension {self.dim} needs about "
                f"{table_bytes / 2**30:.1f} GiB of basis tables, over the limit "
                f"of {MAX_TABLE_BYTES / 2**30:g} GiB"
            )
        # the one table: the basis matrices followed by the identity, read-only;
        # basis and identity are views of it
        eye = np.eye(self.dim, dtype=complex)
        self.basis_stack = np.stack(gell_mann_basis(self.dim) + [eye])
        self.basis_stack.setflags(write=False)
        self.basis = self.basis_stack[:-1]
        self.identity = self.basis_stack[-1]
        # tr(B_j^dagger B_k) = 2 delta_jk, so the dual map conj(flat) / 2 gives
        # the basis coefficients of a traceless m
        self._dual = self.basis.reshape(len(self.basis), self.dim**2).conj()
        self._dual /= 2
        self._product_cache: dict[tuple[int, int], tuple[complex, np.ndarray]] = {}

    def expand(self, m: np.ndarray) -> tuple[complex, np.ndarray]:
        """Split m into identity and basis components: m = alpha*I + sum c_k B_k."""
        m = np.asarray(m, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"factor {self.index}: expected a {self.dim}x{self.dim} matrix, "
                f"got shape {m.shape}"
            )
        alpha = complex(np.trace(m)) / self.dim
        return alpha, self._dual @ (m - alpha * self.identity).ravel()

    def basis_product(self, i: int, j: int) -> tuple[complex, np.ndarray]:
        """Expansion of the product B_i B_j, cached."""
        key = (i, j)
        hit = self._product_cache.get(key)
        if hit is None:
            hit = self.expand(self.basis[i] @ self.basis[j])
            self._product_cache[key] = hit
        return hit

    def __repr__(self) -> str:
        return f"FactorSpec(index={self.index}, dim={self.dim})"


def word_sort_key(word: CanonicalWord) -> tuple:
    """Deterministic ordering: (length, factor sequence, basis indices)."""
    return (len(word), tuple(f for f, _ in word), tuple(k for _, k in word))


class FreeElement:
    """Element of the free product: a map from canonical words to coefficients.

    Instances are immutable; all arithmetic returns new elements.  Two
    elements are considered equal when their term maps agree entrywise
    within ``EQ_TOL``.
    """

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: "FreeAlgebra", terms: dict):
        self.algebra = algebra
        self._terms = terms

    @property
    def terms(self) -> Mapping[CanonicalWord, complex]:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def coefficient(self, word: CanonicalWord) -> complex:
        return self._terms.get(tuple(word), 0j)

    def is_zero(self) -> bool:
        return not self._terms

    def word_length(self) -> int:
        return max((len(w) for w in self._terms), default=0)

    def star(self) -> "FreeElement":
        """Adjoint: reverse each word and conjugate each coefficient.

        Basis letters are hermitian, so reversing the letter order is the
        whole word-level adjoint.
        """
        return FreeElement(
            self.algebra,
            {tuple(reversed(w)): c.conjugate() for w, c in self._terms.items()},
        )

    def isclose(self, other: "FreeElement") -> bool:
        if not isinstance(other, FreeElement):
            return NotImplemented
        if self.algebra is not other.algebra:
            return False
        for w in self._terms.keys() | other._terms.keys():
            if abs(self._terms.get(w, 0j) - other._terms.get(w, 0j)) > EQ_TOL:
                return False
        return True

    def __eq__(self, other):
        return self.isclose(other)

    __hash__ = None

    def __add__(self, other: "FreeElement") -> "FreeElement":
        self.algebra._require_same(other)
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, 0j) + c
        return self.algebra._make(out)

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + (-1.0) * other

    def __neg__(self) -> "FreeElement":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, FreeElement):
            return self.algebra.multiply(self, other)
        if isinstance(other, (int, float, complex)):
            return self.algebra.scale(other, self)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.algebra.scale(other, self)
        return NotImplemented

    def __repr__(self) -> str:
        if not self._terms:
            return "FreeElement(0)"
        parts = []
        for w in sorted(self._terms, key=word_sort_key):
            c = self._terms[w]
            name = "e" if not w else "".join(f"g{f}[{k}]" for f, k in w)
            parts.append(f"({c:.6g})*{name}")
        return "FreeElement(" + " + ".join(parts) + ")"


def _too_long(kind: str, length: int) -> WordLengthError:
    return WordLengthError(
        f"{kind} word of length {length} exceeds the cap {MAX_WORD_LEN}"
    )


class FreeAlgebra:
    """A registered family of factors and the operations of their free product."""

    def __init__(self, factors: Iterable[FactorSpec]):
        self._factors: dict[int, FactorSpec] = {}
        for spec in factors:
            if spec.index in self._factors:
                raise FactorSpecError(f"duplicate factor index {spec.index}")
            self._factors[spec.index] = spec
        if not self._factors:
            raise FactorSpecError("at least one factor is required")
        self.factor_indices = tuple(sorted(self._factors))

    def factor(self, index: int) -> FactorSpec:
        try:
            return self._factors[index]
        except KeyError:
            raise UnknownFactorError(f"unknown factor index {index}") from None

    def letter_factor(self, f: int, k: int) -> FactorSpec:
        """The factor of the letter ``(f, k)``, after checking that ``f`` is
        registered and ``k`` indexes one of its basis matrices: the one letter
        check that every word reader goes through."""
        spec = self.factor(f)
        if not 0 <= k < len(spec.basis):
            raise UnknownFactorError(f"factor {f} has no basis index {k}")
        return spec

    def _require_same(self, element: FreeElement) -> None:
        if element.algebra is not self:
            raise AlgebraMismatchError(
                "operands belong to different registered factor families"
            )

    def _make(self, terms: dict) -> FreeElement:
        pruned = {w: c for w, c in terms.items() if abs(c) > PRUNE_TOL}
        return FreeElement(self, pruned)

    # ------------------------------------------------------------------
    # constructors

    def zero(self) -> FreeElement:
        return FreeElement(self, {})

    def unit(self) -> FreeElement:
        return FreeElement(self, {(): 1.0 + 0j})

    def word_element(self, word: CanonicalWord) -> FreeElement:
        """Element for a single canonical word, after checking that every letter
        names a registered basis matrix and no two adjacent letters share a
        factor."""
        word = tuple((int(f), int(k)) for f, k in word)
        prev = None
        for f, k in word:
            self.letter_factor(f, k)
            if prev == f:
                raise AlgebraError(f"word is not reduced at factor {f}")
            prev = f
        return FreeElement(self, {word: 1.0 + 0j})

    def embed(self, factor: int, m: np.ndarray) -> FreeElement:
        """Image of a factor matrix in the free product, in canonical form."""
        spec = self.factor(factor)
        alpha, coeffs = spec.expand(m)
        terms: dict = {}
        if abs(alpha) > PRUNE_TOL:
            terms[()] = alpha
        for k, c in enumerate(coeffs):
            if abs(c) > PRUNE_TOL:
                terms[((factor, k),)] = complex(c)
        return self._make(terms)

    # ------------------------------------------------------------------
    # reduction

    def normalize(
        self,
        letters: Iterable[tuple[int, np.ndarray]],
        coeff: complex = 1.0,
        rng: np.random.Generator | None = None,
    ) -> FreeElement:
        """Reduce a raw word to canonical form.

        Without ``rng`` this is ``coeff`` times the product of the letters'
        embeddings, joined word by word.  The rules (merge adjacent
        same-factor letters, split off and absorb identity components, expand
        traceless parts in the factor bases) are confluent; passing ``rng``
        applies them to the raw word in a randomized order instead, an
        independent route that tests exactly that.
        """
        raw: list[tuple[int, np.ndarray]] = []
        for f, m in letters:
            spec = self.factor(int(f))
            m = np.asarray(m, dtype=complex)
            if m.shape != (spec.dim, spec.dim):
                raise DimensionMismatchError(
                    f"letter for factor {f} has shape {m.shape}, "
                    f"expected {(spec.dim, spec.dim)}"
                )
            raw.append((int(f), m))
        if rng is None:
            out = self.scale(coeff, self.unit())
            for f, m in raw:
                out = out * self.embed(f, m)
            return out
        terms: dict = {}
        self._reduce_rand(raw, complex(coeff), terms, rng)
        return self._make(terms)

    def _reduce_rand(
        self, letters: list, coeff: complex, out: dict, rng: np.random.Generator
    ) -> None:
        stack = [(letters, coeff)]
        while stack:
            pick = int(rng.integers(len(stack)))
            lts, c = stack.pop(pick)
            if abs(c) <= PRUNE_TOL:
                continue
            actions = []
            for i in range(len(lts) - 1):
                if lts[i][0] == lts[i + 1][0]:
                    actions.append(("merge", i))
            for j, (f, m) in enumerate(lts):
                if abs(np.trace(m)) / self._factors[f].dim > PRUNE_TOL:
                    actions.append(("split", j))
            if not actions:
                self._expand_traceless(lts, c, out)
                continue
            kind, pos = actions[int(rng.integers(len(actions)))]
            if kind == "merge":
                f, m = lts[pos]
                merged = lts[:pos] + [(f, m @ lts[pos + 1][1])] + lts[pos + 2:]
                stack.append((merged, c))
            else:
                f, m = lts[pos]
                spec = self._factors[f]
                alpha = complex(np.trace(m)) / spec.dim
                m0 = m - alpha * spec.identity
                stack.append((lts[:pos] + lts[pos + 1:], c * alpha))
                stack.append((lts[:pos] + [(f, m0)] + lts[pos + 1:], c))

    def _expand_traceless(self, letters: list, coeff: complex, out: dict) -> None:
        """Expand a merged, traceless word over the factor bases."""
        if len(letters) > MAX_WORD_LEN:
            raise _too_long("reduced", len(letters))
        options: list[list[tuple[tuple[int, int], complex]]] = []
        for f, m in letters:
            _, coeffs = self._factors[f].expand(m)
            opts = [((f, k), complex(c)) for k, c in enumerate(coeffs) if abs(c) > PRUNE_TOL]
            if not opts:
                return
            options.append(opts)
        if not options:
            out[()] = out.get((), 0j) + coeff
            return
        for combo in itertools.product(*options):
            c = coeff
            for _, ck in combo:
                c *= ck
            word = tuple(letter for letter, _ in combo)
            out[word] = out.get(word, 0j) + c

    # ------------------------------------------------------------------
    # arithmetic

    def scale(self, c: complex, a: FreeElement) -> FreeElement:
        self._require_same(a)
        c = complex(c)
        return self._make({w: c * v for w, v in a._terms.items()})

    def multiply(self, a: FreeElement, b: FreeElement) -> FreeElement:
        self._require_same(a)
        self._require_same(b)
        out: dict = {}
        for wa, ca in a._terms.items():
            for wb, cb in b._terms.items():
                for w, c in self.join_words(wa, wb).items():
                    out[w] = out.get(w, 0j) + ca * cb * c
        return self._make(out)

    def join_words(self, left: CanonicalWord, right: CanonicalWord) -> dict:
        """Product of two canonical words as ``{word: coefficient}``, reduced at
        the junction; the words are not re-validated."""
        out: dict = {}
        stack = [(left, right, 1.0 + 0j)]
        while stack:
            l, r, c = stack.pop()
            if abs(c) <= PRUNE_TOL:
                continue
            if not l or not r or l[-1][0] != r[0][0]:
                w = l + r
                if len(w) > MAX_WORD_LEN:
                    raise _too_long("product", len(w))
                out[w] = out.get(w, 0j) + c
                continue
            f = l[-1][0]
            spec = self._factors[f]
            alpha, coeffs = spec.basis_product(l[-1][1], r[0][1])
            if abs(alpha) > PRUNE_TOL:
                stack.append((l[:-1], r[1:], c * alpha))
            for k, ck in enumerate(coeffs):
                if abs(ck) > PRUNE_TOL:
                    w = l[:-1] + ((f, k),) + r[1:]
                    if len(w) > MAX_WORD_LEN:
                        raise _too_long("product", len(w))
                    out[w] = out.get(w, 0j) + c * ck
        return out

    # ------------------------------------------------------------------
    # word enumeration

    def words(self, max_len: int) -> Iterator[CanonicalWord]:
        """All canonical words of length <= max_len, in deterministic order.

        Order is lexicographic by (length, factor sequence, basis indices),
        starting with the empty word.
        """
        yield ()
        for length in range(1, max_len + 1):
            for fseq in itertools.product(self.factor_indices, repeat=length):
                if any(fseq[i] == fseq[i + 1] for i in range(length - 1)):
                    continue
                ranges = [range(len(self._factors[f].basis)) for f in fseq]
                for idxs in itertools.product(*ranges):
                    yield tuple(zip(fseq, idxs))

    def generator_letters(self) -> Iterator[tuple[int, int]]:
        """All (factor, basis_index) generator letters in deterministic order."""
        for f in self.factor_indices:
            for k in range(len(self._factors[f].basis)):
                yield (f, k)


# ----------------------------------------------------------------------
# induced homomorphism (the universal property, used as a soundness oracle)

def induced_hom(
    element: FreeElement,
    targets: Mapping[int, Sequence[np.ndarray]],
) -> np.ndarray:
    """Apply the homomorphism induced by per-factor basis images.

    ``targets[i]`` lists the images of factor ``i``'s basis matrices in a
    common M_k(C); the identity of every factor maps to the k x k identity.
    The unit word therefore maps to the identity and each word to the product
    of its letter images.
    """
    dims = set()
    for f, images in targets.items():
        for m in images:
            m = np.asarray(m)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise DimensionMismatchError(
                    f"target for factor {f} contains a non-square matrix"
                )
            dims.add(m.shape[0])
    if len(dims) > 1:
        raise DimensionMismatchError(
            f"target images do not share a common dimension: {sorted(dims)}"
        )
    if not dims:
        raise DimensionMismatchError("empty target assignment")
    k = dims.pop()
    out = np.zeros((k, k), dtype=complex)
    eye = np.eye(k, dtype=complex)
    for word, coeff in element.items():
        prod = eye
        for f, idx in word:
            if f not in targets:
                raise UnknownFactorError(f"no target homomorphism for factor {f}")
            images = targets[f]
            spec = element.algebra.letter_factor(f, idx)
            if len(images) != len(spec.basis):
                raise DimensionMismatchError(
                    f"target for factor {f} must list {len(spec.basis)} basis images"
                )
            prod = prod @ np.asarray(images[idx], dtype=complex)
        out += coeff * prod
    return out

