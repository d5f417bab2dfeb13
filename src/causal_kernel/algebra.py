"""Free product of matrix *-algebras with a canonical word normal form.

Each factor is a full matrix algebra ``M_d(C)`` equipped with a traceless
hermitian basis (generalized Gell-Mann matrices by default) plus the implicit
identity.  Elements of the free product are complex linear combinations of
reduced words; a word is reduced when no two adjacent letters come from the
same factor and every letter is a single traceless basis matrix.  Reduction
merges adjacent same-factor letters by matrix product, absorbs identity
components into shorter words, and expands the remaining traceless parts in
the factor bases.  The resulting normal form is unique, which makes equality
decidable and serialization canonical.

Canonical words are stored as tuples of ``(factor, basis_index)`` pairs; the
empty tuple is the unit word.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

STRUCT_TOL = 1e-12
PRUNE_TOL = 1e-13
EQ_TOL = 1e-10
DEFAULT_MAX_WORD_LEN = 6

CanonicalWord = tuple  # tuple[tuple[int, int], ...]


class AlgebraError(Exception):
    """Base class for algebra-level failures."""


class FactorSpecError(AlgebraError):
    """Invalid factor description (bad basis, bad dimension)."""


class UnknownFactorError(AlgebraError):
    """A letter refers to a factor index that is not registered."""


class DimensionMismatchError(AlgebraError):
    """A matrix does not match the dimension of its factor or target."""


class AlgebraMismatchError(AlgebraError):
    """Operands belong to different factor families."""


class WordLengthError(AlgebraError):
    """A reduced word exceeds the configured length cap."""


class Letter(NamedTuple):
    """One raw letter of a word: a matrix from a named factor."""

    factor: int
    matrix: np.ndarray


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


def _as_readonly(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=complex)
    out.setflags(write=False)
    return out


class FactorSpec:
    """One factor algebra: M_d(C) with a chosen traceless hermitian basis.

    The basis must consist of d**2 - 1 traceless hermitian matrices that are
    linearly independent (checked through the Gram matrix of Hilbert-Schmidt
    inner products).  Together with the identity they then span all of M_d.
    """

    def __init__(self, index: int, dim: int, basis: Sequence[np.ndarray] | None = None):
        self.index = int(index)
        self.dim = int(dim)
        if self.dim < 1:
            raise FactorSpecError(f"factor {index}: dimension must be positive")
        if basis is None:
            basis = gell_mann_basis(self.dim)
        mats = tuple(_as_readonly(b) for b in basis)
        expected = self.dim * self.dim - 1
        if len(mats) != expected:
            raise FactorSpecError(
                f"factor {index}: expected {expected} basis matrices, got {len(mats)}"
            )
        for pos, b in enumerate(mats):
            if b.shape != (self.dim, self.dim):
                raise FactorSpecError(
                    f"factor {index}: basis matrix {pos} has shape {b.shape}"
                )
            if abs(np.trace(b)) > STRUCT_TOL:
                raise FactorSpecError(
                    f"factor {index}: basis matrix {pos} is not traceless "
                    f"(|tr| = {abs(np.trace(b)):.3e})"
                )
            if np.max(np.abs(b - b.conj().T)) > STRUCT_TOL:
                raise FactorSpecError(
                    f"factor {index}: basis matrix {pos} is not hermitian"
                )
        self.basis = mats
        # the basis matrices followed by the identity, for batched lookups
        self.basis_stack = _as_readonly(np.stack(mats + (np.eye(self.dim),)))
        if expected:
            gram = np.empty((expected, expected), dtype=complex)
            for i, bi in enumerate(mats):
                for j, bj in enumerate(mats):
                    gram[i, j] = np.trace(bi.conj().T @ bj)
            if np.linalg.cond(gram) > 1e12:
                raise FactorSpecError(
                    f"factor {index}: basis matrices are not linearly independent"
                )
            self._gram_inv = np.linalg.inv(gram)
        else:
            self._gram_inv = np.zeros((0, 0), dtype=complex)
        self._identity = _as_readonly(np.eye(self.dim))
        self._product_cache: dict[tuple[int, int], tuple[complex, np.ndarray]] = {}

    @property
    def identity(self) -> np.ndarray:
        return self._identity

    def expand(self, m: np.ndarray) -> tuple[complex, np.ndarray]:
        """Split m into identity and basis components: m = alpha*I + sum c_k B_k."""
        m = np.asarray(m, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"factor {self.index}: expected a {self.dim}x{self.dim} matrix, "
                f"got shape {m.shape}"
            )
        alpha = complex(np.trace(m)) / self.dim
        m0 = m - alpha * self._identity
        if not self.basis:
            return alpha, np.zeros(0, dtype=complex)
        v = np.array([np.trace(b.conj().T @ m0) for b in self.basis], dtype=complex)
        return alpha, self._gram_inv @ v

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

    def isclose(self, other: "FreeElement", tol: float = EQ_TOL) -> bool:
        if not isinstance(other, FreeElement):
            return NotImplemented
        if self.algebra is not other.algebra:
            return False
        for w in self._terms.keys() | other._terms.keys():
            if abs(self._terms.get(w, 0j) - other._terms.get(w, 0j)) > tol:
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


class FreeAlgebra:
    """A registered family of factors and the operations of their free product."""

    def __init__(
        self,
        factors: Iterable[FactorSpec],
        max_word_len: int = DEFAULT_MAX_WORD_LEN,
    ):
        self._factors: dict[int, FactorSpec] = {}
        for spec in factors:
            if spec.index in self._factors:
                raise FactorSpecError(f"duplicate factor index {spec.index}")
            self._factors[spec.index] = spec
        if not self._factors:
            raise FactorSpecError("at least one factor is required")
        self.factor_indices = tuple(sorted(self._factors))
        self.max_word_len = int(max_word_len)

    def factor(self, index: int) -> FactorSpec:
        try:
            return self._factors[index]
        except KeyError:
            raise UnknownFactorError(f"unknown factor index {index}") from None

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

    def basis_letter(self, factor: int, basis_index: int) -> FreeElement:
        spec = self.factor(factor)
        if not 0 <= basis_index < len(spec.basis):
            raise UnknownFactorError(
                f"factor {factor} has no basis index {basis_index}"
            )
        return FreeElement(self, {((factor, basis_index),): 1.0 + 0j})

    def word_element(self, word: CanonicalWord, coeff: complex = 1.0) -> FreeElement:
        """Element for a single canonical word; the word is validated."""
        word = tuple((int(f), int(k)) for f, k in word)
        prev = None
        for f, k in word:
            spec = self.factor(f)
            if not 0 <= k < len(spec.basis):
                raise UnknownFactorError(f"factor {f} has no basis index {k}")
            if prev == f:
                raise AlgebraError(f"word is not reduced: repeated factor {f}")
            prev = f
        return self._make({word: complex(coeff)})

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
        letters: Iterable[Letter | tuple[int, np.ndarray]],
        coeff: complex = 1.0,
        rng: np.random.Generator | None = None,
    ) -> FreeElement:
        """Reduce a raw word to canonical form.

        The rules (merge adjacent same-factor letters, split off and absorb
        identity components, expand traceless parts in the factor bases) are
        confluent; passing ``rng`` applies merge/split steps in a randomized
        order, which is useful for testing exactly that.
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
        terms: dict = {}
        if rng is None:
            self._reduce_det(raw, complex(coeff), terms)
        else:
            self._reduce_rand(raw, complex(coeff), terms, rng)
        return self._make(terms)

    def _merge_adjacent(self, letters: list) -> list:
        out: list = []
        for f, m in letters:
            if out and out[-1][0] == f:
                out[-1] = (f, out[-1][1] @ m)
            else:
                out.append((f, m))
        return out

    def _reduce_det(self, letters: list, coeff: complex, out: dict) -> None:
        stack = [(letters, coeff)]
        while stack:
            lts, c = stack.pop()
            if abs(c) <= PRUNE_TOL:
                continue
            lts = self._merge_adjacent(lts)
            split_at = -1
            for j, (f, m) in enumerate(lts):
                if abs(np.trace(m)) / self._factors[f].dim > PRUNE_TOL:
                    split_at = j
                    break
            if split_at >= 0:
                f, m = lts[split_at]
                spec = self._factors[f]
                alpha = complex(np.trace(m)) / spec.dim
                m0 = m - alpha * spec.identity
                stack.append((lts[:split_at] + lts[split_at + 1:], c * alpha))
                stack.append((lts[:split_at] + [(f, m0)] + lts[split_at + 1:], c))
            else:
                self._expand_traceless(lts, c, out)

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
        if len(letters) > self.max_word_len:
            raise WordLengthError(
                f"reduced word of length {len(letters)} exceeds the cap "
                f"{self.max_word_len}"
            )
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

    def add(self, a: FreeElement, b: FreeElement) -> FreeElement:
        self._require_same(a)
        self._require_same(b)
        return a + b

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
                if len(w) > self.max_word_len:
                    raise WordLengthError(
                        f"product word of length {len(w)} exceeds the cap "
                        f"{self.max_word_len}"
                    )
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
                    if len(w) > self.max_word_len:
                        raise WordLengthError(
                            f"product word of length {len(w)} exceeds the cap "
                            f"{self.max_word_len}"
                        )
                    out[w] = out.get(w, 0j) + c * ck
        return out

    def star(self, a: FreeElement) -> FreeElement:
        self._require_same(a)
        return a.star()

    # ------------------------------------------------------------------
    # word enumeration

    def words(self, max_len: int, factors: Sequence[int] | None = None) -> Iterator[CanonicalWord]:
        """All canonical words of length <= max_len, in deterministic order.

        Order is lexicographic by (length, factor sequence, basis indices),
        starting with the empty word.
        """
        indices = tuple(sorted(factors)) if factors is not None else self.factor_indices
        for f in indices:
            self.factor(f)
        yield ()
        for length in range(1, max_len + 1):
            for fseq in itertools.product(indices, repeat=length):
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
            spec = element.algebra.factor(f)
            if len(images) != len(spec.basis):
                raise DimensionMismatchError(
                    f"target for factor {f} must list {len(spec.basis)} basis images"
                )
            prod = prod @ np.asarray(images[idx], dtype=complex)
        out += coeff * prod
    return out


# ----------------------------------------------------------------------
# canonical JSON serialization

def element_to_obj(element: FreeElement) -> list:
    """Canonical JSON object: sorted list of {coeff: [re, im], word: [[f, k], ...]}."""
    out = []
    for word in sorted(element._terms, key=word_sort_key):
        c = element._terms[word]
        out.append({"coeff": [c.real, c.imag], "word": [[f, k] for f, k in word]})
    return out


def element_from_obj(algebra: FreeAlgebra, obj: Sequence[Mapping]) -> FreeElement:
    terms: dict = {}
    for entry in obj:
        re, im = entry["coeff"]
        word = tuple((int(f), int(k)) for f, k in entry["word"])
        prev = None
        for f, k in word:
            spec = algebra.factor(f)
            if not 0 <= k < len(spec.basis):
                raise UnknownFactorError(f"factor {f} has no basis index {k}")
            if prev == f:
                raise AlgebraError(f"serialized word is not reduced at factor {f}")
            prev = f
        terms[word] = terms.get(word, 0j) + complex(float(re), float(im))
    return FreeElement(algebra, terms)


def element_to_json(element: FreeElement) -> str:
    return json.dumps(element_to_obj(element), separators=(",", ":"))


def element_from_json(algebra: FreeAlgebra, text: str) -> FreeElement:
    return element_from_obj(algebra, json.loads(text))
