"""Generalized states: bilinear functionals on pairs of free-product elements.

Every built-in family evaluates a word pair through the same kernel shape.
A word ``w`` is first grouped per factor slot (one matrix per slot, letters
multiplied in order of appearance); the groups are then threaded through the
family's evolution data to produce a "forward" vector ``r(w)``.  The kernel
on words is ``K(b, a) = <r(b*), r(a)>`` where the star of a canonical word is
its reversal, and the bilinear extension carries coefficients without
conjugation: all conjugation enters through an explicit star on the first
argument.  Orthonormal-basis sums in the defining amplitude formulas are
resolved exactly as resolutions of the identity, never sampled.

``r(w)`` is multilinear in the slot groups (the comb or process-matrix form
of the model), so each family is one contraction of stacked slot groups
that broadcasts over a leading batch axis: a whole word list is evaluated
in one pass, and a single word is the batch of one.  Words whose letters
differ only in how different slots interleave have the same slot groups, so
each distinct slot signature is contracted once.  A letter multiplied on
the left of a word acts on one slot group only, so ``letter_vectors`` gets
``r(b w)`` from the words' own groups, without forming the product words.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .algebra import (
    AlgebraMismatchError,
    CanonicalWord,
    FactorSpec,
    FreeAlgebra,
    FreeElement,
)

UNITARY_TOL = 1e-10
STATE_NORM_TOL = 1e-12
UNIT_OMEGA_TOL = 1e-10

_factor = itemgetter(0)


class StateError(Exception):
    """Base class for state-evaluation failures."""


class UnregisteredSlotError(StateError):
    """A word letter belongs to a factor that is not one of the state's slots."""


class ModelValidationError(Exception):
    """Model data violates a structural requirement (norms, unitarity, weights)."""


def _validating(init):
    """Run a model constructor with numpy's overflow and invalid-value
    warnings off.  A huge entry (1e308) overflows a check's arithmetic to inf
    or NaN; every check is written so that NaN fails it, so the entry ends in
    a ``ModelValidationError`` and nothing else reaches standard error."""

    @functools.wraps(init)
    def run(self, *args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            init(self, *args, **kwargs)

    return run


def _check_unitary(name: str, u: np.ndarray, dim: int) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (dim, dim):
        raise ModelValidationError(
            f"{name}: expected a {dim}x{dim} matrix, got shape {u.shape}"
        )
    err = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
    if not err <= UNITARY_TOL:
        raise ModelValidationError(f"{name}: not unitary (deviation {err:.3e})")
    return u


def _check_state_vector(name: str, psi: np.ndarray, dim: int) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (dim,):
        raise ModelValidationError(
            f"{name}: expected a vector of length {dim}, got {psi.shape}"
        )
    if not abs(np.linalg.norm(psi) - 1.0) <= STATE_NORM_TOL:
        raise ModelValidationError(
            f"{name}: not normalized (norm {np.linalg.norm(psi):.12f})"
        )
    return psi


def _check_slots(factors: set, slots: Sequence[int]) -> None:
    stray = factors.difference(slots)
    if stray:
        raise UnregisteredSlotError(
            f"letter from factor {min(stray)} does not belong to slots {tuple(slots)}"
        )


def slot_groups(
    algebra: FreeAlgebra,
    words: Sequence[CanonicalWord],
    slots: Sequence[int],
) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-slot letter products of every distinct slot signature of ``words``,
    one ``(m, d, d)`` stack per slot, and each word's signature index.

    A word's signature is its letters stably sorted by factor.  Letters of
    different slots act on different slot groups, so words that differ only
    in how those letters interleave share a signature and every slot group:
    ``stack[inverse[j]]`` is word ``j``'s group.  Entry ``s`` of slot ``i``'s
    stack is the product of signature ``s``'s letters from that slot, in
    order, or the slot's identity when it has none.  Each slot's stack is
    built one within-slot letter position at a time, with one batched matmul
    against the slot's stacked basis (shorter runs are padded with the
    identity).
    """
    _check_slots({f for word in words for f, _ in word}, slots)
    index: dict[CanonicalWord, int] = {}
    inverse = np.array(
        [index.setdefault(tuple(sorted(w, key=_factor)), len(index)) for w in words],
        dtype=np.intp,
    )
    # a signature holds each slot's letters as one run, so a slot without
    # letters keeps the shared empty run
    runs = {f: [[]] * len(index) for f in slots}
    for s, sig in enumerate(index):
        for f, run in groupby(sig, _factor):
            runs[f][s] = [k for _, k in run]
    stacks = []
    for f in slots:
        spec = algebra.factor(f)
        # pad with the identity, which sits after the basis in basis_stack
        pad = len(spec.basis)
        depth = max(1, max(map(len, runs[f]), default=0))
        mats = spec.basis_stack[
            np.array([ks + [pad] * (depth - len(ks)) for ks in runs[f]], dtype=np.intp)
            .reshape(len(index), depth)
        ]
        stack = mats[:, 0]
        for r in range(1, depth):
            stack = stack @ mats[:, r]
        stacks.append(stack)
    return stacks, inverse


class GeneralizedState:
    """Base bilinear evaluator over canonical words.

    A subclass defines ``_contract`` over stacked slot groups.  Single
    forward vectors are cached per canonical word (``_fill_cache`` warms
    the cache for a word list in one batched pass, and ``eval_bilinear``
    fills all of its misses with one such call).  That cache is the one
    mutable part of an instance: a fill only adds entries, and a word's
    ``r(w)`` does not depend on the batch it is computed in, so concurrent
    fills store equal values and concurrent reads are safe and
    deterministic.
    """

    family = "abstract"

    def __init__(self, algebra: FreeAlgebra, slots: Sequence[int]):
        self.algebra = algebra
        self.slots = tuple(slots)
        self._forward_cache: dict[CanonicalWord, np.ndarray] = {}

    def _contract(self, *groups: np.ndarray) -> np.ndarray:
        """Forward vectors ``(n, D)`` from one ``(n, d, d)`` group stack per slot."""
        raise NotImplementedError

    def forward_vector(self, word: CanonicalWord) -> np.ndarray:
        """``r(word)``, the batch of one, memoised per word."""
        hit = self._forward_cache.get(word)
        if hit is None:
            self._fill_cache([word])
            hit = self._forward_cache[word]
        return hit

    def _fill_cache(self, words: Iterable[CanonicalWord]) -> None:
        """Cache ``r(w)`` for every word not cached yet, in one pass."""
        cold = [w for w in dict.fromkeys(words) if w not in self._forward_cache]
        if cold:
            batch = self.forward_vectors(cold)
            for j, w in enumerate(cold):
                # a copy owns its D entries; a view would keep the batch's array too
                self._forward_cache[w] = batch[:, j].copy()

    def forward_vectors(self, words: Sequence[CanonicalWord]) -> np.ndarray:
        """The columns ``r(w)`` for every word, shape ``(D, n)``, in one pass
        that contracts each distinct slot signature once; it bypasses the
        per-word cache."""
        groups, inverse = slot_groups(self.algebra, words, self.slots)
        return self._contract(*groups)[inverse].T

    def letter_vectors(
        self, letters: Sequence[tuple[int, int]], words: Sequence[CanonicalWord]
    ) -> np.ndarray:
        """The columns ``r(b w)`` for every letter ``b`` and word ``w``, shape
        ``(L, D, n)``.

        Left multiplication by ``b`` multiplies the slot group of ``b``'s
        factor on the left by ``b``'s basis matrix and leaves the other
        groups alone (merged or cancelled letters included, by linearity),
        so each letter is one contraction of the words' own slot groups,
        taken once per distinct slot signature.
        """
        _check_slots({f for f, _ in letters}, self.slots)
        groups, inverse = slot_groups(self.algebra, words, self.slots)
        out = []
        for f, k in letters:
            i = self.slots.index(f)
            acted = list(groups)
            acted[i] = self.algebra.factor(f).basis_stack[k] @ groups[i]
            out.append(self._contract(*acted).T)
        return np.stack(out).take(inverse, axis=2)

    def eval_words(self, b: CanonicalWord, a: CanonicalWord) -> complex:
        """Kernel value omega(b, a) on a pair of canonical words."""
        rb = self.forward_vector(tuple(reversed(tuple(b))))
        ra = self.forward_vector(tuple(a))
        return complex(rb.conj() @ ra)

    def eval_bilinear(self, p: FreeElement, q: FreeElement) -> complex:
        """Bilinear extension of the word kernel; linear in both slots."""
        if p.algebra is not self.algebra or q.algebra is not self.algebra:
            raise AlgebraMismatchError(
                "elements must live over the state's factor family"
            )
        if p.is_zero() or q.is_zero():
            return 0j
        try:
            return self._eval_cached(p, q)
        except KeyError:
            # the first miss: evaluate every word of both sides in one pass
            self._fill_cache([w for w, _ in q.items()]
                             + [tuple(reversed(w)) for w, _ in p.items()])
            return self._eval_cached(p, q)

    def _eval_cached(self, p: FreeElement, q: FreeElement) -> complex:
        """``eval_bilinear`` on cached forward vectors; a cold word raises
        ``KeyError``."""
        cache = self._forward_cache
        right = None
        for w, c in q.items():
            v = c * cache[w]
            right = v if right is None else right + v
        out = 0j
        for w, c in p.items():
            rb = cache[tuple(reversed(w))]
            out += c * complex(rb.conj() @ right)
        return out

    def unit_check(self) -> float:
        """|omega(e, e) - 1| for the constructed model."""
        return abs(self.eval_words((), ()) - 1.0)


# ----------------------------------------------------------------------
# sequential family: fixed causal order, one unitary between adjacent slots

class SequentialModel(GeneralizedState):
    """Correlations of a fixed-order evolution with the dynamics in the state.

    Slots 1..n hold the operators, the state vector lives at the last slot,
    and ``unitaries[k]`` connects slot k+1 to slot k+2 (so the two-slot case
    has a single connecting unitary).  The forward vector of a word is
    ``W_1 U_1 W_2 U_2 ... W_n psi`` with per-slot groups ``W_k``.
    """

    family = "sequential"

    @_validating
    def __init__(
        self,
        dim: int,
        psi: np.ndarray,
        unitaries: Sequence[np.ndarray],
    ):
        dim = int(dim)
        unitaries = [np.asarray(u, dtype=complex) for u in unitaries]
        if not unitaries:
            raise ModelValidationError("at least one connecting unitary is required")
        n = len(unitaries) + 1
        self.dim = dim
        self.psi = _check_state_vector("psi", psi, dim)
        self.unitaries = tuple(
            _check_unitary(f"unitaries[{k}]", u, dim)
            for k, u in enumerate(unitaries)
        )
        algebra = FreeAlgebra([FactorSpec(i, dim) for i in range(1, n + 1)])
        super().__init__(algebra, range(1, n + 1))

    def _contract(self, *groups: np.ndarray) -> np.ndarray:
        v = (groups[-1] @ self.psi)[..., None]
        for g, u in zip(groups[-2::-1], self.unitaries[::-1]):
            v = g @ (u @ v)
        return v[..., 0]


# ----------------------------------------------------------------------
# control-branch families: switch and fuzz

@dataclass(frozen=True)
class FuzzBranch:
    """One branch of a control-indexed sum of fixed-order chains.

    ``order`` is "yx" (the y operator is applied before x) or "xy";
    ``pre``, ``mid`` and ``post`` are the three evolution segments in
    temporal order (before the first operator, between the two, after the
    second).
    """

    weight: float
    order: str
    pre: np.ndarray
    mid: np.ndarray
    post: np.ndarray

    def apply(self, x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The chain ``post x mid y pre`` (order "yx", else x and y swapped)
        applied to the column stack ``t``; x, y and t broadcast over a
        leading batch axis."""
        first, second = (y, x) if self.order == "yx" else (x, y)
        return self.post @ (second @ (self.mid @ (first @ (self.pre @ t))))


class FuzzModel(GeneralizedState):
    """Weighted control-indexed superposition of the two operator orders.

    The control space has one basis vector per branch; ``psi`` lives in
    control tensor target.  Words use four slots: factor 1 (x, target),
    factor 2 (y, target), factor 3 (u, control tensor target) and factor 4
    (v, control tensor target).  The weight/state configuration must
    preserve normalization: omega(e, e) = 1 is checked at construction.
    """

    family = "fuzz"

    @_validating
    def __init__(
        self,
        dim: int,
        psi: np.ndarray,
        branches: Sequence[FuzzBranch],
    ):
        dim = int(dim)
        branches = tuple(branches)
        if not branches:
            raise ModelValidationError("at least one branch is required")
        checked = []
        for i, br in enumerate(branches):
            if br.order not in ("yx", "xy"):
                raise ModelValidationError(
                    f"branch {i}: order must be 'yx' or 'xy', got {br.order!r}"
                )
            if not br.weight > 0:
                raise ModelValidationError(
                    f"branch {i}: weight must be positive, got {br.weight}"
                )
            checked.append(
                FuzzBranch(
                    float(br.weight),
                    br.order,
                    _check_unitary(f"branch {i} pre", br.pre, dim),
                    _check_unitary(f"branch {i} mid", br.mid, dim),
                    _check_unitary(f"branch {i} post", br.post, dim),
                )
            )
        self.dim = dim
        self.branches = tuple(checked)
        self.control_dim = len(checked)
        total = self.control_dim * dim
        self.psi = _check_state_vector("psi", psi, total)
        # the control factors first: their tables are the largest, so an
        # oversized model is refused before any target table is built
        control = [FactorSpec(3, total), FactorSpec(4, total)]
        algebra = FreeAlgebra([FactorSpec(1, dim), FactorSpec(2, dim), *control])
        super().__init__(algebra, (1, 2, 3, 4))
        norm_err = self.unit_check()
        if not norm_err <= UNIT_OMEGA_TOL:
            raise ModelValidationError(
                "weights and state do not preserve normalization: "
                f"|omega(e,e) - 1| = {norm_err:.3e}"
            )

    def _contract(
        self, x: np.ndarray, y: np.ndarray, u: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """``v M(x, y) u psi`` with ``M = sum_k w_k |k><k| (x) chain_k(x, y)``:
        branch k acts on the k-th control block of ``u psi``."""
        t = (u @ self.psi).reshape(len(u), self.control_dim, self.dim, 1)
        s = np.concatenate(
            [br.weight * br.apply(x, y, t[:, k]) for k, br in enumerate(self.branches)],
            axis=1,
        )
        return (v @ s)[..., 0]

    def amplitude(
        self,
        phi: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
    ) -> complex:
        """Transition amplitude from the model state to phi through x, y, u, v."""
        phi = np.asarray(phi, dtype=complex).reshape(-1)
        ops = [np.asarray(m, dtype=complex)[None] for m in (x, y, u, v)]
        return complex(phi.conj() @ self._contract(*ops)[0])


class SwitchModel(FuzzModel):
    """Two-branch control superposition of the two operator orders.

    Control basis vector 0 routes the target through y then x with the
    order-0 segments; control 1 routes through x then y with the order-1
    segments.  Equivalent to a two-branch weight-1 FuzzModel.
    """

    family = "switch"

    def __init__(
        self,
        dim: int,
        psi: np.ndarray,
        u_vx0: np.ndarray,
        u_xy0: np.ndarray,
        u_yu0: np.ndarray,
        u_vy1: np.ndarray,
        u_yx1: np.ndarray,
        u_xu1: np.ndarray,
    ):
        branches = (
            FuzzBranch(1.0, "yx", pre=u_yu0, mid=u_xy0, post=u_vx0),
            FuzzBranch(1.0, "xy", pre=u_xu1, mid=u_yx1, post=u_vy1),
        )
        super().__init__(dim, psi, branches)


# ----------------------------------------------------------------------
# superspacetime family: branches defined by evolution segments on a
# reference set, evaluated as a weight-1 FuzzModel

@dataclass(frozen=True)
class SuperspacetimeBranch:
    """One spacetime configuration in the superposition.

    ``permutation[i]`` is the temporal position (0 = earlier) of the i-th
    reference point; hamiltonians/durations define the three evolution
    segments in temporal order.
    """

    amplitude: complex
    permutation: tuple[int, int]
    hamiltonians: tuple[np.ndarray, np.ndarray, np.ndarray]
    durations: tuple[float, float, float]


HERMITIAN_TOL = 1e-10


def _evolution(h: np.ndarray, t: float) -> np.ndarray:
    """``exp(-i H t)`` for hermitian ``H``, as ``V diag(exp(-i lambda t)) V^dagger``."""
    evals, evecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


class SuperspacetimeModel(FuzzModel):
    """A reference set with per-branch point identifications and dynamics.

    The reference set carries the two operator insertion points (the first
    maps to the x slot, the second to the y slot).  Each branch places them
    in a temporal order via its identification permutation and evolves with
    ``exp(-i H t)`` per segment; it becomes a weight-1 fuzz branch, and the
    normalized branch amplitudes form the control part of the state vector
    ``amplitudes (x) target_psi``.
    """

    family = "superspacetime"

    @_validating
    def __init__(
        self,
        dim: int,
        reference: Sequence,
        target_psi: np.ndarray,
        branches: Sequence[SuperspacetimeBranch],
    ):
        dim = int(dim)
        if len(tuple(reference)) != 2:
            raise ModelValidationError(
                "the reference set must name exactly two insertion points"
            )
        target_psi = _check_state_vector("target_psi", target_psi, dim)
        branches = tuple(branches)
        if not branches:
            raise ModelValidationError("at least one branch is required")
        fuzz_branches = []
        for i, br in enumerate(branches):
            if tuple(sorted(br.permutation)) != (0, 1):
                raise ModelValidationError(
                    f"branch {i}: identification map {br.permutation} is not a "
                    "bijection onto the temporal slots"
                )
            if len(br.hamiltonians) != 3 or len(br.durations) != 3:
                raise ModelValidationError(
                    f"branch {i}: exactly three evolution segments are required"
                )
            segs = []
            for j, (h, t) in enumerate(zip(br.hamiltonians, br.durations)):
                h = np.asarray(h, dtype=complex)
                if h.shape != (dim, dim):
                    raise ModelValidationError(
                        f"branch {i} segment {j}: hamiltonian has shape {h.shape}"
                    )
                if not np.max(np.abs(h - h.conj().T)) <= HERMITIAN_TOL:
                    raise ModelValidationError(
                        f"branch {i} segment {j}: hamiltonian is not hermitian"
                    )
                segs.append(_evolution(h, float(t)))
            order = "yx" if br.permutation[0] == 1 else "xy"
            fuzz_branches.append(FuzzBranch(1.0, order, *segs))
        amps = np.array([complex(br.amplitude) for br in branches])
        norm = np.linalg.norm(amps)
        if not norm > 1e-12:
            raise ModelValidationError("branch amplitude vector is not normalizable")
        super().__init__(dim, np.kron(amps / norm, target_psi), fuzz_branches)
