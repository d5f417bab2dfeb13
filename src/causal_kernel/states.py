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
in one pass, and a single word is the batch of one.  A letter multiplied on
the left of a word acts on one slot group only, so ``letter_vectors`` gets
``r(b w)`` from the words' own groups, without forming the product words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


class StateError(Exception):
    """Base class for state-evaluation failures."""


class UnregisteredSlotError(StateError):
    """A word letter belongs to a factor that is not one of the state's slots."""


class ModelValidationError(Exception):
    """Model data violates a structural requirement (norms, unitarity, weights)."""


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
) -> list[np.ndarray]:
    """Per-slot letter products of every word, one ``(n, d, d)`` stack per slot.

    Entry ``j`` of slot ``i``'s stack is the product of word ``j``'s letters
    from that slot, in order of appearance, or the slot's identity when the
    word has none.  Each slot's stack is built one within-slot letter
    position at a time, with one batched matmul against the slot's stacked
    basis (shorter words are padded with the identity).
    """
    _check_slots({f for word in words for f, _ in word}, slots)
    per_slot = [[[k for g, k in word if g == f] for word in words] for f in slots]
    stacks = []
    for f, lists in zip(slots, per_slot):
        spec = algebra.factor(f)
        # pad with the identity, which sits after the basis in basis_stack
        pad = len(spec.basis)
        depth = max(1, max(map(len, lists), default=0))
        mats = spec.basis_stack[
            np.array([ks + [pad] * (depth - len(ks)) for ks in lists], dtype=np.intp)
        ]
        stack = mats[:, 0]
        for r in range(1, depth):
            stack = stack @ mats[:, r]
        stacks.append(stack)
    return stacks


class GeneralizedState:
    """Base bilinear evaluator over canonical words.

    A subclass defines ``_contract`` over stacked slot groups.  Single
    forward vectors are cached per canonical word, and instances are
    immutable after construction, so concurrent reads are safe and
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
            # a copy owns its D entries; a view would keep the batch's array too
            hit = self.forward_vectors([word])[:, 0].copy()
            self._forward_cache[word] = hit
        return hit

    def forward_vectors(self, words: Sequence[CanonicalWord]) -> np.ndarray:
        """The columns ``r(w)`` for every word, shape ``(D, n)``, in one pass;
        it bypasses the per-word cache."""
        return self._contract(*slot_groups(self.algebra, words, self.slots)).T

    def letter_vectors(
        self, letters: Sequence[tuple[int, int]], words: Sequence[CanonicalWord]
    ) -> np.ndarray:
        """The columns ``r(b w)`` for every letter ``b`` and word ``w``, shape
        ``(L, D, n)``.

        Left multiplication by ``b`` multiplies the slot group of ``b``'s
        factor on the left by ``b``'s basis matrix and leaves the other
        groups alone (merged or cancelled letters included, by linearity),
        so each letter is one contraction of the words' own slot groups.
        """
        _check_slots({f for f, _ in letters}, self.slots)
        groups = slot_groups(self.algebra, words, self.slots)
        out = []
        for f, k in letters:
            i = self.slots.index(f)
            acted = list(groups)
            acted[i] = self.algebra.factor(f).basis_stack[k] @ groups[i]
            out.append(self._contract(*acted).T)
        return np.stack(out)

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
        right = None
        for w, c in q.items():
            v = c * self.forward_vector(w)
            right = v if right is None else right + v
        out = 0j
        for w, c in p.items():
            rb = self.forward_vector(tuple(reversed(w)))
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

    def __init__(
        self,
        dim: int,
        psi: np.ndarray,
        branches: Sequence[FuzzBranch],
        family: str | None = None,
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
        if family is not None:
            self.family = family
        algebra = FreeAlgebra(
            [
                FactorSpec(1, dim),
                FactorSpec(2, dim),
                FactorSpec(3, total),
                FactorSpec(4, total),
            ]
        )
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
            FuzzBranch(1.0, "yx", pre=np.asarray(u_yu0, dtype=complex),
                       mid=np.asarray(u_xy0, dtype=complex),
                       post=np.asarray(u_vx0, dtype=complex)),
            FuzzBranch(1.0, "xy", pre=np.asarray(u_xu1, dtype=complex),
                       mid=np.asarray(u_yx1, dtype=complex),
                       post=np.asarray(u_vy1, dtype=complex)),
        )
        super().__init__(dim, psi, branches)

    def as_fuzz(self) -> FuzzModel:
        """The same evaluator presented as a plain two-branch FuzzModel."""
        return FuzzModel(self.dim, self.psi, self.branches)


# ----------------------------------------------------------------------
# superspacetime family: branches defined by evolution segments on a
# reference set, converted into a FuzzModel

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


class SuperspacetimeModel:
    """A reference set with per-branch point identifications and dynamics.

    The reference set carries the two operator insertion points (the first
    maps to the x slot, the second to the y slot).  Each branch places them
    in a temporal order via its identification permutation and evolves with
    ``exp(-i H t)`` per segment; branch amplitudes populate the control part
    of the derived state vector.
    """

    def __init__(
        self,
        dim: int,
        reference: Sequence,
        target_psi: np.ndarray,
        branches: Sequence[SuperspacetimeBranch],
    ):
        self.dim = int(dim)
        self.reference = tuple(reference)
        if len(self.reference) != 2:
            raise ModelValidationError(
                "the reference set must name exactly two insertion points"
            )
        self.target_psi = _check_state_vector("target_psi", target_psi, self.dim)
        branches = tuple(branches)
        if not branches:
            raise ModelValidationError("at least one branch is required")
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
            for j, h in enumerate(br.hamiltonians):
                h = np.asarray(h, dtype=complex)
                if h.shape != (self.dim, self.dim):
                    raise ModelValidationError(
                        f"branch {i} segment {j}: hamiltonian has shape {h.shape}"
                    )
                if not np.max(np.abs(h - h.conj().T)) <= HERMITIAN_TOL:
                    raise ModelValidationError(
                        f"branch {i} segment {j}: hamiltonian is not hermitian"
                    )
        amps = np.array([complex(br.amplitude) for br in branches])
        norm = np.linalg.norm(amps)
        if not norm > 1e-12:
            raise ModelValidationError("branch amplitude vector is not normalizable")
        self.branches = branches
        self._control = amps / norm

    def to_fuzz(self) -> FuzzModel:
        """Build the derived evaluator: segment unitaries plus amplitude state."""
        fuzz_branches = []
        for br in self.branches:
            segs = [
                _evolution(np.asarray(h, dtype=complex), float(t))
                for h, t in zip(br.hamiltonians, br.durations)
            ]
            order = "yx" if br.permutation[0] == 1 else "xy"
            fuzz_branches.append(
                FuzzBranch(1.0, order, pre=segs[0], mid=segs[1], post=segs[2])
            )
        psi = np.kron(self._control, self.target_psi)
        return FuzzModel(self.dim, psi, fuzz_branches, family="superspacetime")
