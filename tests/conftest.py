import numpy as np
import pytest

from causal_kernel.algebra import FactorSpec, FreeAlgebra, induced_hom
from causal_kernel.sampling import random_state_vector, random_unitary
from causal_kernel.states import GeneralizedState

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


@pytest.fixture
def qubit_pair_algebra():
    return FreeAlgebra([FactorSpec(1, 2), FactorSpec(2, 2)])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class WordMapState(GeneralizedState):
    """State defined by an arbitrary linear map from canonical words to
    vectors; the kernel is the inner product of mapped star/word images.

    Useful both for adversarial bilinear functionals (maps that do not
    respect products) and for representation-backed ones (maps that do).
    """

    family = "wordmap"

    def __init__(self, algebra, forward):
        super().__init__(algebra, algebra.factor_indices)
        self._fn = forward

    def forward_vectors(self, words):
        return np.stack([self._fn(w) for w in words], axis=1)


def representation_backed_state(rng, unitary=False):
    """Forward map through an actual homomorphism: left ideal holds exactly.

    With ``unitary=False`` the homomorphism is a non-unitary similarity
    transform, still multiplicative but not adjoint-compatible.
    """
    algebra = FreeAlgebra([FactorSpec(1, 2), FactorSpec(2, 2)])
    if unitary:
        q1, q2 = random_unitary(rng, 2), random_unitary(rng, 2)
        inv1, inv2 = q1.conj().T, q2.conj().T
    else:
        q1 = np.array([[1.0, 0.6], [0.0, 1.0]], dtype=complex)
        q2 = np.array([[1.0, 0.0], [0.4j, 1.0]], dtype=complex)
        inv1, inv2 = np.linalg.inv(q1), np.linalg.inv(q2)
    targets = {
        1: [q1 @ b @ inv1 for b in algebra.factor(1).basis],
        2: [q2 @ b @ inv2 for b in algebra.factor(2).basis],
    }
    vec = random_state_vector(rng, 2)

    def forward(word):
        return induced_hom(algebra.word_element(word), targets) @ vec

    return WordMapState(algebra, forward)
