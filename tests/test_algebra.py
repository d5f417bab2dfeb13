import time
import tracemalloc

import numpy as np
import pytest

from causal_kernel import algebra
from causal_kernel.algebra import (
    AlgebraError,
    AlgebraMismatchError,
    DimensionMismatchError,
    FactorSpec,
    FactorSpecError,
    FreeAlgebra,
    FreeElement,
    UnknownFactorError,
    WordLengthError,
    gell_mann_basis,
    induced_hom,
    word_sort_key,
)
from causal_kernel.sampling import random_element, random_matrix, random_unitary

from conftest import I2, SX, SY, SZ


def random_raw_word(rng, algebra, max_len=5):
    letters = []
    for _ in range(int(rng.integers(0, max_len + 1))):
        choices = algebra.factor_indices
        f = int(choices[int(rng.integers(len(choices)))])
        d = algebra.factor(f).dim
        kind = rng.random()
        if kind < 0.3:
            m = algebra.factor(f).basis[int(rng.integers(d * d - 1))]
        elif kind < 0.6:
            m = random_matrix(rng, d)
        else:
            m = random_matrix(rng, d) + rng.normal() * np.eye(d)
        letters.append((f, np.asarray(m)))
    return letters


class TestGellMannBasis:
    def test_qubit_basis_is_pauli(self):
        basis = gell_mann_basis(2)
        assert len(basis) == 3
        np.testing.assert_allclose(basis[0], SX)
        np.testing.assert_allclose(basis[1], SY)
        np.testing.assert_allclose(basis[2], SZ)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_traceless_hermitian_orthogonal(self, dim):
        basis = gell_mann_basis(dim)
        assert len(basis) == dim * dim - 1
        for i, b in enumerate(basis):
            assert abs(np.trace(b)) < 1e-12
            assert np.max(np.abs(b - b.conj().T)) < 1e-12
            for j, b2 in enumerate(basis):
                inner = np.trace(b.conj().T @ b2)
                expected = 2.0 if i == j else 0.0
                assert abs(inner - expected) < 1e-12


class TestFactorSpec:
    @pytest.mark.parametrize("dim", [0, -1])
    def test_rejects_nonpositive_dimension(self, dim):
        with pytest.raises(FactorSpecError, match="dimension must be positive"):
            FactorSpec(1, dim)

    def test_oversized_dimension_is_refused_before_allocating(self):
        # dimension 100 would need about 4.5 GiB of tables
        t0 = time.perf_counter()
        with pytest.raises(FactorSpecError, match="dimension 100 .* limit of 1 GiB"):
            FactorSpec(3, 100)
        assert time.perf_counter() - t0 < 1.0

    def test_table_limit_boundary(self, monkeypatch):
        monkeypatch.setattr(algebra, "MAX_TABLE_BYTES", 48 * 3**4)
        assert FactorSpec(1, 3).dim == 3
        with pytest.raises(FactorSpecError, match="dimension 4"):
            FactorSpec(1, 4)

    # the cost model, 48 * d**4 bytes, bounds the measured peak of building
    # the tables, and at d = 32 is not loose by more than a factor of two
    @pytest.mark.parametrize("dim", [16, 32])
    def test_table_cost_model_bounds_the_measured_peak(self, dim):
        tracemalloc.start()
        try:
            FactorSpec(1, dim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 48 * dim**4
        if dim == 32:
            assert peak >= 24 * dim**4

    def test_basis_and_identity_are_read_only_views_of_one_table(self):
        spec = FactorSpec(1, 3)
        assert spec.basis_stack.shape == (9, 3, 3)
        assert spec.basis.base is spec.basis_stack
        assert spec.identity.base is spec.basis_stack
        np.testing.assert_array_equal(spec.identity, np.eye(3))
        for table in (spec.basis_stack, spec.basis, spec.identity):
            assert not table.flags.writeable

    def test_expand_is_exact(self, rng):
        for dim in (1, 2, 3, 4):
            spec = FactorSpec(1, dim)
            m = random_matrix(rng, dim)
            alpha, coeffs = spec.expand(m)
            rebuilt = alpha * np.eye(dim) + sum(
                (c * b for c, b in zip(coeffs, spec.basis)), np.zeros((dim, dim)))
            np.testing.assert_allclose(rebuilt, m, atol=1e-12)


class TestUnitAndEmbed:
    def test_unit_is_empty_word(self, qubit_pair_algebra):
        e = qubit_pair_algebra.unit()
        assert e.terms == {(): 1.0 + 0j}

    def test_unit_laws(self, qubit_pair_algebra, rng):
        alg = qubit_pair_algebra
        for _ in range(10):
            a = random_element(rng, alg)
            assert (alg.unit() * a).isclose(a)
            assert (a * alg.unit()).isclose(a)

    def test_star_of_unit(self, qubit_pair_algebra):
        e = qubit_pair_algebra.unit()
        assert e.star().isclose(e)

    def test_embed_identity_gives_unit(self, qubit_pair_algebra):
        assert qubit_pair_algebra.embed(1, I2).isclose(qubit_pair_algebra.unit())

    def test_embed_basis_letter(self, qubit_pair_algebra):
        el = qubit_pair_algebra.embed(1, SX)
        assert el.terms == {((1, 0),): 1.0 + 0j}

    def test_embed_splits_trace(self, qubit_pair_algebra):
        el = qubit_pair_algebra.embed(1, I2 + SZ)
        assert el.isclose(
            qubit_pair_algebra.unit() + qubit_pair_algebra.word_element(((1, 2),))
        )

    def test_embed_is_linear(self, qubit_pair_algebra, rng):
        alg = qubit_pair_algebra
        m1, m2 = random_matrix(rng, 2), random_matrix(rng, 2)
        c = complex(rng.normal(), rng.normal())
        lhs = alg.embed(1, c * m1 + m2)
        rhs = c * alg.embed(1, m1) + alg.embed(1, m2)
        assert lhs.isclose(rhs)

    def test_embed_dimension_check(self, qubit_pair_algebra):
        with pytest.raises(DimensionMismatchError):
            qubit_pair_algebra.embed(1, np.eye(3))

    def test_unknown_factor(self, qubit_pair_algebra):
        with pytest.raises(UnknownFactorError):
            qubit_pair_algebra.embed(9, I2)

    def test_word_element_rejects_unreduced_word(self, qubit_pair_algebra):
        with pytest.raises(AlgebraError, match="not reduced"):
            qubit_pair_algebra.word_element(((1, 0), (1, 1)))


class TestNormalize:
    def test_square_of_pauli_is_unit(self, qubit_pair_algebra):
        el = qubit_pair_algebra.normalize([(1, SX), (1, SX)])
        assert el.isclose(qubit_pair_algebra.unit())

    def test_inner_square_absorbs(self, qubit_pair_algebra):
        el = qubit_pair_algebra.normalize([(1, SX), (2, SY), (2, SY)])
        assert el.terms == {((1, 0),): 1.0 + 0j}

    def test_trace_split_distributes(self, qubit_pair_algebra):
        # (sx + I) z  ->  sx z + z ; verified independently through the
        # induced homomorphism below
        alg = qubit_pair_algebra
        el = alg.normalize([(1, SX + I2), (2, SZ)])
        expected = alg.word_element(((1, 0), (2, 2))) + alg.word_element(((2, 2),))
        assert el.isclose(expected)
        targets = {1: [SX, SY, SZ], 2: [SZ, SX, SY]}
        lhs = induced_hom(el, targets)
        rhs = (SX + I2) @ SY  # letter (2, sz) maps to sy under these targets
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_zero_letter_kills_word(self, qubit_pair_algebra):
        el = qubit_pair_algebra.normalize([(1, np.zeros((2, 2))), (2, SZ)])
        assert el.is_zero()

    def test_scalar_letter_absorbed(self, qubit_pair_algebra):
        el = qubit_pair_algebra.normalize([(1, 2.5 * I2), (2, SZ)])
        assert el.isclose(2.5 * qubit_pair_algebra.word_element(((2, 2),)))

    def test_confluence_randomized_orders(self, rng):
        # reduction result must not depend on rule application order
        alg = FreeAlgebra([FactorSpec(1, 2), FactorSpec(2, 3), FactorSpec(3, 2)])
        for case in range(120):
            raw = random_raw_word(rng, alg, max_len=5)
            coeff = complex(rng.normal(), rng.normal())
            baseline = alg.normalize(raw, coeff)
            for _ in range(3):
                other = alg.normalize(raw, coeff, rng=rng)
                assert baseline.isclose(other), f"case {case} diverged"

    def test_word_length_cap(self, qubit_pair_algebra):
        # seven alternating traceless letters reduce to a word of length 7,
        # one above the cap of 6
        raw = [(1 + i % 2, SX) for i in range(7)]
        assert len(qubit_pair_algebra.normalize(raw[:6]).terms) == 1
        with pytest.raises(WordLengthError, match="cap 6"):
            qubit_pair_algebra.normalize(raw)


class TestArithmetic:
    def test_multiply_same_factor_merges(self, qubit_pair_algebra):
        alg = qubit_pair_algebra
        prod = alg.embed(1, SX) * alg.embed(1, SY)
        assert prod.isclose(1j * alg.word_element(((1, 2),)))
        assert prod.isclose(alg.embed(1, SX @ SY))

    def test_multiply_distinct_factors_concatenates(self, qubit_pair_algebra):
        alg = qubit_pair_algebra
        prod = alg.embed(1, SX) * alg.embed(2, SX)
        assert prod.terms == {((1, 0), (2, 0)): 1.0 + 0j}

    def test_distinct_factor_letters_do_not_commute(self, qubit_pair_algebra, rng):
        alg = qubit_pair_algebra
        for _ in range(20):
            k1, k2 = int(rng.integers(3)), int(rng.integers(3))
            x = alg.word_element(((1, k1),))
            y = alg.word_element(((2, k2),))
            assert not (x * y).isclose(y * x)

    def test_associativity_random(self, qubit_pair_algebra, rng):
        alg = qubit_pair_algebra
        for _ in range(40):
            a = random_element(rng, alg, max_len=2)
            b = random_element(rng, alg, max_len=2)
            c = random_element(rng, alg, max_len=2)
            assert ((a * b) * c).isclose(a * (b * c))

    def test_distributivity_random(self, qubit_pair_algebra, rng):
        alg = qubit_pair_algebra
        for _ in range(40):
            a = random_element(rng, alg, max_len=2)
            b = random_element(rng, alg, max_len=2)
            c = random_element(rng, alg, max_len=2)
            assert (a * (b + c)).isclose(a * b + a * c)

    def test_add_scale_laws(self, qubit_pair_algebra, rng):
        alg = qubit_pair_algebra
        a = random_element(rng, alg)
        assert (a + (-1.0) * a).is_zero()
        assert (0.0 * a).is_zero()
        assert (alg.unit() + alg.unit()).terms == {(): 2.0 + 0j}

    def test_mixed_algebra_rejected(self, qubit_pair_algebra):
        other = FreeAlgebra([FactorSpec(1, 2), FactorSpec(2, 2)])
        with pytest.raises(AlgebraMismatchError):
            qubit_pair_algebra.unit() * other.unit()


class TestStar:
    def test_hermitian_letter_fixed(self, qubit_pair_algebra):
        x = qubit_pair_algebra.embed(1, SX)
        assert x.star().isclose(x)

    def test_antilinear(self, qubit_pair_algebra, rng):
        a = random_element(rng, qubit_pair_algebra)
        c = complex(rng.normal(), rng.normal())
        assert (c * a).star().isclose(np.conjugate(c) * a.star())

    def test_order_reversal_with_conjugation(self, qubit_pair_algebra):
        alg = qubit_pair_algebra
        el = 1j * alg.word_element(((1, 0), (2, 1)))
        assert el.star().terms == {((2, 1), (1, 0)): -1j}

    def test_involution(self, qubit_pair_algebra, rng):
        a = random_element(rng, qubit_pair_algebra)
        assert a.star().star().isclose(a)

    def test_antihomomorphism(self, qubit_pair_algebra, rng):
        for _ in range(20):
            a = random_element(rng, qubit_pair_algebra, max_len=2)
            b = random_element(rng, qubit_pair_algebra, max_len=2)
            assert (a * b).star().isclose(b.star() * a.star())


class TestInducedHom:
    def test_unit_maps_to_identity(self, qubit_pair_algebra):
        targets = {1: [SX, SY, SZ], 2: [SX, SY, SZ]}
        np.testing.assert_allclose(
            induced_hom(qubit_pair_algebra.unit(), targets), np.eye(2)
        )

    def test_identity_embedding_recovers_matrix(self, qubit_pair_algebra, rng):
        targets = {1: list(qubit_pair_algebra.factor(1).basis),
                   2: list(qubit_pair_algebra.factor(2).basis)}
        m = random_matrix(rng, 2)
        el = qubit_pair_algebra.embed(1, m)
        np.testing.assert_allclose(induced_hom(el, targets), m, atol=1e-12)

    def test_multiplicative_on_random_pairs(self, qubit_pair_algebra, rng):
        alg = qubit_pair_algebra
        q = random_unitary(rng, 4)
        targets = {
            1: [q @ np.kron(b, np.eye(2)) @ q.conj().T for b in alg.factor(1).basis],
            2: [q @ np.kron(np.eye(2), b) @ q.conj().T for b in alg.factor(2).basis],
        }
        for _ in range(30):
            a = random_element(rng, alg, max_len=2)
            b = random_element(rng, alg, max_len=2)
            lhs = induced_hom(a * b, targets)
            rhs = induced_hom(a, targets) @ induced_hom(b, targets)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_star_compatible(self, qubit_pair_algebra, rng):
        alg = qubit_pair_algebra
        targets = {
            1: [np.kron(b, np.eye(2)) for b in alg.factor(1).basis],
            2: [np.kron(np.eye(2), b) for b in alg.factor(2).basis],
        }
        a = random_element(rng, alg, max_len=2)
        lhs = induced_hom(a.star(), targets)
        rhs = induced_hom(a, targets).conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_soundness_equal_canonical_forms(self, qubit_pair_algebra, rng):
        # different presentations of the same element map to equal matrices
        alg = qubit_pair_algebra
        for trial in range(10):
            q = random_unitary(rng, 4)
            targets = {
                1: [q @ np.kron(b, np.eye(2)) @ q.conj().T for b in alg.factor(1).basis],
                2: [q @ np.kron(np.eye(2), b) @ q.conj().T for b in alg.factor(2).basis],
            }
            m1, m2 = random_matrix(rng, 2), random_matrix(rng, 2)
            via_normalize = alg.normalize([(1, m1), (2, m2), (2, m2)])
            via_embed = alg.embed(1, m1) * alg.embed(2, m2 @ m2)
            assert via_normalize.isclose(via_embed)
            diff = induced_hom(via_normalize, targets) - induced_hom(via_embed, targets)
            assert np.max(np.abs(diff)) < 1e-10

    @pytest.mark.parametrize("letter", [(1, 3), (1, -1)])
    def test_bad_letter_rejected(self, qubit_pair_algebra, letter):
        # index 3 is past the basis and -1 would wrap to its last image
        targets = {1: [SX, SY, SZ], 2: [SX, SY, SZ]}
        element = FreeElement(qubit_pair_algebra, {(letter,): 1 + 0j})
        with pytest.raises(UnknownFactorError, match="has no basis index"):
            induced_hom(element, targets)

    def test_inconsistent_target_dims_rejected(self, qubit_pair_algebra):
        targets = {1: [SX, SY, SZ], 2: [np.eye(3)] * 3}
        with pytest.raises(DimensionMismatchError):
            induced_hom(qubit_pair_algebra.unit() + qubit_pair_algebra.embed(1, SX), targets)


class TestWordEnumeration:
    def test_counts_match_closed_form(self):
        alg = FreeAlgebra([FactorSpec(1, 2), FactorSpec(2, 3)])
        words = list(alg.words(2))
        # 1 + (3 + 8) + (3*8 + 8*3)
        assert len(words) == 1 + 11 + 48
        assert words[0] == ()

    def test_enumeration_is_sorted_and_reduced(self):
        alg = FreeAlgebra([FactorSpec(1, 2), FactorSpec(2, 2)])
        words = list(alg.words(3))
        keys = [word_sort_key(w) for w in words]
        assert keys == sorted(keys)
        for w in words:
            for i in range(len(w) - 1):
                assert w[i][0] != w[i + 1][0]
