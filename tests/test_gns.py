import dataclasses
import pathlib

import numpy as np
import pytest

from causal_kernel import gns, load_model
from causal_kernel.algebra import FactorSpec, FreeAlgebra
from causal_kernel.gns import (
    GnsError,
    GramPropertyError,
    RepresentationError,
    WordBasis,
    build_gns,
    check_left_ideal,
    expected_basis_size,
    gram,
    null_space,
    reconstruct_check,
    report_obj,
    represent_word,
)
from causal_kernel.sampling import (
    random_sequential,
    random_switch,
    random_unitary,
)

from conftest import SX, SZ, WordMapState, representation_backed_state

KET0 = np.array([1.0, 0.0], dtype=complex)
MODELS_DIR = pathlib.Path(__file__).resolve().parent.parent / "models"


def adversarial_state():
    """Null space exists but is not closed under left multiplication."""
    algebra = FreeAlgebra([FactorSpec(1, 2)])
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    images = {(): e0, ((1, 0),): e0, ((1, 1),): e1, ((1, 2),): e1}

    def forward(word):
        return images[word]

    return WordMapState(algebra, forward)


class TestGram:
    def test_unit_basis_gives_one(self, rng):
        m = random_sequential(rng)
        basis = WordBasis(m.algebra, 0, ((),))
        g = gram(m, basis)
        assert g.shape == (1, 1)
        assert abs(g[0, 0] - 1.0) < 1e-10

    def test_matches_eval_bilinear_route(self, rng):
        m = random_switch(rng)
        basis = WordBasis.build(m.algebra, 1)
        g = gram(m, basis)
        elements = basis.elements()
        idx = rng.integers(0, len(basis), size=(15, 2))
        for i, j in idx:
            direct = m.eval_bilinear(elements[int(i)].star(), elements[int(j)])
            assert abs(g[int(i), int(j)] - direct) < 1e-10

    def test_hermitian_entries(self, rng):
        m = random_sequential(rng)
        basis = WordBasis.build(m.algebra, 2)
        g = gram(m, basis)
        assert np.max(np.abs(g - g.conj().T)) < 1e-9

    def test_cauchy_schwarz_entrywise(self, rng):
        m = random_sequential(rng)
        basis = WordBasis.build(m.algebra, 2)
        g = gram(m, basis)
        diag = np.real(np.diagonal(g))
        for i in range(len(basis)):
            for j in range(len(basis)):
                assert abs(g[i, j]) ** 2 <= diag[i] * diag[j] + 1e-9

    def test_jobs_blocks_are_identical(self, rng):
        m = random_sequential(rng)
        basis = WordBasis.build(m.algebra, 2)
        g1 = gram(m, basis, jobs=1)
        g3 = gram(m, basis, jobs=3)
        np.testing.assert_array_equal(g1, g3)

    def test_expected_size_formula(self, rng):
        m = random_switch(rng)
        basis = WordBasis.build(m.algebra, 2)
        assert len(basis) == expected_basis_size(m.algebra, 2) == 865


class TestNullSpace:
    def test_identity_has_no_null_space(self):
        ns = null_space(np.eye(4, dtype=complex))
        assert ns.null_rank == 0
        assert ns.quotient_dim == 4

    def test_rank_one_projector(self):
        ns = null_space(np.diag([1.0, 0.0]).astype(complex))
        assert ns.null_rank == 1
        assert ns.quotient_dim == 1

    def test_quotient_is_g_orthonormal(self, rng):
        m = random_sequential(rng)
        basis = WordBasis.build(m.algebra, 2)
        g = gram(m, basis)
        ns = null_space(g)
        q = ns.quotient_basis
        prods = q.conj().T @ g @ q
        np.testing.assert_allclose(prods, np.eye(q.shape[1]), atol=1e-8)

    def test_rank_split_matches_svd(self, rng):
        # independent rank-revealing factorization agrees on the null rank
        m = random_switch(rng)
        basis = WordBasis.build(m.algebra, 2)
        g = gram(m, basis)
        ns = null_space(g)
        svals = np.linalg.svd(g, compute_uv=False)
        rank = int(np.sum(svals >= ns.cutoff))
        assert ns.null_rank == len(basis) - rank
        assert ns.quotient_dim == rank

    def test_non_hermitian_rejected(self):
        g = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(GramPropertyError, match="hermiticity"):
            null_space(g)

    def test_indefinite_rejected(self):
        g = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(GramPropertyError, match="positive"):
            null_space(g)

    def test_error_carries_magnitude(self):
        g = np.diag([1.0, -0.5]).astype(complex)
        try:
            null_space(g)
        except GramPropertyError as err:
            assert err.property == "positive semidefiniteness"
            assert abs(err.magnitude - 0.5) < 1e-12
        else:
            pytest.fail("expected GramPropertyError")


def per_word_left_ideal(state, basis, ns):
    """(in-cap, unrestricted) violations by the per-letter, per-word loop
    that evaluates every product term with forward_vector."""
    dom = [i for i, w in enumerate(basis.words) if len(w) <= basis.max_len - 1]
    r_dom = np.stack([state.forward_vector(basis.words[i]) for i in dom], axis=1)
    evals, evecs = np.linalg.eigh(r_dom.conj().T @ r_dom)
    n_dom = evecs[:, evals < ns.cutoff]
    worst = [0.0, 0.0]
    for letter in basis.algebra.generator_letters():
        b_el = basis.algebra.word_element((letter,))
        rho = np.zeros((r_dom.shape[0], len(basis)), dtype=complex)
        for j, w_el in enumerate(basis.elements()):
            for w, c in (b_el * w_el).items():
                rho[:, j] += c * state.forward_vector(w)
        for k, m in enumerate((rho[:, dom] @ n_dom, rho @ ns.null_vectors)):
            worst[k] = max(worst[k], float(np.linalg.norm(m, 2)) ** 2)
    return tuple(worst)


class TestLeftIdeal:
    @pytest.mark.parametrize("make", [
        lambda rng: adversarial_state(),
        lambda rng: representation_backed_state(rng),
        random_sequential,
        random_switch,
    ], ids=["adversarial", "representation_backed", "sequential", "switch"])
    def test_batched_check_matches_per_word_loop(self, rng, make):
        # word-map states stack their per-word vectors in forward_vectors,
        # the families take the batched contraction
        state = make(rng)
        basis = WordBasis.build(state.algebra, 2)
        ns = null_space(gram(state, basis))
        report = check_left_ideal(state, basis, ns)
        ref = per_word_left_ideal(state, basis, ns)
        got = (report.max_violation, report.max_violation_unrestricted)
        for g, r in zip(got, ref):
            assert abs(g - r) <= 1e-12 * max(r, 1.0)

    def test_no_null_space_is_vacuous(self):
        adv = adversarial_state()
        basis = WordBasis.build(adv.algebra, 1)
        g = np.eye(len(basis), dtype=complex)
        ns = null_space(g)
        report = check_left_ideal(adv, basis, ns)
        assert report.max_violation == 0.0
        assert report.evaluated_pairs == 0
        assert report.skipped_pairs == 0

    def test_adversarial_state_is_flagged(self):
        adv = adversarial_state()
        basis = WordBasis.build(adv.algebra, 2)
        g = gram(adv, basis)
        ns = null_space(g)
        assert ns.null_rank == 2
        report = check_left_ideal(adv, basis, ns)
        assert report.max_violation > 1e-8
        assert report.evaluated_pairs > 0

    def test_representation_backed_state_passes(self, rng):
        state = representation_backed_state(rng)
        result = build_gns(state, max_len=2)
        assert result.left_ideal.max_violation <= 1e-8
        assert result.left_ideal.max_violation_unrestricted <= 1e-8

    def test_sequential_restricted_report_and_diagnostic(self, rng):
        # slot-2 letters act after slot 1 in time, not at the front of the
        # word, so already the null vectors supported on the domain words
        # are mapped out of the null space: both reports are of order one
        m = random_sequential(rng)
        result = build_gns(m, max_len=2)
        assert result.left_ideal.max_violation > 1e-3
        assert result.left_ideal.max_violation_unrestricted > 1e-3

    def test_report_is_basis_invariant(self, rng):
        m = random_sequential(rng)
        basis = WordBasis.build(m.algebra, 3)
        ns = null_space(gram(m, basis))
        rotated = dataclasses.replace(
            ns, null_vectors=ns.null_vectors @ random_unitary(rng, ns.null_rank)
        )
        report = check_left_ideal(m, basis, ns)
        turned = check_left_ideal(m, basis, rotated)
        for field in ("max_violation", "max_violation_unrestricted"):
            ref = getattr(report, field)
            assert abs(getattr(turned, field) - ref) <= 1e-10 * ref
        assert (turned.evaluated_pairs, turned.skipped_pairs) == (
            report.evaluated_pairs, report.skipped_pairs)

    def test_represent_refuses_on_violation(self):
        adv = adversarial_state()
        basis = WordBasis.build(adv.algebra, 2)
        g = gram(adv, basis)
        ns = null_space(g)
        report = check_left_ideal(adv, basis, ns)
        from causal_kernel.gns import represent

        with pytest.raises(RepresentationError, match="not well-defined"):
            represent(adv, basis, ns, report, (1, 0))


class TestRepresentationBacked:
    def test_letter_on_unit_class(self, rng):
        state = representation_backed_state(rng)
        result = build_gns(state, max_len=2)
        coords = result.quotient_basis.conj().T @ result.gram
        index = result.basis.index()
        for letter in state.algebra.generator_letters():
            pi = result.letter_reps[letter]
            got = pi @ result.omega_vector
            expected = coords[:, index[(letter,)]]
            assert np.max(np.abs(got - expected)) < 1e-8

    def test_products_on_cyclic_vector(self, rng):
        state = representation_backed_state(rng)
        result = build_gns(state, max_len=3)
        coords = result.quotient_basis.conj().T @ result.gram
        index = result.basis.index()
        words = [w for w in result.basis.words if 0 < len(w) <= 2]
        rng.shuffle(words)
        for w in words[:20]:
            got = represent_word(result, w) @ result.omega_vector
            expected = coords[:, index[w]]
            assert np.max(np.abs(got - expected)) < 1e-7

    @pytest.mark.parametrize("unitary", [False, True])
    def test_reconstruction_identity(self, rng, unitary):
        state = representation_backed_state(rng, unitary=unitary)
        result = build_gns(state, max_len=2)
        assert result.reconstruction_error is not None
        assert result.reconstruction_error <= 1e-7

    def test_unit_class_norm(self, rng):
        state = representation_backed_state(rng)
        result = build_gns(state, max_len=2)
        norm = np.linalg.norm(result.omega_vector) ** 2
        assert abs(norm - 1.0) <= 1e-8

    def test_not_a_star_representation(self, rng):
        # pi(letter) need not be hermitian even though the letter is; the
        # suite must not assert adjoint-compatibility, only measure it
        state = representation_backed_state(rng)
        result = build_gns(state, max_len=2)
        gaps = [
            float(np.max(np.abs(result.letter_reps[letter].conj().T
                                - result.letter_reps[letter])))
            for letter in state.algebra.generator_letters()
        ]
        assert max(gaps) > 1e-6

    def test_out_of_domain_word_is_an_error(self, rng):
        state = representation_backed_state(rng)
        result = build_gns(state, max_len=2)
        with pytest.raises(RepresentationError, match="domain"):
            represent_word(result, ((1, 0), (2, 0)))


class TestRefusals:
    @pytest.mark.parametrize("model, max_len, match", [
        ("sequential_qubit.json", 7, "word-length cap 6"),
        ("switch_qubit.json", 3, "basis of 20629 words .* limit of 1 GiB"),
    ], ids=["sequential-L7", "switch-L3"])
    def test_word_basis_refuses_before_enumerating(self, model, max_len, match):
        algebra = load_model(MODELS_DIR / model).algebra
        with pytest.raises(GnsError, match=match):
            WordBasis.build(algebra, max_len)

    def test_gram_size_limit_is_inclusive(self, rng, monkeypatch):
        algebra = random_sequential(rng).algebra
        n = expected_basis_size(algebra, 2)
        monkeypatch.setattr(gns, "MAX_GRAM_BYTES", n * n * 16)
        assert len(WordBasis.build(algebra, 2)) == n
        monkeypatch.setattr(gns, "MAX_GRAM_BYTES", n * n * 16 - 1)
        with pytest.raises(GnsError, match=f"basis of {n} words"):
            WordBasis.build(algebra, 2)

    @pytest.mark.parametrize("max_len, match", [
        (0, "domain"), (-1, "domain"), (6, "word-length cap 6")])
    def test_build_gns_refuses_up_front(self, rng, max_len, match):
        with pytest.raises(GnsError, match=match):
            build_gns(random_sequential(rng), max_len=max_len)


class TestFamilies:
    @pytest.mark.parametrize("maker", [random_sequential, random_switch])
    def test_pipeline_structure(self, rng, maker):
        m = maker(rng)
        result = build_gns(m, max_len=2)
        n = len(result.basis)
        assert result.null_rank + result.quotient_dim == n
        assert result.min_eigenvalue >= -1e-8
        assert np.max(np.abs(result.gram - result.gram.conj().T)) < 1e-9
        assert abs(np.linalg.norm(result.omega_vector) ** 2 - 1.0) <= 1e-8
        # for these state families the quotient action is not well-defined
        # (the null space is not a left ideal), so the pipeline refuses to
        # build letter representations and reports no reconstruction error
        assert not result.left_ideal.passed()
        assert result.letter_reps is None
        assert result.reconstruction_error is None

    def test_report_keys(self, rng):
        m = random_sequential(rng)
        obj = report_obj(build_gns(m, max_len=2))
        for key in ("basisSize", "nullRank", "minEigenvalue",
                    "leftIdealMaxViolation", "reconstructionMaxError"):
            assert key in obj

    def test_reconstruction_unit_entry(self, rng):
        # the (e, e) entry of the reconstruction comparison is always exact
        m = random_sequential(rng)
        result = build_gns(m, max_len=2)
        assert abs(np.linalg.norm(result.omega_vector) ** 2
                   - result.gram[0, 0].real) <= 1e-8
