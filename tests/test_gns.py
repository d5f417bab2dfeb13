import dataclasses
import pathlib
import tracemalloc

import numpy as np
import pytest

from causal_kernel import gns, load_model, states
from causal_kernel.algebra import FactorSpec, FreeAlgebra
from causal_kernel.gns import (
    GnsError,
    GnsResult,
    GramPropertyError,
    RepresentationError,
    WordBasis,
    _quotient_coords,
    build_gns,
    check_left_ideal,
    expected_basis_size,
    gram,
    null_space,
    reconstruct_check,
    report_obj,
    represent,
    represent_word,
)
from causal_kernel.sampling import (
    random_fuzz,
    random_sequential,
    random_superspacetime,
    random_switch,
    random_unitary,
)

from conftest import (
    SX,
    SZ,
    WordMapState,
    joined_letter_vectors,
    representation_backed_state,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
MODELS_DIR = pathlib.Path(__file__).resolve().parent.parent / "models"
SWITCH = MODELS_DIR / "switch_qubit.json"
SEQUENTIAL = MODELS_DIR / "sequential_qubit.json"
FUZZ = MODELS_DIR / "fuzz_two_branch.json"
SUPERSPACETIME = MODELS_DIR / "superspacetime_two_branch.json"


def model_gram(path, max_len):
    state = load_model(path).state
    return gram(state, WordBasis.build(state.algebra, max_len))


def spectrum_gram(rng, evals):
    """A hermitian PSD matrix with the given spectrum in a random basis."""
    v = random_unitary(rng, len(evals))
    g = (v * np.asarray(evals)) @ v.conj().T
    return (g + g.conj().T) / 2.0


def sin_angle(a, b):
    """Sine of the largest principal angle between the column spans of the
    orthonormal ``a`` and ``b``."""
    return float(np.linalg.norm(a - b @ (b.conj().T @ a), 2))


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

    # eigh's own eigenvectors are accurate to about eps ||G|| / gap: 1e-15
    # on the models, 2e-9 on the synthetic spectrum, whose smallest kept
    # eigenvalue 1e-7 sits over a 1e-10 tail (null_space refines it twice).
    # The models' null eigenvalues lie inside beta, so they are stored as
    # 0.0; the synthetic tail is far above rounding level, so the stored
    # spectrum is eigvalsh's.
    @pytest.mark.parametrize("make, angle_tol, inside_beta", [
        (lambda rng: model_gram(SWITCH, 2), 1e-10, True),
        (lambda rng: model_gram(FUZZ, 2), 1e-10, True),
        (lambda rng: model_gram(SUPERSPACETIME, 2), 1e-10, True),
        (lambda rng: model_gram(SEQUENTIAL, 2), 1e-10, True),
        (lambda rng: model_gram(SEQUENTIAL, 5), 1e-10, True),
        (lambda rng: spectrum_gram(rng, [1e-10] * 32 + list(np.logspace(-7, 0, 8))),
         gns.NULL_TOL, False),
    ], ids=["switch-L2", "fuzz-L2", "superspacetime-L2", "sequential-L2",
            "sequential-L5", "synthetic-1e-7-over-1e-10"])
    def test_split_matches_dense_eigh(self, rng, make, angle_tol, inside_beta):
        g = make(rng)
        ns = null_space(g)
        h = (g + g.conj().T) / 2.0
        evals, evecs = np.linalg.eigh(h)
        cutoff = gns.NULL_TOL * max(float(evals[-1]), 1.0)
        top = evecs[:, evals >= cutoff]
        # eigvalsh and eigh may differ in the last bits of the largest eigenvalue
        assert abs(ns.cutoff - cutoff) <= 1e-14 * cutoff
        assert ns.null_rank == len(g) - top.shape[1]
        dense = np.linalg.eigvalsh(h)
        if inside_beta:
            n, r, top_eval = len(g), top.shape[1], float(dense[-1])
            np.testing.assert_allclose(ns.eigenvalues[n - r:], dense[n - r:],
                                       rtol=0, atol=1e-12 * top_eval)
            assert np.all(ns.eigenvalues[:n - r] == 0.0)
            assert np.max(np.abs(dense[:n - r])) <= n * np.finfo(float).eps * top_eval
        else:
            np.testing.assert_array_equal(ns.eigenvalues, dense)
        q, _ = np.linalg.qr(ns.quotient_basis)
        assert sin_angle(q, top) <= angle_tol
        nv = ns.null_vectors
        assert nv.shape == (len(g), ns.null_rank)
        assert np.max(np.abs(nv.conj().T @ nv - np.eye(ns.null_rank))) <= 1e-12
        assert np.max(np.abs(q.conj().T @ nv)) <= 1e-12

    # a rank-4 PSD matrix plus one negative eigenvalue beyond the rounding
    # bound beta: below -GRAM_PSD_TOL it is refused, above it is measured,
    # and neither is stored as 0.0
    def test_hidden_negative_eigenvalue_is_refused(self, rng):
        g = spectrum_gram(rng, [-1e-7] + [0.0] * 195 + [0.25, 0.5, 0.75, 1.0])
        with pytest.raises(GramPropertyError, match="positive semidefiniteness") as err:
            null_space(g)
        assert abs(err.value.magnitude - 1e-7) <= 1e-9

    def test_hidden_small_negative_eigenvalue_is_measured(self, rng):
        g = spectrum_gram(rng, [-1e-12] + [0.0] * 195 + [0.25, 0.5, 0.75, 1.0])
        ns = null_space(g)
        assert ns.null_rank == 196
        assert abs(ns.eigenvalues[0] + 1e-12) <= 1e-14

    def test_cluster_straddling_the_cutoff_is_refused(self, rng):
        # eigenvalues 1.00001e-8 and 0.99999e-8 on both sides of the cutoff
        # 1e-8: the split between them is not determined to any accuracy
        g = spectrum_gram(rng, [1e-14] * 36 + [0.99999e-8, 1.00001e-8, 0.5, 1.0])
        with pytest.raises(GramPropertyError, match="null-space split"):
            null_space(g)

    def test_non_hermitian_rejected(self):
        g = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(GramPropertyError, match="hermiticity"):
            null_space(g)

    def test_indefinite_rejected(self):
        g = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(GramPropertyError, match="positive"):
            null_space(g)

    # NaN compares false with everything, so both checks are written to fail
    # on it; an inf entry makes g - g^H NaN
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", [(0, 1), (0, 0)], ids=["off-diagonal", "diagonal"])
    def test_non_finite_gram_rejected(self, bad, where):
        g = np.eye(2, dtype=complex)
        g[where] = g[where[::-1]] = bad
        with pytest.raises(GramPropertyError, match="hermiticity"):
            null_space(g)

    def test_overflowing_gram_rejected(self):
        # finite and hermitian, but its symmetrized copy overflows to inf
        g = np.full((2, 2), 1e308, dtype=complex)
        with pytest.raises(GramPropertyError, match="positive"):
            null_space(g)

    def test_split_holds_one_buffer_besides_its_input(self, rng):
        # g - g^H and (g + g^H) / 2 share one n x n complex buffer, and
        # |g - g^H| is real, half of one; eigvalsh's own copy is not traced
        n = 600
        r = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
        g = r.conj().T @ r
        tracemalloc.start()
        try:
            null_space(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * 16 * n * n

    def test_error_carries_magnitude(self):
        g = np.diag([1.0, -0.5]).astype(complex)
        try:
            null_space(g)
        except GramPropertyError as err:
            assert err.property == "positive semidefiniteness"
            assert abs(err.magnitude - 0.5) < 1e-12
        else:
            pytest.fail("expected GramPropertyError")


class TestSplitFromR:
    # build_gns splits the D x n forward vectors R; null_space measures the
    # n x n Gram matrix R^dagger R on its own, the check of that split
    @pytest.mark.parametrize("make, max_len", [
        (lambda rng: load_model(SWITCH).state, 2),
        (lambda rng: load_model(FUZZ).state, 2),
        (lambda rng: load_model(SUPERSPACETIME).state, 2),
        (lambda rng: load_model(SEQUENTIAL).state, 2),
        (lambda rng: load_model(SEQUENTIAL).state, 5),
        (representation_backed_state, 2),
    ], ids=["switch-L2", "fuzz-L2", "superspacetime-L2", "sequential-L2",
            "sequential-L5", "representation-backed-L2"])
    def test_split_matches_null_space(self, rng, make, max_len):
        state = make(rng)
        result = build_gns(state, max_len)
        split = gns._split(state.forward_vectors(result.basis.words), gns.NULL_TOL)
        np.testing.assert_array_equal(split.eigenvalues, result.eigenvalues)
        np.testing.assert_array_equal(split.quotient_basis, result.quotient_basis)
        ns = null_space(result.gram)
        n, r = len(result.basis), ns.quotient_dim
        assert split.null_rank == ns.null_rank == result.null_rank
        assert abs(split.cutoff - ns.cutoff) <= 1e-14 * ns.cutoff
        top = float(ns.eigenvalues[-1])
        np.testing.assert_allclose(split.eigenvalues[n - r:], ns.eigenvalues[n - r:],
                                   rtol=0, atol=1e-12 * top)
        assert np.all(split.eigenvalues[:n - r] == 0.0)
        assert np.all(ns.eigenvalues[:n - r] == 0.0)
        q_split, _ = np.linalg.qr(split.quotient_basis)
        q_dense, _ = np.linalg.qr(ns.quotient_basis)
        assert sin_angle(q_split, q_dense) <= 1e-10
        q = split.quotient_basis
        np.testing.assert_allclose(q.conj().T @ result.gram @ q, np.eye(r), atol=1e-12)

    def test_split_of_a_known_spectrum(self, rng):
        # s^2 = 4, 1e-6, 1e-10 around the cutoff 4e-8, over 37 structural zeros
        sv = np.array([2.0, 1e-3, 1e-5])
        r = (random_unitary(rng, 3) * sv) @ random_unitary(rng, 40)[:3]
        split = gns._split(r, gns.NULL_TOL)
        assert abs(split.cutoff - gns.NULL_TOL * 4.0) <= 1e-14 * split.cutoff
        assert (split.null_rank, split.quotient_dim) == (38, 2)
        np.testing.assert_allclose(split.eigenvalues[37:], sv[::-1] ** 2,
                                   rtol=1e-10, atol=0)
        assert np.all(split.eigenvalues[:37] == 0.0)
        ns = null_space(r.conj().T @ r)
        assert ns.null_rank == split.null_rank

    # the route guard: with null_space refusing, build_gns still runs, and
    # every np.linalg factorization it makes has a side no longer than D
    @pytest.mark.parametrize("path", [SWITCH, FUZZ, SUPERSPACETIME, SEQUENTIAL],
                             ids=["switch", "fuzz", "superspacetime", "sequential"])
    def test_build_gns_factors_no_gram_matrix(self, path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_gns called null_space")

        monkeypatch.setattr(gns, "null_space", refuse)
        sides = []
        for name in ("eigh", "eigvalsh", "svd", "qr", "pinv"):
            def spy(a, *args, _real=getattr(np.linalg, name), **kwargs):
                sides.append(min(np.shape(a)[-2:]))
                return _real(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        state = load_model(path).state
        result = build_gns(state)
        dim = state.forward_vectors([()]).shape[0]
        assert sides and max(sides) <= dim < len(result.basis)
        assert result.null_rank == len(result.basis) - dim


def refuse_public_stages(monkeypatch):
    """Make ``check_left_ideal`` and ``represent``, looked up in ``gns``,
    fail: ``build_gns`` reads its one forward pass, not these entry points."""
    def refuse(*args, **kwargs):
        raise AssertionError("build_gns called a public stage entry point")

    monkeypatch.setattr(gns, "check_left_ideal", refuse)
    monkeypatch.setattr(gns, "represent", refuse)


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call appends to the returned list."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestOneForwardPass:
    # one letter_vectors call, one slot_groups pass, gives R and the letter
    # products; the Gram matrix, the split, the left-ideal report and the
    # letter matrices all read those arrays.  R is one contraction and every
    # letter product reads one set of environments: no letter contracts the
    # family again
    @pytest.mark.parametrize("path, max_len", [
        (SWITCH, None),
        (FUZZ, None),
        (SUPERSPACETIME, None),
        (SEQUENTIAL, None),
        (SEQUENTIAL, 5),
    ], ids=["switch", "fuzz", "superspacetime", "sequential", "sequential-L5"])
    def test_build_gns_makes_one_slot_group_pass(self, path, max_len, monkeypatch):
        state = load_model(path).state
        refuse_public_stages(monkeypatch)
        passes = count_calls(monkeypatch, states, "slot_groups")
        evaluations = count_calls(monkeypatch, state, "letter_vectors")
        contractions = count_calls(monkeypatch, state, "_contract")
        environments = count_calls(monkeypatch, state, "_environments")
        build_gns(state, max_len)
        assert (len(passes), len(evaluations)) == (1, 1)
        assert (len(contractions), len(environments)) == (1, 1)

    @pytest.mark.parametrize("unitary", [False, True], ids=["similarity", "unitary"])
    def test_letter_reps_equal_the_represent_entry_point(self, rng, unitary,
                                                         monkeypatch):
        state = representation_backed_state(rng, unitary=unitary)
        refuse_public_stages(monkeypatch)
        evaluations = count_calls(monkeypatch, state, "letter_vectors")
        result = build_gns(state, max_len=2)
        assert len(evaluations) == 1
        basis, report = result.basis, result.left_ideal
        ns = gns._split(state.forward_vectors(basis.words), gns.NULL_TOL)
        assert check_left_ideal(state, basis, ns) == report
        assert set(result.letter_reps) == set(state.algebra.generator_letters())
        for b in state.algebra.generator_letters():
            np.testing.assert_array_equal(result.letter_reps[b],
                                          represent(state, basis, ns, report, b))


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
        random_fuzz,
        random_superspacetime,
    ], ids=["adversarial", "representation_backed", "sequential", "switch", "fuzz",
            "superspacetime"])
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

    @pytest.mark.parametrize("make", [
        random_sequential,
        random_switch,
        random_fuzz,
        random_superspacetime,
    ], ids=["sequential", "switch", "fuzz", "superspacetime"])
    def test_letter_vectors_match_word_join(self, rng, make):
        state = make(rng)
        words = WordBasis.build(state.algebra, 2).words
        letters = list(state.algebra.generator_letters())
        r, got = state.letter_vectors(letters, words)
        assert np.array_equal(r, state.forward_vectors(words))
        ref = joined_letter_vectors(state, letters, words)
        assert got.shape == ref.shape == (len(letters), ref.shape[1], len(words))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    # the domain at max_len L + 1 is the whole basis at L, with the same
    # forward vectors and letter products, and one span rule serves both
    # norms: while both cutoffs keep the same rank, the in-cap violation at
    # L + 1 is bit for bit the unrestricted one at L; sequential runs up to
    # max_len 6, the word-length cap
    @pytest.mark.parametrize("path, values", [
        (SWITCH, [5.8401388576620885]),
        (FUZZ, [6.154797386987731]),
        (SUPERSPACETIME, [6.610731414019992]),
        (SEQUENTIAL, [4.0, 12.923076923076923, 40.0, 120.79338842975189,
                      364.00000000000017]),
    ], ids=["switch", "fuzz", "superspacetime", "sequential"])
    def test_in_cap_violation_is_unrestricted_one_length_below(self, path, values):
        state = load_model(path).state
        reports = [build_gns(state, max_len=n).left_ideal
                   for n in range(1, len(values) + 2)]
        for value, below, above in zip(values, reports, reports[1:]):
            assert abs(below.max_violation_unrestricted - value) <= 1e-12 * value
            assert below.max_violation_unrestricted == above.max_violation

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
        # another basis of the quotient span, not orthonormal: a unitary
        # alone would keep Q Q^dagger for any Q
        change = random_unitary(rng, ns.quotient_dim) @ np.diag(
            rng.uniform(0.5, 2.0, ns.quotient_dim))
        rotated = dataclasses.replace(ns, quotient_basis=ns.quotient_basis @ change)
        # the spans come from the forward vectors, so not even a basis that
        # is all NaN reaches the report
        unread = dataclasses.replace(
            ns, quotient_basis=np.full_like(ns.quotient_basis, np.nan))
        report = check_left_ideal(m, basis, ns)
        for other in (rotated, unread):
            assert check_left_ideal(m, basis, other) == report

    def test_represent_refuses_on_violation(self):
        adv = adversarial_state()
        basis = WordBasis.build(adv.algebra, 2)
        g = gram(adv, basis)
        ns = null_space(g)
        report = check_left_ideal(adv, basis, ns)
        with pytest.raises(RepresentationError, match="not well-defined"):
            represent(adv, basis, ns, report, (1, 0))


def joined_represent(state, basis, ns, letter):
    """``represent``'s matrix by the algebra route: the quotient coordinates
    ``Q^dagger G`` of each product ``letter * w`` (``join_words``, looked up
    in the basis), for the domain words ``w``, through ``pinv`` of theirs."""
    coords = _quotient_coords(ns, gram(state, basis))
    index = {w: i for i, w in enumerate(basis.words)}
    dom = [i for i, w in enumerate(basis.words) if len(w) <= basis.max_len - 1]
    y = np.zeros((coords.shape[0], len(dom)), dtype=complex)
    for col, i in enumerate(dom):
        vec = np.zeros(len(basis), dtype=complex)
        for w, c in basis.algebra.join_words((letter,), basis.words[i]).items():
            vec[index[w]] += c
        y[:, col] = coords @ vec
    return y @ np.linalg.pinv(coords[:, dom], rcond=1e-10)


class TestRepresent:
    # the built-in families fail the left-ideal check, so represent is
    # reached here with a report forced to pass; both routes still compute
    # Y pinv(S) on the domain, which is what this compares
    @pytest.mark.parametrize("path", [SEQUENTIAL, SWITCH], ids=["sequential", "switch"])
    def test_slot_group_route_matches_word_join(self, path):
        state = load_model(path).state
        basis = WordBasis.build(state.algebra, 2)
        ns = null_space(gram(state, basis))
        forced = gns.LeftIdealReport(0.0, 0, 0, 0.0)
        for letter in state.algebra.generator_letters():
            got = represent(state, basis, ns, forced, letter)
            ref = joined_represent(state, basis, ns, letter)
            assert got.shape == ref.shape == (ns.quotient_dim, ns.quotient_dim)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestRepresentationBacked:
    def test_letter_on_unit_class(self, rng):
        state = representation_backed_state(rng)
        result = build_gns(state, max_len=2)
        coords = result.quotient_basis.conj().T @ result.gram
        for letter in state.algebra.generator_letters():
            pi = result.letter_reps[letter]
            got = pi @ result.omega_vector
            expected = coords[:, result.basis.words.index((letter,))]
            assert np.max(np.abs(got - expected)) < 1e-8

    def test_products_on_cyclic_vector(self, rng):
        state = representation_backed_state(rng)
        result = build_gns(state, max_len=3)
        coords = result.quotient_basis.conj().T @ result.gram
        words = [w for w in result.basis.words if 0 < len(w) <= 2]
        rng.shuffle(words)
        for w in words[:20]:
            got = represent_word(result, w) @ result.omega_vector
            expected = coords[:, result.basis.words.index(w)]
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

    def test_letter_matrices_need_max_len_two(self, rng):
        # at max_len 1 the domain is the unit word alone: the left-ideal
        # check evaluates no pair and the reconstruction would compare
        # omega(e, e) with itself, so no letter matrix is built
        state = representation_backed_state(rng)
        low = build_gns(state, max_len=1)
        assert low.left_ideal.evaluated_pairs == 0
        assert low.letter_reps is None
        assert low.reconstruction_error is None
        assert report_obj(low)["reconstructionMaxError"] is None
        high = build_gns(state, max_len=2)
        assert set(high.letter_reps) == set(state.algebra.generator_letters())
        assert high.reconstruction_error <= 1e-7

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
        (0, "domain"), (-1, "domain"), (7, "word-length cap 6")])
    def test_build_gns_refuses_up_front(self, rng, max_len, match):
        with pytest.raises(GnsError, match=match):
            build_gns(random_sequential(rng), max_len=max_len)

    @pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, float("nan"), float("inf")])
    def test_build_gns_refuses_a_tolerance_outside_the_unit_interval(self, rng, tol):
        with pytest.raises(GnsError, match=r"not a finite number in \(0, 1\)"):
            build_gns(random_sequential(rng), max_len=1, tol=tol)

    @pytest.mark.parametrize("max_len", [1, 2])
    def test_cutoff_at_rounding_level_is_refused(self, max_len):
        # pivots of order 1e-15 at a cutoff of 1e-18 overflow the factor
        with pytest.raises(GramPropertyError, match="null-space split"):
            null_space(model_gram(SWITCH, max_len), tol=1e-18)


class TestFamilies:
    @pytest.mark.parametrize("maker", [random_sequential, random_switch])
    def test_pipeline_structure(self, rng, maker):
        m = maker(rng)
        result = build_gns(m, max_len=2)
        n = len(result.basis)
        assert result.null_rank + result.quotient_dim == n
        # measured: result.min_eigenvalue is a structural 0.0 on the R split
        assert np.linalg.eigvalsh(result.gram)[0] >= -1e-8
        assert np.max(np.abs(result.gram - result.gram.conj().T)) < 1e-9
        assert abs(np.linalg.norm(result.omega_vector) ** 2 - 1.0) <= 1e-8
        # for these state families the quotient action is not well-defined
        # (the null space is not a left ideal), so the pipeline refuses to
        # build letter representations and reports no reconstruction error
        assert not result.left_ideal.passed()
        assert result.letter_reps is None
        assert result.reconstruction_error is None

    # the CLI's default: the largest length up to 3 the size limit admits
    @pytest.mark.parametrize("path, max_len", [(SWITCH, 2), (SEQUENTIAL, 3)],
                             ids=["switch", "sequential"])
    def test_default_max_len_is_the_largest_admitted(self, path, max_len):
        default = report_obj(build_gns(load_model(path).state))
        assert default == report_obj(build_gns(load_model(path).state, max_len))

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


def staged_report(state, max_len):
    """``build_gns``'s stages called one at a time, in the order and with the
    arguments of the benchmark's traced op (``perfbench/workloads.py``).
    Like that op, it splits ``G`` by ``null_space``, not ``R``, and mirrors
    ``build_gns`` only for ``max_len >= 2``: it does not skip the letter
    matrices at ``max_len`` 1."""
    basis = WordBasis.build(state.algebra, max_len)
    g = gram(state, basis)
    ns = null_space(g)
    report = check_left_ideal(state, basis, ns)
    coords = _quotient_coords(ns, g)
    letter_reps = None
    if report.passed():
        letter_reps = {
            letter: represent(state, basis, ns, report, letter, coords=coords)
            for letter in state.algebra.generator_letters()
        }
    result = GnsResult(
        basis=basis, gram=g, eigenvalues=ns.eigenvalues, null_rank=ns.null_rank,
        quotient_basis=ns.quotient_basis, omega_vector=coords[:, 0].copy(),
        letter_reps=letter_reps, left_ideal=report, reconstruction_error=None)
    if letter_reps is not None:
        result = dataclasses.replace(
            result, reconstruction_error=reconstruct_check(state, basis, result))
    return report_obj(result)


class TestStages:
    @pytest.mark.parametrize("make, max_len", [
        (lambda rng: load_model(SWITCH).state, 2),
        (lambda rng: load_model(SEQUENTIAL).state, 5),
        (representation_backed_state, 2),
    ], ids=["switch-L2", "sequential-L5", "representation-backed-L2"])
    def test_stages_give_the_build_gns_report(self, rng, make, max_len):
        state = make(rng)
        staged = staged_report(state, max_len)
        built = report_obj(build_gns(state, max_len))
        # the two quotient bases (Ritz vectors of G, V_r / s_r of R) differ
        # in rounding, and so does the reconstruction built on them
        errors = [rep.pop("reconstructionMaxError") for rep in (staged, built)]
        assert staged == built
        if None in errors:
            assert errors == [None, None]
        else:
            assert abs(errors[0] - errors[1]) <= 1e-12
