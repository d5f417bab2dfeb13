import pathlib

import numpy as np
import pytest
import scipy.linalg

from causal_kernel.algebra import FreeAlgebra, FactorSpec, UnknownFactorError
from causal_kernel.sampling import (
    random_element,
    random_fuzz,
    random_hermitian,
    random_matrix,
    random_sequential,
    random_state_vector,
    random_superspacetime,
    random_switch,
    random_unitary,
    random_word,
)
from causal_kernel.states import (
    UNITARY_TOL,
    FuzzBranch,
    FuzzModel,
    GeneralizedState,
    ModelValidationError,
    SequentialModel,
    SuperspacetimeBranch,
    SuperspacetimeModel,
    SwitchModel,
    slot_groups,
)
from causal_kernel.gns import WordBasis, build_gns, report_obj
from causal_kernel.models import load_model
from causal_kernel.oracle import state_kernel_bruteforce
from causal_kernel.verify import verify_state

from conftest import I2, SWITCH_NAMES, SX, SY, SZ, joined_letter_vectors

MODELS_DIR = pathlib.Path(__file__).resolve().parent.parent / "models"
KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def all_models(rng):
    return [
        random_sequential(rng),
        random_switch(rng),
        random_fuzz(rng),
        random_superspacetime(rng),
    ]


class TestBatchedForward:
    """forward_vectors against the per-word route and the oracle."""

    @staticmethod
    def _words(rng, m):
        # the empty word, every short word, and long words through every slot
        slots = m.algebra.factor_indices
        every = tuple((f, i % len(m.algebra.factor(f).basis))
                      for i, f in enumerate(slots + slots[:1]))
        words = list(m.algebra.words(1)) + [every, every[::-1]]
        words += [random_word(rng, m.algebra, max_len=4) for _ in range(30)]
        return words

    def test_matches_per_word_route(self, rng):
        for m in all_models(rng) + [random_sequential(rng, n_slots=3)]:
            words = self._words(rng, m)
            batch = m.forward_vectors(words)
            assert batch.shape == (len(m.forward_vector(())), len(words))
            for j, w in enumerate(words):
                np.testing.assert_allclose(batch[:, j], m.forward_vector(w),
                                           rtol=0, atol=1e-12)

    def test_kernel_matches_oracle(self, rng):
        for m in all_models(rng):
            words = self._words(rng, m)
            r = m.forward_vectors(words)
            for i, j in rng.integers(0, len(words), size=(12, 2)):
                wi, wj = words[int(i)], words[int(j)]
                brute = state_kernel_bruteforce(m, tuple(reversed(wi)), wj)
                assert abs(r[:, i].conj() @ r[:, j] - brute) <= 1e-12

    def test_empty_word_alone(self, rng):
        for m in all_models(rng):
            np.testing.assert_allclose(m.forward_vectors([()])[:, 0],
                                       m.forward_vector(()), rtol=0, atol=1e-12)

    def test_empty_word_list(self, rng):
        for m in all_models(rng):
            d = len(m.forward_vector(()))
            assert m.forward_vectors([]).shape == (d, 0)
            r, acted = m.letter_vectors([(m.algebra.factor_indices[0], 0)], [])
            assert r.shape == (d, 0)
            assert acted.shape == (1, d, 0)

    def test_fill_caches_owned_batch_of_one_vectors(self, rng, monkeypatch):
        for m in all_models(rng):
            words = self._words(rng, m)
            m._fill_cache(words + words[::3])
            for w in words:
                cached = m._forward_cache[w]
                np.testing.assert_array_equal(cached, m.forward_vectors([w])[:, 0])
                assert cached.base is None

            def evaluated_again(words):
                raise AssertionError(f"{len(words)} cached words evaluated again")

            monkeypatch.setattr(m, "forward_vectors", evaluated_again)
            m._fill_cache(words)
            assert all(m.forward_vector(w) is m._forward_cache[w] for w in words)

    def test_slot_groups_of_a_word_list(self, qubit_pair_algebra):
        # the fifth word interleaves the third word's letters the other way
        # round, so the two share a signature and one entry of each stack;
        # the last word keeps its slot-1 letters in their order, not sorted
        words = [(), ((1, 0), (2, 2), (1, 1)), ((2, 2), (1, 0)), ((2, 1),),
                 ((1, 0), (2, 2)), ((1, 1), (2, 2), (1, 0))]
        expected = [(I2, I2), (SX @ SY, SZ), (SX, SZ), (I2, SY), (SX, SZ),
                    (SY @ SX, SZ)]
        stacks, inverse = slot_groups(qubit_pair_algebra, words)
        assert inverse.tolist() == [0, 1, 2, 3, 2, 4]
        assert [len(stack) for stack in stacks] == [5, 5]
        for j, groups in enumerate(expected):
            for stack, g in zip(stacks, groups):
                np.testing.assert_allclose(stack[inverse[j]], g)

    def test_shared_signatures_match_per_word_route(self, rng):
        # a two-letter word and its reversal share a signature, as does an
        # exact repeat; each is gathered from one contraction
        for m in all_models(rng):
            words = list(m.algebra.words(2))
            pick = rng.choice(len(words), min(40, len(words)), replace=False)
            words = [words[int(i)] for i in pick]
            words += [w[::-1] for w in words if len(w) == 2] + words[:5]
            letters = [(f, k) for f in m.algebra.factor_indices
                       for k in range(len(m.algebra.factor(f).basis))]
            batch = m.forward_vectors(words)
            r, acted = m.letter_vectors(letters, words)
            assert np.array_equal(r, batch)
            assert acted.flags.c_contiguous
            for j, w in enumerate(words):
                assert np.array_equal(batch[:, j], m.forward_vectors([w])[:, 0])
                assert np.array_equal(acted[:, :, j],
                                      m.letter_vectors(letters, [w])[1][:, :, 0])

    def test_control_l3_basis_matches_per_word_route(self):
        # 20,629 words with 12,115 distinct signatures
        m = load_model(MODELS_DIR / "switch_qubit.json").state
        words = list(m.algebra.words(3))
        batch = m.forward_vectors(words)
        assert batch.shape == (4, 20629)
        for j, w in enumerate(words):
            assert np.array_equal(batch[:, j], m.forward_vectors([w])[:, 0])
        letters = [(f, k) for f in m.algebra.factor_indices
                   for k in range(len(m.algebra.factor(f).basis))]
        r, acted = m.letter_vectors(letters, words)
        assert np.array_equal(r, batch)
        for j in range(0, len(words), 97):
            assert np.array_equal(acted[:, :, j],
                                  m.letter_vectors(letters, [words[j]])[1][:, :, 0])

    def test_foreign_letter_raises(self, rng):
        m = random_sequential(rng)
        with pytest.raises(UnknownFactorError):
            m.forward_vectors([(), ((3, 0),)])
        with pytest.raises(UnknownFactorError):
            m.forward_vector(((1, 0), (3, 0)))


# shapes the committed models do not have: middle sequential slots, with both
# a prefix and a suffix; three branches of mixed orders and weights; dimension 3
UNCOMMITTED_SHAPES = [
    pytest.param(lambda rng: random_sequential(rng, 2, 3), 2, id="sequential-d2-3-slots"),
    pytest.param(lambda rng: random_sequential(rng, 3, 4), 2, id="sequential-d3-4-slots"),
    pytest.param(lambda rng: random_fuzz(rng, 2, 3), 2, id="fuzz-d2-3-branches"),
    pytest.param(lambda rng: random_superspacetime(rng, 2, 3), 2,
                 id="superspacetime-d2-3-branches"),
    pytest.param(lambda rng: random_fuzz(rng, 3, 3), 1, id="fuzz-d3-3-branches"),
    pytest.param(lambda rng: random_switch(rng, 3), 1, id="switch-d3"),
]


@pytest.mark.parametrize("make, max_len", UNCOMMITTED_SHAPES)
def test_letter_vectors_on_uncommitted_shapes(rng, make, max_len):
    """Each family's environments against the word join, and every 11th
    column against its batch of one, bit for bit."""
    m = make(rng)
    if max_len == 2 and isinstance(m, FuzzModel):
        assert {br.order for br in m.branches} == {"yx", "xy"}
    words = WordBasis.build(m.algebra, max_len).words
    letters = list(m.algebra.generator_letters())
    r, acted = m.letter_vectors(letters, words)
    assert np.array_equal(r, m.forward_vectors(words))
    ref = joined_letter_vectors(m, letters, words)
    assert acted.shape == ref.shape
    assert np.max(np.abs(acted - ref)) <= 1e-12 * np.max(np.abs(ref))
    for j in range(0, len(words), 11):
        assert np.array_equal(acted[:, :, j],
                              m.letter_vectors(letters, [words[j]])[1][:, :, 0])


BAD_LETTERS = [
    pytest.param(lambda d: (1, d * d - 1), id="index-d2-1"),
    pytest.param(lambda d: (1, -1), id="index-minus-1"),
    pytest.param(lambda d: (1, d * d), id="index-d2"),
    pytest.param(lambda d: (9, 0), id="factor-9"),
]


@pytest.mark.parametrize("bad", BAD_LETTERS)
@pytest.mark.parametrize("name", ["sequential_qubit", "switch_qubit"])
def test_bad_letter_raises_at_every_entry_point(name, bad):
    """Every reader of letters fails through the algebra's one letter check;
    index d**2 - 1 is the identity's place in the basis table and -1 would
    wrap to it, so neither may read as the identity."""
    m = load_model(MODELS_DIR / f"{name}.json").state
    letter = bad(m.algebra.factor(1).dim)
    word = ((2, 0), letter)
    calls = [
        lambda: m.forward_vectors([(), word]),
        lambda: m.forward_vector(word),
        lambda: m.eval_words(word, ()),
        lambda: m.eval_words((), word),
        lambda: m.letter_vectors([letter], [(), ((2, 0),)]),
        lambda: m.letter_vectors([(2, 0)], [(), word]),
        lambda: state_kernel_bruteforce(m, word, ()),
        lambda: state_kernel_bruteforce(m, (), word),
    ]
    for call in calls:
        with pytest.raises(UnknownFactorError):
            call()
    assert word not in m._forward_cache


class TestColdEvaluation:
    """eval_bilinear evaluates all of its cold words in one batched pass."""

    COMMITTED = ["sequential_qubit", "switch_qubit", "fuzz_two_branch",
                 "superspacetime_two_branch"]

    @pytest.mark.parametrize("name", COMMITTED)
    def test_cold_call_is_one_forward_pass(self, monkeypatch, rng, name):
        m = load_model(MODELS_DIR / f"{name}.json").state
        p = random_element(rng, m.algebra, max_len=3, max_terms=6)
        q = random_element(rng, m.algebra, max_len=3, max_terms=6)
        calls = []
        forward = GeneralizedState.forward_vectors
        monkeypatch.setattr(GeneralizedState, "forward_vectors",
                            lambda self, words: calls.append(list(words))
                            or forward(self, words))
        cold = m.eval_bilinear(p, q)
        assert len(calls) == 1
        expected = {w for w, _ in q.items()} | {w[::-1] for w, _ in p.items()}
        assert expected - {()} <= set(calls[0]) <= expected
        assert m.eval_bilinear(p, q) == cold
        assert len(calls) == 1

    @pytest.mark.parametrize("name", COMMITTED)
    def test_values_equal_the_per_word_route(self, monkeypatch, name):
        def values():
            m = load_model(MODELS_DIR / f"{name}.json").state
            rng = np.random.default_rng(11)
            out = []
            for _ in range(40):
                p = random_element(rng, m.algebra, max_len=3, max_terms=4)
                q = random_element(rng, m.algebra, max_len=3, max_terms=4)
                out.append(m.eval_bilinear(p.star(), q))
            return out

        batched = values()
        # every word its own batch of one, as a cold forward_vector evaluates it
        fill = GeneralizedState._fill_cache
        monkeypatch.setattr(GeneralizedState, "_fill_cache",
                            lambda self, words: [fill(self, [w]) for w in words])
        assert batched == values()


class TestSequential:
    def test_unit_pair_is_one(self, rng):
        m = random_sequential(rng)
        assert abs(m.eval_words((), ()) - 1.0) < 1e-10

    def test_two_point_recovery_formula(self, rng):
        # omega(e, x*y) = <psi_1| x U y |psi_2> with psi_1 = U psi_2
        for _ in range(20):
            m = random_sequential(rng)
            x, y = random_matrix(rng, 2), random_matrix(rng, 2)
            a = m.algebra.embed(1, x) * m.algebra.embed(2, y)
            got = m.eval_bilinear(m.algebra.unit(), a)
            psi1 = m.unitaries[0] @ m.psi
            expected = psi1.conj() @ (x @ (m.unitaries[0] @ (y @ m.psi)))
            assert abs(got - expected) < 1e-10

    def test_fixed_instance_value(self):
        # psi = |0>, U = 1: omega(e, z z) = <0| sz sz |0> = 1
        m = SequentialModel(2, KET0, [np.eye(2)])
        a = m.algebra.word_element(((1, 2), (2, 2)))
        got = m.eval_bilinear(m.algebra.unit(), m.algebra.word_element(((1, 2),)) * m.algebra.word_element(((2, 2),)))
        assert abs(got - 1.0) < 1e-12
        assert abs(m.eval_bilinear(m.algebra.unit(), a) - 1.0) < 1e-12

    def test_three_slot_chain(self, rng):
        # n-slot generalization keeps the axioms
        m = random_sequential(rng, dim=2, n_slots=3)
        assert abs(m.eval_words((), ()) - 1.0) < 1e-10
        for _ in range(20):
            a = random_element(rng, m.algebra, max_len=3)
            v = m.eval_bilinear(a.star(), a)
            assert v.real >= -1e-9 and abs(v.imag) < 1e-9

    def test_rejects_bad_state_norm(self):
        with pytest.raises(ModelValidationError, match="normalized"):
            SequentialModel(2, np.array([1.0, 1.0]), [np.eye(2)])

    def test_rejects_non_unitary(self):
        with pytest.raises(ModelValidationError, match="unitary"):
            SequentialModel(2, KET0, [np.array([[1.0, 0.0], [0.0, 2.0]])])


class TestSwitchAmplitude:
    def test_identity_chain_is_one(self, rng):
        psi = np.kron(random_state_vector(rng, 2), random_state_vector(rng, 2))
        m = SwitchModel(2, psi, dict.fromkeys(SWITCH_NAMES, np.eye(2)))
        amp = m.amplitude(psi, I2, I2, np.eye(4), np.eye(4))
        assert abs(amp - 1.0) < 1e-12

    def test_scalar_target_chain(self):
        # one-dimensional target: the |0> branch multiplies plain numbers
        m = SwitchModel(1, np.array([1.0, 0.0]), dict.fromkeys(SWITCH_NAMES, np.eye(1)))
        amp = m.amplitude(
            np.array([1.0, 0.0]),
            np.array([[2.0]]), np.array([[3.0]]), np.eye(2), np.eye(2),
        )
        assert abs(amp - 6.0) < 1e-12

    def test_concentrated_control_reduces_to_fixed_order(self, rng):
        # with the control on |0>, control-diagonal u and v, the amplitude
        # is the single fixed-order chain
        us = [random_unitary(rng, 2) for _ in range(6)]
        psi_t = random_state_vector(rng, 2)
        m = SwitchModel(2, np.kron(KET0, psi_t), dict(zip(SWITCH_NAMES, us)))
        x, y = random_matrix(rng, 2), random_matrix(rng, 2)
        u_t, v_t = random_unitary(rng, 2), random_unitary(rng, 2)
        u_full = np.kron(I2, u_t)
        v_full = np.kron(I2, v_t)
        phi_t = random_state_vector(rng, 2)
        phi = np.kron(KET0, phi_t)
        amp = m.amplitude(phi, x, y, u_full, v_full)
        chain = v_t @ us[0] @ x @ us[1] @ y @ us[2] @ u_t @ psi_t
        assert abs(amp - phi_t.conj() @ chain) < 1e-10

    def test_branch_linearity_in_control(self, rng):
        segs = dict(zip(SWITCH_NAMES, (random_unitary(rng, 2) for _ in range(6))))
        psi_t = random_state_vector(rng, 2)
        c0, c1 = random_state_vector(rng, 2)
        m_sup = SwitchModel(2, np.kron(np.array([c0, c1]), psi_t), segs)
        m0 = SwitchModel(2, np.kron(KET0, psi_t), segs)
        m1 = SwitchModel(2, np.kron(KET1, psi_t), segs)
        phi = random_state_vector(rng, 4)
        x, y = random_matrix(rng, 2), random_matrix(rng, 2)
        u = np.kron(np.diag(np.exp(1j * rng.normal(size=2))), random_unitary(rng, 2))
        v = np.kron(np.diag(np.exp(1j * rng.normal(size=2))), random_unitary(rng, 2))
        lhs = m_sup.amplitude(phi, x, y, u, v)
        rhs = c0 * m0.amplitude(phi, x, y, u, v) + c1 * m1.amplitude(phi, x, y, u, v)
        assert abs(lhs - rhs) < 1e-10


class TestSwitchSegments:
    @staticmethod
    def segments(rng):
        return dict(zip(SWITCH_NAMES, (random_unitary(rng, 2) for _ in range(6))))

    def test_missing_segment_is_named(self, rng):
        segs = self.segments(rng)
        del segs["xy0"]
        # the message names the model-file key, as a switch file's refusal does
        with pytest.raises(ModelValidationError,
                           match="^unitaries: missing required key 'xy0'$"):
            SwitchModel(2, np.kron(KET0, KET0), segs)

    def test_unknown_segment_is_named(self, rng):
        segs = {**self.segments(rng), "vx1": np.eye(2)}
        with pytest.raises(ModelValidationError, match="^unitaries: unknown key 'vx1'$"):
            SwitchModel(2, np.kron(KET0, KET0), segs)

    def test_branches_are_the_named_chains(self, rng):
        segs = self.segments(rng)
        m = SwitchModel(2, np.kron(KET0, KET0), segs)
        expected = (
            FuzzBranch(1.0, "yx", pre=segs["yu0"], mid=segs["xy0"], post=segs["vx0"]),
            FuzzBranch(1.0, "xy", pre=segs["xu1"], mid=segs["yx1"], post=segs["vy1"]),
        )
        assert len(m.branches) == len(expected)
        for got, want in zip(m.branches, expected):
            assert (got.weight, got.order) == (want.weight, want.order)
            for part in ("pre", "mid", "post"):
                assert np.array_equal(getattr(got, part), getattr(want, part))


class TestSwitchState:
    def test_unit_pair_is_one(self, rng):
        m = random_switch(rng)
        assert abs(m.eval_words((), ()) - 1.0) < 1e-10

    def test_positivity_sampled(self, rng):
        m = random_switch(rng)
        for _ in range(50):
            a = random_element(rng, m.algebra, max_len=3)
            v = m.eval_bilinear(a.star(), a)
            assert v.real >= -1e-9
            assert abs(v.imag) < 1e-9

    def test_embedded_unitary_letter_preserves_norm(self, rng):
        # a = embedding of a unitary into the third slot; omega(a*, a) = 1
        m = SwitchModel(2, np.kron(random_state_vector(rng, 2),
                                   random_state_vector(rng, 2)),
                        dict.fromkeys(SWITCH_NAMES, np.eye(2)))
        u = random_unitary(rng, 4)
        a = m.algebra.embed(3, u)
        assert abs(m.eval_bilinear(a.star(), a) - 1.0) < 1e-10

    def test_concentrated_control_matches_oracle_chain(self, rng):
        from causal_kernel.oracle import chain_amplitude

        us = [random_unitary(rng, 2) for _ in range(6)]
        psi_t = random_state_vector(rng, 2)
        for control, order in ((KET0, "yx"), (KET1, "xy")):
            m = SwitchModel(2, np.kron(control, psi_t), dict(zip(SWITCH_NAMES, us)))
            x_el = m.algebra.embed(1, SX)
            y_el = m.algebra.embed(2, SZ)
            got = m.eval_bilinear(m.algebra.unit(), x_el * y_el)
            if order == "yx":
                full = us[0] @ us[1] @ us[2]
                ops = [full.conj().T, us[0], SX, us[1], SZ, us[2]]
            else:
                full = us[3] @ us[4] @ us[5]
                ops = [full.conj().T, us[3], SZ, us[4], SX, us[5]]
            expected = chain_amplitude(ops, psi_t, psi_t)
            assert abs(got - expected) < 1e-10

    def test_degeneracy_with_control_diagonal_u_v_words(self, rng):
        # words carrying u- and v-slot letters too: with the control on |0>
        # and control-diagonal u, v the value is one fixed-order chain
        from causal_kernel.oracle import chain_amplitude

        us = [random_unitary(rng, 2) for _ in range(6)]
        psi_t = random_state_vector(rng, 2)
        m = SwitchModel(2, np.kron(KET0, psi_t), dict(zip(SWITCH_NAMES, us)))
        x, y = random_matrix(rng, 2), random_matrix(rng, 2)
        u_t, v_t = random_matrix(rng, 2), random_matrix(rng, 2)
        a = (
            m.algebra.embed(1, x)
            * m.algebra.embed(2, y)
            * m.algebra.embed(3, np.kron(I2, u_t))
            * m.algebra.embed(4, np.kron(I2, v_t))
        )
        got = m.eval_bilinear(m.algebra.unit(), a)
        full = us[0] @ us[1] @ us[2]
        ops = [full.conj().T, v_t, us[0], x, us[1], y, us[2], u_t]
        expected = chain_amplitude(ops, psi_t, psi_t)
        assert abs(got - expected) < 1e-10


class TestFuzz:
    def test_single_branch_matches_concentrated_switch(self, rng, qubit_pair_algebra):
        # a weight-1 single-branch model agrees with the two-branch model
        # whose control sits on the matching basis vector, on words that
        # avoid the control slots (drawn on factors 1 and 2 alone)
        us = [random_unitary(rng, 2) for _ in range(6)]
        psi_t = random_state_vector(rng, 2)
        switch = SwitchModel(2, np.kron(KET0, psi_t), dict(zip(SWITCH_NAMES, us)))
        single = FuzzModel(2, psi_t, [
            FuzzBranch(1.0, "yx", pre=us[2], mid=us[1], post=us[0]),
        ])
        for _ in range(20):
            b = random_word(rng, qubit_pair_algebra, max_len=3)
            a = random_word(rng, qubit_pair_algebra, max_len=3)
            assert abs(single.eval_words(b, a) - switch.eval_words(b, a)) < 1e-10

    def test_two_branch_reduction_equals_switch(self, rng):
        # branches carrying the two orders with weight one, built from the
        # six segments (yu0, xy0, vx0 as "yx"; xu1, yx1, vy1 as "xy"),
        # reproduce the control-superposition model on every word pair
        vx0, xy0, yu0, vy1, yx1, xu1 = (random_unitary(rng, 2) for _ in range(6))
        psi = np.kron(random_state_vector(rng, 2), random_state_vector(rng, 2))
        switch = SwitchModel(2, psi, dict(vx0=vx0, xy0=xy0, yu0=yu0,
                                          vy1=vy1, yx1=yx1, xu1=xu1))
        fuzz = FuzzModel(2, psi, [
            FuzzBranch(1.0, "yx", pre=yu0, mid=xy0, post=vx0),
            FuzzBranch(1.0, "xy", pre=xu1, mid=yx1, post=vy1),
        ])
        for _ in range(30):
            b = random_word(rng, switch.algebra, max_len=3)
            a = random_word(rng, switch.algebra, max_len=3)
            assert abs(fuzz.eval_words(b, a) - switch.eval_words(b, a)) < 1e-10

    def test_amplitude_split_invariance(self, rng):
        # two branches with identical chains and weights summing to one
        # behave like the single weight-1 branch, up to the control overlap
        us = [random_unitary(rng, 2) for _ in range(3)]
        psi_t = random_state_vector(rng, 2)
        phi_t = random_state_vector(rng, 2)
        x, y = random_matrix(rng, 2), random_matrix(rng, 2)
        single = FuzzModel(2, psi_t, [
            FuzzBranch(1.0, "yx", pre=us[0], mid=us[1], post=us[2]),
        ])
        base = single.amplitude(phi_t, x, y, np.eye(2), np.eye(2))

        ctrl = np.array([1.0, 1.0]) / np.sqrt(2.0)
        values = []
        for w1 in (0.25, 0.5, 0.75):
            w2 = 1.0 - w1
            probs = np.abs(ctrl) ** 2
            scale = np.sqrt(w1**2 * probs[0] + w2**2 * probs[1])
            two = FuzzModel(2, np.kron(ctrl, psi_t), [
                FuzzBranch(w1 / scale, "yx", pre=us[0], mid=us[1], post=us[2]),
                FuzzBranch(w2 / scale, "yx", pre=us[0], mid=us[1], post=us[2]),
            ])
            phi = np.kron(ctrl, phi_t)
            amp = two.amplitude(phi, x, y, np.eye(4), np.eye(4))
            # overlap sum: (w1 * 1/2 + w2 * 1/2) / scale
            expected = (w1 * 0.5 + w2 * 0.5) / scale * base
            assert abs(amp - expected) < 1e-10
            values.append(amp * scale)
        # with w1 + w2 fixed the amplitude is independent of the split
        assert abs(values[0] - values[1]) < 1e-10
        assert abs(values[1] - values[2]) < 1e-10

    def test_commuting_operators_make_orders_agree(self, rng):
        psi_t = random_state_vector(rng, 2)
        alpha = FuzzModel(2, psi_t, [FuzzBranch(1.0, "yx", pre=I2, mid=I2, post=I2)])
        beta = FuzzModel(2, psi_t, [FuzzBranch(1.0, "xy", pre=I2, mid=I2, post=I2)])
        x = np.diag([1.0, 2.0]).astype(complex)
        y = np.diag([3.0, -1.0]).astype(complex)
        phi = random_state_vector(rng, 2)
        a0 = alpha.amplitude(phi, x, y, np.eye(2), np.eye(2))
        a1 = beta.amplitude(phi, x, y, np.eye(2), np.eye(2))
        assert abs(a0 - a1) < 1e-12

    def test_rejects_nonpositive_weight(self, rng):
        psi_t = random_state_vector(rng, 2)
        with pytest.raises(ModelValidationError, match="weight"):
            FuzzModel(2, psi_t, [FuzzBranch(0.0, "yx", pre=I2, mid=I2, post=I2)])

    def test_rejects_norm_breaking_measure(self, rng):
        psi = np.kron(random_state_vector(rng, 2), random_state_vector(rng, 2))
        with pytest.raises(ModelValidationError, match="normalization"):
            FuzzModel(2, psi, [
                FuzzBranch(2.0, "yx", pre=I2, mid=I2, post=I2),
                FuzzBranch(2.0, "xy", pre=I2, mid=I2, post=I2),
            ])

    def test_weighted_fuzz_axioms(self, rng):
        m = random_fuzz(rng, n_branches=3)
        assert abs(m.eval_words((), ()) - 1.0) < 1e-10
        for _ in range(30):
            a = random_element(rng, m.algebra, max_len=3)
            v = m.eval_bilinear(a.star(), a)
            assert v.real >= -1e-9 and abs(v.imag) < 1e-9


class TestSuperspacetime:
    def test_is_a_generalized_state(self, rng):
        # the model evaluates itself: the verify suites, the oracle, the GNS
        # pipeline and the loader take it as it is
        m = random_superspacetime(rng)
        assert isinstance(m, GeneralizedState)
        assert m.family == "superspacetime"
        assert verify_state(m, seed=3)["passed"] is True
        for _ in range(20):
            b = random_word(rng, m.algebra, max_len=3)
            a = random_word(rng, m.algebra, max_len=3)
            assert abs(m.eval_words(b, a) - state_kernel_bruteforce(m, b, a)) < 1e-10
        report = report_obj(build_gns(m, max_len=2))
        assert report["basisSize"] == len(list(m.algebra.words(2)))
        loaded = load_model(MODELS_DIR / "superspacetime_two_branch.json")
        assert isinstance(loaded.state, SuperspacetimeModel)
        assert loaded.family == "superspacetime"

    def test_zero_hamiltonians_give_identity_segments(self, rng):
        z = np.zeros((2, 2))
        br = SuperspacetimeBranch(1.0, (0, 1), (z, z, z), (1.0, 2.0, 3.0))
        m = SuperspacetimeModel(2, ("a", "b"), random_state_vector(rng, 2), [br])
        np.testing.assert_allclose(m.branches[0].pre, I2, atol=1e-12)
        np.testing.assert_allclose(m.branches[0].mid, I2, atol=1e-12)
        np.testing.assert_allclose(m.branches[0].post, I2, atol=1e-12)

    def test_segment_unitaries_match_eigensolver_exponential(self, rng):
        # the eigendecomposition segments against scipy's expm, an independent
        # route, also for large-norm hamiltonians and long times; every
        # segment must be unitary within the one tolerance FuzzModel checks
        cases = [(2, tuple(np.asarray(h) for h in (SX, SZ, SY)), (0.3, 0.7, 1.1), 1e-12)]
        for dim, scale in ((2, 50.0), (3, 20.0), (4, 50.0)):
            hams = tuple(scale * random_hermitian(rng, dim) for _ in range(3))
            cases.append((dim, hams, tuple(rng.uniform(1.0, 10.0, size=3)), 1e-10))
        for dim, hams, times, atol in cases:
            br = SuperspacetimeBranch(1.0, (1, 0), hams, times)
            m = SuperspacetimeModel(dim, ("a", "b"), random_state_vector(rng, dim), [br])
            branch = m.branches[0]
            for seg, h, t in zip((branch.pre, branch.mid, branch.post), hams, times):
                np.testing.assert_allclose(seg, scipy.linalg.expm(-1j * h * t),
                                           rtol=0, atol=atol)
                assert np.max(np.abs(seg.conj().T @ seg - np.eye(dim))) <= UNITARY_TOL

    def test_permutation_sets_branch_order(self, rng):
        z = np.zeros((2, 2))
        psi_t = random_state_vector(rng, 2)
        swapped = SuperspacetimeModel(
            2, ("a", "b"), psi_t,
            [SuperspacetimeBranch(1.0, (0, 1), (z, z, z), (1, 1, 1))],
        )
        assert swapped.branches[0].order == "xy"
        direct = SuperspacetimeModel(
            2, ("a", "b"), psi_t,
            [SuperspacetimeBranch(1.0, (1, 0), (z, z, z), (1, 1, 1))],
        )
        assert direct.branches[0].order == "yx"

    def test_swapped_order_reproduces_xy_chain(self, rng):
        hams = tuple(np.asarray(h) for h in (SX, SZ, SY))
        times = (0.4, 0.9, 0.2)
        psi_t = random_state_vector(rng, 2)
        m = SuperspacetimeModel(
            2, ("a", "b"), psi_t,
            [SuperspacetimeBranch(1.0, (0, 1), hams, times)],
        )
        segs = [scipy.linalg.expm(-1j * h * t) for h, t in zip(hams, times)]
        x, y = random_matrix(rng, 2), random_matrix(rng, 2)
        phi = random_state_vector(rng, 2)
        amp = m.amplitude(phi, x, y, np.eye(2), np.eye(2))
        expected = phi.conj() @ (segs[2] @ y @ segs[1] @ x @ segs[0] @ psi_t)
        assert abs(amp - expected) < 1e-10

    def test_identical_branches_collapse_to_single(self, rng, qubit_pair_algebra):
        hams = tuple(np.asarray(h, dtype=complex) for h in (SX, SZ, SY))
        times = (0.4, 0.9, 0.2)
        psi_t = random_state_vector(rng, 2)
        branch = SuperspacetimeBranch(0.6 + 0.2j, (1, 0), hams, times)
        twin = SuperspacetimeBranch(0.3 - 0.5j, (1, 0), hams, times)
        double = SuperspacetimeModel(2, ("a", "b"), psi_t, [branch, twin])
        single = SuperspacetimeModel(2, ("a", "b"), psi_t, [branch])
        for _ in range(20):
            b = random_word(rng, qubit_pair_algebra, max_len=3)
            a = random_word(rng, qubit_pair_algebra, max_len=3)
            assert abs(double.eval_words(b, a) - single.eval_words(b, a)) < 1e-10

    def test_rejects_non_hermitian_hamiltonian(self, rng):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        br = SuperspacetimeBranch(1.0, (0, 1), (bad, bad, bad), (1, 1, 1))
        with pytest.raises(ModelValidationError, match="hermitian"):
            SuperspacetimeModel(2, ("a", "b"), KET0, [br])

    def test_rejects_bad_permutation(self):
        z = np.zeros((2, 2))
        br = SuperspacetimeBranch(1.0, (0, 0), (z, z, z), (1, 1, 1))
        with pytest.raises(ModelValidationError, match="bijection"):
            SuperspacetimeModel(2, ("a", "b"), KET0, [br])

    def test_rejects_zero_amplitudes(self):
        z = np.zeros((2, 2))
        br = SuperspacetimeBranch(0.0, (0, 1), (z, z, z), (1, 1, 1))
        with pytest.raises(ModelValidationError, match="normaliz"):
            SuperspacetimeModel(2, ("a", "b"), KET0, [br])


class TestBilinearity:
    def test_unit_pair(self, rng):
        for m in all_models(rng):
            assert abs(m.eval_bilinear(m.algebra.unit(), m.algebra.unit()) - 1.0) < 1e-10

    def test_additive_in_each_slot(self, rng):
        for m in all_models(rng):
            p = random_element(rng, m.algebra, max_len=2)
            q1 = random_element(rng, m.algebra, max_len=2)
            q2 = random_element(rng, m.algebra, max_len=2)
            lhs = m.eval_bilinear(p, q1 + q2)
            rhs = m.eval_bilinear(p, q1) + m.eval_bilinear(p, q2)
            assert abs(lhs - rhs) < 1e-9
            lhs = m.eval_bilinear(q1 + q2, p)
            rhs = m.eval_bilinear(q1, p) + m.eval_bilinear(q2, p)
            assert abs(lhs - rhs) < 1e-9

    def test_scaling_without_conjugation(self, rng):
        # bilinear, not sesquilinear: complex scales pass through unchanged
        for m in all_models(rng):
            p = random_element(rng, m.algebra, max_len=2)
            q = random_element(rng, m.algebra, max_len=2)
            c = 2.0 + 1.5j
            assert abs(m.eval_bilinear(c * p, q) - c * m.eval_bilinear(p, q)) < 1e-9
            assert abs(m.eval_bilinear(p, c * q) - c * m.eval_bilinear(p, q)) < 1e-9

    def test_hermiticity_and_cauchy_schwarz(self, rng):
        for m in all_models(rng):
            for _ in range(25):
                a = random_element(rng, m.algebra, max_len=3)
                b = random_element(rng, m.algebra, max_len=3)
                w_ab = m.eval_bilinear(a.star(), b)
                w_ba = m.eval_bilinear(b.star(), a)
                assert abs(w_ab - np.conjugate(w_ba)) < 1e-9
                w_aa = m.eval_bilinear(a.star(), a).real
                w_bb = m.eval_bilinear(b.star(), b).real
                assert abs(w_ab) ** 2 <= w_aa * w_bb + 1e-9

    def test_concurrent_evaluation_is_deterministic(self, rng):
        # cold caches hit from several threads must agree with a fresh
        # single-threaded evaluation
        from concurrent.futures import ThreadPoolExecutor

        segs = dict(zip(SWITCH_NAMES, (random_unitary(rng, 2) for _ in range(6))))
        psi = np.kron(random_state_vector(rng, 2), random_state_vector(rng, 2))
        pairs = [
            (random_word(rng, SwitchModel(2, psi, segs).algebra, max_len=3),
             random_word(rng, SwitchModel(2, psi, segs).algebra, max_len=3))
            for _ in range(40)
        ]
        shared = SwitchModel(2, psi, segs)
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda ba: shared.eval_words(*ba), pairs))
        fresh = SwitchModel(2, psi, segs)
        serial = [fresh.eval_words(b, a) for b, a in pairs]
        assert threaded == serial
