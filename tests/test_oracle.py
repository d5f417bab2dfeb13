import ast
import pathlib

import numpy as np
import pytest

from causal_kernel import oracle
from causal_kernel.oracle import (
    chain_amplitude,
    heisenberg_correlator,
    state_kernel_bruteforce,
)
from causal_kernel.sampling import (
    random_fuzz,
    random_matrix,
    random_sequential,
    random_state_vector,
    random_superspacetime,
    random_switch,
    random_unitary,
    random_word,
)

from conftest import I2, SWITCH_NAMES


class TestHeisenbergCorrelator:
    def test_identity_operators(self, rng):
        psi = random_state_vector(rng, 3)
        u1, u2 = random_unitary(rng, 3), random_unitary(rng, 3)
        assert abs(heisenberg_correlator(psi, u1, u2, np.eye(3), np.eye(3)) - 1.0) < 1e-12

    def test_equal_unitaries_collapse(self, rng):
        psi = random_state_vector(rng, 2)
        u = random_unitary(rng, 2)
        x, y = random_matrix(rng, 2), random_matrix(rng, 2)
        got = heisenberg_correlator(psi, u, u, x, y)
        expected = psi.conj() @ (u.conj().T @ (x @ (y @ (u @ psi))))
        assert abs(got - expected) < 1e-12

    def test_matches_sequential_state(self, rng):
        for _ in range(25):
            d = int(rng.choice([2, 3]))
            psi = random_state_vector(rng, d)
            u1, u2 = random_unitary(rng, d), random_unitary(rng, d)
            x, y = random_matrix(rng, d), random_matrix(rng, d)
            from causal_kernel.states import SequentialModel

            m = SequentialModel(d, u2 @ psi, [u1 @ u2.conj().T])
            a = m.algebra.embed(1, x) * m.algebra.embed(2, y)
            got = m.eval_bilinear(m.algebra.unit(), a)
            assert abs(got - heisenberg_correlator(psi, u1, u2, x, y)) < 1e-10

    def test_dimension_check(self, rng):
        with pytest.raises(Exception, match="shape"):
            heisenberg_correlator(random_state_vector(rng, 2), np.eye(3), I2, I2, I2)


class TestChainAmplitude:
    def test_empty_chain_is_overlap(self, rng):
        psi = random_state_vector(rng, 5)
        phi = random_state_vector(rng, 5)
        assert abs(chain_amplitude([], psi, phi) - phi.conj() @ psi) < 1e-12

    def test_single_unitary_to_its_image(self, rng):
        psi = random_state_vector(rng, 3)
        u = random_unitary(rng, 3)
        assert abs(chain_amplitude([u], psi, u @ psi) - 1.0) < 1e-12

    def test_matches_concentrated_switch_amplitude(self, rng):
        us = [random_unitary(rng, 2) for _ in range(6)]
        psi_t = random_state_vector(rng, 2)
        phi_t = random_state_vector(rng, 2)
        ket0 = np.array([1.0, 0.0])
        from causal_kernel.states import SwitchModel

        m = SwitchModel(2, np.kron(ket0, psi_t), dict(zip(SWITCH_NAMES, us)))
        x, y = random_matrix(rng, 2), random_matrix(rng, 2)
        amp = m.amplitude(np.kron(ket0, phi_t), x, y, np.eye(4), np.eye(4))
        chain = chain_amplitude([us[0], x, us[1], y, us[2]], psi_t, phi_t)
        assert abs(amp - chain) < 1e-10

    def test_dimension_check(self, rng):
        with pytest.raises(Exception, match="chain"):
            chain_amplitude([np.eye(3)], random_state_vector(rng, 3),
                            random_state_vector(rng, 2))


class TestBruteforceAgreement:
    @pytest.mark.parametrize("maker", [
        random_sequential,
        random_switch,
        random_fuzz,
        random_superspacetime,
    ])
    def test_kernel_agreement_on_random_word_pairs(self, rng, maker):
        model = maker(rng)
        for _ in range(50):
            b = random_word(rng, model.algebra, max_len=3)
            a = random_word(rng, model.algebra, max_len=3)
            kernel = model.eval_words(b, a)
            brute = state_kernel_bruteforce(model, b, a)
            assert abs(kernel - brute) < 1e-10

    def test_unit_pair(self, rng):
        model = random_switch(rng)
        assert abs(state_kernel_bruteforce(model, (), ()) - 1.0) < 1e-10

    def test_three_slot_sequential(self, rng):
        model = random_sequential(rng, n_slots=3)
        for _ in range(20):
            b = random_word(rng, model.algebra, max_len=3)
            a = random_word(rng, model.algebra, max_len=3)
            assert abs(model.eval_words(b, a) - state_kernel_bruteforce(model, b, a)) < 1e-10

    def test_unsupported_family(self):
        class Unknown:
            family = "nope"

        with pytest.raises(ValueError, match="nope"):
            state_kernel_bruteforce(Unknown(), (), ())


class TestIndependence:
    def test_oracle_does_not_import_state_evaluation(self):
        source = pathlib.Path(oracle.__file__).read_text()
        tree = ast.parse(source)
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert not any("states" in name for name in imported)
        assert not any("gns" in name for name in imported)
