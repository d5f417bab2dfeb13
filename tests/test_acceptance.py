"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single ``ACCEPTANCE <n> <name>: PASS|FAIL`` line (run with
``pytest -v -s`` to see them inline).  Criterion 6 checks the Gram matrix of
every built-in family and that the pipeline refuses to build a representation
where the null space is not a left ideal, which is the case for all four
families (their report rows print ``reconstruction refused``); it asserts the
reconstruction identity at its stated tolerance on representation-backed
states, where the construction is promised to hold.  See the README.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from causal_kernel.algebra import FactorSpec, FreeAlgebra
from causal_kernel.gns import (
    LEFT_IDEAL_TOL,
    RepresentationError,
    build_gns,
    null_space,
    represent,
)
from causal_kernel.oracle import (
    chain_amplitude,
    heisenberg_correlator,
    state_kernel_bruteforce,
)
from causal_kernel.sampling import (
    random_element,
    random_fuzz,
    random_matrix,
    random_sequential,
    random_state_vector,
    random_superspacetime,
    random_switch,
    random_unitary,
    random_word,
)
from causal_kernel.states import FuzzBranch, FuzzModel, SequentialModel, SwitchModel

from conftest import SWITCH_NAMES, representation_backed_state

MODELS_DIR = pathlib.Path(__file__).resolve().parent.parent / "models"
KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def _report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


def _family_models(rng):
    return {
        "sequential": random_sequential(rng, dim=2),
        "switch": random_switch(rng, dim=2),
        "fuzz": random_fuzz(rng, dim=2, n_branches=2),
        "superspacetime": random_superspacetime(rng, dim=2, n_branches=2),
    }


def _random_raw_word(rng, algebra, max_len=5):
    letters = []
    for _ in range(int(rng.integers(0, max_len + 1))):
        f = int(algebra.factor_indices[int(rng.integers(len(algebra.factor_indices)))])
        spec = algebra.factor(f)
        d = spec.dim
        kind = rng.random()
        if kind < 0.4:
            m = spec.basis[int(rng.integers(d * d - 1))]
        elif kind < 0.7:
            m = spec.basis[int(rng.integers(d * d - 1))] + rng.normal() * np.eye(d)
        else:
            m = random_matrix(rng, d)
        letters.append((f, m))
    return letters


def test_criterion_1_algebra_laws():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    algebra = FreeAlgebra([FactorSpec(1, 2), FactorSpec(2, 3), FactorSpec(3, 2)])
    worst = 0.0
    for _ in range(500):
        raw = _random_raw_word(rng, algebra, max_len=5)
        coeff = complex(rng.normal(), rng.normal())
        baseline = algebra.normalize(raw, coeff)
        for _ in range(2):
            randomized = algebra.normalize(raw, coeff, rng=rng)
            keys = baseline.terms.keys() | randomized.terms.keys()
            gap = max(
                (abs(baseline.coefficient(w) - randomized.coefficient(w))
                 for w in keys),
                default=0.0,
            )
            worst = max(worst, gap)
    assert worst <= 1e-10, f"confluence gap {worst:.3e}"

    for _ in range(200):
        a = random_element(rng, algebra, max_len=2)
        b = random_element(rng, algebra, max_len=2)
        c = random_element(rng, algebra, max_len=2)
        assert ((a * b) * c).isclose(a * (b * c))
        assert (a * (b + c)).isclose(a * b + a * c)
        assert (a * algebra.unit()).isclose(a)
        assert (algebra.unit() * a).isclose(a)
        assert a.star().star().isclose(a)
        assert (a * b).star().isclose(b.star() * a.star())
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, "algebra-laws", True, f"{elapsed:.1f}s, confluence gap {worst:.1e}")


def test_criterion_2_state_axioms():
    rng = np.random.default_rng(202)
    details = []
    for family, model in _family_models(rng).items():
        unit_gap = abs(model.eval_words((), ()) - 1.0)
        assert unit_gap <= 1e-10, f"{family}: omega(e,e) off by {unit_gap:.3e}"
        worst = 0.0
        for _ in range(200):
            a = random_element(rng, model.algebra, max_len=3)
            v = model.eval_bilinear(a.star(), a)
            worst = max(worst, -v.real, abs(v.imag))
            assert v.real >= -1e-9, f"{family}: omega(a*,a) = {v}"
            assert abs(v.imag) <= 1e-9, f"{family}: omega(a*,a) = {v}"
        details.append(f"{family} {worst:.1e}")
    _report(2, "state-axioms", True, "; ".join(details))


def test_criterion_3_hermiticity_and_cauchy_schwarz():
    rng = np.random.default_rng(303)
    details = []
    for family, model in _family_models(rng).items():
        worst_h = 0.0
        worst_cs = 0.0
        for _ in range(200):
            a = random_element(rng, model.algebra, max_len=3)
            b = random_element(rng, model.algebra, max_len=3)
            w_ab = model.eval_bilinear(a.star(), b)
            w_ba = model.eval_bilinear(b.star(), a)
            worst_h = max(worst_h, abs(w_ab - np.conjugate(w_ba)))
            w_aa = model.eval_bilinear(a.star(), a).real
            w_bb = model.eval_bilinear(b.star(), b).real
            worst_cs = max(worst_cs, abs(w_ab) ** 2 - w_aa * w_bb)
        assert worst_h <= 1e-9, f"{family}: hermiticity gap {worst_h:.3e}"
        assert worst_cs <= 1e-9, f"{family}: cauchy-schwarz excess {worst_cs:.3e}"
        details.append(f"{family} h={worst_h:.1e} cs={worst_cs:.1e}")
    _report(3, "hermiticity-cauchy-schwarz", True, "; ".join(details))


def test_criterion_4_sequential_recovery():
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(100):
        d = 2 if trial % 2 == 0 else 3
        psi = random_state_vector(rng, d)
        u1, u2 = random_unitary(rng, d), random_unitary(rng, d)
        x, y = random_matrix(rng, d), random_matrix(rng, d)
        model = SequentialModel(d, u2 @ psi, [u1 @ u2.conj().T])
        elem = model.algebra.embed(1, x) * model.algebra.embed(2, y)
        got = model.eval_bilinear(model.algebra.unit(), elem)
        expected = heisenberg_correlator(psi, u1, u2, x, y)
        worst = max(worst, abs(got - expected))
    assert worst <= 1e-10, f"recovery gap {worst:.3e}"
    _report(4, "sequential-recovery", True, f"max gap {worst:.1e}")


def test_criterion_5_switch_semantics():
    rng = np.random.default_rng(505)
    worst_fixed = 0.0
    for _ in range(20):
        us = [random_unitary(rng, 2) for _ in range(6)]
        psi_t = random_state_vector(rng, 2)
        x, y = random_matrix(rng, 2), random_matrix(rng, 2)
        for control, order in ((KET0, "yx"), (KET1, "xy")):
            model = SwitchModel(2, np.kron(control, psi_t), dict(zip(SWITCH_NAMES, us)))
            elem = model.algebra.embed(1, x) * model.algebra.embed(2, y)
            got = model.eval_bilinear(model.algebra.unit(), elem)
            if order == "yx":
                full = us[0] @ us[1] @ us[2]
                ops = [full.conj().T, us[0], x, us[1], y, us[2]]
            else:
                full = us[3] @ us[4] @ us[5]
                ops = [full.conj().T, us[3], y, us[4], x, us[5]]
            expected = chain_amplitude(ops, psi_t, psi_t)
            worst_fixed = max(worst_fixed, abs(got - expected))
    assert worst_fixed <= 1e-10, f"fixed-order gap {worst_fixed:.3e}"

    worst_lin = 0.0
    for _ in range(20):
        segs = dict(zip(SWITCH_NAMES, (random_unitary(rng, 2) for _ in range(6))))
        psi_t = random_state_vector(rng, 2)
        c = random_state_vector(rng, 2)
        m_sup = SwitchModel(2, np.kron(c, psi_t), segs)
        m0 = SwitchModel(2, np.kron(KET0, psi_t), segs)
        m1 = SwitchModel(2, np.kron(KET1, psi_t), segs)
        phi = random_state_vector(rng, 4)
        x, y = random_matrix(rng, 2), random_matrix(rng, 2)
        u = np.kron(np.diag(np.exp(1j * rng.normal(size=2))), random_unitary(rng, 2))
        v = np.kron(np.diag(np.exp(1j * rng.normal(size=2))), random_unitary(rng, 2))
        lhs = m_sup.amplitude(phi, x, y, u, v)
        rhs = c[0] * m0.amplitude(phi, x, y, u, v) + c[1] * m1.amplitude(phi, x, y, u, v)
        worst_lin = max(worst_lin, abs(lhs - rhs))
    assert worst_lin <= 1e-10, f"branch linearity gap {worst_lin:.3e}"

    us = [random_unitary(rng, 2) for _ in range(6)]
    psi_t = random_state_vector(rng, 2)
    switch = SwitchModel(2, np.kron(KET0, psi_t), dict(zip(SWITCH_NAMES, us)))
    single = FuzzModel(2, psi_t, [FuzzBranch(1.0, "yx", pre=us[2], mid=us[1], post=us[0])])
    worst_single = 0.0
    # words on factors 1 and 2 alone, which avoid the control slots
    qubit_pair = FreeAlgebra([FactorSpec(1, 2), FactorSpec(2, 2)])
    for _ in range(50):
        b = random_word(rng, qubit_pair, max_len=3)
        a = random_word(rng, qubit_pair, max_len=3)
        worst_single = max(
            worst_single, abs(single.eval_words(b, a) - switch.eval_words(b, a))
        )
    assert worst_single <= 1e-10, f"single-branch gap {worst_single:.3e}"
    _report(
        5, "switch-semantics", True,
        f"fixed {worst_fixed:.1e}; linearity {worst_lin:.1e}; "
        f"single-branch {worst_single:.1e}",
    )


def _oracle_form(model, p, q):
    """omega(p, q) summed term by term over the brute-force oracle."""
    return sum(
        cp * cq * state_kernel_bruteforce(model, wp, wq)
        for wp, cp in p.items()
        for wq, cq in q.items()
    )


def _domain_null_violation(model, basis, null_vectors):
    """In-cap left-ideal violation, computed apart from the pipeline.

    The null vectors supported on the domain words (length <= max_len - 1)
    are the combinations of the orthonormal ``null_vectors`` that vanish off
    the domain, i.e. whose domain rows keep the full norm: the left singular
    vectors of those rows with singular value 1.  For each letter b, ``R_b``
    has the forward vectors of b*w (w in the domain) as columns; the
    violation is the largest ``||R_b N||_2^2``.  Returns it together with
    the worst letter and its witness element ``a``.
    """
    algebra = basis.algebra
    dom = [i for i, w in enumerate(basis.words) if len(w) <= basis.max_len - 1]
    left, svals, _ = np.linalg.svd(null_vectors[dom, :], full_matrices=False)
    n_dom = left[:, svals ** 2 > 1.0 - 1e-8]
    zero = np.zeros_like(model.forward_vector(()))
    worst = (0.0, None, None)
    for letter in algebra.generator_letters():
        b_el = algebra.word_element((letter,))
        # a product b*w may vanish (letters with disjoint supports)
        r_b = np.stack([
            sum((c * model.forward_vector(w)
                 for w, c in (b_el * algebra.word_element(basis.words[i])).items()),
                zero)
            for i in dom
        ], axis=1)
        _, sv, right = np.linalg.svd(r_b @ n_dom)
        if sv[0] ** 2 > worst[0]:
            worst = (float(sv[0] ** 2), letter, n_dom @ right[0].conj())
    value, letter, coeffs = worst
    witness = algebra.zero()
    for col, i in enumerate(dom):
        witness = witness + complex(coeffs[col]) * algebra.word_element(basis.words[i])
    return value, letter, witness


def _format_error(error):
    return "refused" if error is None else f"{error:.3e}"


def _refuses(model, result, ns, letter):
    try:
        represent(model, result.basis, ns, result.left_ideal, letter)
    except RepresentationError as err:
        return "not well-defined" in str(err)
    return False


def test_criterion_6_gns_pipeline():
    start = time.monotonic()
    rng = np.random.default_rng(606)
    rows = []
    failures = []
    for family, model in _family_models(rng).items():
        result = build_gns(model, max_len=2)
        herm = float(np.max(np.abs(result.gram - result.gram.conj().T)))
        # measured: result.min_eigenvalue is a structural 0.0 on the R split
        min_eig = float(np.linalg.eigvalsh(result.gram)[0])
        ns = null_space(result.gram)
        reported = result.left_ideal.max_violation
        value, letter, a = _domain_null_violation(model, result.basis, ns.null_vectors)
        ba = model.algebra.word_element((letter,)) * a
        null_norm = abs(_oracle_form(model, a.star(), a))
        image_norm = _oracle_form(model, ba.star(), ba).real
        checks = {
            "hermitian": herm <= 1e-9,
            "psd": min_eig >= -1e-8,
            "left-ideal-measured": abs(reported - value) <= 1e-8 * value,
            "left-ideal-witness": (
                null_norm <= 1e-8 and abs(image_norm - value) <= 1e-8 * value
            ),
            "left-ideal-violated": value > LEFT_IDEAL_TOL,
            "refused": (
                result.letter_reps is None
                and result.reconstruction_error is None
                and _refuses(model, result, ns, letter)
            ),
        }
        rows.append(
            f"{family}: herm {herm:.1e}, min-eig {min_eig:.1e}, "
            f"left-ideal {reported:.3e} (own {value:.3e}, "
            f"witness {null_norm:.1e} -> {image_norm:.3e}), "
            f"reconstruction {_format_error(result.reconstruction_error)}"
        )
        for check, ok in checks.items():
            if not ok:
                failures.append(f"{family}/{check}")
    for unitary in (False, True):
        family = "represented-" + ("unitary" if unitary else "similarity")
        result = build_gns(representation_backed_state(rng, unitary=unitary), max_len=2)
        herm = float(np.max(np.abs(result.gram - result.gram.conj().T)))
        min_eig = float(np.linalg.eigvalsh(result.gram)[0])
        checks = {
            "hermitian": herm <= 1e-9,
            "psd": min_eig >= -1e-8,
            "left-ideal": result.left_ideal.max_violation <= 1e-8,
            "reconstruction": (
                result.reconstruction_error is not None
                and result.reconstruction_error <= 1e-7
            ),
        }
        rows.append(
            f"{family}: herm {herm:.1e}, min-eig {min_eig:.1e}, "
            f"left-ideal {result.left_ideal.max_violation:.1e}, "
            f"reconstruction {_format_error(result.reconstruction_error)}"
        )
        for check, ok in checks.items():
            if not ok:
                failures.append(f"{family}/{check}")
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"
    passed = not failures
    _report(6, "gns-pipeline", passed,
            f"{elapsed:.1f}s; " + "; ".join(rows))
    assert passed, (
        "failed checks: " + ", ".join(failures) + " | " + " | ".join(rows)
    )


def test_criterion_7_dual_implementation_agreement():
    rng = np.random.default_rng(707)
    details = []
    for family, model in _family_models(rng).items():
        worst = 0.0
        for _ in range(50):
            b = random_word(rng, model.algebra, max_len=3)
            a = random_word(rng, model.algebra, max_len=3)
            kernel = model.eval_words(b, a)
            brute = state_kernel_bruteforce(model, b, a)
            worst = max(worst, abs(kernel - brute))
        assert worst <= 1e-10, f"{family}: oracle gap {worst:.3e}"
        details.append(f"{family} {worst:.1e}")
    _report(7, "dual-implementation", True, "; ".join(details))


def test_criterion_8_verify_determinism():
    cmd = [
        sys.executable, "-m", "causal_kernel.cli", "verify",
        "--model", str(MODELS_DIR / "switch_qubit.json"), "--seed", "42",
    ]
    # the child imports the package from this checkout, as this process does
    src = str(MODELS_DIR.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout, "verify output is not byte-identical"
    report = json.loads(first.stdout)
    assert report["passed"] is True
    _report(8, "verify-determinism", True, f"{len(first.stdout)} bytes")
