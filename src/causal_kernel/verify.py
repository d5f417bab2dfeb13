"""Randomized verification suites for a loaded state.

Each suite measures a maximal violation against its tolerance:

* unit normalization: |omega(e, e) - 1|
* positivity: omega(a*, a) must be real and non-negative
* hermiticity: omega(a*, b) equals the conjugate of omega(b*, a)
* cauchy-schwarz: |omega(a*, b)|^2 <= omega(a*, a) * omega(b*, b)
* oracle agreement: word kernels match the brute-force recomputation
* recovery (sequential only): omega(e, x*y) matches the two-operator
  evolution correlator computed directly

Reports are plain dicts with deterministic content for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from . import oracle
from .sampling import (
    random_element,
    random_matrix,
    random_state_vector,
    random_unitary,
    random_word,
)
from .states import GeneralizedState, SequentialModel

DEFAULT_TOLERANCES = {
    "unit_normalization": 1e-10,
    "positivity": 1e-9,
    "hermiticity": 1e-9,
    "cauchy_schwarz": 1e-9,
    "oracle_agreement": 1e-10,
    "recovery": 1e-10,
}


# Each suite draws all of its samples first (the same rng calls, in the same
# order, as drawing one sample per evaluation), evaluates their cold words in
# one batched pass into the per-word cache, and then runs its evaluation loop.

def _element(rng: np.random.Generator, state: GeneralizedState):
    return random_element(rng, state.algebra, max_len=3, max_terms=3)


def _axiom_suite(state: GeneralizedState, rng: np.random.Generator, samples: int):
    unit_violation = state.unit_check()
    elements = [_element(rng, state) for _ in range(samples)]
    state._fill_cache(w for a in elements for w, _ in a.items())
    pos_violation = 0.0
    for a in elements:
        v = state.eval_bilinear(a.star(), a)
        pos_violation = max(pos_violation, abs(v.imag), -v.real, 0.0)
    return unit_violation, pos_violation


def _pair_suite(state: GeneralizedState, rng: np.random.Generator, samples: int):
    pairs = [(_element(rng, state), _element(rng, state)) for _ in range(samples)]
    state._fill_cache(w for pair in pairs for e in pair for w, _ in e.items())
    herm_violation = 0.0
    cs_violation = 0.0
    for a, b in pairs:
        w_ab = state.eval_bilinear(a.star(), b)
        w_ba = state.eval_bilinear(b.star(), a)
        herm_violation = max(herm_violation, abs(w_ab - np.conjugate(w_ba)))
        w_aa = state.eval_bilinear(a.star(), a).real
        w_bb = state.eval_bilinear(b.star(), b).real
        cs_violation = max(cs_violation, abs(w_ab) ** 2 - w_aa * w_bb)
    return herm_violation, max(cs_violation, 0.0)


def _oracle_suite(state: GeneralizedState, rng: np.random.Generator, samples: int):
    pairs = [(random_word(rng, state.algebra, max_len=3),
              random_word(rng, state.algebra, max_len=3)) for _ in range(samples)]
    state._fill_cache(w for b, a in pairs for w in (tuple(reversed(b)), a))
    violation = 0.0
    for b, a in pairs:
        kernel = state.eval_words(b, a)
        brute = oracle.state_kernel_bruteforce(state, b, a)
        violation = max(violation, abs(kernel - brute))
    return violation


def _recovery_suite(state: SequentialModel, rng: np.random.Generator, samples: int):
    violation = 0.0
    d = state.dim
    for _ in range(samples):
        psi = random_state_vector(rng, d)
        u1 = random_unitary(rng, d)
        u2 = random_unitary(rng, d)
        x = random_matrix(rng, d)
        y = random_matrix(rng, d)
        model = SequentialModel(d, u2 @ psi, [u1 @ u2.conj().T])
        elem = model.algebra.embed(1, x) * model.algebra.embed(2, y)
        model._fill_cache([(), *(w for w, _ in elem.items())])
        value = model.eval_bilinear(model.algebra.unit(), elem)
        reference = oracle.heisenberg_correlator(psi, u1, u2, x, y)
        violation = max(violation, abs(value - reference))
    return violation


def verify_state(
    state: GeneralizedState,
    seed: int,
    axiom_samples: int = 200,
    pair_samples: int = 200,
    oracle_samples: int = 50,
    tolerance_override: float | None = None,
) -> dict:
    """Run all applicable suites; returns a deterministic report dict."""
    rng = np.random.default_rng(seed)
    tolerances = dict(DEFAULT_TOLERANCES)
    if tolerance_override is not None:
        # inf would pass every suite, and nan or a negative value fail every
        # suite, whatever the state
        if not 0 <= tolerance_override < np.inf:
            raise ValueError(f"tolerance_override {tolerance_override!r} "
                             "is not a finite number >= 0")
        tolerances = {k: float(tolerance_override) for k in tolerances}

    unit_v, pos_v = _axiom_suite(state, rng, axiom_samples)
    herm_v, cs_v = _pair_suite(state, rng, pair_samples)
    oracle_v = _oracle_suite(state, rng, oracle_samples)

    properties = {
        "unit_normalization": unit_v,
        "positivity": pos_v,
        "hermiticity": herm_v,
        "cauchy_schwarz": cs_v,
        "oracle_agreement": oracle_v,
    }
    if isinstance(state, SequentialModel) and state.dim in (2, 3):
        properties["recovery"] = _recovery_suite(state, rng, max(1, oracle_samples))

    report_props = {}
    all_passed = True
    for name, violation in properties.items():
        tol = tolerances[name]
        passed = bool(violation <= tol)
        all_passed = all_passed and passed
        report_props[name] = {
            "maxViolation": float(violation),
            "tolerance": float(tol),
            "passed": passed,
        }
    return {
        "family": state.family,
        "seed": int(seed),
        "properties": report_props,
        "passed": all_passed,
    }
