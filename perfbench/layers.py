"""Per-layer replays for the traced run.

Each replay repeats, on a freshly loaded committed model, the calls that one
op makes into a single layer, and times them as a block:

* ``algebra.multiply`` over every letter x basis-word product that
  ``check_left_ideal`` forms for the switch model at ``max_len=2``;
* ``states.forward_vector`` on a second fresh model, over the basis words
  (the ``gram`` calls) and every word of those products, in the same order;
* ``gns.gram`` with warm caches at ``jobs=1`` and at ``jobs=nproc``;
* the ``sampling``, ``states.eval_bilinear`` and ``oracle`` calls of one
  ``verify_state`` call with default sample counts, on each committed model.

Counts repeat exactly for a given tree; times are medians or per-op means.
"""

from __future__ import annotations

import inspect
import statistics
import time
from pathlib import Path

import inputs
from causal_kernel import load_model, oracle
from causal_kernel.gns import WordBasis, gram
from causal_kernel.sampling import random_element, random_word
from causal_kernel.verify import verify_state

GRAM_REPEATS = 3


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def replay_switch_l2(root: Path, nproc: int) -> dict:
    path = root / inputs.MODEL_DIR / inputs.CONTROL_MODELS[0]
    model = load_model(path)
    basis = WordBasis.build(model.algebra, 2)
    elements = basis.elements()
    letters = [model.algebra.word_element((letter,))
               for letter in model.algebra.generator_letters()]

    def multiply_all():
        return [[b * w for w in elements] for b in letters]

    multiply_s, products = _timed(multiply_all)
    calls = list(basis.words)
    for row in products:
        calls.append(())
        for prod in row:
            calls.extend(w for w, _ in prod.items())

    state = load_model(path).state
    forward_s, _ = _timed(lambda: [state.forward_vector(w) for w in calls])

    jobs1, jobsn = [], []
    for _ in range(GRAM_REPEATS):
        jobs1.append(_timed(lambda: gram(state, basis, jobs=1))[0])
        jobsn.append(_timed(lambda: gram(state, basis, jobs=nproc))[0])
    return {
        "algebra.multiply_s": multiply_s,
        "algebra.multiply_calls": len(letters) * len(elements),
        "algebra.product_terms": sum(len(p.terms) for row in products for p in row),
        "states.forward_vector_s": forward_s,
        "states.forward_vector_calls": len(calls),
        "states.distinct_words": len(set(calls)),
        "gns.gram_jobs1_s": statistics.median(jobs1),
        "gns.gram_jobs_nproc_s": statistics.median(jobsn),
    }


def verify_call_counts() -> dict:
    """Calls one verify_state makes with its default sample counts."""
    d = {k: p.default for k, p in inspect.signature(verify_state).parameters.items()}
    axiom, pair, orc = d["axiom_samples"], d["pair_samples"], d["oracle_samples"]
    return {"axiom": axiom, "random_element": axiom + 2 * pair,
            "eval_bilinear": axiom + 4 * pair, "oracle": orc}


def replay_verify(root: Path, seed: int) -> dict:
    counts = verify_call_counts()
    sums = {"sampling": 0.0, "states": 0.0, "oracle": 0.0}
    for name in inputs.ALL_MODELS:
        state = load_model(root / inputs.MODEL_DIR / name).state
        rng = inputs.stream(seed, f"replay-verify-{name}")
        dt, elems = _timed(lambda: [random_element(rng, state.algebra, max_len=3, max_terms=3)
                                    for _ in range(counts["random_element"])])
        sums["sampling"] += dt
        singles, pairs = elems[:counts["axiom"]], elems[counts["axiom"]:]
        args = [(a.star(), a) for a in singles]
        for a, b in zip(pairs[0::2], pairs[1::2]):
            args += [(a.star(), b), (b.star(), a), (a.star(), a), (b.star(), b)]
        sums["states"] += _timed(lambda: [state.eval_bilinear(p, q) for p, q in args])[0]
        words = [(random_word(rng, state.algebra, 3), random_word(rng, state.algebra, 3))
                 for _ in range(counts["oracle"])]
        sums["oracle"] += _timed(lambda: [oracle.state_kernel_bruteforce(state, b, a)
                                          for b, a in words])[0]
    n = len(inputs.ALL_MODELS)
    return {
        "sampling.random_element_s": sums["sampling"] / n,
        "sampling.random_element_calls": counts["random_element"],
        "states.eval_bilinear_verify_s": sums["states"] / n,
        "states.eval_bilinear_verify_calls": counts["eval_bilinear"],
        "oracle.state_kernel_bruteforce_s": sums["oracle"] / n,
        "oracle.state_kernel_bruteforce_calls": counts["oracle"],
    }
