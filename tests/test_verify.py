import pathlib

import pytest

import numpy as np

from causal_kernel import load_model, verify_state
from causal_kernel.sampling import random_element, random_word
from causal_kernel.states import GeneralizedState

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
SEQ = MODELS / "sequential_qubit.json"
FEW = dict(axiom_samples=2, pair_samples=2, oracle_samples=1)
COMMITTED = ["sequential_qubit", "switch_qubit", "fuzz_two_branch",
             "superspacetime_two_branch"]


@pytest.fixture
def state():
    return load_model(SEQ).state


class TestToleranceOverride:
    # inf would pass every suite whatever the state, nan and negative values
    # would fail every suite: all three are refused before any suite runs
    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0])
    def test_refuses_a_tolerance_that_decides_the_verdict(self, state, tol):
        with pytest.raises(ValueError, match="finite number >= 0"):
            verify_state(state, seed=1, tolerance_override=tol, **FEW)

    def test_zero_runs_every_suite_at_zero(self, state):
        report = verify_state(state, seed=1, tolerance_override=0.0, **FEW)
        assert set(report["properties"]) >= {"unit_normalization", "positivity",
                                             "oracle_agreement"}
        assert {e["tolerance"] for e in report["properties"].values()} == {0.0}


class TestBatchedSuites:
    """Each suite fills the per-word cache for its samples in one pass."""

    @pytest.mark.parametrize("name", COMMITTED)
    def test_report_equals_the_per_word_route(self, monkeypatch, name):
        batched = [verify_state(load_model(MODELS / f"{name}.json").state, seed)
                   for seed in (0, 42)]
        # every word its own batch of one, as a cold forward_vector evaluates it
        fill = GeneralizedState._fill_cache
        monkeypatch.setattr(GeneralizedState, "_fill_cache",
                            lambda self, words: [fill(self, [w]) for w in words])
        per_word = [verify_state(load_model(MODELS / f"{name}.json").state, seed)
                    for seed in (0, 42)]
        assert batched == per_word

    @pytest.mark.parametrize("name", COMMITTED)
    def test_one_forward_pass_per_suite(self, monkeypatch, name):
        state = load_model(MODELS / f"{name}.json").state
        calls = []
        forward = GeneralizedState.forward_vectors

        def counted(self, words):
            calls.append(self)
            return forward(self, words)

        monkeypatch.setattr(GeneralizedState, "forward_vectors", counted)
        verify_state(state, seed=42)
        # unit check, axiom, pair and oracle suites on the state; the
        # sequential recovery suite adds one pass for each of its fresh
        # models, one per oracle sample (50 by default)
        assert sum(m is state for m in calls) <= 4
        assert len(calls) <= (4 + 50 if name == "sequential_qubit" else 4)


class TestRandomElement:
    @pytest.mark.parametrize("name", COMMITTED)
    def test_equals_the_sum_of_word_elements(self, name):
        """The accumulated term dict is the one ``+`` builds, in the same
        insertion order, from the same ``rng`` calls."""
        algebra = load_model(MODELS / f"{name}.json").state.algebra
        fast, slow = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(2000):
            elem = random_element(fast, algebra)
            out = algebra.zero()
            for _ in range(int(slow.integers(1, 4))):
                coeff = complex(slow.normal(), slow.normal())
                out = out + coeff * algebra.word_element(random_word(slow, algebra, 3))
            assert list(elem.items()) == list(out.items())
        assert fast.bit_generator.state == slow.bit_generator.state
