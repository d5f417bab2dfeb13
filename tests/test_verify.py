import pathlib

import pytest

from causal_kernel import load_model, verify_state

SEQ = pathlib.Path(__file__).resolve().parent.parent / "models" / "sequential_qubit.json"
FEW = dict(axiom_samples=2, pair_samples=2, oracle_samples=1)


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

