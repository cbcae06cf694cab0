"""Example models, solved schedules and configs shared across tests."""
import numpy as np
import pytest

from mmvlab import example_model, solve_schedule


@pytest.fixture(scope="session")
def ex1():
    return example_model(1)


@pytest.fixture(scope="session")
def ex2():
    return example_model(2)


@pytest.fixture(scope="session")
def ex3():
    return example_model(3)


@pytest.fixture(scope="session")
def ex4():
    return example_model(4)


@pytest.fixture(scope="session")
def ex2_sol_mv(ex2):
    return solve_schedule(ex2, "mv")


@pytest.fixture(scope="session")
def ex2_sol_mmv(ex2):
    return solve_schedule(ex2, "mmv")


@pytest.fixture
def unbounded_config():
    """A riskless drift (b = 0.25, c = 0, no jumps), then a scheduled jump:
    the segment's local utility is unbounded."""
    return {
        "horizon": 1.0, "dimension": 1,
        "segments": [{"t_start": 0.0, "t_end": 1.0, "b_kind": "trunc", "b": 0.25, "c": 0.0}],
        "atoms": [{"time": 1.0, "points": [[-1.05], [1.0]], "masses": [0.5, 0.5]}],
    }


@pytest.fixture
def saturated_config():
    """80 identical bets of -0.1 or 0.9, of masses 1/2: each mv increment
    is 0.16/0.41, so E = (0.25/0.41)**80, about 7e-18, and 1 - E rounds
    to 1; the values of both kinds leave the float range."""
    atoms = [{"time": round(0.01 * k, 2), "points": [[-0.1], [0.9]],
              "masses": [0.5, 0.5]} for k in range(1, 81)]
    return {
        "horizon": 1.0, "dimension": 1,
        "segments": [{"t_start": 0.0, "t_end": 1.0, "b_kind": "trunc",
                      "b": [0.0], "c": [[0.0]]}],
        "atoms": atoms,
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)
