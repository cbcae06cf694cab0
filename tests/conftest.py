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
def rng():
    return np.random.default_rng(20260818)
