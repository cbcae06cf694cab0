"""SHA-256 digests of the Monte Carlo engine's arrays, pinned bit for bit.

tests/data/path_digests.json holds, per model and SimConfig, the digest
of every array the engine returns: simulate_paths' levels and
increments, wealth_recursion for both kinds, capped_exponential, and
the three arrays of run_wealth_study for both kinds.  levels and
increments are plain IEEE arithmetic on the Philox draws; the other
arrays go through numpy's exp, as the simulate goldens do.  A change
to the engine that keeps every bit passes this test unchanged.  To
regenerate after a deliberate change of bits, run from the repository
root

    PYTHONPATH=src python tests/test_path_digests.py > tests/data/path_digests.json

and say in the change which arrays moved.
"""
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from mmvlab import (SimConfig, example_model, run_wealth_study, simulate_paths,
                    solve_schedule, wealth_recursion)
from mmvlab.montecarlo import _BLOCK_UNITS, capped_exponential

from test_montecarlo import two_asset_model

DATA = Path(__file__).resolve().parent / "data" / "path_digests.json"

MODELS = {
    "ex1": lambda: example_model(1),
    "ex2": lambda: example_model(2),
    "ex5-40": lambda: example_model(5, atoms_max=40),
    "ex6-60": lambda: example_model(6, atoms_max=60),
    "two-assets": two_asset_model,
}

SIMS = {
    "paired": SimConfig(2 * _BLOCK_UNITS + 1, 16, 7),
    "unpaired": SimConfig(_BLOCK_UNITS + 1, 16, 7, antithetic=False),
}


def _digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def digests(name: str) -> dict:
    """Digest of every engine array for one model, per SimConfig."""
    model = MODELS[name]()
    sols = {kind: solve_schedule(model, kind) for kind in ("mv", "mmv")}
    out = {}
    for label, sim in SIMS.items():
        ps = simulate_paths(model, sim)
        arrays = {"levels": ps.levels, "increments": ps.increments,
                  "capped_exponential": capped_exponential(ps, sols["mmv"])}
        for kind, sol in sols.items():
            arrays[f"wealth_recursion_{kind}"] = wealth_recursion(ps, sol, kind)
            study = run_wealth_study(model, sim, kind, solution=sol)
            for field in ("terminal_wealth", "capped_exponential", "terminal_increment"):
                arrays[f"study_{kind}_{field}"] = getattr(study, field)
        out[label] = {key: _digest(a) for key, a in sorted(arrays.items())}
    return out


@pytest.mark.parametrize("name", list(MODELS))
def test_engine_arrays_keep_their_bits(name):
    assert digests(name) == json.loads(DATA.read_text())[name]


if __name__ == "__main__":
    json.dump({name: digests(name) for name in MODELS}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
