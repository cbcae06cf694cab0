"""Byte-for-byte comparison of CLI reports against committed goldens.

The files under tests/data/ are the stdout of the commands below, in
the format their suffix names (json, text or csv); a refactor that
keeps every figure must reproduce them exactly.  To regenerate one
after a deliberate change of figures, run its command from the
repository root, for example

    PYTHONPATH=src python -m mmvlab simulate src/mmvlab/examples_data/ex2.json \
        --kind mv --paths 1000 --steps 50 --seed 3 --format json \
        > tests/data/simulate_ex2_mv.json

(progress goes to stderr), and say in the change which figures moved.
The expected figures of reproduce and selftest live in
src/mmvlab/examples_data/expected.json; changing one there means
regenerating reproduce_ex1.json to reproduce_ex4.json,
reproduce_ex5_atoms200.json, reproduce_ex5_atoms2000.json,
reproduce_ex6_atoms200.json, reproduce_ex4.txt, reproduce_ex2.csv and
selftest.json.

Example 5 at 200 atoms fails its monotone partial-sum check (the
series has not yet grown past the threshold), so it exits 1; at 2 000
atoms, where a numerical search once stalled on some bets, it passes.

`scheduled_bets300.json` is a config, not a report: a diffusion
segment (b = 0.1, c = 0.04) and bet n = 1..300 at time n/300 with
outcomes -1, 1 and 10n, the last of mass 2e-4/n^2, and mean 0.2/n.
`gaussian_b012.json` is a config too: one segment with b = 0.12,
c = 0.05 and Gaussian jumps N(0, 0.004) at rate 1.
"""
from pathlib import Path

import pytest

from mmvlab.cli import run

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
EX = "src/mmvlab/examples_data/ex{}.json"
EX2 = EX.format(2)

CASES = [
    ("reproduce_ex1.json", ["reproduce", "--example", "1"], 0),
    ("reproduce_ex2.json", ["reproduce", "--example", "2"], 0),
    ("reproduce_ex3.json", ["reproduce", "--example", "3"], 0),
    ("reproduce_ex4.json", ["reproduce", "--example", "4"], 0),
    # the text and csv renderers and the selftest report
    ("reproduce_ex4.txt", ["reproduce", "--example", "4"], 0),
    ("reproduce_ex2.csv", ["reproduce", "--example", "2"], 0),
    ("selftest.json", ["selftest"], 0),
    ("reproduce_ex5_atoms200.json",
     ["reproduce", "--example", "5", "--atoms-max", "200"], 1),
    ("reproduce_ex5_atoms2000.json",
     ["reproduce", "--example", "5", "--atoms-max", "2000"], 0),
    ("reproduce_ex6_atoms200.json",
     ["reproduce", "--example", "6", "--atoms-max", "200"], 0),
    ("simulate_ex2_mv.json",
     ["simulate", EX2, "--kind", "mv", "--paths", "1000", "--steps", "50",
      "--seed", "3"], 0),
    ("simulate_ex2_mmv.json",
     ["simulate", EX2, "--kind", "mmv", "--paths", "1000", "--steps", "50",
      "--seed", "3"], 0),
    # the config parser, the scheduled parts of the dual diagnostics and
    # the scheduled-jump draws, on one and on many scheduled jumps
    *((f"diagnose_ex{i}.json", ["diagnose", EX.format(i)], 0) for i in (1, 5, 6)),
    # 300 one-asset bets with summable increments, so both values are
    # finite and the crossing and sign-moment products run over every jump
    ("diagnose_scheduled_bets300.json",
     ["diagnose", "tests/data/scheduled_bets300.json"], 0),
    # a Gaussian mass of 5.6e-13 past the plain bliss level: the kinds
    # differ, although their optima agree to 1e-13
    ("diagnose_gaussian_b012.json", ["diagnose", "tests/data/gaussian_b012.json"], 0),
    ("solve_ex5_mmv.json", ["solve", EX.format(5), "--kind", "mmv"], 0),
    ("solve_ex6_mv.json", ["solve", EX.format(6), "--kind", "mv"], 0),
    *((f"simulate_ex{i}_mmv.json",
       ["simulate", EX.format(i), "--kind", "mmv", "--paths", "1000",
        "--steps", "50", "--seed", "3"], 0) for i in (1, 6)),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, argv, code, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)         # the simulate report echoes the config path
    fmt = {".json": "json", ".txt": "text", ".csv": "csv"}[Path(name).suffix]
    assert run(argv + ["--format", fmt]) == code
    assert capsys.readouterr().out == (DATA / name).read_text()
