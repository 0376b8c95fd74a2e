"""The stock sweep reproduces the committed result files byte for byte.

``tests/golden/stock_seed0`` holds the output of ``irslink run`` with its
defaults (six stock codebooks x {no surface, 24 elements}, seed 0).  A change
that moves any printed digit must update these files and say why.
"""

from pathlib import Path

from irslink.experiment import ExperimentSpec, export_results, run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden" / "stock_seed0"


def test_stock_sweep_matches_golden(tmp_path):
    spec = ExperimentSpec()
    written = export_results(run_experiment(spec), tmp_path, spec)
    assert sorted(p.name for p in written) == sorted(p.name for p in GOLDEN.iterdir())
    for path in written:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name
