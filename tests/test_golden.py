"""Sweeps reproduce the committed result files byte for byte.

``tests/golden/stock_seed0`` holds the output of ``irslink run`` with its
defaults (six stock codebooks x {no surface, 24 elements}, seed 0).  The
stock queue rates give a waiting time of 5e8 s, so every sum utility there
is 0 or about 1e-14 and that copy does not guard the utility report.

``tests/golden/queue_seed0`` holds a sweep over finite queue rates
(``lambda_i`` = 2e3, ``mu_j`` = 4e3): two codebooks, with and without the
surface, mean- and min-gain aggregation, and the external-SNR mode fed by
``tests/golden/queue_snr.csv``.  With the surface its sum utilities are
about 14-34, so a change to the delay or utility arithmetic shows there.

``tests/golden/large_queue_seed0`` holds a short sweep at the large surface
sizes (``8ant_1rf``, 96 and 384 elements, the same finite queue rates, five
RCG iterations and two AO rounds), so the UL composites that feed the
utility report are pinned at scale too; the other copies stop at 24 elements.

A change that moves any printed digit must update these files and say why.
"""

from pathlib import Path

from irslink.experiment import ExperimentSpec, export_results, run_experiment
from irslink.scenario import STOCK_CODEBOOKS, default_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"


def _assert_matches(written, golden: Path):
    assert sorted(p.name for p in written) == sorted(p.name for p in golden.iterdir())
    for path in written:
        assert path.read_bytes() == (golden / path.name).read_bytes(), path.name


def test_stock_sweep_matches_golden(tmp_path):
    spec = ExperimentSpec()
    written = export_results(run_experiment(spec), tmp_path, spec)
    _assert_matches(written, GOLDEN / "stock_seed0")


def test_queue_sweep_matches_golden(tmp_path, monkeypatch):
    # a relative trace path keeps the manifest's snr_csv_path checkout-free
    monkeypatch.chdir(GOLDEN)
    by_name = {cb.name: cb for cb in STOCK_CODEBOOKS}
    spec = ExperimentSpec(
        codebooks=(by_name["2ant_1rf"], by_name["8ant_2rf"]),
        modes=("with_irs", "no_irs", "mean_gain", "min_gain", "external_snr"),
        snr_csv_path="queue_snr.csv",
        optimizer_overrides={"max_iter": 30, "outer_rounds": 3},
    )
    scenario = default_scenario(24, lambda_i=2e3, mu_j=4e3)
    written = export_results(run_experiment(spec, scenario=scenario), tmp_path, spec)
    _assert_matches(written, GOLDEN / "queue_seed0")


def test_large_surface_sweep_matches_golden(tmp_path):
    by_name = {cb.name: cb for cb in STOCK_CODEBOOKS}
    spec = ExperimentSpec(
        codebooks=(by_name["8ant_1rf"],),
        irs_sizes=(96, 384),
        optimizer_overrides={"max_iter": 5, "outer_rounds": 2},
    )
    scenario = default_scenario(lambda_i=2e3, mu_j=4e3)
    written = export_results(run_experiment(spec, scenario=scenario), tmp_path, spec)
    _assert_matches(written, GOLDEN / "large_queue_seed0")
