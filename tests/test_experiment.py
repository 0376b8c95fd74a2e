"""Sweep driver, SNR trace import/export, result bundles and the CLI."""

import filecmp
import json

import numpy as np
import pytest

from irslink.cli import main
from irslink.experiment import (
    ExperimentSpec,
    ExternalSnrTrace,
    export_results,
    export_snr_csv,
    import_ns3_snr_csv,
    run_experiment,
    with_irs_elements,
)
from irslink.metrics import rate
from irslink.scenario import STOCK_CODEBOOKS, CodebookScenario, default_scenario

FAST = {"max_iter": 5, "outer_rounds": 1}


def small_scenario(n_irs=8):
    return default_scenario(n_irs, n_sc=8)


def snr_fixture(path):
    # 4 users (0-3) + 2 APs (4, 5)
    lines = ["node_id,peer_id,snr_db"]
    for i in range(4):
        for j in (4, 5):
            lines.append(f"{i},{j},{10 + i + j}")
            lines.append(f"{j},{i},{5 + i}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestSnrTrace:
    def test_round_trip_bit_identical(self, tmp_path):
        src = snr_fixture(tmp_path / "snr.csv")
        trace = import_ns3_snr_csv(src)
        out = tmp_path / "snr2.csv"
        export_snr_csv(trace, out)
        trace2 = import_ns3_snr_csv(out)
        assert trace.rows == trace2.rows

    def test_lookup_and_linear_conversion(self, tmp_path):
        trace = import_ns3_snr_csv(snr_fixture(tmp_path / "snr.csv"))
        assert trace.snr_linear(0, 4) == pytest.approx(10 ** 1.4)
        with pytest.raises(KeyError):
            trace.snr_linear(0, 99)

    def test_rate_through_imported_snr(self):
        # linear SNR of 3 -> BW * log2(4) = 2 * BW
        assert rate(3.0, 7.0) == pytest.approx(14.0)

    def test_header_rejected_with_line_number(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("node,peer,snr\n0,4,10\n")
        with pytest.raises(ValueError, match="line 1: header"):
            import_ns3_snr_csv(bad)

    def test_non_numeric_row_rejected_with_line_number(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("node_id,peer_id,snr_db\n0,4,10\n1,four,3\n")
        with pytest.raises(ValueError, match="line 3: malformed"):
            import_ns3_snr_csv(bad)

    def test_column_count_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("node_id,peer_id,snr_db\n0,4\n")
        with pytest.raises(ValueError, match="line 2: expected 3 columns"):
            import_ns3_snr_csv(bad)

    def test_empty_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            import_ns3_snr_csv(bad)

    def test_unknown_node_ids_rejected(self, tmp_path):
        src = snr_fixture(tmp_path / "snr.csv")
        with pytest.raises(ValueError, match="unknown node ids"):
            import_ns3_snr_csv(src, known_node_ids=range(4))

    def test_duplicate_row_rejected_with_both_line_numbers(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("node_id,peer_id,snr_db\n0,4,10\n4,0,7\n0,4,12\n")
        with pytest.raises(ValueError, match=r"line 4: duplicate row for node 0, peer 4 "
                                             r"\(first on line 2\)"):
            import_ns3_snr_csv(bad)

    def test_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "snr.csv"
        f.write_text("node_id,peer_id,snr_db\n0,4,10\n\n1,4,11\n")
        assert len(import_ns3_snr_csv(f).rows) == 2


class TestIrsResizing:
    def test_zero_removes_panels(self):
        sc = with_irs_elements(default_scenario(), 0)
        assert sc.n_irs_elements == 0

    def test_total_count_preserved(self):
        for m in (1, 7, 12, 24, 25):
            assert with_irs_elements(default_scenario(), m).n_irs_elements == m

    def test_identity_when_unchanged(self):
        sc = default_scenario()
        assert with_irs_elements(sc, 24) is sc

    def test_adds_panels_to_panel_free_scenario(self):
        sc = with_irs_elements(default_scenario(0), 6)
        assert sc.n_irs_elements == 6
        assert len(sc.irs_panels) == 2


class TestExperimentSpec:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="unknown modes"):
            ExperimentSpec(modes=("bogus",))
        with pytest.raises(ValueError, match="at least one mode"):
            ExperimentSpec(modes=())

    def test_external_snr_needs_csv(self):
        with pytest.raises(ValueError, match="requires snr_csv_path"):
            ExperimentSpec(modes=("external_snr",))

    def test_misspelled_optimizer_override_rejected(self):
        spec = ExperimentSpec(optimizer_overrides={"max_iters": 3})
        with pytest.raises(ValueError, match=r"unknown optimizer overrides: \['max_iters'\]"):
            run_experiment(spec, scenario=small_scenario())


class TestRunExperiment:
    def test_twelve_runs_for_full_grid(self):
        spec = ExperimentSpec(
            irs_sizes=(8,), modes=("with_irs", "no_irs"), optimizer_overrides=FAST
        )
        bundle = run_experiment(spec, scenario=small_scenario())
        assert len(bundle) == 12  # six codebooks x {no_irs, with_irs}
        assert {r.codebook for r in bundle} == {c.name for c in STOCK_CODEBOOKS}
        assert {r.mode for r in bundle} == {"no_irs", "with_irs"}

    def test_min_gain_not_above_mean_gain(self):
        spec = ExperimentSpec(
            codebooks=(CodebookScenario("8ant_2rf", 8, 2),),
            irs_sizes=(8,),
            modes=("mean_gain", "min_gain", "with_irs"),
            optimizer_overrides=FAST,
        )
        bundle = run_experiment(spec, scenario=small_scenario())
        by_agg = {r.aggregate: r.sum_utility for r in bundle}
        assert by_agg["min_gain"] <= by_agg["mean_gain"] + 1e-12

    def test_external_snr_mode(self, tmp_path):
        src = snr_fixture(tmp_path / "snr.csv")
        spec = ExperimentSpec(
            codebooks=(CodebookScenario("2ant_1rf", 2, 1),),
            modes=("external_snr",),
            snr_csv_path=str(src),
        )
        bundle = run_experiment(spec, scenario=small_scenario(0))
        assert len(bundle) == 1
        r = bundle[0]
        assert r.mode == "external_snr"
        assert np.isfinite(r.min_transmission_delay)


class TestExportResults:
    def _bundle(self):
        spec = ExperimentSpec(
            codebooks=(CodebookScenario("2ant_1rf", 2, 1),),
            irs_sizes=(8,),
            modes=("with_irs", "no_irs"),
            optimizer_overrides=FAST,
        )
        return spec, run_experiment(spec, scenario=small_scenario())

    def test_empty_bundle_manifest_only(self, tmp_path):
        files = export_results([], tmp_path)
        assert [f.name for f in files] == ["manifest.json"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["runs"] == []

    def test_file_structure_and_row_counts(self, tmp_path):
        spec, bundle = self._bundle()
        files = export_results(bundle, tmp_path, spec)
        names = [f.name for f in files]
        assert names == [
            "utility_by_codebook.csv",
            "utility_vs_irs_size.csv",
            "min_transmission_delay.csv",
            "convergence_trace.csv",
            "manifest.json",
        ]
        rows = (tmp_path / "utility_by_codebook.csv").read_text().splitlines()
        assert len(rows) == 1 + len(bundle)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["runs"]) == len(bundle)
        assert manifest["spec"]["seed"] == spec.seed

    def test_reruns_are_byte_identical(self, tmp_path):
        spec, bundle_a = self._bundle()
        _, bundle_b = self._bundle()
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        export_results(bundle_a, dir_a, spec)
        export_results(bundle_b, dir_b, spec)
        for name in (
            "utility_by_codebook.csv",
            "utility_vs_irs_size.csv",
            "min_transmission_delay.csv",
            "convergence_trace.csv",
            "manifest.json",
        ):
            assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False), name


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        scenario_yaml = tmp_path / "scn.yaml"
        scenario_yaml.write_text(
            """
geometry:
  ap_positions: [[2.0, 3.0, 2.5]]
  user_positions: [[5.0, 5.0, 1.5]]
  irs_panels: [{origin: [0.0, 4.0, 1.2], m_y: 4, m_z: 1}]
system:
  n_sc: 4
  nlos_penalty_db: 30.0
"""
        )
        code = main(
            [
                "run",
                "--scenario", str(scenario_yaml),
                "--output-dir", str(tmp_path / "out"),
                "--codebooks", "2x1",
                "--irs-sizes", "4",
                "--max-iter", "5",
                "--outer-rounds", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sum_utility" in out
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_probe_command(self, capsys):
        assert main(["probe", "--m-values", "2", "4", "--rcg-iters", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("m,phase_macs")
        assert len(out.strip().splitlines()) == 3

    def test_probe_prints_slopes_on_stderr(self, capsys):
        assert main(["probe", "--m-values", "2", "4", "--rcg-iters", "2"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 3
        err = captured.err.splitlines()
        assert [line.split(":")[0] for line in err] == [
            "phase-optimization MAC slope",
            "beamforming MAC slope",
        ]

    def test_unknown_codebook_spec(self):
        with pytest.raises(Exception):
            main(["run", "--codebooks", "nonsense"])


def test_external_trace_dataclass():
    trace = ExternalSnrTrace(((0, 1, 3.0),), source="x")
    assert trace.snr_linear(0, 1) == pytest.approx(10 ** 0.3)
