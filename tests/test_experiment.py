"""Sweep driver, SNR trace import/export, result bundles and the CLI."""

import ast
import contextlib
import csv
import dataclasses
import filecmp
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irslink
from irslink import channel, experiment
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
from irslink.scenario import (
    STOCK_CODEBOOKS,
    CodebookScenario,
    ConfigError,
    SystemParams,
    default_scenario,
)

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

    def test_missing_rows_named_before_the_run(self, tmp_path):
        def run(rows):
            src = tmp_path / "trace.csv"
            src.write_text("node_id,peer_id,snr_db\n" + "".join(f"{n},{p},10\n" for n, p in rows))
            spec = ExperimentSpec(
                codebooks=(CodebookScenario("2ant_1rf", 2, 1),),
                modes=("external_snr",),
                snr_csv_path=str(src),
            )
            with pytest.raises(ValueError) as exc:
                run_experiment(spec, scenario=small_scenario(0))
            prefix = f"{src}: no SNR rows for (node, peer) "
            assert str(exc.value).startswith(prefix)
            return ast.literal_eval(str(exc.value)[len(prefix):])

        # 4 users (0-3) + 2 APs (4, 5); every DL row but (1, 5) and (3, 4)
        dl = [(i, j) for i in range(4) for j in (4, 5)]
        assert run([r for r in dl if r not in ((1, 5), (3, 4))]) == [(1, 5), (3, 4)]
        # all 8 DL rows, no UL row: the UL row of each of the 4 served users
        missing = run(dl)
        assert sorted(peer for _, peer in missing) == [0, 1, 2, 3]
        assert all(node in (4, 5) for node, _ in missing)

    def test_missing_rows_fail_before_any_ao_run(self, tmp_path, monkeypatch):
        src = tmp_path / "trace.csv"
        src.write_text("node_id,peer_id,snr_db\n0,4,10\n")
        spec = ExperimentSpec(
            codebooks=(CodebookScenario("2ant_1rf", 2, 1),),
            modes=("with_irs", "external_snr"),
            snr_csv_path=str(src),
            optimizer_overrides=FAST,
        )

        def no_ao(*args, **kwargs):
            raise AssertionError("AO ran before the trace was checked")

        monkeypatch.setattr(experiment, "alternating_optimize", no_ao)
        with pytest.raises(ValueError, match="no SNR rows"):
            run_experiment(spec, scenario=small_scenario())

    def test_lookup_and_linear_conversion(self, tmp_path):
        trace = import_ns3_snr_csv(snr_fixture(tmp_path / "snr.csv"))
        assert trace.snr_linear([(0, 4), (5, 1)]) == pytest.approx([10 ** 1.4, 10 ** 0.6])
        with pytest.raises(ValueError, match=r"no SNR rows for \(node, peer\) \[\(0, 99\)\]$"):
            trace.snr_linear([(0, 4), (0, 99)])

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_snr_rejected_with_line_number(self, tmp_path, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"node_id,peer_id,snr_db\n0,4,10\n4,0,{value}\n")
        with pytest.raises(ValueError, match=f"line 3: snr_db must be finite, got '{value}'"):
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

    def test_negative_size_rejected(self):
        # not a scenario without panels, which a sweep would report as size -3
        message = r"^geometry\.irs_panels: element count must be >= 0, got -3$"
        with pytest.raises(ConfigError, match=message):
            with_irs_elements(default_scenario(), -3)

    def test_non_integer_size_rejected(self):
        message = r"^geometry\.irs_panels: element count must be an integer, got 2\.5$"
        with pytest.raises(ConfigError, match=message):
            with_irs_elements(default_scenario(), 2.5)

    @pytest.mark.parametrize("size", [True, False])
    def test_bool_size_rejected(self, size):
        # a bool is an int to Python, but no element count: True gave one element
        message = rf"^geometry\.irs_panels: element count must be an integer, got {size}$"
        with pytest.raises(ConfigError, match=message):
            with_irs_elements(default_scenario(), size)


class TestExperimentSpec:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="unknown modes"):
            ExperimentSpec(modes=("bogus",))
        with pytest.raises(ValueError, match="at least one mode"):
            ExperimentSpec(modes=())

    def test_external_snr_needs_csv(self):
        with pytest.raises(ValueError, match="requires snr_csv_path"):
            ExperimentSpec(modes=("external_snr",))

    @pytest.mark.parametrize("seed", [-1, 1.5, True, False])
    def test_seed_must_be_a_count(self, seed):
        # checked before the sweep starts, not in synthesis
        with pytest.raises(ConfigError, match=rf"^seed: must be an integer >= 0, got {seed}$"):
            ExperimentSpec(seed=seed)

    @pytest.mark.parametrize("size", [-1, 2.5, True])
    def test_irs_size_must_be_a_count(self, size):
        message = rf"^irs_sizes\[1\]: must be an integer >= 0, got {size}$"
        with pytest.raises(ConfigError, match=message):
            ExperimentSpec(irs_sizes=(24, size))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"codebooks": STOCK_CODEBOOKS[:1] * 2, "irs_sizes": (24,)},
             "codebooks: run 2ant_1rf_irs0_mean_gain_no_irs is asked for twice"),
            ({"codebooks": STOCK_CODEBOOKS[:1] * 2, "modes": ("external_snr",),
              "snr_csv_path": "trace.csv"},
             "codebooks: run 2ant_1rf_irs0_external_external_snr is asked for twice"),
            ({"irs_sizes": (0,), "modes": ("no_irs", "with_irs")},
             "irs_sizes: run 2ant_1rf_irs0_mean_gain_no_irs is asked for twice"),
            ({"irs_sizes": (24, 12, 24), "modes": ("with_irs", "min_gain")},
             "irs_sizes: run 2ant_1rf_irs24_min_gain_with_irs is asked for twice"),
        ],
        ids=["codebook", "external_codebook", "no_irs_size_0", "size"],
    )
    def test_repeated_run_key_rejected(self, kwargs, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ExperimentSpec(**kwargs)

    def test_distinct_runs_accepted(self):
        # sizes that only the unused with_irs mode would repeat name no run twice
        spec = ExperimentSpec(irs_sizes=(8, 8), modes=("no_irs", "mean_gain", "min_gain"))
        assert spec.irs_cases == [0]
        assert spec.aggregates == ["mean_gain", "min_gain"]

    def test_misspelled_optimizer_override_rejected(self):
        spec = ExperimentSpec(optimizer_overrides={"max_iters": 3})
        with pytest.raises(ValueError, match=r"unknown optimizer overrides: \['max_iters'\]"):
            run_experiment(spec, scenario=small_scenario())


_LINK_ARRAYS = ("dl_nlos", "dl_user_cols", "dl_ap_rows", "ul_nlos", "ul_user_amp",
                "ul_user_delay", "ul_user_steering", "ul_ap_amp", "ul_ap_delay", "ul_ap_steering")


def _sweep_calls(spec, scenario=None):
    """The (scenario, links) of every AO run of a sweep, and the scenario of
    every channel synthesis it made."""
    runs, synthesized = [], []
    ao, synthesize = experiment.alternating_optimize, channel.synthesize_links

    def recording_ao(scenario, **kwargs):
        runs.append((scenario, kwargs["links"]))
        return ao(scenario, **kwargs)

    def counting_synthesis(scenario, seed):
        synthesized.append(scenario)
        return synthesize(scenario, seed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "alternating_optimize", recording_ao)
        mp.setattr(channel, "synthesize_links", counting_synthesis)
        run_experiment(spec, scenario)
    return runs, synthesized


@pytest.fixture(scope="module")
def stock_sweep_calls():
    return _sweep_calls(ExperimentSpec(seed=3, optimizer_overrides=FAST))


@pytest.fixture(scope="module")
def two_size_sweep_calls():
    """Two antenna counts, no surface and surfaces of 8 and 24 elements, seed
    5, by delay mode (the real-decay UL gains are real, the phasor ones complex)."""
    by_name = {cb.name: cb for cb in STOCK_CODEBOOKS}
    spec = ExperimentSpec(codebooks=(by_name["2ant_1rf"], by_name["4ant_2rf"]),
                          irs_sizes=(8, 24), seed=5, optimizer_overrides=FAST)
    return {mode: _sweep_calls(spec, default_scenario(n_sc=8, delay_mode=mode))
            for mode in ("phasor", "real_decay")}


def _assert_links_equal_fresh(runs, seed):
    for scenario, links in runs:
        assert links.scenario is scenario and links.seed == seed
        fresh = channel.synthesize_links(scenario, seed)
        for name in _LINK_ARRAYS:
            got, want = getattr(links, name), getattr(fresh, name)
            assert (got.shape, got.dtype) == (want.shape, want.dtype), name
            np.testing.assert_array_equal(got, want)


class TestRunExperiment:
    def test_one_synthesis_per_antenna_count_and_irs_size(self, stock_sweep_calls):
        runs, synthesized = stock_sweep_calls
        assert len(runs) == 12
        # the RF-chain count is not a channel input, and a surface size shares
        # the direct hops of the first size: one synthesis per antenna count,
        # of the first size (no surface)
        assert len(synthesized) == 3
        assert [(sc.params.n_t, sc.n_irs_elements) for sc in synthesized] == [
            (2, 0), (4, 0), (8, 0)]

    def test_shared_links_equal_fresh_links(self, stock_sweep_calls, two_size_sweep_calls):
        runs, _ = stock_sweep_calls
        assert {(sc.params.n_t, sc.params.n_rf) for sc, _ in runs} == {
            (cb.n_t, cb.n_rf) for cb in STOCK_CODEBOOKS}
        _assert_links_equal_fresh(runs, 3)
        for runs, _ in two_size_sweep_calls.values():
            assert [sc.n_irs_elements for sc, _ in runs] == [0, 8, 24] * 2
            _assert_links_equal_fresh(runs, 5)

    def test_surface_sizes_share_the_first_size_direct_hops(self, two_size_sweep_calls):
        for runs, synthesized in two_size_sweep_calls.values():
            assert [(sc.params.n_t, sc.n_irs_elements) for sc in synthesized] == [(2, 0), (4, 0)]
            for first, *others in (runs[:3], runs[3:]):
                for _, links in others:
                    assert links.dl_nlos is first[1].dl_nlos and links.ul_nlos is first[1].ul_nlos

    def test_shared_links_are_checked_once_at_synthesis(self, monkeypatch):
        checks = []
        post_init = channel.LinkChannels.__post_init__
        monkeypatch.setattr(channel.LinkChannels, "__post_init__",
                            lambda self: checks.append(self) or post_init(self))
        by_name = {cb.name: cb for cb in STOCK_CODEBOOKS}
        spec = ExperimentSpec(codebooks=(by_name["2ant_1rf"], by_name["2ant_2rf"]),
                              optimizer_overrides=FAST)
        bundle = run_experiment(spec, scenario=small_scenario())
        assert len(bundle) == 4  # two codebooks x {no surface, 24 elements}
        # one check per surface size: the synthesis with no surface, and the
        # 24-element links built on its direct hops; the second codebook
        # shares both
        assert len(checks) == 2

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

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--max-iter", "0"], "optimizer.max_iter: must be >= 1"),
            (["--scenario", "{scenario}"], "geometry.user_positions[0]: outside bounds"),
            (["--irs-sizes", "-1"], "irs_sizes[0]: must be an integer >= 0, got -1"),
            (["--codebooks", "2ant_1rf", "2ant_1rf"],
             "codebooks: run 2ant_1rf_irs0_mean_gain_no_irs is asked for twice"),
            (["--irs-sizes", "0", "--modes", "no_irs", "with_irs"],
             "irs_sizes: run 2ant_1rf_irs0_mean_gain_no_irs is asked for twice"),
            (["--seed", "-1"], "seed: must be an integer >= 0, got -1"),
            (["--epsilon", "inf"], "optimizer.epsilon: must be finite"),
        ],
        ids=["max_iter", "scenario", "negative_irs_size", "repeated_codebook", "repeated_size",
             "negative_seed", "infinite_epsilon"],
    )
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, args, message):
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(
            "geometry:\n  ap_positions: [[2.0, 3.0, 2.5]]\n  user_positions: [[50.0, 5.0, 1.5]]\n"
        )
        argv = ["run", "--output-dir", str(tmp_path / "out")]
        argv += [a.format(scenario=scenario) for a in args]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"irslink: error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_overflowing_noise_power_is_one_error_line(self, tmp_path, capsys):
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(
            "geometry:\n  ap_positions: [[2.0, 3.0, 2.5]]\n  user_positions: [[5.0, 5.0, 1.5]]\n"
            "system: {noise_figure_db: 4000.0}\n"
        )
        argv = ["run", "--scenario", str(scenario), "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("irslink: error: system.noise_figure_db: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_subnormal_noise_power_names_the_bandwidth(self, tmp_path, capsys):
        # a noise power of about 2e-320 W used to load, warn of an overflow in
        # the initial association and fail with "rate table must be finite"
        stock = Path(__file__).resolve().parents[1] / "configs" / "indoor_room.yaml"
        text = stock.read_text()
        assert "bandwidth: 2.16e+9\n" in text
        scenario = tmp_path / "tiny_bandwidth.yaml"
        scenario.write_text(text.replace("bandwidth: 2.16e+9\n", "bandwidth: 1.0e-300\n"))
        argv = ["run", "--scenario", str(scenario), "--max-iter", "3", "--outer-rounds", "1",
                "--output-dir", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("irslink: error: system.bandwidth: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_noise_power_overflowing_the_gradient_names_the_bandwidth(self, tmp_path, capsys):
        # a noise power of about 2e280 W used to overflow the gradient's squared
        # SINR denominators: a traceback under -W error, and otherwise a zero
        # gradient and an infinite min_d_t
        stock = Path(__file__).resolve().parents[1] / "configs" / "indoor_room.yaml"
        text = stock.read_text()
        assert "bandwidth: 2.16e+9\n" in text
        scenario = tmp_path / "huge_bandwidth.yaml"
        scenario.write_text(text.replace("bandwidth: 2.16e+9\n", "bandwidth: 1.0e+300\n"))
        argv = ["run", "--scenario", str(scenario), "--codebooks", "2ant_1rf", "--max-iter", "3",
                "--outer-rounds", "1", "--output-dir", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("irslink: error: system.bandwidth: the noise power ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_short_hop_whose_amplitude_overflows_names_the_exponent(self, tmp_path, capsys):
        # a user 0.5 m below the AP: at this exponent the direct hop's path
        # loss is a gain that overflowed in channel._amp_delay, a traceback
        # under -W error
        scenario = tmp_path / "short_hop.yaml"
        scenario.write_text(
            "geometry:\n  ap_positions: [[2.0, 3.0, 2.5]]\n  user_positions: [[2.0, 3.0, 2.0]]\n"
            "system: {pathloss_exponent: 1.0e+300}\n"
        )
        argv = ["run", "--scenario", str(scenario), "--output-dir", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("irslink: error: system.pathloss_exponent: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_more_streams_than_user_antennas_is_one_error_line(self, tmp_path, capsys):
        # it used to load, synthesize every link and fail in the beamformer
        # design with "stream count exceeds projected channel rank bound"
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(
            "geometry:\n  ap_positions: [[2.0, 3.0, 2.5]]\n  user_positions: [[5.0, 5.0, 1.5]]\n"
            "system: {n_s: 2}\n"
        )
        argv = ["run", "--scenario", str(scenario), "--codebooks", "4ant_2rf",
                "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "irslink: error: system.n_s: streams cannot exceed user antennas\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_codebook_spec(self, capsys):
        for token in ("nonsense", "8xq", "8x9"):
            with pytest.raises(SystemExit) as exc:
                main(["run", "--codebooks", "2x1", token])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: irslink run")
            assert err.endswith(
                f"irslink run: error: argument --codebooks: unknown codebook spec: {token!r}\n"
            )

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--m-values", "0"], "argument --m-values: must be an integer >= 1, got '0'"),
            (["--rcg-iters", "0"], "argument --rcg-iters: must be an integer >= 1, got '0'"),
            (["--m-values", "16", "8"], "argument --m-values: must be ascending, got 16 8"),
        ],
        ids=["m_values_zero", "rcg_iters_zero", "m_values_descending"],
    )
    def test_bad_probe_flag_is_a_usage_error(self, capsys, args, message):
        with pytest.raises(SystemExit) as exc:
            main(["probe", *args])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: irslink probe")
        assert captured.err.endswith(f"irslink probe: error: {message}\n")


# ROADMAP item 10's values for a mutated field: zero, negative, huge of either sign, tiny,
# small, not finite, and every wrong YAML kind
_FUZZ_VALUES = [0, -1, 1e300, -1e300, 1e-300, 1e-100, 1e-9, float("nan"), float("inf"),
                float("-inf"), "text", None, True, [1.0], {"a": 1.0}]
_SYSTEM_FIELDS = [f.name for f in dataclasses.fields(SystemParams)]


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(_SYSTEM_FIELDS), st.sampled_from(_FUZZ_VALUES),
                       min_size=1, max_size=2))
def test_mutated_system_fields_fail_loudly_or_run_finite(mutation):
    """One or two ``system`` fields of the stock scenario file set to a bad or
    extreme value: the run either exits 0 with finite results or exits 2 with
    one error line that names a ``system`` field.

    Two outcomes are results, not failures. An IRS panel without a spacing
    takes half the DL wavelength, so a mutated ``carrier_dl`` may fail on
    that panel's ``geometry.irs_panels[k]`` path. And ``min_d_t`` is the
    smallest finite transmission delay, infinite when every needed rate
    rounds to zero; that run then has no utility either.
    """
    import yaml

    stock = Path(__file__).resolve().parents[1] / "configs" / "indoor_room.yaml"
    document = yaml.safe_load(stock.read_text())
    document["system"].update(mutation)
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = Path(tmp) / "mutated.yaml", Path(tmp) / "out"
        scenario.write_text(yaml.safe_dump(document))
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main(["run", "--scenario", str(scenario), "--codebooks", "2ant_1rf",
                         "--max-iter", "3", "--outer-rounds", "1", "--output-dir", str(out)])
        if code == 2:
            paths = r"system\.\w+" + (r"|geometry\.irs_panels\[\d+\]" if "carrier_dl" in mutation
                                       else "")
            assert re.fullmatch(rf"irslink: error: ({paths}): .*\n", stderr.getvalue()), \
                stderr.getvalue()
            return
        assert code == 0, stderr.getvalue()
        utility = {tuple(row[:4]): float(row[4])
                   for row in _csv_rows(out / "utility_by_codebook.csv")}
        for path in out.glob("*.csv"):
            for row in _csv_rows(path):
                for k, cell in enumerate(row):
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    if path.name == "min_transmission_delay.csv" and k == 4 and value == np.inf:
                        assert utility[tuple(row[:4])] == 0.0, row
                        continue
                    assert np.isfinite(value), (path.name, row)


def _csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))[1:]


def test_external_trace_dataclass():
    trace = ExternalSnrTrace(((0, 1, 3.0),), source="x")
    assert trace.snr_linear([(0, 1)]) == pytest.approx([10 ** 0.3])


def test_start_up_imports_neither_scipy_nor_yaml():
    """The entry-point modules load without the association solver's old
    scipy dependency and without pyyaml, which only a document read needs."""
    code = (
        "import sys, irslink.cli, irslink.experiment, irslink.optimizer; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'yaml'}))"
    )
    src = str(Path(irslink.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
