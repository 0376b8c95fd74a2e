"""SINR, rate, delay and utility oracles (hand-computed scalar instances),
the column-wise SINRs against the per-pair loops they replaced, and the
columnar utility report against the row-by-row code it replaced."""

import math
import warnings
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from irslink import metrics
from irslink.beamforming import build_analog_codebook
from irslink.channel import synthesize_links
from irslink.experiment import (
    ExperimentSpec,
    _run_external_snr,
    export_results,
    import_ns3_snr_csv,
    run_experiment,
)
from irslink.metrics import (
    DelayBreakdown,
    SinrBreakdown,
    UtilityRow,
    conditional_utility,
    processing_delay,
    queuing_delay,
    rate,
    routing_utility,
    sinr_dl,
    sinr_ul,
    tracking_error_model,
    transmission_delay,
    utility_report,
)
from irslink.optimizer import (
    DlRateObjective,
    _design_all_beamformers,
    _dl_gain_table,
    _evaluate,
    _initial_assignment,
    _ul_gains,
    alternating_optimize,
)
from irslink.scenario import (
    STOCK_CODEBOOKS,
    Assignment,
    Box,
    Scenario,
    SystemParams,
    associate_users,
    default_scenario,
    with_codebook,
)


def _metric_scenario(n_users=1, n_aps=1, n_sc=1, **overrides):
    overrides.setdefault("noise_power", 1.0)
    overrides.setdefault("p_ap", 1.0)
    overrides.setdefault("p_user", 1.0)
    overrides.setdefault("r_min", 0.0)
    params = SystemParams(n_t=1, n_r=1, n_rf=1, n_s=1, n_sc=n_sc, v_cap=4, **overrides)
    return Scenario(
        ap_positions=np.array([[1.0 + j, 1.0, 2.0] for j in range(n_aps)]),
        user_positions=np.array([[1.0, 2.0 + i, 1.5] for i in range(n_users)]),
        irs_panels=(),
        bounds=Box((0, 0, 0), (20, 20, 3)),
        params=params,
    )


class TestSinrDl:
    def test_unit_case(self):
        sc = _metric_scenario()
        gains = np.ones((1, 1, 1, 1))
        out = sinr_dl(sc, Assignment((0,), (False,)), gains)
        assert out[(0, 0)].sinr == pytest.approx(1.0)

    def test_zero_power_means_zero_sinr(self):
        assert SinrBreakdown(0.0, 0.0, 0.0, 1.0).sinr == 0.0

    def test_two_cell_scalar_oracle(self):
        # 2 users, 2 APs, one user each; hand-set effective power gains
        sc = _metric_scenario(n_users=2, n_aps=2, noise_power=0.5, p_ap=2.0)
        gains = np.full((2, 2, 2, 1), np.nan)
        gains[0, 0, 0] = 0.8  # serving link of user 0
        gains[0, 1, 1] = 0.1  # inter-cell interference at user 0
        gains[1, 1, 1] = 0.6
        gains[1, 0, 0] = 0.3
        assignment = Assignment((0, 1), (False, False))
        out = sinr_dl(sc, assignment, gains)
        assert out[(0, 0)].sinr == pytest.approx(2.0 * 0.8 / (0.5 + 2.0 * 0.1), abs=1e-12)
        assert out[(1, 1)].sinr == pytest.approx(2.0 * 0.6 / (0.5 + 2.0 * 0.3), abs=1e-12)

    def test_intra_cell_interference(self):
        sc = _metric_scenario(n_users=2, n_aps=1)
        gains = np.full((2, 1, 2, 1), np.nan)
        gains[0, 0, 0] = 1.0
        gains[0, 0, 1] = 0.25  # co-served user's precoder leaking onto user 0
        gains[1, 0, 1] = 1.0
        gains[1, 0, 0] = 0.5
        out = sinr_dl(sc, Assignment((0, 0), (False, False)), gains)
        b = out[(0, 0)]
        assert b.intra_interference == pytest.approx(0.25)
        assert b.inter_interference == 0.0
        assert b.sinr == pytest.approx(1.0 / 1.25)

    def test_min_aggregate_uses_worst_subcarrier(self):
        sc = _metric_scenario(n_sc=3)
        gains = np.zeros((1, 1, 1, 3))
        gains[0, 0, 0] = [1.0, 4.0, 7.0]
        assignment = Assignment((0,), (False,))
        mean = sinr_dl(sc, assignment, gains, signal_aggregate="mean")[(0, 0)]
        worst = sinr_dl(sc, assignment, gains, signal_aggregate="min")[(0, 0)]
        assert mean.signal == pytest.approx(4.0)
        assert worst.signal == pytest.approx(1.0)
        assert worst.sinr <= mean.sinr

    def test_missing_interferer_rejected(self):
        sc = _metric_scenario(n_users=2, n_aps=1)
        gains = np.full((2, 1, 2, 1), np.nan)
        gains[0, 0, 0] = 1.0
        gains[1, 0, 1] = 1.0
        with pytest.raises(ValueError, match="missing interferer"):
            sinr_dl(sc, Assignment((0, 0), (False, False)), gains)

    def test_bad_aggregate(self):
        sc = _metric_scenario()
        with pytest.raises(ValueError, match="signal_aggregate"):
            sinr_dl(sc, Assignment((0,), (False,)), np.ones((1, 1, 1, 1)), "median")


class TestSinrUl:
    def test_symmetric_two_user_case(self):
        sc = _metric_scenario(n_users=2, n_aps=2)
        ul = np.zeros((2, 2, 1))
        ul[0, 0] = ul[1, 1] = 0.9
        ul[0, 1] = ul[1, 0] = 0.2
        out = sinr_ul(sc, Assignment((0, 1), (False, False)), ul)
        assert out.shape == (2, 1)
        np.testing.assert_allclose(out[0], out[1])

    def test_noise_scaling(self):
        gains = np.full((1, 1, 2), 0.5)
        a = sinr_ul(_metric_scenario(n_sc=2, noise_power=1.0), Assignment((0,), (False,)), gains)
        b = sinr_ul(_metric_scenario(n_sc=2, noise_power=2.0), Assignment((0,), (False,)), gains)
        np.testing.assert_allclose(a, 2.0 * b)

    def test_three_node_scalar_oracle(self):
        # users 0,1 at AP 0; user 2 at AP 1; all interfere at AP 0
        sc = _metric_scenario(n_users=3, n_aps=2, noise_power=0.25, p_user=2.0)
        ul = np.zeros((3, 2, 1))
        ul[0, 0] = 1.0
        ul[1, 0] = 0.5
        ul[2, 0] = 0.125
        ul[1, 1] = ul[2, 1] = 0.3
        assignment = Assignment((0, 0, 1), (False,) * 3)
        expected = 2.0 * 1.0 / (0.25 + 2.0 * 0.5 + 2.0 * 0.125)
        assert sinr_ul(sc, assignment, ul)[0, 0] == pytest.approx(expected, abs=1e-12)
        b = reference_sinr_ul(sc, assignment, ul)[(0, 0)]
        assert b.sinr[0] == pytest.approx(expected, abs=1e-12)
        assert b.intra_interference[0] == pytest.approx(1.0)
        assert b.inter_interference[0] == pytest.approx(0.25)

    def test_missing_interferer_rejected(self):
        sc = _metric_scenario(n_users=2, n_aps=2, n_sc=2)
        ul = np.ones((2, 2, 2))
        ul[1, 0, 1] = np.nan  # user 1 at AP 0, which serves user 0
        with pytest.raises(ValueError, match=r"in UL gain table at \(1, 0\)$"):
            sinr_ul(sc, Assignment((0, 1), (False, False)), ul)


class TestRate:
    def test_zero_sinr(self):
        assert rate(0.0, 2.16e9) == 0.0

    def test_log2_of_two(self):
        assert rate(1.0, 1.0) == pytest.approx(1.0)

    def test_hand_value(self):
        assert rate(3.0, 2.16e9) == pytest.approx(4.32e9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rate(-0.1, 1.0)

    @given(st.floats(0.0, 1e6), st.floats(1e-3, 1e3))
    def test_strictly_increasing(self, s, bw):
        assert rate(s + 1.0, bw) > rate(s, bw)


class TestDelays:
    def test_transmission_hand_value(self):
        assert transmission_delay(1e6, 1e3, 1e9, 1e6) == pytest.approx(2e-3)

    def test_one_way_only(self):
        assert transmission_delay(1e6, 0.0, 1e9, 0.0) == pytest.approx(1e-3)

    def test_zero_rate_is_infeasible(self):
        assert math.isinf(transmission_delay(1e6, 1.0, 0.0, 1e6))

    def test_overflowing_delay_is_infinite_without_a_warning(self):
        # a rate of 1e-305 bit/s (as from a 1e-300 Hz band) used to warn of
        # an overflow in the division; the delay is infinite, as at a zero rate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert transmission_delay(1e6, 1.0, 1e-305, 1e6) == math.inf
            assert transmission_delay(1e300, 1e300, 1e-10, 1e-10) == math.inf

    def test_processing_payload_clamps_an_overflowed_product(self):
        p = SystemParams(v_bits=1e300, m_proc=1e9, s_i=100.0, tracking_e0=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert processing_delay(1e300, p) == 100.0 / 1e9

    def test_processing_zero_error(self):
        assert processing_delay(0.0, SystemParams()) == 0.0

    def test_processing_hand_value(self):
        p = SystemParams(v_bits=5.0, m_proc=1e9)
        assert processing_delay(100.0, p, users_served=2) == pytest.approx(1e-6)

    def test_processing_payload_clamps(self):
        p = SystemParams(v_bits=5.0, m_proc=1e9, s_i=100.0)
        assert processing_delay(1e12, p) == pytest.approx(100.0 / 1e9)

    def test_processing_validation(self):
        with pytest.raises(ValueError):
            processing_delay(-1.0, SystemParams())

    def test_queuing_stock_values(self):
        assert queuing_delay(4e-9, 2e-9) == pytest.approx(5e8)

    def test_queuing_identity(self):
        lam = 0.125
        assert queuing_delay(2 * lam, lam) == pytest.approx(1.0 / lam)

    def test_queuing_grows_toward_instability(self):
        gaps = [1.0, 0.1, 0.01, 0.001]
        delays = [queuing_delay(1.0 + g, 1.0) for g in gaps]
        assert all(a < b for a, b in zip(delays, delays[1:]))

    def test_queuing_instability(self):
        with pytest.raises(ValueError, match="stability"):
            queuing_delay(1.0, 1.0)

    def test_total_delay_sum(self):
        d = DelayBreakdown(1.0, 2.0, 3.0)
        assert d.total == 6.0
        assert d.feasible

    def test_infinite_component_infeasible(self):
        assert not DelayBreakdown(math.inf, 0.0, 0.0).feasible


class TestUtilities:
    def test_conditional_boundaries_exact(self):
        assert conditional_utility(10.0, 10.0, 2.0) == 0.0
        assert conditional_utility(2.0, 10.0, 2.0) == 1.0

    def test_conditional_midpoint(self):
        assert conditional_utility(6.0, 10.0, 2.0) == pytest.approx(0.5)

    def test_conditional_below_gamma(self):
        assert conditional_utility(0.5, 10.0, 2.0) == 1.0

    def test_conditional_degenerate_dmax(self):
        assert conditional_utility(1.0, 1.0, 2.0) == 1.0
        assert conditional_utility(3.0, 1.0, 2.0) == 0.0

    @given(
        st.floats(0.0, 100.0),
        st.floats(0.0, 100.0),
        st.floats(1e-6, 10.0),
    )
    def test_conditional_in_unit_interval(self, d, d_max, gamma):
        assert 0.0 <= conditional_utility(d, d_max, gamma) <= 1.0

    def test_routing_hand_vector(self):
        np.testing.assert_allclose(
            routing_utility(np.array([1.0, 2.0, 4.0])), [0.75, 0.5, 0.0]
        )

    def test_routing_equal_errors_all_zero(self):
        # 1 - e/e = 0 everywhere; the normalization artifact is kept literal
        np.testing.assert_array_equal(routing_utility(np.full(4, 2.5)), 0.0)

    def test_routing_zero_errors_all_one(self):
        np.testing.assert_array_equal(routing_utility(np.zeros(3)), 1.0)

    def test_tracking_error_anchors(self):
        assert tracking_error_model(0.0, e0=2.0) == pytest.approx(2.0)
        assert tracking_error_model(1e12) == pytest.approx(0.0, abs=1e-9)

    def test_tracking_error_monotone(self):
        grid = tracking_error_model(np.linspace(0.0, 100.0, 64))
        assert np.all(np.diff(grid) < 0)

    def test_tracking_error_rejects_negative(self):
        with pytest.raises(ValueError):
            tracking_error_model(-1.0)


class TestUtilityReport:
    def _report(self, seed=0):
        sc = default_scenario()
        res = alternating_optimize(sc, seed=seed)
        return res.report

    def test_row_invariants(self):
        report = self._report()
        for r in report.rows:
            assert 0.0 <= r.conditional_utility <= 1.0
            assert 0.0 <= r.routing_utility <= 1.0
            assert r.total_utility == r.conditional_utility * r.routing_utility
            assert r.delay.total == (
                r.delay.transmission + r.delay.processing + r.delay.queuing
            )

    def test_rows_cover_served_users(self):
        report = self._report()
        sc = default_scenario()
        assert {r.user for r in report.rows} == set(range(sc.n_users))
        assert len(report.rows) == sc.n_users * sc.params.n_sc

    def test_end_to_end_regression(self):
        # frozen from the first verified run of the stock scenario (seed 0)
        report = self._report(seed=0)
        row = report.rows[0]
        assert row.delay.queuing == pytest.approx(5e8)
        assert row.delay.transmission == pytest.approx(1.945121248056e-05, rel=1e-9)
        assert row.delay.processing == pytest.approx(8.746561179347e-09, rel=1e-9)
        assert row.rate_dl == pytest.approx(632201672.021, rel=1e-9)
        assert min(r.delay.transmission for r in report.rows) == pytest.approx(
            1.515527954843e-05, rel=1e-9
        )


# --- oracle: the per-pair SINR loops that sinr_dl / sinr_ul replaced --------


def _ref_used_gain(gains, index, label):
    values = gains[index]
    if np.any(np.isnan(values)):
        raise ValueError(f"missing interferer channel in {label} gain table at {index}")
    return values


def _ref_sum(values):
    # left to right, as Python < 3.12 sum() adds floats
    total = 0.0
    for v in values:
        total += v
    return total


def reference_sinr_dl(scenario, assignment, eff_gains, signal_aggregate="mean"):
    """Per served (user, AP) DL breakdown, pair by pair: interferers summed in
    ``assignment.owners`` order, intra-cell and inter-cell apart."""
    p = scenario.params
    agg = np.mean if signal_aggregate == "mean" else np.min
    out = {}
    for i, j in assignment.served:
        signal = p.p_ap * float(agg(_ref_used_gain(eff_gains, (i, j, i), "DL")))
        intra = _ref_sum(
            p.p_ap * float(np.mean(_ref_used_gain(eff_gains, (i, j, l), "DL")))
            for b, l in assignment.owners
            if b == j and l != i
        )
        inter = _ref_sum(
            p.p_ap * float(np.mean(_ref_used_gain(eff_gains, (i, b, l), "DL")))
            for b, l in assignment.owners
            if b != j
        )
        out[(i, j)] = SinrBreakdown(signal, intra, inter, p.sigma2)
    return out


@dataclass(frozen=True)
class UlSinrBreakdown:
    """Per-subcarrier UL signal/interference decomposition for one (user, AP)."""

    signal: np.ndarray  # Watts, (n_sc,)
    intra_interference: np.ndarray
    inter_interference: np.ndarray
    noise: float

    @property
    def sinr(self) -> np.ndarray:
        return self.signal / (self.noise + self.intra_interference + self.inter_interference)


def reference_sinr_ul(scenario, assignment, ul_gains):
    """Per served (user, AP) per-subcarrier UL breakdown, pair by pair: every
    other served user interferes at the receiving AP, in served order."""
    p = scenario.params
    out = {}
    for i, j in assignment.served:
        signal = p.p_user * _ref_used_gain(ul_gains, (i, j), "UL")
        intra = np.zeros(p.n_sc)
        inter = np.zeros(p.n_sc)
        for l, b in assignment.served:
            if l == i:
                continue
            if b == j:
                intra += p.p_user * _ref_used_gain(ul_gains, (l, j), "UL")
            else:
                inter += p.p_user * _ref_used_gain(ul_gains, (l, j), "UL")
        out[(i, j)] = UlSinrBreakdown(signal, intra, inter, p.sigma2)
    return out


def _assert_sinrs_match_reference(scenario, assignment, table, ul, aggregate):
    """sinr_dl and sinr_ul on a DL gain table and UL gains equal the per-pair
    loops byte for byte; returns the reference breakdowns."""
    ref_dl = reference_sinr_dl(scenario, assignment, table, aggregate)
    dl = sinr_dl(scenario, assignment, table, aggregate)
    assert list(dl) == list(ref_dl)
    assert (np.array([astuple(b) for b in dl.values()]).tobytes()
            == np.array([astuple(b) for b in ref_dl.values()]).tobytes())
    ref_ul = reference_sinr_ul(scenario, assignment, ul)
    columns = np.array([ref_ul[pair].sinr for pair in assignment.served])
    got = sinr_ul(scenario, assignment, ul)
    assert got.shape == (len(assignment.served), scenario.params.n_sc)
    assert got.tobytes() == columns.tobytes()
    return ref_dl, ref_ul


# --- oracle: the row-by-row report that utility_report replaced -------------


def _ref_transmission(s_i, a_i, rate_dl, rate_ul):
    dl_part = s_i / rate_dl if rate_dl > 0 else (math.inf if s_i > 0 else 0.0)
    ul_part = a_i / rate_ul if rate_ul > 0 else (math.inf if a_i > 0 else 0.0)
    return dl_part + ul_part


def _ref_processing(err, p, served):
    return min(max(p.v_bits * err, 0.0), p.s_i) / (p.m_proc / max(served, 1))


def _ref_conditional(d, d_max, gamma):
    if d < gamma:
        return 1.0
    if d_max <= gamma:
        return 1.0 if d <= gamma else 0.0
    return float(np.clip((d_max - d) / (d_max - gamma), 0.0, 1.0))


def _ref_routing(errors):
    peak = errors.max()
    return np.ones_like(errors) if peak <= 0 else 1.0 - errors / peak


def reference_utility_report(scenario, assignment, dl_sinr, ul_sinr):
    """One UtilityRow per served (user, AP, subcarrier), built with scalar
    arithmetic from the SINR tables; returns (rows, sum utility)."""
    p = scenario.params
    d_q = 1.0 / (p.mu_j - p.lambda_i)
    rows = []
    for (i, j), breakdown in sorted(dl_sinr.items()):
        rate_dl = rate(breakdown.sinr, p.bandwidth)
        ul_values = ul_sinr[(i, j)].sinr
        rates_ul = rate(ul_values, p.bandwidth)
        errors = p.tracking_e0 / (1.0 + ul_values)
        served = assignment.user_to_ap.count(j)
        delays = [
            DelayBreakdown(
                _ref_transmission(p.s_i, p.a_i, rate_dl, rates_ul[n]),
                _ref_processing(errors[n], p, served),
                d_q,
            )
            for n in range(len(ul_values))
        ]
        totals = np.array([d.total for d in delays])
        finite = totals[np.isfinite(totals)]
        d_max = float(finite.max()) if finite.size else math.inf
        u_route = _ref_routing(errors)
        for n, d in enumerate(delays):
            feasible = d.feasible and not assignment.infeasible[i]
            u_cond = _ref_conditional(d.total, d_max, p.gamma_d) if d.feasible else 0.0
            rows.append(
                UtilityRow(i, j, n, rate_dl, float(rates_ul[n]), d,
                           u_cond if feasible else 0.0,
                           float(u_route[n]) if feasible else 0.0, feasible)
            )
    return tuple(rows), _ref_sum(r.total_utility for r in rows)


def reference_external_snr(scenario, trace):
    """The external-SNR chain row by row: association on imported DL rates,
    one row per served pair whose delay is its own d_max."""
    p = scenario.params
    U, B = scenario.n_users, scenario.n_aps
    dl_rates = np.zeros((U, B))
    for i in range(U):
        for j in range(B):
            (snr,) = trace.snr_linear([(i, U + j)])
            dl_rates[i, j] = rate(snr, p.bandwidth)
    assignment = associate_users(scenario, dl_rates)
    rows = []
    for i, j in assignment.served:
        (sinr_ul_value,) = trace.snr_linear([(U + j, i)])
        rate_ul = rate(sinr_ul_value, p.bandwidth)
        err = p.tracking_e0 / (1.0 + sinr_ul_value)
        d = DelayBreakdown(
            _ref_transmission(p.s_i, p.a_i, dl_rates[i, j], rate_ul),
            _ref_processing(err, p, assignment.user_to_ap.count(j)),
            1.0 / (p.mu_j - p.lambda_i),
        )
        feasible = d.feasible and not assignment.infeasible[i]
        u_cond = _ref_conditional(d.total, d.total, p.gamma_d)
        u_route = float(_ref_routing(np.array([err]))[0])
        rows.append(
            UtilityRow(i, j, 0, dl_rates[i, j], rate_ul, d, u_cond if feasible else 0.0,
                       u_route if feasible else 0.0, feasible)
        )
    return tuple(rows), _ref_sum(r.total_utility for r in rows)


def _final_state(scenario, seed, codebook=None, infeasible=None):
    """Links, association, random phases and beamformers: a report's inputs."""
    if codebook is not None:
        scenario = with_codebook(scenario, codebook)
    p = scenario.params
    links = synthesize_links(scenario, seed)
    rng = np.random.default_rng(seed)
    coeffs = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, scenario.n_irs_elements))
    assignment = _initial_assignment(scenario, links, coeffs)
    if infeasible is not None:
        assignment = Assignment(assignment.user_to_ap, infeasible)
    tx = build_analog_codebook(p.n_t, p.n_rf, beam_grid=16)
    rx = build_analog_codebook(p.n_r, min(p.n_r, p.n_s), beam_grid=1)
    beamformers = _design_all_beamformers(scenario, links, assignment, coeffs, tx, rx)
    return scenario, links, assignment, coeffs, beamformers


def _assert_matches_reference(report, reference):
    rows, total = reference
    assert report.rows == rows
    assert report.sum_utility == total
    finite = [r.delay.transmission for r in rows if math.isfinite(r.delay.transmission)]
    assert report.min_transmission_delay == (min(finite) if finite else math.inf)


def _check_evaluate(scenario, seed, aggregate="mean", codebook=None, infeasible=None):
    scenario, links, assignment, coeffs, bfs = _final_state(scenario, seed, codebook, infeasible)
    report, dl = _evaluate(scenario, links, assignment, coeffs, bfs, aggregate)
    _, gains = DlRateObjective(links, assignment, bfs)._effective(coeffs)
    table = _dl_gain_table(links, assignment, gains)
    ref_dl, ref_ul = _assert_sinrs_match_reference(
        scenario, assignment, table, _ul_gains(links, coeffs), aggregate)
    assert dl == ref_dl
    reference = reference_utility_report(scenario, assignment, ref_dl, ref_ul)
    _assert_matches_reference(report, reference)
    return report


def _check_tables(scenario, assignment, dl, ul):
    """utility_report on hand-made SINR tables against the reference."""
    bw = scenario.params.bandwidth
    rate_dl = np.array([rate(b.sinr, bw) for b in dl.values()])
    cols = np.array([ul[pair].sinr for pair in dl])
    report = utility_report(scenario, assignment, rate_dl, cols)
    _assert_matches_reference(report, reference_utility_report(scenario, assignment, dl, ul))
    return report


QUEUE = {"lambda_i": 2e3, "mu_j": 4e3}


class TestColumnarReportOracle:
    """sinr_dl and sinr_ul equal the per-pair loops, and utility_report and
    the external-SNR run the row-by-row code, bit for bit: every SINR term,
    every row, the sum utility and the minimum transmission delay."""

    @pytest.mark.parametrize("aggregate", ["mean", "min"])
    def test_stock_seeds_and_codebooks(self, aggregate):
        for seed in range(8):
            for cb in STOCK_CODEBOOKS:
                _check_evaluate(default_scenario(), seed, aggregate, cb)

    @pytest.mark.parametrize("aggregate", ["mean", "min"])
    def test_finite_queue(self, aggregate):
        for seed in range(8):
            report = _check_evaluate(default_scenario(**QUEUE), seed, aggregate)
            assert report.sum_utility > 1.0

    def test_unserved_and_infeasible_users(self):
        report = _check_evaluate(default_scenario(v_cap=1, **QUEUE), 0)
        assert len(report.users) == 2
        report = _check_evaluate(default_scenario(**QUEUE), 1,
                                 infeasible=(False, True, False, False))
        assert not report.feasible[1].any() and report.feasible[0].all()

    def test_no_served_pair(self):
        sc = default_scenario(n_sc=4)
        links = synthesize_links(sc, seed=0)
        nobody = Assignment((-1,) * sc.n_users, (False,) * sc.n_users)
        coeffs = np.ones(sc.n_irs_elements, dtype=complex)
        report, dl = _evaluate(sc, links, nobody, coeffs, {}, "mean")
        assert dl == {}
        assert report.rate_dl.shape == (0,) and report.rate_ul.shape == (0, 4)
        assert report.sum_utility == 0.0 and report.rows == ()

    @pytest.mark.parametrize("band", ["DL", "UL"])
    def test_missing_entry_rejected_as_the_reference_does(self, band):
        # one NaN in a used entry: both name that entry, whichever sum meets it
        scenario, links, assignment, coeffs, bfs = _final_state(default_scenario(n_sc=4), 0)
        _, gains = DlRateObjective(links, assignment, bfs)._effective(coeffs)
        table, ul = _dl_gain_table(links, assignment, gains), _ul_gains(links, coeffs)
        (i, j), (l, b) = assignment.served[0], assignment.served[-1]
        if band == "DL":
            table[i, b, l, 2] = np.nan
            calls = (sinr_dl, reference_sinr_dl)
        else:
            ul[l, j, 2] = np.nan
            calls = (sinr_ul, reference_sinr_ul)
        messages = []
        for call in calls:
            with pytest.raises(ValueError, match="missing interferer channel") as exc:
                call(scenario, assignment, table if band == "DL" else ul)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_single_subcarrier(self):
        for seed in range(4):
            _check_evaluate(default_scenario(n_sc=1, **QUEUE), seed, "min")

    def test_degenerate_d_max(self):
        # gamma_d at a pair's largest delay: that subcarrier takes the step branch
        scenario = default_scenario(**QUEUE)
        first = _check_evaluate(scenario, 2)
        d_max = float(np.max(first.transmission[0] + first.processing[0] + first.queuing))
        report = _check_evaluate(default_scenario(gamma_d=d_max, **QUEUE), 2)
        assert report.conditional_utility[0].min() == 1.0
        _check_evaluate(default_scenario(gamma_d=1e9, **QUEUE), 2)

    def test_zero_rates_equal_and_vanishing_errors(self):
        scenario = _metric_scenario(n_users=3, n_aps=2, n_sc=4, **QUEUE)
        assignment = Assignment((0, 1, 0), (False, False, False))
        dl = {(0, 0): SinrBreakdown(2.0, 0.0, 0.5, 1.0),
              (1, 1): SinrBreakdown(0.0, 0.0, 0.0, 1.0),  # zero DL rate
              (2, 0): SinrBreakdown(1.0, 0.25, 0.0, 1.0)}
        zeros = np.zeros(4)
        ul = {(0, 0): UlSinrBreakdown(np.array([3.0, 0.0, 1.0, 0.0]), zeros, zeros, 1.0),
              (1, 1): UlSinrBreakdown(np.full(4, 2.0), zeros, zeros, 1.0),
              (2, 0): UlSinrBreakdown(np.full(4, 0.5), zeros, zeros, 1.0)}  # equal errors
        report = _check_tables(scenario, assignment, dl, ul)
        assert np.isinf(report.transmission[0, [1, 3]]).all()  # zero UL rate
        assert not report.feasible[1].any()
        assert (report.routing_utility[2] == 0.0).all()
        no_error = _metric_scenario(n_users=3, n_aps=2, n_sc=4, tracking_e0=0.0, **QUEUE)
        report = _check_tables(no_error, assignment, dl, ul)
        assert report.routing_utility[0, 0] == 1.0

    def test_column_shapes_checked(self):
        scenario = _metric_scenario(n_users=2, n_aps=1, n_sc=2)
        assignment = Assignment((0, -1), (False, True))
        utility_report(scenario, assignment, np.ones(1), np.ones((1, 3)))  # n_sc from sinr_ul
        for rate_dl, cols in ((np.ones(2), np.ones((1, 2))), (np.ones(1), np.ones(2))):
            with pytest.raises(ValueError, match="for P = 1 served pairs"):
                utility_report(scenario, assignment, rate_dl, cols)

    def test_external_snr(self, tmp_path):
        golden = import_ns3_snr_csv(Path(__file__).parent / "golden" / "queue_snr.csv")
        lines = ["node_id,peer_id,snr_db"]
        for i in range(4):
            for j in (4, 5):
                lines += [f"{i},{j},{10 + i + j}", f"{j},{i},{5 + i}"]
        (tmp_path / "snr.csv").write_text("\n".join(lines) + "\n")
        fixture = import_ns3_snr_csv(tmp_path / "snr.csv")
        for trace in (golden, fixture):
            for scenario in (default_scenario(), default_scenario(**QUEUE),
                             default_scenario(v_cap=1, **QUEUE),
                             default_scenario(r_min=1.2e10, **QUEUE)):
                for cb in STOCK_CODEBOOKS[:2]:
                    variant = with_codebook(scenario, cb)
                    _assert_matches_reference(
                        _run_external_snr(variant, trace), reference_external_snr(variant, trace)
                    )


def test_external_snr_routing_utility_is_zero():
    # one imported UL value stands for every subcarrier, so each served pair's
    # tracking error is normalized by itself: 1 - e/e = 0, whatever the SNR
    trace = import_ns3_snr_csv(Path(__file__).parent / "golden" / "queue_snr.csv")
    report = _run_external_snr(default_scenario(**QUEUE), trace)
    served = zip(report.users.tolist(), report.aps.tolist())
    errors = tracking_error_model(trace.snr_linear([(4 + j, i) for i, j in served]))
    assert report.routing_utility.shape == (len(report.users), 1)
    assert np.all(errors > 0) and np.all(report.feasible)
    assert np.any(report.conditional_utility > 0)
    np.testing.assert_array_equal(report.routing_utility, np.zeros_like(report.routing_utility))
    assert report.sum_utility == 0.0


def test_stock_sweep_builds_no_rows(monkeypatch, tmp_path):
    def no_rows(*args, **kwargs):
        raise AssertionError("a UtilityRow was built")

    monkeypatch.setattr(metrics, "UtilityRow", no_rows)
    spec = ExperimentSpec()
    bundle = run_experiment(spec)
    export_results(bundle, tmp_path, spec)
    assert all("rows" not in r.report.__dict__ for r in bundle)
