"""Phase-gradient oracles, conjugate-gradient behavior and the outer loop."""

import numpy as np
import pytest

from irslink.beamforming import build_analog_codebook
from irslink.channel import synthesize_links
from irslink.opcount import OpCounter
from irslink.optimizer import (
    RcgConfig,
    alternating_optimize,
    complexity_probe,
    rcg_optimize_phases,
    _design_all_beamformers,
    _evaluate,
    _initial_assignment,
)
from irslink.scenario import default_scenario

from conftest import build_rate_objective, scalar_scenario


def _scalar_coefficients(objective, links, beamformers):
    """Collapse a 1x1-antenna, 1-subcarrier objective to e0 + sum c_m e^{j theta_m}."""
    w = beamformers[0].combiners()[0, 0, 0]
    f = beamformers[0].precoders()[0, 0, 0]
    h0 = links.dl_nlos[0, 0, 0, 0, 0]
    cols = links.dl_user_cols[0][0, :, 0]
    rows = links.dl_ap_rows[0][0, :, 0]
    return np.conj(w) * h0 * f, np.conj(w) * cols * rows * f


class TestGradient:
    def test_matches_scalar_formula(self):
        sc = scalar_scenario(1)
        objective, links, _, bf = build_rate_objective(sc, seed=4)
        e0, c = _scalar_coefficients(objective, links, bf)
        p = sc.params
        for theta in np.linspace(-np.pi, np.pi, 7):
            e = e0 + c[0] * np.exp(1j * theta)
            s = p.p_ap * abs(e) ** 2 / p.sigma2
            expected_value = np.log2(1.0 + s)
            expected_grad = (
                p.p_ap
                * 2.0
                * np.real(1j * c[0] * np.exp(1j * theta) * np.conj(e))
                / (p.sigma2 * np.log(2.0) * (1.0 + s))
            )
            value, grad = objective.value_and_grad(np.array([theta]))
            assert value == pytest.approx(expected_value, rel=1e-12)
            assert grad[0] == pytest.approx(expected_grad, rel=1e-9, abs=1e-30)

    def test_finite_differences_m4(self):
        sc = scalar_scenario(4, n_sc=3)
        objective, *_ = build_rate_objective(sc, seed=1)
        rng = np.random.default_rng(0)
        theta = rng.uniform(-np.pi, np.pi, 4)
        _, grad = objective.value_and_grad(theta)
        h = 1e-6
        fd = np.array(
            [
                (objective.value(theta + h * e) - objective.value(theta - h * e)) / (2 * h)
                for e in np.eye(4)
            ]
        )
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-4

    def test_finite_differences_min_aggregate(self):
        sc = scalar_scenario(3, n_sc=4)
        objective, *_ = build_rate_objective(sc, seed=2, aggregate="min")
        theta = np.array([0.3, -1.1, 2.0])
        _, grad = objective.value_and_grad(theta)
        h = 1e-7
        fd = np.array(
            [
                (objective.value(theta + h * e) - objective.value(theta - h * e)) / (2 * h)
                for e in np.eye(3)
            ]
        )
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-4

    def test_stationary_at_coherent_alignment(self):
        sc = scalar_scenario(2)
        objective, links, _, bf = build_rate_objective(sc, seed=3)
        e0, c = _scalar_coefficients(objective, links, bf)
        theta_star = np.angle(e0) - np.angle(c)
        _, grad = objective.value_and_grad(theta_star)
        scale = abs(objective.value(theta_star))
        assert np.linalg.norm(grad) <= 1e-8 * max(scale, 1.0)

    def test_no_elements_returns_empty_gradient(self):
        sc = scalar_scenario(0)
        objective, *_ = build_rate_objective(sc)
        value, grad = objective.value_and_grad(np.zeros(0))
        assert grad.shape == (0,)
        assert value > 0


class TestRcg:
    def test_fixed_point_at_optimum(self):
        sc = scalar_scenario(2)
        objective, links, _, bf = build_rate_objective(sc, seed=3)
        e0, c = _scalar_coefficients(objective, links, bf)
        theta_star = np.angle(e0) - np.angle(c)
        phases, trace = rcg_optimize_phases(objective, theta_star, epsilon=1e-12)
        assert len(trace) == 1
        np.testing.assert_array_equal(phases, theta_star)

    def test_reaches_closed_form_optimum(self):
        sc = scalar_scenario(3)
        objective, links, _, bf = build_rate_objective(sc, seed=8)
        e0, c = _scalar_coefficients(objective, links, bf)
        best_mag = abs(e0) + np.sum(np.abs(c))
        p = sc.params
        best_value = np.log2(1.0 + p.p_ap * best_mag**2 / p.sigma2)
        phases, _ = rcg_optimize_phases(
            objective, np.zeros(3), epsilon=0.0, max_iter=300
        )
        assert objective.value(phases) == pytest.approx(best_value, rel=1e-6)

    def test_small_grid_oracle(self):
        sc = scalar_scenario(1)
        objective, links, _, bf = build_rate_objective(sc, seed=5)
        e0, c = _scalar_coefficients(objective, links, bf)
        p = sc.params
        grid = np.linspace(-np.pi, np.pi, 720, endpoint=False)
        mags = np.abs(e0 + c[0] * np.exp(1j * grid))
        grid_best = np.log2(1.0 + p.p_ap * mags**2 / p.sigma2).max()
        phases, _ = rcg_optimize_phases(objective, np.array([2.0]), epsilon=0.0, max_iter=200)
        assert objective.value(phases) >= grid_best * (1.0 - 5e-3)

    def test_trace_objective_nondecreasing_to_best(self):
        sc = scalar_scenario(4, n_sc=2)
        objective, *_ = build_rate_objective(sc, seed=6)
        phases, trace = rcg_optimize_phases(objective, np.full(4, 0.5), epsilon=0.0, max_iter=50)
        values = [s.objective for s in trace]
        assert objective.value(phases) == pytest.approx(max(values), rel=1e-12)

    def test_argument_validation(self):
        sc = scalar_scenario(1)
        objective, *_ = build_rate_objective(sc)
        with pytest.raises(ValueError):
            rcg_optimize_phases(objective, np.zeros(1), max_iter=0)
        with pytest.raises(ValueError):
            rcg_optimize_phases(objective, np.zeros(1), epsilon=-1.0)

    def test_config_from_overrides_rejects_unknown(self):
        cfg = RcgConfig.from_overrides({"epsilon": 0.5, "max_iter": 7})
        assert cfg.epsilon == 0.5
        assert cfg.max_iter == 7
        with pytest.raises(ValueError, match=r"unknown optimizer overrides: \['unknown'\]"):
            RcgConfig.from_overrides({"epsilon": 0.5, "unknown": 1, "max_iter": 7})


class TestAlternatingOptimization:
    def test_no_irs_equals_single_pass(self, fast_config):
        sc = default_scenario(0)
        result = alternating_optimize(sc, seed=5, config=fast_config)
        assert len(result.trace) == 1

        links = synthesize_links(sc, seed=5)
        coeffs = np.zeros(0, dtype=complex)
        assignment = _initial_assignment(sc, links, coeffs)
        p = sc.params
        tx = build_analog_codebook(p.n_t, p.n_rf, beam_grid=fast_config.beam_grid)
        rx = build_analog_codebook(p.n_r, min(p.n_r, p.n_s), beam_grid=1)
        beamformers = _design_all_beamformers(sc, links, assignment, coeffs, tx, rx)
        report, _ = _evaluate(sc, links, assignment, coeffs, beamformers, "mean")

        assert result.assignment == assignment
        assert len(result.report.rows) == len(report.rows)
        for a, b in zip(result.report.rows, report.rows):
            assert a == b  # bit-identical single-pass degeneracy

    def test_objective_trace_monotone(self, fast_config):
        result = alternating_optimize(default_scenario(), seed=1, config=fast_config)
        objs = [r.objective for r in result.trace]
        assert all(
            nxt >= cur - 1e-9 * max(abs(cur), 1.0) for cur, nxt in zip(objs, objs[1:])
        )

    def test_irs_beats_no_irs_objective(self):
        # full beam grid: with a coarse grid, discrete codeword flips can
        # dominate the comparison
        config = RcgConfig(max_iter=50, outer_rounds=3)
        with_irs = alternating_optimize(default_scenario(), seed=2, config=config)
        without = alternating_optimize(default_scenario(0), seed=2, config=config)
        assert with_irs.trace[-1].objective >= without.trace[-1].objective
        assert with_irs.sum_utility >= without.sum_utility

    def test_codebook_override_changes_antennas(self, fast_config):
        from irslink.scenario import CodebookScenario

        result = alternating_optimize(
            default_scenario(0),
            seed=0,
            codebook=CodebookScenario("4ant_1rf", 4, 1),
            config=fast_config,
        )
        bf = result.beamformers[0]
        assert bf.analog_precoder.matrix.shape == (4, 1)

    def test_links_of_another_seed_are_resynthesized(self, fast_config):
        sc = default_scenario(8)
        stale = alternating_optimize(sc, seed=3, config=fast_config,
                                     links=synthesize_links(sc, seed=0))
        fresh = alternating_optimize(sc, seed=3, config=fast_config)
        assert stale.trace[-1].objective == fresh.trace[-1].objective
        np.testing.assert_array_equal(stale.phases, fresh.phases)

    def test_unit_modulus_all_iterations(self, fast_config):
        result = alternating_optimize(default_scenario(12), seed=0, config=fast_config)
        for state in result.rcg_trace:
            np.testing.assert_allclose(
                np.abs(np.exp(1j * state.phases)), 1.0, atol=1e-15
            )


class TestComplexityProbe:
    def test_counts_grow_with_expected_orders(self):
        rows = complexity_probe([4, 8], rcg_iters=4)
        phase_slope = np.log2(rows[1]["phase_macs"] / rows[0]["phase_macs"])
        bf_slope = np.log2(rows[1]["beamforming_macs"] / rows[0]["beamforming_macs"])
        assert phase_slope > 2.4  # cubic composite rebuild dominates
        assert 1.7 <= bf_slope <= 2.3  # quadratic projection

    def test_linear_in_iteration_budget(self):
        a = complexity_probe([8], rcg_iters=2)[0]["phase_macs"]
        b = complexity_probe([8], rcg_iters=4)[0]["phase_macs"]
        assert 1.4 <= b / a <= 2.6

    def test_requires_sorted_m(self):
        with pytest.raises(ValueError):
            complexity_probe([8, 4])


def test_opcounter_reset():
    c = OpCounter()
    c.add(5)
    c.add(7)
    assert c.macs == 12
    c.reset()
    assert c.macs == 0
