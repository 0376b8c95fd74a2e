"""Configuration loading, geometry validation and user-AP association."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslink.scenario import (
    STOCK_CODEBOOKS,
    Assignment,
    Box,
    ConfigError,
    IrsPanel,
    Scenario,
    SystemParams,
    associate_users,
    compute_dod_doa,
    default_scenario,
    load_scenario,
    with_codebook,
    with_irs_elements,
)

SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "indoor_room.yaml"


def minimal_config(**system):
    return {
        "geometry": {
            "ap_positions": [[2.0, 3.0, 2.5]],
            "user_positions": [[5.0, 5.0, 1.5]],
            "irs_panels": [{"origin": [0.0, 4.0, 1.2], "m_y": 4, "m_z": 2}],
        },
        "system": system,
    }


class TestSystemParams:
    def test_stock_values(self):
        p = SystemParams()
        assert p.pathloss_exponent == 4.6
        assert p.s_i == 512 * 24
        assert p.a_i == 6.0
        assert p.lambda_i == 2e-9
        assert p.mu_j == 4e-9
        assert p.v_bits == 5.0
        assert p.n_r == 1
        assert p.n_rf in (1, 2)

    def test_queuing_stability_enforced(self):
        with pytest.raises(ConfigError, match="queuing stability violated"):
            SystemParams(mu_j=2e-9, lambda_i=2e-9)

    def test_rf_chain_bounds(self):
        with pytest.raises(ConfigError):
            SystemParams(n_rf=4, n_t=2)
        with pytest.raises(ConfigError):
            SystemParams(n_s=3, n_rf=2)

    def test_noise_power_override(self):
        assert SystemParams(noise_power=1e-9).sigma2 == 1e-9
        p = SystemParams()
        # thermal kTB plus 7 dB noise figure
        expected = 1.380649e-23 * 290.0 * p.bandwidth * 10 ** 0.7
        assert p.sigma2 == pytest.approx(expected)

    def test_subcarrier_grid_symmetric(self):
        p = SystemParams(n_sc=4, bandwidth=4.0)
        f = p.subcarrier_frequencies(100.0)
        np.testing.assert_allclose(f, [98.5, 99.5, 100.5, 101.5])
        assert f.mean() == pytest.approx(100.0)


class TestLoadScenario:
    def test_dict_document(self):
        sc = load_scenario(minimal_config(n_t=4, n_rf=2))
        assert sc.n_users == 1 and sc.n_aps == 1
        assert sc.n_irs_elements == 8
        assert sc.params.n_t == 4

    def test_yaml_text(self):
        text = """
geometry:
  ap_positions: [[2.0, 3.0, 2.5]]
  user_positions: [[5.0, 5.0, 1.5]]
system:
  pathloss_exponent: 4.6
"""
        sc = load_scenario(text)
        assert sc.params.pathloss_exponent == 4.6
        assert sc.irs_panels == ()

    def test_unknown_key_reported_with_path(self):
        cfg = minimal_config()
        cfg["system"] = {"bogus_knob": 1}
        with pytest.raises(ConfigError, match=r"system.*bogus_knob"):
            load_scenario(cfg)

    def test_unstable_queue_rejected(self):
        with pytest.raises(ConfigError, match="queuing stability violated"):
            load_scenario(minimal_config(mu_j=1e-9, lambda_i=2e-9))

    def test_missing_geometry(self):
        with pytest.raises(ConfigError, match="ap_positions and user_positions"):
            load_scenario({"geometry": {}})

    def test_position_outside_bounds(self):
        cfg = minimal_config()
        cfg["geometry"]["user_positions"] = [[50.0, 5.0, 1.5]]
        with pytest.raises(ConfigError, match="outside bounds"):
            load_scenario(cfg)

    def test_stock_scenario_counts(self):
        sc = default_scenario()
        assert sc.n_irs_elements == 24
        assert sc.n_users == 4
        assert sc.n_aps == 2
        assert sc.params.pathloss_exponent == 4.6
        assert sc.params.n_r == 1

    def test_no_irs_baseline(self):
        sc = default_scenario(0)
        assert sc.n_irs_elements == 0
        assert sc.irs_element_positions().shape == (0, 3)

    @pytest.mark.parametrize("m", [1, 3, 25, 24, 96, 384])
    def test_stock_surface_sizes(self, m):
        sc = default_scenario(m)
        assert sc.n_irs_elements == m
        assert sc.irs_element_positions().shape == (m, 3)
        assert all(sc.bounds.contains(p) for p in sc.irs_element_positions())
        assert len(sc.irs_panels) == min(m, 2)

    def test_stock_panels_are_two_4x3(self):
        assert [(p.origin, p.m_y, p.m_z) for p in default_scenario(24).irs_panels] == [
            ((0.0, 7.0, 1.2), 4, 3),
            ((10.0, 7.0, 1.2), 4, 3),
        ]

    def test_missing_file_named(self):
        for source in ("configs/indoor_rom.yaml", Path("configs/indoor_rom.yaml")):
            with pytest.raises(ConfigError, match=r"configs/indoor_rom\.yaml: file not found"):
                load_scenario(source)

    def test_io_section_rejected(self):
        cfg = minimal_config()
        cfg["io"] = {"output_dir": "results"}
        with pytest.raises(ConfigError, match=r"^config: unknown keys \['io'\]$"):
            load_scenario(cfg)

    def test_shipped_config_is_stock_scenario(self):
        shipped, stock = load_scenario(SHIPPED_CONFIG), default_scenario()
        assert shipped.params == stock.params
        assert shipped.irs_panels == stock.irs_panels
        assert np.array_equal(shipped.ap_positions, stock.ap_positions)
        assert np.array_equal(shipped.user_positions, stock.user_positions)
        assert shipped.bounds == stock.bounds
        assert shipped.codebooks == stock.codebooks


class TestScenarioVariants:
    def test_with_codebook(self):
        sc = default_scenario()
        assert with_codebook(sc, STOCK_CODEBOOKS[-1]) is sc
        small = with_codebook(sc, STOCK_CODEBOOKS[0])
        assert (small.params.n_t, small.params.n_rf) == (2, 1)
        assert small.irs_panels == sc.irs_panels
        assert small.params.nlos_penalty_db == sc.params.nlos_penalty_db

    def test_variants_are_validated(self):
        sc = default_scenario(0, n_s=2)
        with pytest.raises(ConfigError, match="n_s"):
            with_codebook(sc, STOCK_CODEBOOKS[0])
        narrow = Scenario(
            sc.ap_positions, sc.user_positions, (), Box((0.0, 0.0, 0.0), (9.5, 17.0, 3.0)), sc.params
        )
        with pytest.raises(ConfigError, match="element outside bounds"):
            with_irs_elements(narrow, 24)


class TestIrsPanel:
    def test_element_positions_in_plane(self):
        panel = IrsPanel((1.0, 2.0, 0.5), 3, 2, 0.1)
        pos = panel.element_positions()
        assert pos.shape == (6, 3)
        assert np.all(pos[:, 0] == 1.0)
        # flat index b*m_y + a: Y runs fastest
        np.testing.assert_allclose(pos[0], [1.0, 2.0, 0.5])
        np.testing.assert_allclose(pos[1], [1.0, 2.1, 0.5])
        np.testing.assert_allclose(pos[3], [1.0, 2.0, 0.6])

    def test_validation(self):
        with pytest.raises(ConfigError):
            IrsPanel((0, 0, 0), 0, 1, 0.1)
        with pytest.raises(ConfigError):
            IrsPanel((0, 0, 0), 1, 1, 0.0)


class TestDodDoa:
    def test_axis_aligned(self):
        dod, doa = compute_dod_doa((0, 0, 0), (1, 0, 0))
        np.testing.assert_allclose(dod, [1, 0, 0])
        np.testing.assert_allclose(doa, [-1, 0, 0])

    def test_hand_vector(self):
        dod, doa = compute_dod_doa((1, 2, 0), (4, 6, 0))
        np.testing.assert_allclose(dod, [3, 4, 0])
        np.testing.assert_allclose(doa, [-3, -4, 0])
        assert np.linalg.norm(dod) == pytest.approx(5.0)

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerate link geometry"):
            compute_dod_doa((2, 3, 1), (2, 3, 1))


def _brute_force_best(rates: np.ndarray, cap: int) -> float:
    """Best total rate over every capacity-feasible full assignment."""
    n_users, n_aps = rates.shape
    best = -np.inf
    for combo in itertools.product(range(n_aps), repeat=n_users):
        if any(combo.count(j) > cap for j in range(n_aps)):
            continue
        best = max(best, sum(rates[i, combo[i]] for i in range(n_users)))
    return best


class TestAssociation:
    def _scenario(self, n_users, n_aps, cap, r_min=0.0):
        return Scenario(
            ap_positions=np.tile([[2.0, 3.0, 2.5]], (n_aps, 1)) + np.arange(n_aps)[:, None] * [1, 0, 0],
            user_positions=np.tile([[5.0, 5.0, 1.5]], (n_users, 1)) + np.arange(n_users)[:, None] * [0, 1, 0],
            irs_panels=(),
            bounds=Box((0, 0, 0), (20, 20, 3)),
            params=SystemParams(v_cap=cap, r_min=r_min),
        )

    def test_capacity_spill(self):
        sc = self._scenario(2, 2, cap=1)
        rates = np.array([[10.0, 1.0], [9.0, 2.0]])
        a = associate_users(sc, rates)
        assert sorted(a.user_to_ap) == [0, 1]
        assert a.user_to_ap[0] == 0  # larger loss if user 0 spills

    def test_all_below_r_min_flagged(self):
        sc = self._scenario(2, 2, cap=1, r_min=1e9)
        a = associate_users(sc, np.full((2, 2), 10.0))
        assert all(a.infeasible)
        assert all(j >= 0 for j in a.user_to_ap)  # flagged, not dropped

    def test_matches_brute_force(self):
        sc = self._scenario(4, 2, cap=2)
        rng = np.random.default_rng(7)
        for _ in range(25):
            rates = rng.uniform(0.0, 100.0, size=(4, 2))
            a = associate_users(sc, rates)
            total = sum(rates[i, j] for i, j in enumerate(a.user_to_ap))
            assert total == pytest.approx(_brute_force_best(rates, 2))

    def test_shape_check(self):
        sc = self._scenario(2, 2, cap=1)
        with pytest.raises(ValueError, match="rate table"):
            associate_users(sc, np.ones((3, 2)))

    def test_users_of_ap(self):
        a = Assignment((0, 1, 0), (False, False, False))
        assert a.users_of_ap(0) == [0, 2]
        assert a.users_of_ap(1) == [1]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_assignment_is_optimal_property(self, seed):
        sc = self._scenario(3, 2, cap=2)
        rates = np.random.default_rng(seed).uniform(0.0, 1.0, size=(3, 2))
        a = associate_users(sc, rates)
        total = sum(rates[i, j] for i, j in enumerate(a.user_to_ap))
        assert total >= _brute_force_best(rates, 2) - 1e-12


def test_stock_codebooks():
    assert [(c.n_t, c.n_rf) for c in STOCK_CODEBOOKS] == [
        (2, 1), (2, 2), (4, 1), (4, 2), (8, 1), (8, 2)
    ]


def test_box_contains():
    b = Box((0, 0, 0), (1, 1, 1))
    assert b.contains((0.5, 0.5, 0.5))
    assert b.contains((0, 0, 0))
    assert not b.contains((1.5, 0.5, 0.5))
