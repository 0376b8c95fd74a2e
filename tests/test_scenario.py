"""Configuration loading, geometry validation and user-AP association."""

import itertools
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from irslink.channel import synthesize_links
from irslink.scenario import (
    STOCK_CODEBOOKS,
    Assignment,
    Box,
    ConfigError,
    IrsPanel,
    RcgConfig,
    Scenario,
    SystemParams,
    _max_weight_assignment,
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


def _full_config():
    cfg = minimal_config(n_t=4, n_rf=2)
    cfg["geometry"]["bounds"] = {"lo": [0.0, 0.0, 0.0], "hi": [10.0, 17.0, 3.0]}
    cfg["geometry"]["irs_panels"][0]["spacing"] = 0.05
    cfg["optimizer"] = {"epsilon": 1e-3, "max_iter": 5, "outer_rounds": 2, "beam_grid": 4}
    return cfg


def _insertion_points(tree):
    """(container, key) of every node of a document, and (tree, None) for
    each key/value tree, where a new key can go."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    if isinstance(tree, dict):
        yield tree, None
    for key, child in items:
        yield tree, key
        if isinstance(child, (dict, list)):
            yield from _insertion_points(child)


_DOCUMENT_KEYS = sorted(
    {"geometry", "system", "optimizer", "codebooks", "bounds", "lo", "hi", "ap_positions",
     "user_positions", "irs_panels", "origin", "m_y", "m_z", "spacing"}
    | set(SystemParams.__dataclass_fields__)
    | set(RcgConfig.__dataclass_fields__)
)
# element counts stay small: a valid panel of millions of elements is not
# malformed, and load time grows with its element count
_RANDOM_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(_DOCUMENT_KEYS) | st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)
# (path of the replaced node, its value, the message expected)
_MALFORMED = [
    (("system", "n_t"), "8", r"^system\.n_t: must be int, got '8'$"),
    (("system", "smallscale"), 1, r"^system\.smallscale: must be bool, got 1$"),
    (("system", "noise_power"), "x", r"^system\.noise_power: must be float \| None, got 'x'$"),
    (("system", "pathloss_exponent"), float("nan"), r"^system\.pathloss_exponent: must be float, got nan$"),
    # checked at load; it used to fail inside the run, in processing_delay
    (("system", "m_proc"), 0.0, r"^system\.m_proc: must be positive$"),
    # checked at load; with the default single user antenna it used to fail
    # after synthesis, in the beamformer design, naming no field
    (("system", "n_s"), 2, r"^system\.n_s: streams cannot exceed user antennas$"),
    # checked at load; -1 used to fail inside the run, 0 to serve no user
    (("system", "v_cap"), -1, r"^system\.v_cap: must be >= 1$"),
    (("system", "v_cap"), 0, r"^system\.v_cap: must be >= 1$"),
    # checked at load; each used to run, to a negative delay, a late failure
    # inside the run or all-zero utilities
    (("system", "s_i"), -1.0, r"^system\.s_i: must be >= 0$"),
    (("system", "a_i"), -6.0, r"^system\.a_i: must be >= 0$"),
    (("system", "lambda_i"), -1e-9, r"^system\.lambda_i: must be >= 0$"),
    (("system", "gamma_d"), -0.02, r"^system\.gamma_d: must be >= 0$"),
    (("system", "r_min"), -1.0, r"^system\.r_min: must be >= 0$"),
    (("system", "v_bits"), -5.0, r"^system\.v_bits: must be >= 0$"),
    (("system", "tracking_e0"), -1.0, r"^system\.tracking_e0: must be >= 0$"),
    (("system", "p_ap"), float("inf"), r"^system\.p_ap: must be finite$"),
    (("system", "bandwidth"), float("inf"), r"^system\.bandwidth: must be finite$"),
    (("system", "noise_figure_db"), float("inf"), r"^system\.noise_figure_db: must be finite$"),
    (("system", "s_i"), float("inf"), r"^system\.s_i: must be finite$"),
    (("system", "mu_j"), float("-inf"), r"^system\.mu_j: must be finite$"),
    (("system",), [1, 2], r"^system: must be a key/value tree$"),
    (("geometry", "irs_panels", 0), {"origin": [0.0, 4.0, 1.2], "m_y": 4},
     r"^geometry\.irs_panels\[0\]\.m_z: must be int, got None$"),
    (("geometry", "irs_panels", 0, "m_y"), 0, r"^geometry\.irs_panels\[0\]: m_y and m_z must be >= 1$"),
    (("geometry", "irs_panels", 0, "spacing"), -1.0, r"^geometry\.irs_panels\[0\]: spacing must be"),
    (("geometry", "irs_panels", 0, "origin"), [0.0, 4.0], r"^geometry\.irs_panels\[0\]\.origin: must be"),
    # origin inside the room, far corner 19 m along y
    (("geometry", "irs_panels", 0, "spacing"), 5.0, r"^geometry\.irs_panels\[0\]: element outside bounds$"),
    (("geometry", "irs_panels"), {"m_y": 1}, r"^geometry\.irs_panels: must be a list$"),
    (("geometry", "bounds"), {"lo": [0, 0, 0]}, r"^geometry\.bounds\.hi: must be a list of three numbers$"),
    (("geometry", "ap_positions"), "x", r"^geometry\.ap_positions: must be a list$"),
    (("geometry", "user_positions", 0), [5.0, True, 1.5], r"^geometry\.user_positions\[0\]: must be"),
    (("optimizer", "max_iter"), 0, r"^optimizer\.max_iter: must be >= 1$"),
    (("optimizer", "outer_rounds"), 0, r"^optimizer\.outer_rounds: must be >= 1$"),
    (("optimizer", "epsilon"), "small", r"^optimizer\.epsilon: must be float, got 'small'$"),
    (("optimizer", "epsilon"), -1e-3, r"^optimizer\.epsilon: must be >= 0$"),
    (("optimizer", "beam_grid"), 4.0, r"^optimizer\.beam_grid: must be int, got 4\.0$"),
    # checked at load; it used to skip every phase optimization without a word
    (("optimizer", "epsilon"), float("inf"), r"^optimizer\.epsilon: must be finite$"),
]
_FIELD_PATH = re.compile(r"^\w+(\[\d+\])*(\.\w+(\[\d+\])*)*: ")


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

    def test_infinite_noise_power_rejected(self):
        # a row of its own: a second noise_power row of _MALFORMED would rename that test
        with pytest.raises(ConfigError, match=r"^system\.noise_power: must be finite$"):
            SystemParams(noise_power=float("inf"))

    @pytest.mark.parametrize(
        "name, value",
        [("noise_figure_db", 4000.0), ("noise_figure_db", -4000.0), ("s_i", 10**400),
         ("bandwidth", 1e-300), ("noise_power", 1e-320), ("bandwidth", 1e300),
         ("noise_power", 1e160), ("noise_power", 1e-300), ("p_ap", 1e300), ("p_user", 1e300),
         ("carrier_ul", 1e-300), ("carrier_dl", 1e-300), ("carrier_ul", 1e-100),
         ("carrier_dl", 2.3e7), ("los_exponent", -1e300), ("pathloss_exponent", -1e300),
         ("nlos_penalty_db", -1e300), ("los_exponent", -0.5)],
        ids=["noise_power_overflows", "noise_power_underflows", "int_beyond_float",
             "thermal_noise_subnormal", "noise_power_subnormal", "thermal_noise_squares_overflow",
             "noise_power_squares_overflow", "noise_power_squares_underflow",
             "ap_power_squares_overflow", "user_power_overflows", "ul_wavelength_overflows",
             "dl_wavelength_overflows", "ul_reference_loss_a_gain", "dl_reference_loss_a_gain",
             "los_exponent_a_gain", "pathloss_exponent_a_gain", "nlos_penalty_a_gain",
             "los_exponent_negative"],
    )
    def test_values_that_overflow_rejected(self, name, value):
        # each used to fail inside the run: an OverflowError from sigma2, a
        # zero noise power, an OverflowError converting the int, a subnormal
        # noise power whose SINR ratios overflow, a noise or AP power whose
        # squared SINR denominators overflow in the gradient, a noise power
        # whose squared denominators underflow there to 0 / 0, a user power
        # whose received UL powers overflow, a carrier whose wavelength and
        # hop amplitudes overflow, and a carrier below c / (4 pi * 1 m) or a
        # negative exponent or penalty, which turn a path loss into a gain
        # whose hop amplitudes overflow
        with pytest.raises(ConfigError, match=rf"^system\.{name}: "):
            SystemParams(**{name: value})

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

    def test_yaml_syntax_error(self):
        with pytest.raises(ConfigError, match="config parse failure"):
            load_scenario("geometry: [unclosed\nsystem: {}\n")

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
        assert shipped.optimizer == stock.optimizer == RcgConfig()

    def test_optimizer_section_checked_against_config_fields(self):
        cfg = minimal_config()
        cfg["optimizer"] = {"epsilon": 0.5, "max_iter": 7}
        assert load_scenario(cfg).optimizer == RcgConfig(epsilon=0.5, max_iter=7)
        assert load_scenario(minimal_config()).optimizer == RcgConfig()
        cfg["optimizer"]["unknown"] = 1
        with pytest.raises(ConfigError, match=r"^optimizer: unknown keys \['unknown'\]$"):
            load_scenario(cfg)

    @pytest.mark.parametrize(
        "section, value, message",
        [
            ("codebooks", [{"name": "8ant_2rf", "n_t": 8, "n_rf": 2}], r"^config: unknown keys \['codebooks'\]$"),
            ("optimizer", {"step_init": 1}, r"^optimizer: unknown keys \['step_init'\]$"),
            ("optimizer", {"improvement_tol": 1e-6}, r"^optimizer: unknown keys \['improvement_tol'\]$"),
            ("system", {"delay_mode": "real_decay"}, r"^system: unknown keys \['delay_mode'\]$"),
            ("system", {"t_proc": 1e-8}, r"^system: unknown keys \['t_proc'\]$"),
        ],
        ids=["codebooks", "step_init", "improvement_tol", "delay_mode", "t_proc"],
    )
    def test_removed_settings_rejected(self, section, value, message):
        cfg = minimal_config()
        cfg[section] = value
        with pytest.raises(ConfigError, match=message):
            load_scenario(cfg)

    @pytest.mark.parametrize(
        "path, value, message", _MALFORMED, ids=[".".join(map(str, c[0])) for c in _MALFORMED]
    )
    def test_malformed_value_named_with_field_path(self, path, value, message):
        cfg = minimal_config()
        node = cfg
        for key in path[:-1]:
            node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigError, match=message):
            load_scenario(cfg)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_document_loads_or_names_a_field(self, data):
        """Replace one node of a valid document, or add a key to one of its
        key/value trees, with a random tree: the YAML text of the result loads
        or raises ConfigError whose message starts with a field path."""
        doc = _full_config()
        target, key = data.draw(st.sampled_from(list(_insertion_points(doc))))
        if key is None:
            key = data.draw(st.sampled_from(_DOCUMENT_KEYS) | st.text(max_size=3))
        target[key] = data.draw(_RANDOM_TREES)
        try:
            scenario = load_scenario(yaml.safe_dump(doc))
        except ConfigError as exc:
            assert _FIELD_PATH.match(str(exc)), str(exc)
        else:
            assert isinstance(scenario, Scenario)


class TestScenarioVariants:
    def test_with_codebook(self):
        sc = default_scenario()
        assert with_codebook(sc, STOCK_CODEBOOKS[-1]) is sc
        small = with_codebook(sc, STOCK_CODEBOOKS[0])
        assert (small.params.n_t, small.params.n_rf) == (2, 1)
        assert small.irs_panels == sc.irs_panels
        assert small.params.nlos_penalty_db == sc.params.nlos_penalty_db

    def test_with_codebook_checks_params_but_not_geometry_again(self, monkeypatch):
        sc = default_scenario()
        checked = replace(sc, params=replace(sc.params, n_t=2, n_rf=1))
        calls = []
        post_init = Scenario.__post_init__
        monkeypatch.setattr(Scenario, "__post_init__",
                            lambda self: calls.append(self) or post_init(self))
        small = with_codebook(sc, STOCK_CODEBOOKS[0])
        assert calls == []
        assert small.params == checked.params and small.irs_panels == checked.irs_panels
        assert small.bounds == checked.bounds and small.optimizer == checked.optimizer
        np.testing.assert_array_equal(small.ap_positions, checked.ap_positions)
        np.testing.assert_array_equal(small.user_positions, checked.user_positions)
        assert sc.params.n_t == 8  # the parent is unchanged

    def test_hand_built_scenarios_are_still_checked(self):
        sc = default_scenario()
        outside = sc.user_positions.copy()
        outside[1] = (11.0, 5.0, 1.5)
        with pytest.raises(ConfigError, match=r"user_positions\[1\]: outside bounds"):
            replace(sc, user_positions=outside)
        with pytest.raises(ConfigError, match=r"user_positions\[1\]: outside bounds"):
            Scenario(sc.ap_positions, outside, sc.irs_panels, sc.bounds, sc.params)

    def test_variants_are_validated(self):
        sc = default_scenario(0, n_r=2, n_s=2)
        with pytest.raises(ConfigError, match="n_s"):
            with_codebook(sc, STOCK_CODEBOOKS[0])
        narrow = Scenario(
            sc.ap_positions, sc.user_positions, (), Box((0.0, 0.0, 0.0), (9.5, 17.0, 3.0)), sc.params
        )
        with pytest.raises(ConfigError, match="element outside bounds"):
            with_irs_elements(narrow, 24)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_panel_splits_fit_or_name_the_geometry(self, data):
        """m elements split over 1-3 panel origins on the side walls, some
        within a panel's size of the far wall or the ceiling: the resized
        scenario either raises ConfigError with a geometry path or gives
        finite links."""
        base = default_scenario(0, n_t=2, n_sc=2)
        spacing = base.params.wavelength_dl / 2.0  # 600 elements on one panel span ~6 cm
        origins = data.draw(st.lists(st.tuples(
            st.floats(0.0, 0.2) | st.floats(9.8, 10.0),
            st.floats(0.0, 17.0) | st.floats(16.9, 17.0),
            st.floats(0.0, 3.0) | st.floats(2.9, 3.0),
        ), min_size=1, max_size=3), label="origins")
        sc = replace(base, irs_panels=tuple(IrsPanel(o, 1, 1, spacing) for o in origins))
        m = data.draw(st.integers(0, 600), label="m")
        try:
            resized = with_irs_elements(sc, m)
        except ConfigError as exc:
            assert str(exc).startswith("geometry."), str(exc)
            return
        assert resized.n_irs_elements == m
        links = synthesize_links(resized, seed=data.draw(st.integers(0, 99)))
        for name in ("dl_nlos", "dl_user_cols", "dl_ap_rows", "ul_nlos", "ul_user_amp",
                     "ul_user_delay", "ul_user_steering", "ul_ap_amp", "ul_ap_delay",
                     "ul_ap_steering"):
            assert np.all(np.isfinite(getattr(links, name))), name
        assert links.dl_ap_rows.shape[2] == m


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

    def test_users_and_aps_in_served_order(self):
        a = Assignment((0, 1, -1, 0), (False,) * 4)
        assert a.users.tolist() == [0, 1, 3] and a.aps.tolist() == [0, 1, 0]
        assert a.users.dtype == a.aps.dtype == int
        assert a.users is a.users and a.aps is a.aps  # formed once
        assert not a.users.flags.writeable and not a.aps.flags.writeable
        empty = Assignment((-1, -1), (False, False))
        assert empty.users.shape == empty.aps.shape == (0,) and empty.users.dtype == int

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-1, 3), max_size=8))
    def test_users_and_aps_are_served(self, user_to_ap):
        a = Assignment(tuple(user_to_ap), (False,) * len(user_to_ap))
        assert list(zip(a.users.tolist(), a.aps.tolist())) == list(a.served)

    def test_served_pairs_in_user_order(self):
        a = Assignment((1, -1, 0, 1), (False,) * 4)
        assert a.served == ((0, 1), (2, 0), (3, 1))
        assert a.served is a.served  # formed once
        assert Assignment((-1, -1), (False, False)).served == ()

    def test_dl_triples_in_owner_order(self):
        a = Assignment((2, 0, -1, 0, 1), (False,) * 5)  # three APs, user 2 unserved
        assert a.owners == ((0, 1), (0, 3), (1, 4), (2, 0))
        owners = [[0, 1], [0, 3], [1, 4], [2, 0]]
        expected = [[i, b, l] for i in (0, 1, 3, 4) for b, l in owners]
        np.testing.assert_array_equal(a.dl_triples, expected)
        assert a.dl_triples.dtype == int and a.dl_triples.shape == (16, 3)
        assert a.owners is a.owners and a.dl_triples is a.dl_triples  # formed once
        assert not a.dl_triples.flags.writeable

    def test_dl_triples_with_nobody_served(self):
        a = Assignment((-1, -1, -1), (False,) * 3)
        assert a.owners == ()
        assert a.dl_triples.shape == (0, 3) and a.dl_triples.dtype == int

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_assignment_is_optimal_property(self, seed):
        sc = self._scenario(3, 2, cap=2)
        rates = np.random.default_rng(seed).uniform(0.0, 1.0, size=(3, 2))
        a = associate_users(sc, rates)
        total = sum(rates[i, j] for i, j in enumerate(a.user_to_ap))
        assert total >= _brute_force_best(rates, 2) - 1e-12


class TestAssignmentSolver:
    """``_max_weight_assignment`` returns the pairs scipy's solver returns, ties included."""

    @pytest.mark.parametrize("integer", [False, True], ids=["continuous", "integer"])
    def test_matches_scipy_on_slot_tables(self, integer):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(2016 + integer)
        mismatched = []
        # 72 shapes x 70 tables: users 1-8 against 1-9 slots, so wide, square and tall
        for n_users, n_aps, cap in itertools.product(range(1, 9), range(1, 4), range(1, 4)):
            for _ in range(70):
                shape = (n_users, n_aps)
                # integer tables in {0, 1, 2} are full of ties
                rates = rng.integers(0, 3, shape).astype(float) if integer else rng.uniform(0, 1, shape)
                table = rates[:, np.repeat(np.arange(n_aps), cap)]
                rows, cols = linear_sum_assignment(table, maximize=True)
                if _max_weight_assignment(table) != (rows.tolist(), cols.tolist()):
                    mismatched.append(table)
        assert mismatched == []

    def test_empty_table(self):
        assert _max_weight_assignment(np.zeros((3, 0))) == ([], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rate_table_rejected(self, bad):
        sc = default_scenario(0)
        rates = np.ones((sc.n_users, sc.n_aps))
        rates[2, 1] = bad
        with pytest.raises(ValueError, match="rate table must be finite"):
            associate_users(sc, rates)


def test_stock_codebooks():
    assert [(c.n_t, c.n_rf) for c in STOCK_CODEBOOKS] == [
        (2, 1), (2, 2), (4, 1), (4, 2), (8, 1), (8, 2)
    ]


def test_box_contains():
    b = Box((0, 0, 0), (1, 1, 1))
    assert b.contains((0.5, 0.5, 0.5))
    assert b.contains((0, 0, 0))
    assert not b.contains((1.5, 0.5, 0.5))
