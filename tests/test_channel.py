"""Channel synthesis oracles: path gain, delay phasors, cascades, composites."""

import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslink import channel
from irslink.arrays import SPEED_OF_LIGHT, vector_norm
from irslink.channel import (
    LinkChannels,
    _hop_gains,
    _panel_steering,
    _ula_along,
    nlos_smallscale_factor,
    path_gain_db,
    subcarrier_pieces,
    synthesize_links,
)
from irslink.opcount import OpCounter
from irslink.optimizer import alternating_optimize
from irslink.scenario import (
    CARRIER_MIN,
    NOISE_POWER_MAX,
    NOISE_POWER_MIN,
    Box,
    ConfigError,
    IrsPanel,
    RcgConfig,
    Scenario,
    SystemParams,
    compute_dod_doa,
    default_scenario,
    derive,
    with_irs_elements,
)

from conftest import scalar_scenario


def _pl0(carrier):
    return 20.0 * np.log10(4.0 * np.pi * carrier / SPEED_OF_LIGHT)


def _mimo_scenario(m_y=0, m_z=0, n_sc=4, **overrides):
    """One 4-antenna AP, one 2-antenna user, and an optional m_y x m_z panel."""
    params = SystemParams(n_t=4, n_r=2, n_rf=1, n_s=1, n_sc=n_sc, v_cap=1, **overrides)
    panels = ()
    if m_y:
        panels = (IrsPanel((0.0, 4.0, 1.2), m_y, m_z, params.wavelength_dl / 2.0),)
    return Scenario(
        ap_positions=np.array([[2.0, 3.0, 2.5]]),
        user_positions=np.array([[7.0, 9.0, 1.5]]),
        irs_panels=panels,
        bounds=Box((0.0, 0.0, 0.0), (10.0, 17.0, 3.0)),
        params=params,
    )


# closed-form hop oracles at half-wavelength spacing (2*pi*0.5 = pi)


def _ula(n, direction):
    az = np.arctan2(direction[1], direction[0])
    return np.exp(1j * np.pi * np.arange(n) * np.sin(az))


def _upa_entry(a, b, direction):
    az = np.arctan2(direction[1], direction[0])
    el = np.arcsin(direction[2] / np.linalg.norm(direction))
    return np.exp(1j * np.pi * (a * np.sin(az) * np.cos(el) + b * np.sin(el)))


def _hop(params, carrier, tx, rx, a_rx, a_tx, exponent, loss_db=0.0):
    """(n_sc, n_rx, n_tx) = 10**(pg/20) * exp(-j 2 pi f_n tau) * a_rx a_tx^H, tau = d / c."""
    d = np.linalg.norm(rx - tx)
    amp = 10.0 ** ((path_gain_db(d, carrier, exponent) - loss_db) / 20.0)
    tau = d / SPEED_OF_LIGHT
    phasor = np.exp(-2j * np.pi * params.subcarrier_frequencies(carrier) * tau)
    return amp * phasor[:, None, None] * np.outer(a_rx, np.conj(a_tx))[None]


def _nlos_oracle(sc, band, seed):
    p = sc.params
    ap, user = sc.ap_positions[0], sc.user_positions[0]
    if band == "DL":
        h = _hop(p, p.carrier_dl, ap, user, _ula(p.n_r, ap - user), _ula(p.n_t, user - ap),
                 p.pathloss_exponent, p.nlos_penalty_db)
    else:
        h = _hop(p, p.carrier_ul, user, ap, _ula(p.n_t, user - ap), _ula(p.n_r, ap - user),
                 p.pathloss_exponent, p.nlos_penalty_db)
    return h * nlos_smallscale_factor(seed, 0, 0, band) if p.smallscale else h


def _cascade_oracles(sc, band):
    """Per element m: (n_sc, n_rx, n_tx) cascade second_hop @ first_hop of the band."""
    p = sc.params
    ap, user = sc.ap_positions[0], sc.user_positions[0]
    panel = sc.irs_panels[0]
    origin = np.asarray(panel.origin)
    out = []
    for b in range(panel.m_z):
        for a in range(panel.m_y):
            elem = origin + np.array([0.0, a * panel.spacing, b * panel.spacing])
            if band == "DL":
                ap_hop = _hop(p, p.carrier_dl, ap, elem, [_upa_entry(a, b, origin - ap)],
                              _ula(p.n_t, elem - ap), p.los_exponent)
                user_hop = _hop(p, p.carrier_dl, elem, user, _ula(p.n_r, elem - user),
                                [_upa_entry(a, b, user - origin)], p.los_exponent)
                out.append(user_hop @ ap_hop)
            else:
                user_hop = _hop(p, p.carrier_ul, user, elem, [_upa_entry(a, b, origin - user)],
                                _ula(p.n_r, elem - user), p.los_exponent)
                ap_hop = _hop(p, p.carrier_ul, elem, ap, _ula(p.n_t, elem - ap),
                              [_upa_entry(a, b, ap - origin)], p.los_exponent)
                out.append(ap_hop @ user_hop)
    return out


def _scalar_links(h0, into=(), outof=()):
    """1x1, one-subcarrier links: direct h0 plus cascades outof[m] * into[m] in
    both bands; the UL hops are stored as factors, unit amplitudes at zero
    delay (a unit gain) and steering entries into / outof."""
    m = len(into)

    def stack(values):
        return np.asarray(values, dtype=complex).reshape(1, 1, m, 1)

    def steering(values):
        return np.asarray(values, dtype=complex).reshape(1, m, 1)

    unit, zero = np.ones((1, m)), np.zeros((1, m))
    direct = np.full((1, 1, 1, 1, 1), h0, dtype=complex)
    return LinkChannels(
        scalar_scenario(m), 0, direct, stack(outof), stack(into), direct, unit, zero,
        steering(into), unit, zero, steering(outof),
    )


class TestPathGain:
    def test_reference_distance(self):
        carrier = 60e9
        assert path_gain_db(1.0, carrier, 4.6) == pytest.approx(-_pl0(carrier))

    def test_doubling_distance(self):
        carrier = 60e9
        # 10 * 4.6 * log10(2) = 13.848 dB extra loss
        expected = -_pl0(carrier) - 10 * 4.6 * np.log10(2.0)
        assert path_gain_db(2.0, carrier, 4.6) == pytest.approx(expected)
        assert 10 * 4.6 * np.log10(2.0) == pytest.approx(13.848, abs=1e-3)

    def test_nonpositive_distance(self):
        with pytest.raises(ValueError):
            path_gain_db(0.0, 60e9, 2.0)
        with pytest.raises(ValueError):
            path_gain_db(np.array([1.0, 0.0]), 60e9, 2.0)

    @given(st.floats(0.5, 50.0), st.floats(1.5, 6.0))
    def test_monotone_decreasing(self, d, w):
        assert path_gain_db(d * 1.5, 60e9, w) < path_gain_db(d, 60e9, w)


def test_propagation_delay_arithmetic():
    # d = 3 m at c = 2.998e8 m/s
    assert 3.0 / SPEED_OF_LIGHT == pytest.approx(1.0007e-8, rel=1e-4)


class TestDirectChannels:
    def test_shapes_follow_params(self):
        links = synthesize_links(_mimo_scenario(3, 1, n_sc=5))
        assert links.dl_nlos.shape == (1, 1, 5, 2, 4)
        assert links.ul_nlos.shape == (1, 1, 5, 4, 2)
        assert links.dl_user_cols.shape == links.ul_hops("user").shape == (1, 5, 3, 2)
        assert links.dl_ap_rows.shape == links.ul_hops("ap").shape == (1, 5, 3, 4)
        # the UL hops are stored as per-(link, element) amplitudes and delays
        for name in ("ul_user_amp", "ul_user_delay", "ul_ap_amp", "ul_ap_delay"):
            assert getattr(links, name).shape == (1, 3), name
        assert links.ul_user_steering.shape == (1, 3, 2)
        assert links.ul_ap_steering.shape == (1, 3, 4)

    def test_penalty_off_equals_los(self):
        # with zero penalty and the LoS exponent, the direct path is a plain
        # LoS link: its magnitude must match the free-space amplitude
        sc = scalar_scenario(0, nlos_penalty_db=0.0, pathloss_exponent=2.0)
        d = np.linalg.norm(sc.user_positions[0] - sc.ap_positions[0])
        amp = 10.0 ** (path_gain_db(d, sc.params.carrier_dl, 2.0) / 20.0)
        h = synthesize_links(sc).dl_nlos[0, 0]
        np.testing.assert_allclose(np.abs(h), amp, rtol=1e-12)

    def test_default_penalty_attenuates(self):
        blocked = scalar_scenario(0, pathloss_exponent=2.0)
        clear = scalar_scenario(0, nlos_penalty_db=0.0, pathloss_exponent=2.0)
        h_b = synthesize_links(blocked).dl_nlos[0, 0]
        h_c = synthesize_links(clear).dl_nlos[0, 0]
        assert np.all(np.abs(h_b) < np.abs(h_c))

    def test_magnitude_monotone_in_distance(self):
        mags = []
        for d in np.linspace(1.0, 10.0, 10):
            sc = Scenario(
                ap_positions=np.array([[1.0, 1.0, 1.5]]),
                user_positions=np.array([[1.0 + d, 1.0, 1.5]]),
                irs_panels=(),
                bounds=Box((0, 0, 0), (20, 20, 3)),
                params=SystemParams(n_t=1, n_r=1, n_rf=1, n_sc=2, smallscale=False),
            )
            mags.append(float(np.abs(synthesize_links(sc).dl_nlos[0, 0, 0, 0, 0])))
        assert all(a > b for a, b in zip(mags, mags[1:]))

    @pytest.mark.parametrize("stack", ["dl_nlos", "ul_nlos", "dl_ap_rows", "dl_user_cols",
                                       "ul_ap", "ul_user"])
    def test_gain_turns_with_the_hop_delay(self, stack):
        # every hop gain is amp * exp(-j 2 pi f_n tau), tau = hop length / c:
        # across subcarriers its modulus holds and its phase turns by
        # -2 pi (f_n - f_0) tau
        sc = _mimo_scenario(3, 2, n_sc=5)
        p, links = sc.params, synthesize_links(sc, seed=4)
        ap, user, elems = sc.ap_positions[0], sc.user_positions[0], sc.irs_element_positions()
        if stack in ("dl_nlos", "ul_nlos"):
            h = getattr(links, stack)[0, 0]
            length = np.array(np.linalg.norm(user - ap)).reshape(1, 1)
        else:
            h = (links.ul_hops(stack[3:]) if stack.startswith("ul_")
                 else getattr(links, stack))[0]
            length = np.linalg.norm(elems - (ap if "ap" in stack else user), axis=1)[:, None]
        carrier = p.carrier_dl if stack.startswith("dl_") else p.carrier_ul
        offsets = p.subcarrier_frequencies(carrier) - p.subcarrier_frequencies(carrier)[0]
        turn = np.exp(-2j * np.pi * offsets[:, None, None] * length[None] / SPEED_OF_LIGHT)
        np.testing.assert_allclose(h, h[:1] * turn, rtol=1e-9, atol=0.0)

    def test_nonfinite_rejected(self):
        # every field annotated np.ndarray is checked, and those are the
        # fields that hold the arrays
        links = _scalar_links(0.5, [0.1], [0.2])
        names = [f.name for f in fields(LinkChannels) if f.type is np.ndarray]
        assert names == [f.name for f in fields(links)
                         if isinstance(getattr(links, f.name), np.ndarray)]
        for name in names:
            bad = getattr(links, name).copy()
            bad.flat[-1] = np.nan
            with pytest.raises(ValueError, match=f"non-finite channel entries in {name}$"):
                replace(links, **{name: bad})


class TestDegenerateGeometry:
    @pytest.mark.parametrize(
        "case, message",
        [
            ("ap", r"geometry\.user_positions\[1\]: coincides with ap_positions\[0\]"),
            (
                "irs_element",
                r"geometry\.user_positions\[1\]: coincides with irs_panels\[0\]\.elements\[4\]",
            ),
            (
                "ap_on_irs_element",
                r"geometry\.ap_positions\[1\]: coincides with irs_panels\[0\]\.elements\[4\]",
            ),
        ],
        ids=["ap", "irs_element", "ap_on_irs_element"],
    )
    def test_coincident_nodes_rejected(self, case, message):
        sc = _mimo_scenario(3, 2)
        element = sc.irs_element_positions()[4]
        aps, users = sc.ap_positions, sc.user_positions
        if case == "ap_on_irs_element":
            aps = np.stack([aps[0], element])
        else:
            users = np.stack([users[0], aps[0] if case == "ap" else element])
        with pytest.raises(ConfigError, match=message):
            Scenario(
                ap_positions=aps,
                user_positions=users,
                irs_panels=sc.irs_panels,
                bounds=sc.bounds,
                params=sc.params,
            )

    @pytest.mark.parametrize(
        "name, value, ap, user, shortest",
        [("pathloss_exponent", 1e300, (2.0, 3.0, 2.5), (2.0, 3.0, 2.0), "0.5"),
         ("pathloss_exponent", 1300.0, (2.0, 3.0, 2.5), (2.0, 3.0, 2.0), "0.5"),
         ("los_exponent", 1e300, (2.0, 3.0, 2.5), (0.5, 4.0, 1.2), "0.5"),
         ("pathloss_exponent", 1e308, (2.0, 3.0, 2.5), (2.0, 3.0, 1.5), "1"),
         ("los_exponent", 1e300, (0.5, 4.0, 1.2), (7.0, 9.0, 1.5), "0.5"),
         ("los_exponent", 1300.0, (0.5, 4.0, 1.2), (7.0, 9.0, 1.5), "0.5")],
        ids=["direct_hop_overflows", "direct_hop_above_power_bound", "element_hop_overflows",
             "exponent_times_zero_log_is_nan", "ap_element_hop_overflows",
             "ap_element_hop_above_power_bound"],
    )
    def test_short_hop_whose_amplitude_overflows_rejected(self, name, value, ap, user, shortest):
        # a hop shorter than 1 m turns its path loss into a gain that grows
        # with the exponent: a user 0.5 m below the AP, or a user or the AP
        # 0.5 m from a panel corner. At 1 m, 10 * 1e308 overflows to inf and
        # inf * log10(1) is NaN. The scenario loads; synthesis rejects it
        # before it forms the family's hops
        sc = _mimo_scenario(3, 2)
        near = replace(sc, ap_positions=np.array([ap]), user_positions=np.array([user]),
                       params=replace(sc.params, **{name: value}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError,
                               match=rf"^system\.{name}: the shortest hop \({shortest} m\)"):
                synthesize_links(near)

    @pytest.mark.parametrize(
        "name, band, ap, user, m_z, seed, overrides",
        [("pathloss_exponent", "DL", (2.0, 3.0, 2.5), (2.0, 3.0, 2.0), 0, 0,
          {"pathloss_exponent": 1035.0}),
         ("los_exponent", "DL", (0.5, 4.0, 1.7), (0.5, 4.0, 1.2), 2, 0, {"los_exponent": 700.0}),
         ("p_ap", "DL", (2.0, 3.0, 2.5), (2.0, 3.0, 1.5), 0, 1,
          {"p_ap": 1.3e154, "noise_power": 1.5e-154, "carrier_dl": 1.5 * CARRIER_MIN,
           "pathloss_exponent": 0.0, "nlos_penalty_db": 0.0}),
         ("p_user", "UL", (2.0, 3.0, 2.5), (2.0, 3.0, 1.5), 0, 3,
          {"p_user": 1.3e154, "noise_power": 1.5e-154, "carrier_ul": 1.5 * CARRIER_MIN,
           "pathloss_exponent": 0.0, "nlos_penalty_db": 0.0})],
        ids=["direct_hop", "element_cascades", "ap_power_over_noise", "user_power_over_noise"],
    )
    def test_link_whose_snr_overflows_rejected(self, name, band, ap, user, m_z, seed, overrides):
        # hop amplitudes within the powers' bound, but a link's SNR bound
        # p n_t n_r A^2 / sigma2 overflows: 0.5 m below the AP (the direct hop,
        # amplitude about 7.6e151 at 60 GHz), an AP and a user 0.5 m from a
        # panel (six element cascades), or a 1 m hop of amplitude 2/3 whose
        # power over the noise is about 8.7e307. A short AO run used to
        # overflow on the first two at seed 0, and on the last two at the
        # seeds whose small-scale factor passes about 0.6 (1, 2 and 5 in the
        # DL; 3 and 5 in the UL); synthesis bounds A with that factor
        sc = _mimo_scenario(3, m_z) if m_z else _mimo_scenario()
        bad = replace(sc, ap_positions=np.array([ap]), user_positions=np.array([user]),
                      params=replace(sc.params, **overrides))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError,
                               match=rf"^system\.{name}: the interference-free {band} SNR of "
                                     rf"user 0 at AP 0 overflows$"):
                synthesize_links(bad, seed)

    def test_short_hop_within_the_power_bound_is_finite(self):
        # amplitudes about 4e146 (DL) and 5e147 (UL) at 0.5 m, below the
        # powers' bound of 1.34e154. With one user no interferer enters the
        # SINR denominators, so a short AO run stays finite as well
        sc = _mimo_scenario(3, 2)
        near = replace(sc, user_positions=np.array([(2.0, 3.0, 2.0)]),
                       params=replace(sc.params, pathloss_exponent=1000.0))
        config = RcgConfig(max_iter=3, outer_rounds=2)
        for seed in range(4):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                links = synthesize_links(near, seed)
                result = alternating_optimize(near, seed, config=config, links=links)
            for hops in (links.dl_nlos, links.ul_nlos):
                assert 1e145 < np.abs(hops).max() < 1.34e154
            assert np.isfinite(result.report.sum_utility)
            assert all(np.isfinite(state.objective) and np.isfinite(state.grad_norm)
                       for state in result.rcg_trace)

    @pytest.mark.parametrize("seed", range(10))
    def test_link_whose_fading_lifts_its_ul_snr_past_the_floats_rejected(self, seed):
        # 1 m below the AP at 1.5 CARRIER_MIN: hop amplitude 2/3, and p_user
        # over the noise about 2.2e307, so p n_t n_r A^2 / sigma2 is about
        # 7.7e307 |h|^2 with |h| the seed's small-scale factor. The check
        # keeps it below half the largest float, so seeds 3, 5, 6 and 8 fail;
        # the UL SINR used to overflow in metrics.sinr_ul at seeds 3 and 8
        sc = _mimo_scenario()
        bad = replace(sc, user_positions=np.array([(2.0, 3.0, 1.5)]),
                      params=replace(sc.params, p_user=3.25e153, noise_power=1.5e-154,
                                     carrier_ul=1.5 * CARRIER_MIN, pathloss_exponent=0.0,
                                     nlos_penalty_db=0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                links = synthesize_links(bad, seed)
            except ConfigError as exc:
                assert str(exc) == ("system.p_user: the interference-free UL SNR of user 0 "
                                    "at AP 0 overflows")
                return
            result = alternating_optimize(bad, seed, config=RcgConfig(max_iter=3, outer_rounds=2),
                                          links=links)
        report = result.report
        for column in (report.rate_dl, report.rate_ul, report.transmission, report.processing):
            assert np.all(np.isfinite(column))
        assert np.isfinite(report.sum_utility)


class TestSmallScale:
    def test_deterministic_per_seed_and_link(self):
        assert nlos_smallscale_factor(3, 1, 0, "DL") == nlos_smallscale_factor(3, 1, 0, "DL")
        assert nlos_smallscale_factor(3, 1, 0, "DL") != nlos_smallscale_factor(4, 1, 0, "DL")
        assert nlos_smallscale_factor(3, 1, 0, "DL") != nlos_smallscale_factor(3, 1, 0, "UL")
        assert nlos_smallscale_factor(3, 1, 0, "DL") != nlos_smallscale_factor(3, 2, 0, "DL")

    def test_unit_variance(self):
        draws = np.array(
            [nlos_smallscale_factor(s, 0, 0, "DL") for s in range(4000)]
        )
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, rel=0.1)
        assert abs(np.mean(draws)) < 0.05


class TestComposite:
    def test_no_elements_equals_direct(self):
        links = _scalar_links(0.3 + 0.1j)
        np.testing.assert_array_equal(links.dl_composites(np.zeros(0))[0, 0], links.dl_nlos[0, 0])

    def test_single_term_no_direct(self):
        links = _scalar_links(0.0, [0.2 - 0.5j], [1.5 + 0.25j])
        out = links.dl_composites(np.ones(1))[0, 0]
        assert out[0, 0, 0] == pytest.approx((0.2 - 0.5j) * (1.5 + 0.25j))

    def test_three_element_scalar_oracle(self):
        rng = np.random.default_rng(11)
        h0 = complex(*rng.standard_normal(2))
        into = [complex(*rng.standard_normal(2)) for _ in range(3)]
        outof = [complex(*rng.standard_normal(2)) for _ in range(3)]
        phases = rng.uniform(-np.pi, np.pi, 3)
        out = _scalar_links(h0, into, outof).dl_composites(np.exp(1j * phases))[0, 0]
        expected = h0 + sum(
            np.exp(1j * t) * b * a for t, a, b in zip(phases, into, outof)
        )
        assert out[0, 0, 0] == pytest.approx(expected, abs=1e-12)

    def test_pi_phase_flips_cascade_sign(self):
        links = _scalar_links(0.0, [0.4 + 0.2j], [1.0 - 1.0j])
        plus = links.dl_composites(np.exp(1j * np.zeros(1)))[0, 0]
        minus = links.dl_composites(np.exp(1j * np.array([np.pi])))[0, 0]
        np.testing.assert_allclose(minus, -plus, atol=1e-12)

    def test_ul_two_element_scalar_oracle(self):
        rng = np.random.default_rng(5)
        h0 = complex(*rng.standard_normal(2))
        into = [complex(*rng.standard_normal(2)) for _ in range(2)]
        outof = [complex(*rng.standard_normal(2)) for _ in range(2)]
        phases = np.array([0.7, -1.9])
        out = _scalar_links(h0, into, outof).ul_composites(np.exp(1j * phases))[0, 0]
        expected = h0 + sum(
            np.exp(1j * t) * b * a for t, a, b in zip(phases, into, outof)
        )
        assert out[0, 0, 0] == pytest.approx(expected, abs=1e-12)

    def test_phase_count_mismatch(self):
        links = _scalar_links(0.0, [0.0], [0.0])
        for coeffs in (np.ones(2), np.ones(0)):
            with pytest.raises(ValueError, match="phase count"):
                links.dl_composites(coeffs)
            with pytest.raises(ValueError, match="phase count"):
                links.ul_composites(coeffs)


class TestLinkChannels:
    def test_stacked_composite_matches_per_element(self):
        sc = _mimo_scenario(2, 2)
        links = synthesize_links(sc, seed=2)
        coeffs = np.exp(1j * np.array([0.1, 1.3, -2.2, 2.9]))
        expected = _nlos_oracle(sc, "DL", seed=2) + sum(
            c * h for c, h in zip(coeffs, _cascade_oracles(sc, "DL"))
        )
        np.testing.assert_allclose(links.dl_composites(coeffs)[0, 0], expected, rtol=1e-12)

    def test_ul_nlos_consistency(self):
        sc = _mimo_scenario(n_sc=3)
        links = synthesize_links(sc, seed=9)
        np.testing.assert_array_equal(links.ul_composites(np.zeros(0, complex))[0, 0],
                                      links.ul_nlos[0, 0])
        np.testing.assert_allclose(links.ul_nlos[0, 0], _nlos_oracle(sc, "UL", seed=9),
                                   rtol=1e-12)
        sc = _mimo_scenario(3, 1, n_sc=3)
        links = synthesize_links(sc, seed=9)
        coeffs = np.exp(1j * np.array([0.4, -0.9, 2.5]))
        expected = _nlos_oracle(sc, "UL", seed=9) + sum(
            c * h for c, h in zip(coeffs, _cascade_oracles(sc, "UL"))
        )
        np.testing.assert_allclose(links.ul_composites(coeffs)[0, 0], expected, rtol=1e-12)

    def test_cascade_stacks_run_element_fastest(self):
        links = synthesize_links(_mimo_scenario(2, 2), seed=0)
        stacks = {"dl_user_cols": links.dl_user_cols, "dl_ap_rows": links.dl_ap_rows,
                  "ul user": links.ul_hops("user"), "ul ap": links.ul_hops("ap")}
        for name, stack in stacks.items():
            assert stack.strides[2] == stack.itemsize, name

    def test_with_surface_equals_a_fresh_synthesis(self):
        sc = default_scenario(12, n_sc=3)
        links = synthesize_links(sc, seed=4)
        for m in (0, 8, 24):
            resized = with_irs_elements(sc, m)
            built, fresh = links.with_surface(resized), synthesize_links(resized, seed=4)
            assert built.scenario is resized and built.seed == 4
            # the direct hops read no surface: shared, not synthesized again
            assert built.dl_nlos is links.dl_nlos and built.ul_nlos is links.ul_nlos
            for f in fields(LinkChannels)[2:]:
                got, want = getattr(built, f.name), getattr(fresh, f.name)
                assert (got.shape, got.dtype) == (want.shape, want.dtype), (m, f.name)
                np.testing.assert_array_equal(got, want)

    def test_shared_phases_for_both_bands(self):
        sc = scalar_scenario(2, n_sc=2)
        links = synthesize_links(sc, seed=0)
        coeffs = np.exp(1j * np.array([0.4, -0.9]))
        dl = links.dl_composites(coeffs)[0, 0]
        ul = links.ul_composites(coeffs)[0, 0]
        assert dl.shape == (2, 1, 1) and ul.shape == (2, 1, 1)
        # both deviate from their direct-only channels under the same phases
        assert not np.allclose(dl, links.dl_nlos[0, 0])
        assert not np.allclose(ul, links.ul_nlos[0, 0])


def _ul_amp_delay(p, dod):
    """The UL element hops' amplitudes and delays, formed here as synthesis
    forms them: 10**(pg/20) by np.float_power, and distance / c."""
    distance = vector_norm(dod)
    pg = path_gain_db(distance, p.carrier_ul, p.los_exponent)
    return np.float_power(10.0, pg / 20.0), distance / SPEED_OF_LIGHT


def _stored_ul_stacks(sc):
    """The UL element-hop stacks as synthesis stored them before it kept
    their factors: amplitudes, delays and outer products formed here, the
    gains of the whole band and one np.multiply into an element-fastest
    (L, n_sc, M, n) buffer."""
    p = sc.params
    aps, users = sc.ap_positions, sc.user_positions
    elems = sc.irs_element_positions()[None]

    def hops(carrier, dod, a_rx, a_tx):
        amp, tau = _ul_amp_delay(p, dod)
        outer = a_rx[..., :, None] * np.conj(a_tx)[..., None, :]
        gain = _hop_gains(p, carrier, amp, tau)
        n_links, m, n_rx, n_tx = outer.shape
        out = np.empty((n_links, gain.shape[-1], n_rx * n_tx, m), dtype=complex).swapaxes(2, 3)
        return np.multiply(gain.swapaxes(1, 2)[..., None],
                           outer.reshape(n_links, 1, m, n_rx * n_tx), out=out)

    ap_dep, _ = _panel_steering(sc, aps)[..., None]
    _, user_arr = _panel_steering(sc, users)[..., None]
    dod, _ = compute_dod_doa(users[:, None], elems)
    user_rows = hops(p.carrier_ul, dod, user_arr, _ula_along(p.n_r, dod))
    dod, doa = compute_dod_doa(elems, aps[:, None])
    ap_cols = hops(p.carrier_ul, dod, _ula_along(p.n_t, doa), ap_dep)
    return user_rows, ap_cols


def _held_bytes(links):
    """Bytes of the buffers behind every array field of ``links``."""
    total = 0
    for f in fields(links):
        array = getattr(links, f.name)
        if isinstance(array, np.ndarray):
            while array.base is not None:
                array = array.base
            total += array.nbytes
    return total


class TestFactoredUlHops:
    @pytest.mark.parametrize("sc", [
        default_scenario(24), default_scenario(384), _mimo_scenario(3, 2, n_sc=5), default_scenario(0),
    ], ids=["stock24", "stock384", "mimo", "no_surface"])
    def test_formed_stacks_equal_the_stored_stacks(self, sc):
        links = synthesize_links(sc, seed=4)
        for formed, stored in zip((links.ul_hops("user"), links.ul_hops("ap")),
                                  _stored_ul_stacks(sc)):
            assert formed.shape == stored.shape and formed.strides == stored.strides
            assert formed.tobytes() == stored.tobytes()

    def test_links_hold_no_ul_stack(self):
        # at M = 384 the two UL stacks took 7.9 MB of the 15.9 MB held, and
        # their per-subcarrier gains 2.4 MB; amplitudes, delays and steering
        # take 0.16 MB
        links = synthesize_links(default_scenario(384))
        n_links = {"user": links.scenario.n_users, "ap": links.scenario.n_aps}
        m = links.scenario.n_irs_elements
        for f in fields(links):
            array = getattr(links, f.name)
            if f.name.startswith("ul_") and f.name != "ul_nlos":
                side, factor = f.name.split("_")[1:]
                assert array.shape[:2] == (n_links[side], m), f.name
                assert array.ndim == (3 if factor == "steering" else 2), f.name
        assert _held_bytes(links) <= 8_300_000

    def test_gains_from_stored_factors_equal_the_whole_product(self):
        # the gains a UL piece forms from the stored amplitudes and delays are,
        # byte for byte, the slice of the whole (L, M, n_sc) product formed from
        # amplitudes and delays formed here
        sc = default_scenario(24)
        p, links = sc.params, synthesize_links(sc, seed=4)
        elems = sc.irs_element_positions()[None]
        user_dod, _ = compute_dod_doa(sc.user_positions[:, None], elems)
        ap_dod, _ = compute_dod_doa(elems, sc.ap_positions[:, None])
        for dod, amp, delay in ((user_dod, links.ul_user_amp, links.ul_user_delay),
                                (ap_dod, links.ul_ap_amp, links.ul_ap_delay)):
            whole = _hop_gains(p, p.carrier_ul, *_ul_amp_delay(p, dod))
            assert whole.shape == amp.shape + (p.n_sc,)
            for size in (1, 5, p.n_sc):
                for start in range(0, p.n_sc, size):
                    n = slice(start, start + size)
                    formed = _hop_gains(p, p.carrier_ul, amp, delay, n)
                    assert formed.tobytes() == np.ascontiguousarray(whole[..., n]).tobytes()


def _element_fastest(stack):
    """The same (L, n_sc, M, n) values stored with the element axis fastest,
    the layout ``synthesize_links`` gives its cascade stacks."""
    out = np.empty(stack.shape[:2] + stack.shape[:1:-1], dtype=complex).swapaxes(2, 3)
    out[...] = stack
    return out


@st.composite
def _cascade_links(draw):
    """Random LinkChannels over U, B, n_sc, n_r, n_t and M, in either DL stack
    layout, and unit-modulus coefficients for them.
    Composites read only the hops and, for the UL gains, the scenario's
    system parameters."""
    n_users, n_aps = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    n_sc = draw(st.sampled_from([1, 2, 4]))
    n_r, n_t = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, 3, 8, 17, 64]))
    m = draw(st.one_of(st.sampled_from([0, 1, 384]), st.integers(0, 96)))
    params = SystemParams(n_t=n_t, n_r=n_r, n_rf=1, n_s=1, n_sc=n_sc)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def amp_delay(n_links):
        return rng.uniform(1e-4, 1.0, (n_links, m)), rng.uniform(1e-9, 1e-7, (n_links, m))

    layout = _element_fastest if draw(st.booleans()) else np.ascontiguousarray
    # the DL hops are stored as stacks, the UL hops as their factors
    links = LinkChannels(
        SimpleNamespace(params=params), 0, cn(n_users, n_aps, n_sc, n_r, n_t),
        layout(cn(n_users, n_sc, m, n_r)), layout(cn(n_aps, n_sc, m, n_t)),
        cn(n_users, n_aps, n_sc, n_t, n_r), *amp_delay(n_users), cn(n_users, m, n_r),
        *amp_delay(n_aps), cn(n_aps, m, n_t),
    )
    return links, np.exp(1j * rng.uniform(-np.pi, np.pi, m))


def _three_operand(links, coeffs, band):
    """The composites of a band as one einsum over phases, user and AP stacks."""
    if band == "DL":
        h, user, ap, spec = links.dl_nlos, links.dl_user_cols, links.dl_ap_rows, "ibnrt"
    else:
        h, user, ap, spec = links.ul_nlos, links.ul_hops("user"), links.ul_hops("ap"), "ibntr"
    h = h.copy()
    if len(coeffs):
        h += np.einsum("m,inmr,bnmt->" + spec, coeffs, user, ap)
    return h


class TestCompositeBits:
    """The composites scale the user stack once, then contract it with the AP
    stack: every bit equals the three-operand einsum's."""

    @settings(max_examples=60, deadline=None)
    @given(_cascade_links())
    def test_equal_to_three_operand_einsum(self, case):
        links, coeffs = case
        np.testing.assert_array_equal(links.dl_composites(coeffs),
                                      _three_operand(links, coeffs, "DL"))
        np.testing.assert_array_equal(links.ul_composites(coeffs),
                                      _three_operand(links, coeffs, "UL"))

    @settings(max_examples=30, deadline=None)
    @given(_cascade_links(), st.sampled_from([1, 3000, 40000]))
    def test_ul_pieces_equal_whole_stacks(self, case, piece_bytes):
        # one subcarrier per piece, a few, or the whole band: the UL composites
        # re-form their hops piece by piece with the bits of the whole stacks
        links, coeffs = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(channel, "PIECE_BYTES", piece_bytes)
            ul = links.ul_composites(coeffs)
        np.testing.assert_array_equal(ul, _three_operand(links, coeffs, "UL"))

    @settings(max_examples=30, deadline=None)
    @given(_cascade_links(), st.sampled_from([1, 3000, 40000]))
    def test_dl_pieces_equal_one_piece(self, case, piece_bytes):
        # one subcarrier per piece, a few, or the whole band: the DL composites
        # scale and contract piece by piece with the bits of one piece
        links, coeffs = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(channel, "PIECE_BYTES", 1 << 40)
            whole = links.dl_composites(coeffs)
            mp.setattr(channel, "PIECE_BYTES", piece_bytes)
            pieced = replace(links).dl_composites(coeffs)  # links with nothing kept
        assert pieced.tobytes() == whole.tobytes()

    @given(st.integers(1, 300), st.integers(0, 3 << 20))
    def test_subcarrier_pieces_cover_the_band_within_the_limit(self, n_sc, bytes_per_subcarrier):
        pieces = subcarrier_pieces(n_sc, bytes_per_subcarrier)
        assert [n.start for n in pieces] == [0] + [n.stop for n in pieces[:-1]]
        assert pieces[-1].stop == n_sc
        most = max(1, channel.PIECE_BYTES // max(bytes_per_subcarrier, 1))
        # every piece but the last holds as many subcarriers as fit, at least one
        assert [n.stop - n.start for n in pieces[:-1]] == [most] * (len(pieces) - 1)
        assert 1 <= pieces[-1].stop - pieces[-1].start <= most

    @settings(max_examples=20, deadline=None)
    @given(_cascade_links(), st.integers(0, 2**32 - 1))
    def test_kept_build_equals_fresh_builds(self, case, seed):
        links, first = case
        rng = np.random.default_rng(seed)
        for coeffs in (first, np.exp(1j * rng.uniform(-np.pi, np.pi, len(first))), first):
            h = links.dl_composites(coeffs)
            assert links.dl_composites(coeffs) is h
            np.testing.assert_array_equal(h, _three_operand(links, coeffs, "DL"))

    def test_new_coefficients_return_a_new_array(self):
        links = synthesize_links(_mimo_scenario(2, 2), seed=1)
        coeffs = np.exp(1j * np.array([0.3, -1.1, 2.0, 0.7]))
        first = links.dl_composites(coeffs)
        second = links.dl_composites(np.ones(4))
        assert not np.shares_memory(first, second)
        for h in (first, second):
            assert not np.shares_memory(h, links.dl_nlos)
        np.testing.assert_array_equal(first, replace(links).dl_composites(coeffs))
        no_surface = synthesize_links(_mimo_scenario(), seed=1)
        h = no_surface.dl_composites(np.zeros(0))
        assert not np.shares_memory(h, no_surface.dl_nlos)
        np.testing.assert_array_equal(h, no_surface.dl_nlos)


def _built_directly(links, coeffs):
    """The DL composites of ``channel._composites`` called as ``dl_composites``
    calls it."""
    user, ap = links.dl_user_cols, links.dl_ap_rows
    return channel._composites(links.dl_nlos, coeffs, lambda n: (user[:, n], ap[:, n]),
                               "inmr,bnmt->ibnrt", user.nbytes // user.shape[1])


class TestCompositeMemo:
    """``dl_composites`` keeps its last build: equal coefficient bytes return
    that read-only array, other coefficients a new build."""

    @pytest.fixture
    def cascade_calls(self, monkeypatch):
        calls = []
        cascade = channel._cascade
        monkeypatch.setattr(channel, "_cascade",
                            lambda *a, **k: calls.append(1) or cascade(*a, **k))
        return calls

    @pytest.mark.parametrize("sc", [
        default_scenario(0), default_scenario(24), default_scenario(48), default_scenario(384),
        _mimo_scenario(3, 2, n_sc=5),
    ], ids=["m0", "m24", "m48", "m384", "mimo_n_r2"])
    def test_equal_coefficients_reuse_other_coefficients_build(self, sc, cascade_calls):
        links = synthesize_links(sc, seed=2)
        m = sc.n_irs_elements
        rng = np.random.default_rng(m)
        first = np.exp(1j * rng.uniform(-np.pi, np.pi, m))
        h = links.dl_composites(first)
        assert not h.flags.writeable
        assert h.tobytes() == _built_directly(links, first).tobytes()
        cascade_calls.clear()
        assert links.dl_composites(first.copy()) is h  # equal bytes: no cascade
        assert cascade_calls == []
        if m:  # other coefficients: a build of their own, as called directly
            rebuilt = links.dl_composites(-first)
            assert cascade_calls and rebuilt is not h
            assert rebuilt.tobytes() == _built_directly(links, -first).tobytes()

    def test_counts_the_builds_it_makes(self):
        sc = _mimo_scenario(3, 2, n_sc=5)
        links, counter = synthesize_links(sc, seed=1), OpCounter()
        coeffs = np.exp(1j * np.linspace(-1.0, 1.0, 6))
        links.dl_composites(coeffs, counter)
        p = sc.params
        assert counter.macs == sc.n_users * sc.n_aps * p.n_sc * 6 * p.n_r * p.n_t
        links.dl_composites(coeffs, counter)  # the kept build counts nothing
        assert counter.macs == sc.n_users * sc.n_aps * p.n_sc * 6 * p.n_r * p.n_t

    def test_derive_copy_shares_the_entry_with_surface_does_not(self, cascade_calls):
        sc = default_scenario(8)
        links = synthesize_links(sc, seed=0)
        coeffs = np.exp(1j * np.linspace(0.0, 1.0, 8))
        h = links.dl_composites(coeffs)
        cascade_calls.clear()
        assert derive(links).dl_composites(coeffs) is h
        assert cascade_calls == []
        resized = links.with_surface(with_irs_elements(sc, 8))
        fresh = resized.dl_composites(coeffs)
        assert fresh is not h and len(cascade_calls) == 1
        assert fresh.tobytes() == h.tobytes()
        # the copy's build is the source's kept one too
        other = np.ones(8, dtype=complex)
        built = derive(links).dl_composites(other)
        assert links.dl_composites(other) is built

    def test_returned_array_is_read_only(self):
        links = synthesize_links(_mimo_scenario(2, 2), seed=3)
        for coeffs in (np.ones(4), np.exp(1j * np.array([0.5, 1.0, -2.0, 3.0]))):
            h = links.dl_composites(coeffs)
            with pytest.raises(ValueError, match="read-only"):
                h[0, 0, 0, 0, 0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                h *= 2.0

    def test_every_stack_is_read_only(self):
        # an edit in place would leave the kept build stale: it raises instead
        links = synthesize_links(_mimo_scenario(2, 2), seed=3)
        for f in fields(LinkChannels)[2:]:
            stack = getattr(links, f.name)
            with pytest.raises(ValueError, match="read-only"):
                stack[(0,) * stack.ndim] = 1.0


def _log_uniform(lo, hi):
    """Floats spread evenly in log10 over [lo, hi]."""
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda x: float(np.clip(10.0**x, lo, hi)))


@settings(max_examples=200, deadline=None)
@given(
    powers=st.tuples(*[_log_uniform(NOISE_POWER_MIN, NOISE_POWER_MAX)] * 3),
    carriers=st.tuples(*[_log_uniform(CARRIER_MIN, 1e12)] * 2),
    exponents=st.tuples(*[st.floats(0.0, 1100.0)] * 2),
    hop=st.tuples(st.floats(0.5, 3.0), st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 0.9)),
    n_t=st.sampled_from([1, 8, 64]),
    m=st.sampled_from([0, 4]),
    seed=st.integers(0, 9),
)
def test_link_budget_rejects_or_runs_finite(powers, carriers, exponents, hop, n_t, m, seed):
    """Powers and noise anywhere in their ranges, any carriers and exponents,
    a user 0.5 to 3 m from the AP, and a 2 x 2 panel 1 m beside the AP or
    none: synthesis either rejects the links with one ``system`` field, or a
    short AO run and its report stay finite with warnings as errors."""
    p_ap, p_user, noise_power = powers
    distance, azimuth, dip = hop
    user = np.array([5.0, 8.0, 2.5]) + distance * np.array(
        [np.cos(dip) * np.cos(azimuth), np.cos(dip) * np.sin(azimuth), -np.sin(dip)])
    params = SystemParams(n_t=n_t, n_r=1, n_rf=1, n_s=1, n_sc=4, v_cap=1, p_ap=p_ap,
                          p_user=p_user, noise_power=noise_power, carrier_dl=carriers[0],
                          carrier_ul=carriers[1], pathloss_exponent=exponents[0],
                          los_exponent=exponents[1], r_min=0.0)
    panels = (IrsPanel((4.0, 7.5, 1.2), 2, 2, 0.05),) if m else ()
    scenario = Scenario(ap_positions=np.array([[5.0, 8.0, 2.5]]), user_positions=user[None],
                        irs_panels=panels, bounds=Box((0.0, 0.0, 0.0), (10.0, 17.0, 3.0)),
                        params=params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            links = synthesize_links(scenario, seed)
        except ConfigError as exc:
            assert str(exc).startswith("system."), exc
            return
        result = alternating_optimize(scenario, seed, config=RcgConfig(max_iter=2, outer_rounds=2),
                                      links=links)
    report = result.report
    for column in (report.rate_dl, report.rate_ul, report.processing,
                   report.conditional_utility, report.routing_utility):
        assert np.all(np.isfinite(column))
    # a needed rate that rounds to zero has an infinite delay and no utility
    assert np.all(np.isfinite(report.transmission) | (report.conditional_utility == 0.0))
    assert np.isfinite(report.sum_utility)
    assert all(np.isfinite([state.objective, state.grad_norm]).all() for state in result.rcg_trace)
