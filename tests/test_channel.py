"""Channel synthesis oracles: path gain, delay phasors, cascades, composites."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from irslink.arrays import SPEED_OF_LIGHT
from irslink.channel import (
    LinkChannels,
    nlos_smallscale_factor,
    path_gain_db,
    synthesize_links,
)
from irslink.scenario import Box, ConfigError, IrsPanel, Scenario, SystemParams

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
    """1x1, one-subcarrier links: direct h0 plus cascades outof[m] * into[m] in both bands."""
    m = len(into)

    def stack(values):
        return np.asarray(values, dtype=complex).reshape(1, 1, m, 1)

    direct = np.full((1, 1, 1, 1, 1), h0, dtype=complex)
    return LinkChannels(
        scalar_scenario(m), 0, direct, stack(outof), stack(into), direct, stack(into),
        stack(outof),
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
        assert links.dl_user_cols.shape == links.ul_user_rows.shape == (1, 5, 3, 2)
        assert links.dl_ap_rows.shape == links.ul_ap_cols.shape == (1, 5, 3, 4)

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

    def test_real_decay_variant_is_frequency_flat(self):
        sc = scalar_scenario(2, n_sc=4, delay_mode="real_decay")
        links = synthesize_links(sc)
        for h in (links.dl_nlos[0, 0, :, 0, 0], links.dl_ap_rows[0, :, 1, 0]):
            assert np.allclose(h.imag, h.imag[0])
            assert np.allclose(np.abs(h), np.abs(h[0]))

    def test_nonfinite_rejected(self):
        links = _scalar_links(0.5, [0.1], [0.2])
        bad = np.full((1, 1, 1, 1), np.nan, dtype=complex)
        with pytest.raises(ValueError, match="non-finite channel entries in ul_ap_cols"):
            replace(links, ul_ap_cols=bad)


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
        np.testing.assert_array_equal(links.dl_composite(0, 0, np.zeros(0)), links.dl_nlos[0, 0])

    def test_single_term_no_direct(self):
        links = _scalar_links(0.0, [0.2 - 0.5j], [1.5 + 0.25j])
        out = links.dl_composite(0, 0, np.ones(1))
        assert out[0, 0, 0] == pytest.approx((0.2 - 0.5j) * (1.5 + 0.25j))

    def test_three_element_scalar_oracle(self):
        rng = np.random.default_rng(11)
        h0 = complex(*rng.standard_normal(2))
        into = [complex(*rng.standard_normal(2)) for _ in range(3)]
        outof = [complex(*rng.standard_normal(2)) for _ in range(3)]
        phases = rng.uniform(-np.pi, np.pi, 3)
        out = _scalar_links(h0, into, outof).dl_composite(0, 0, np.exp(1j * phases))
        expected = h0 + sum(
            np.exp(1j * t) * b * a for t, a, b in zip(phases, into, outof)
        )
        assert out[0, 0, 0] == pytest.approx(expected, abs=1e-12)

    def test_pi_phase_flips_cascade_sign(self):
        links = _scalar_links(0.0, [0.4 + 0.2j], [1.0 - 1.0j])
        plus = links.dl_composite(0, 0, np.exp(1j * np.zeros(1)))
        minus = links.dl_composite(0, 0, np.exp(1j * np.array([np.pi])))
        np.testing.assert_allclose(minus, -plus, atol=1e-12)

    def test_ul_two_element_scalar_oracle(self):
        rng = np.random.default_rng(5)
        h0 = complex(*rng.standard_normal(2))
        into = [complex(*rng.standard_normal(2)) for _ in range(2)]
        outof = [complex(*rng.standard_normal(2)) for _ in range(2)]
        phases = np.array([0.7, -1.9])
        out = _scalar_links(h0, into, outof).ul_composite(0, 0, np.exp(1j * phases))
        expected = h0 + sum(
            np.exp(1j * t) * b * a for t, a, b in zip(phases, into, outof)
        )
        assert out[0, 0, 0] == pytest.approx(expected, abs=1e-12)

    def test_phase_count_mismatch(self):
        links = _scalar_links(0.0, [0.0], [0.0])
        for coeffs in (np.ones(2), np.ones(0)):
            with pytest.raises(ValueError, match="phase count"):
                links.dl_composite(0, 0, coeffs)
            with pytest.raises(ValueError, match="phase count"):
                links.ul_composite(0, 0, coeffs)


class TestLinkChannels:
    def test_stacked_composite_matches_per_element(self):
        sc = _mimo_scenario(2, 2)
        links = synthesize_links(sc, seed=2)
        coeffs = np.exp(1j * np.array([0.1, 1.3, -2.2, 2.9]))
        expected = _nlos_oracle(sc, "DL", seed=2) + sum(
            c * h for c, h in zip(coeffs, _cascade_oracles(sc, "DL"))
        )
        np.testing.assert_allclose(links.dl_composite(0, 0, coeffs), expected, rtol=1e-12)

    def test_ul_nlos_consistency(self):
        sc = _mimo_scenario(n_sc=3)
        links = synthesize_links(sc, seed=9)
        np.testing.assert_array_equal(links.ul_composite(0, 0, np.zeros(0, complex)),
                                      links.ul_nlos[0, 0])
        np.testing.assert_allclose(links.ul_nlos[0, 0], _nlos_oracle(sc, "UL", seed=9),
                                   rtol=1e-12)
        sc = _mimo_scenario(3, 1, n_sc=3)
        links = synthesize_links(sc, seed=9)
        coeffs = np.exp(1j * np.array([0.4, -0.9, 2.5]))
        expected = _nlos_oracle(sc, "UL", seed=9) + sum(
            c * h for c, h in zip(coeffs, _cascade_oracles(sc, "UL"))
        )
        np.testing.assert_allclose(links.ul_composite(0, 0, coeffs), expected, rtol=1e-12)

    def test_shared_phases_for_both_bands(self):
        sc = scalar_scenario(2, n_sc=2)
        links = synthesize_links(sc, seed=0)
        coeffs = np.exp(1j * np.array([0.4, -0.9]))
        dl = links.dl_composite(0, 0, coeffs)
        ul = links.ul_composite(0, 0, coeffs)
        assert dl.shape == (2, 1, 1) and ul.shape == (2, 1, 1)
        # both deviate from their direct-only channels under the same phases
        assert not np.allclose(dl, links.dl_nlos[0, 0])
        assert not np.allclose(ul, links.ul_nlos[0, 0])
