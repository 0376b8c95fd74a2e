"""UL/DL channel synthesis: path gains, per-element IRS links, NLoS direct
links, and IRS-cascaded composites.

Conventions:
  - path gains are dB power gains; the complex channel carries the
    amplitude 10**(pg/20).
  - per-subcarrier frequency response uses the delay phasor
    exp(-j*2*pi*f_n*tau) with tau = distance/c; the literal real-decay
    variant exp(-t/tau) is available behind ``delay_mode="real_decay"``.
  - every hop is rank one, h = gain * a_rx a_tx^H per subcarrier, and is
    built for a whole stack of links at once.
"""

from dataclasses import dataclass

import numpy as np

from irslink.arrays import (
    SPEED_OF_LIGHT,
    angles_from_vector,
    ula_steering,
    upa_steering,
    vector_norm,
)
from irslink.scenario import Scenario, compute_dod_doa


def path_gain_db(distance, carrier: float, w: float):
    """Log-distance dB power gain: -(PL0 + 10*w*log10(d/d0)), d0 = 1 m.

    Broadcasts over an array of distances.
    """
    distance = np.asarray(distance, dtype=float)
    if np.any(distance <= 0):
        raise ValueError("distance must be positive")
    d0 = 1.0
    pl0 = 20.0 * np.log10(4.0 * np.pi * d0 * carrier / SPEED_OF_LIGHT)
    return -(pl0 + 10.0 * w * np.log10(distance / d0))


def _hop_factors(params, carrier, dod, a_rx, a_tx, exponent, extra_loss_db=0.0):
    """Factors of rank-one hops h_n = gain_n * a_rx a_tx^H for a stack of links.

    ``dod`` is (..., 3) (rx minus tx position); ``a_rx`` / ``a_tx`` are
    (..., n_rx) / (..., n_tx). Returns the per-subcarrier gains
    amp * phasor, (..., n_sc), and the outer products, (..., n_rx, n_tx).
    """
    distance = vector_norm(dod)
    pg = path_gain_db(distance, carrier, exponent) - extra_loss_db
    # float_power, unlike power, rounds like the scalar 10.0 ** x
    amp = np.float_power(10.0, pg / 20.0)
    tau = distance / SPEED_OF_LIGHT
    if params.delay_mode == "real_decay":
        decay = np.exp(-params.t_proc / tau)[..., None]
        phasor = np.broadcast_to(decay, decay.shape[:-1] + (params.n_sc,))
    else:
        freqs = params.subcarrier_frequencies(carrier)
        phasor = np.exp(-2j * np.pi * freqs * tau[..., None])
    return amp[..., None] * phasor, a_rx[..., :, None] * np.conj(a_tx)[..., None, :]


def _direct_hops(params, carrier, dod, a_rx, a_tx) -> np.ndarray:
    """Blocked user-AP hops, links stacked (U, B): (U, B, n_sc, n_rx, n_tx)."""
    gain, outer = _hop_factors(
        params, carrier, dod, a_rx, a_tx, params.pathloss_exponent, params.nlos_penalty_db
    )
    return gain[..., :, None, None] * outer[..., None, :, :]


def _element_hops(params, carrier, dod, a_rx, a_tx) -> np.ndarray:
    """LoS hops between L nodes and the M IRS elements, links stacked (L, M).

    One end of each hop is a single IRS element, so the hops are built
    straight into a contiguous (L, n_sc, M, n_antennas) stack.
    """
    gain, outer = _hop_factors(params, carrier, dod, a_rx, a_tx, params.los_exponent)
    n_links, m, n_rx, n_tx = outer.shape
    return np.multiply(
        gain.swapaxes(1, 2)[..., None], outer.reshape(n_links, 1, m, n_rx * n_tx), order="C"
    )


def _panel_steering(scenario: Scenario, positions: np.ndarray) -> np.ndarray:
    """UPA entries of every IRS element toward each node, shape (2, N, M).

    Row 0 is the departure toward the nodes, row 1 the arrival from them;
    each panel's steering follows the direction between its origin and the node.
    """
    steering = [np.zeros((2, len(positions), 0), dtype=complex)]
    for panel in scenario.irs_panels:
        directions = np.stack(compute_dod_doa(panel.origin, positions))
        steering.append(upa_steering(panel.m_y, panel.m_z, *angles_from_vector(directions)))
    return np.concatenate(steering, axis=-1)


def _ula_along(n: int, direction: np.ndarray) -> np.ndarray:
    """ULA steering vectors at the azimuths of directions (..., 3)."""
    return ula_steering(n, angles_from_vector(direction)[0])


def nlos_smallscale_factor(seed: int, user: int, ap: int, band: str) -> complex:
    """Deterministic per-link CN(0,1) small-scale factor."""
    band_code = 0 if band == "UL" else 1
    rng = np.random.default_rng(np.random.SeedSequence([seed, band_code, user, ap]))
    re, im = rng.standard_normal(2)
    return complex(re, im) / np.sqrt(2.0)


@dataclass(frozen=True)
class LinkChannels:
    """All raw per-link channels of a scenario, stacked for fast composites.

    DL cascade for (user i, AP j):
        H_ij(phi) = dl_nlos[i][j] + sum_m phi_m * outer(dl_user_cols[i][:, m], dl_ap_rows[j][:, m])
    and analogously for UL with the same phases.
    """

    scenario: Scenario
    seed: int
    dl_nlos: np.ndarray  # (U, B, n_sc, n_r, n_t)
    dl_user_cols: np.ndarray  # (U, n_sc, M, n_r)   IRS element -> user
    dl_ap_rows: np.ndarray  # (B, n_sc, M, n_t)     AP -> IRS element
    ul_nlos: np.ndarray  # (U, B, n_sc, n_t, n_r)
    ul_user_rows: np.ndarray  # (U, n_sc, M, n_r)   user -> IRS element
    ul_ap_cols: np.ndarray  # (B, n_sc, M, n_t)     IRS element -> AP

    def __post_init__(self):
        for name in ("dl_nlos", "dl_user_cols", "dl_ap_rows", "ul_nlos", "ul_user_rows",
                     "ul_ap_cols"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite channel entries in {name}")

    def _check_phase_count(self, phi_coeffs: np.ndarray) -> None:
        if len(phi_coeffs) != self.dl_ap_rows.shape[2]:
            raise ValueError(
                f"phase count {len(phi_coeffs)} does not match "
                f"{self.dl_ap_rows.shape[2]} IRS elements"
            )

    def dl_composite(self, user: int, ap: int, phi_coeffs: np.ndarray) -> np.ndarray:
        """(n_sc, n_r, n_t) total DL channel for given unit-modulus coefficients."""
        self._check_phase_count(phi_coeffs)
        h = self.dl_nlos[user, ap].copy()
        if len(phi_coeffs):
            h += np.einsum(
                "m,nmr,nmt->nrt", phi_coeffs, self.dl_user_cols[user], self.dl_ap_rows[ap]
            )
        return h

    def ul_composite(self, user: int, ap: int, phi_coeffs: np.ndarray) -> np.ndarray:
        """(n_sc, n_t, n_r) total UL channel for given unit-modulus coefficients."""
        self._check_phase_count(phi_coeffs)
        h = self.ul_nlos[user, ap].copy()
        if len(phi_coeffs):
            h += np.einsum(
                "m,nmr,nmt->ntr", phi_coeffs, self.ul_user_rows[user], self.ul_ap_cols[ap]
            )
        return h


def synthesize_links(scenario: Scenario, seed: int = 0) -> LinkChannels:
    """Synthesize every raw link channel of the scenario once.

    Each hop family (direct, AP-IRS, IRS-user, both bands) is built as one
    stack over all links and IRS elements.
    """
    p = scenario.params
    aps = scenario.ap_positions  # (B, 3)
    users = scenario.user_positions  # (U, 3)
    elems = scenario.irs_element_positions()[None]  # (1, M, 3)

    # direct NLoS links, stacked (U, B)
    dod, doa = compute_dod_doa(aps[None], users[:, None])
    dl_nlos = _direct_hops(p, p.carrier_dl, dod, _ula_along(p.n_r, doa), _ula_along(p.n_t, dod))
    dod, doa = compute_dod_doa(users[:, None], aps[None])
    ul_nlos = _direct_hops(p, p.carrier_ul, dod, _ula_along(p.n_t, doa), _ula_along(p.n_r, dod))
    if p.smallscale:
        for i, j in np.ndindex(dl_nlos.shape[:2]):
            dl_nlos[i, j] *= nlos_smallscale_factor(seed, i, j, "DL")
            ul_nlos[i, j] *= nlos_smallscale_factor(seed, i, j, "UL")

    # per-element cascade hops, stacked (B, M) and (U, M); the UPA entry is
    # the single-antenna end. Each hop takes its directions from its own
    # rx - tx: the reverse hop's negated vector flips signed zeros, and
    # atan2(+-0, x < 0) = +-pi.
    ap_dep, ap_arr = _panel_steering(scenario, aps)[..., None]
    user_dep, user_arr = _panel_steering(scenario, users)[..., None]
    dod, _ = compute_dod_doa(aps[:, None], elems)
    dl_ap_rows = _element_hops(p, p.carrier_dl, dod, ap_arr, _ula_along(p.n_t, dod))
    dod, doa = compute_dod_doa(elems, aps[:, None])
    ul_ap_cols = _element_hops(p, p.carrier_ul, dod, _ula_along(p.n_t, doa), ap_dep)
    dod, doa = compute_dod_doa(elems, users[:, None])
    dl_user_cols = _element_hops(p, p.carrier_dl, dod, _ula_along(p.n_r, doa), user_dep)
    dod, _ = compute_dod_doa(users[:, None], elems)
    ul_user_rows = _element_hops(p, p.carrier_ul, dod, user_arr, _ula_along(p.n_r, dod))
    return LinkChannels(
        scenario, seed, dl_nlos, dl_user_cols, dl_ap_rows, ul_nlos, ul_user_rows, ul_ap_cols
    )
