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

from dataclasses import dataclass, fields

import numpy as np

from irslink.arrays import (
    SPEED_OF_LIGHT,
    angles_from_vector,
    ula_steering,
    upa_steering,
    vector_norm,
)
from irslink.scenario import NOISE_POWER_MAX, ConfigError, Scenario, compute_dod_doa


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


def _hop_gains(params, carrier, amp, tau, n=slice(None)):
    """Per-subcarrier gains amp * phasor (..., n_sc) of links with amplitudes
    ``amp`` and delays ``tau`` (...), on the subcarriers ``n`` (a slice).

    Each entry is one elementwise product of its link's factors and its
    subcarrier's frequency, so the gains of a slice of subcarriers have the
    bits of that slice of the whole band's.
    """
    if params.delay_mode == "real_decay":
        decay = np.exp(-params.t_proc / tau)[..., None]
        phasor = np.broadcast_to(decay, decay.shape[:-1] + (params.n_sc,))[..., n]
    else:
        freqs = params.subcarrier_frequencies(carrier)[n]
        phasor = np.exp(-2j * np.pi * freqs * tau[..., None])
    return amp[..., None] * phasor


def _hop_factors(params, carrier, dod, a_rx, a_tx, exponent, extra_loss_db=0.0):
    """Factors of rank-one hops h_n = gain_n * a_rx a_tx^H for a stack of links.

    ``dod`` is (..., 3) (rx minus tx position); ``a_rx`` / ``a_tx`` are
    (..., n_rx) / (..., n_tx); ``exponent`` names the path-loss exponent's
    field of ``params``. Returns the amplitudes and delays (...), from which
    ``_hop_gains`` forms the per-subcarrier gains, and the outer products,
    (..., n_rx, n_tx). ConfigError names the exponent where an amplitude
    exceeds ``NOISE_POWER_MAX``, the bound the powers keep (below 1 m a path
    loss is a gain that grows with the exponent).
    """
    distance = vector_norm(dod)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is what the bound looks for
        pg = path_gain_db(distance, carrier, getattr(params, exponent)) - extra_loss_db
        # float_power, unlike power, rounds like the scalar 10.0 ** x
        amp = np.float_power(10.0, pg / 20.0)
    top = float(np.max(amp, initial=0.0))
    if not top <= NOISE_POWER_MAX:  # NaN fails too
        raise ConfigError(f"system.{exponent}: the shortest hop ({float(np.min(distance)):.3g} m) "
                          f"has amplitude {top!r}, above {NOISE_POWER_MAX!r}")
    return amp, distance / SPEED_OF_LIGHT, a_rx[..., :, None] * np.conj(a_tx)[..., None, :]


def _direct_hops(params, carrier, dod, a_rx, a_tx) -> np.ndarray:
    """Blocked user-AP hops, links stacked (U, B): (U, B, n_sc, n_rx, n_tx)."""
    amp, tau, outer = _hop_factors(params, carrier, dod, a_rx, a_tx, "pathloss_exponent",
                                   params.nlos_penalty_db)
    gain = _hop_gains(params, carrier, amp, tau)
    return gain[..., :, None, None] * outer[..., None, :, :]


def _element_factors(params, carrier, dod, a_rx, a_tx):
    """``_hop_factors`` of the LoS hops between L nodes and the M IRS
    elements, links stacked (L, M), with the outer products flattened to
    (L, M, n_antennas); the IRS end is one element."""
    amp, tau, outer = _hop_factors(params, carrier, dod, a_rx, a_tx, "los_exponent")
    n_links, m, n_rx, n_tx = outer.shape
    return amp, tau, outer.reshape(n_links, m, n_rx * n_tx)


def _element_hops(params, carrier, amp, tau, steering, n=slice(None)) -> np.ndarray:
    """Hop stack gain[l, m, n] * steering[l, m, :] from the amplitudes,
    delays and steering of ``_element_factors``, with the gains ``_hop_gains``
    forms on the subcarriers ``n`` (a slice).

    The hops form an (L, n_sc, M, n_antennas) stack. Its memory runs
    element-fastest: the composites sum over elements, and einsum then walks
    them contiguously. Every entry is the one product np.multiply forms, so
    a stack formed from a slice of the factors (some links or subcarriers)
    has the same bits as that slice of the whole stack.
    """
    gain = _hop_gains(params, carrier, amp, tau, n)
    n_links, m, k = steering.shape
    hops = np.empty((n_links, gain.shape[-1], k, m), dtype=complex).swapaxes(2, 3)
    return np.multiply(gain.swapaxes(1, 2)[..., None], steering[:, None], out=hops)


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


def _cascade(nlos, phi_coeffs, user, ap, spec, out) -> np.ndarray:
    """nlos + sum_m phi_m * (user_m x ap_m) for every user-AP link, into ``out``.

    The user-side stack is scaled by the phases once, then contracted with the
    AP-side stack, so phi_m * u_m is not recomputed per AP and AP antenna.
    Each product and sum is the one a single einsum over (phases, user stack,
    AP stack) forms, in the same order, so the bits are the same. The scaling
    goes through einsum: numpy's complex ufunc multiply fuses multiply-adds
    and rounds differently.
    """
    if len(phi_coeffs):
        scaled = np.einsum("m,inmr->inmr", phi_coeffs, user)
        np.einsum(spec, scaled, ap, out=out)
        out += nlos
    else:
        np.copyto(out, nlos)
    return out


# a stack formed in pieces (the composites' phase-scaled user stacks and UL
# hops, the brackets' product matrix) takes whole subcarriers, at most this
# many bytes a piece. At 512 KiB the large-surface peak no longer sits on a
# piece: 1 and 2 MiB raised it, 128 and 256 KiB kept it and ran no faster
PIECE_BYTES = 1 << 19


def subcarrier_pieces(n_sc: int, bytes_per_subcarrier: int) -> list[slice]:
    """Slices of whole subcarriers that cover 0..n_sc, each piece within
    ``PIECE_BYTES`` (or one subcarrier, when that alone exceeds them)."""
    step = max(1, PIECE_BYTES // max(bytes_per_subcarrier, 1))
    return [slice(start, min(start + step, n_sc)) for start in range(0, n_sc, step)]


def _composites(nlos, phi_coeffs, hops, spec, bytes_per_subcarrier) -> np.ndarray:
    """``_cascade`` of every user-AP link, one ``subcarrier_pieces`` piece at a
    time, into a new array; ``hops(n)`` gives the user- and AP-side stacks of
    the subcarriers ``n``. Each composite entry sums over the elements only,
    so a piece's entries have the bits the whole stacks would give."""
    out = np.empty_like(nlos)
    for n in subcarrier_pieces(nlos.shape[2], bytes_per_subcarrier):
        _cascade(nlos[:, :, n], phi_coeffs, *hops(n), spec, out[:, :, n])
    return out


@dataclass(frozen=True)
class LinkChannels:
    """All raw per-link channels of a scenario, stacked for fast composites.

    DL cascade for (user i, AP j):
        H_ij(phi) = dl_nlos[i][j] + sum_m phi_m * outer(dl_user_cols[i][:, m], dl_ap_rows[j][:, m])
    and analogously for UL with the same phases. ``dl_composites`` /
    ``ul_composites`` build every link's composite in subcarrier pieces, two
    einsums a piece: the user stack scaled by the phases once, then
    contracted with the AP stack.

    The DL hops, which every objective evaluation reads, are stored as
    (L, n_sc, M, n) stacks. The UL hops are read once per AO run, by the
    final report, so they are stored as their rank-one factors: amplitudes
    and delays (L, M) and steering (L, M, n). ``ul_composites`` forms the
    stacks piece by piece, with ``ul_hops``; both bands' stacks come from
    ``_element_hops``.

    Every stack (every field annotated ``np.ndarray``) is read-only, and
    ``dl_composites`` keeps its last build: association, beamformer design
    and the DL objective each ask for the composites at their phases, and a
    phase point is built once. The entry is the one mutable part: ``derive``
    copies, which share every stack, share it too, and ``with_surface`` or
    ``dataclasses.replace`` start their own.
    """

    scenario: Scenario
    seed: int
    dl_nlos: np.ndarray  # (U, B, n_sc, n_r, n_t)
    dl_user_cols: np.ndarray  # (U, n_sc, M, n_r)   IRS element -> user
    dl_ap_rows: np.ndarray  # (B, n_sc, M, n_t)     AP -> IRS element
    ul_nlos: np.ndarray  # (U, B, n_sc, n_t, n_r)
    ul_user_amp: np.ndarray  # (U, M)             user -> IRS element
    ul_user_delay: np.ndarray  # (U, M), seconds
    ul_user_steering: np.ndarray  # (U, M, n_r)
    ul_ap_amp: np.ndarray  # (B, M)               IRS element -> AP
    ul_ap_delay: np.ndarray  # (B, M), seconds
    ul_ap_steering: np.ndarray  # (B, M, n_t)

    def __post_init__(self):
        for f in fields(self):
            if f.type is not np.ndarray:
                continue
            stack = getattr(self, f.name)
            if not np.all(np.isfinite(stack)):
                raise ValueError(f"non-finite channel entries in {f.name}")
            stack.flags.writeable = False  # an edit would leave the memo stale
        self._check_link_budget()
        # the memo: [(coefficient bytes, DL composites)] of the last build
        object.__setattr__(self, "_last_dl", [(None, None)])

    def _check_link_budget(self):
        """Raise ConfigError where a link's SINR chain would leave the floats.

        Every hop entry of a link has the modulus of its first one (unit-
        modulus steering, one gain modulus on every subcarrier), so A, the
        direct modulus plus the element products summed over the elements,
        bounds every composite entry, and G = n_t n_r A^2 its squared norm.
        Unit-power precoders and combiners of rx = min(n_r, n_s) unit-norm
        columns keep a DL received power below R = p rx G (rx = 1 in the UL).
        Each bound, doubled, must stay finite, in this order: the
        interference-free SNR R / sigma2; the DL codeword search's energies,
        n_sc n_t rx G; the SINR denominators, sigma2 plus the R of every user
        at the AP (UL) or D = sigma2 + (U - 1) R of the receiver's strongest
        link (DL); with IRS elements, the gradient's products ds d, s dd and
        d^2, at most max(2 R, D) D. An SNR names the exponent of the larger
        part of A where n_t n_r A^2 outweighs p rx / sigma2, an energy that
        exponent, and the rest the power.
        """
        p = self.scenario.params
        rx = min(p.n_r, p.n_s)
        # (band, U, B), bands DL then UL
        direct = np.abs(np.stack([self.dl_nlos[:, :, 0, 0, 0], self.ul_nlos[:, :, 0, 0, 0]]))
        user = np.stack([np.abs(self.dl_user_cols[:, 0, :, 0]), self.ul_user_amp])
        ap = np.stack([np.abs(self.dl_ap_rows[:, 0, :, 0]), self.ul_ap_amp])
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is what this looks for
            cascade = user @ ap.swapaxes(1, 2)
            link = direct + cascade
            gain = p.n_t * p.n_r * link**2
            power = np.array([p.p_ap * rx, p.p_user])[:, None, None]
            received = power * gain
            by_channel = gain >= power / p.sigma2  # where an SNR names an exponent
            ul_denom = p.sigma2 + np.sum(received[1], axis=0, keepdims=True)
            dl_denom = p.sigma2 + (len(link[0]) - 1) * np.max(received[0], axis=1, keepdims=True)
            checks = [(0, "interference-free DL SNR", received[0] / p.sigma2, by_channel[0]),
                      (1, "interference-free UL SNR", received[1] / p.sigma2, by_channel[1]),
                      (0, "DL channel gain", p.n_sc * p.n_t * rx * gain[0], True),
                      (1, "UL SINR denominator", ul_denom, False),
                      (0, "DL SINR denominator", dl_denom, False)]
            if user.shape[2]:
                gradient = np.maximum(2.0 * received[0], dl_denom) * dl_denom
                checks.append((0, "DL SINR gradient", gradient, False))
        top = np.finfo(float).max / 2  # a bound doubled must stay finite
        for band, what, bound, by_exponent in checks:
            bad = np.argwhere(~(np.broadcast_to(bound, link.shape[1:]) <= top))
            if len(bad):  # NaN is out too
                i, j = bad[0].tolist()
                name = ("p_ap", "p_user")[band]
                if np.broadcast_to(by_exponent, link.shape[1:])[i, j]:
                    name = ("los_exponent" if cascade[band, i, j] > direct[band, i, j]
                            else "pathloss_exponent")
                raise ConfigError(f"system.{name}: the {what} of user {i} at AP {j} overflows")

    def ul_hops(self, side: str, n=slice(None)) -> np.ndarray:
        """UL hops of one ``side``, formed from their factors on the
        subcarriers ``n`` (a slice): "user" gives the (U, n_sc, M, n_r) user
        -> IRS element hops, "ap" the (B, n_sc, M, n_t) IRS element -> AP hops."""
        p = self.scenario.params
        return _element_hops(p, p.carrier_ul, *(getattr(self, f"ul_{side}_{name}")
                                                for name in ("amp", "delay", "steering")), n)

    def with_surface(self, scenario: Scenario) -> "LinkChannels":
        """The links of ``scenario``, which differs from these links' in its IRS
        panels alone: the direct hops read no surface, so they are shared, and
        the element hops are synthesized for ``scenario``'s surface."""
        return LinkChannels(scenario, self.seed, dl_nlos=self.dl_nlos, ul_nlos=self.ul_nlos,
                            **_surface_hops(scenario))

    def _check_phase_count(self, phi_coeffs: np.ndarray) -> None:
        if len(phi_coeffs) != self.dl_ap_rows.shape[2]:
            raise ValueError(
                f"phase count {len(phi_coeffs)} does not match "
                f"{self.dl_ap_rows.shape[2]} IRS elements"
            )

    def dl_composites(self, phi_coeffs: np.ndarray, counter=None) -> np.ndarray:
        """(U, B, n_sc, n_r, n_t) total DL channels of every user-AP link for
        given unit-modulus coefficients, read-only. The last build is kept
        and returned again while the coefficients' bytes stay the same; a
        build counts M n_r n_t MACs per link and subcarrier into ``counter``.
        The pieces are sized by the phase-scaled user stack."""
        self._check_phase_count(phi_coeffs)
        key = np.asarray(phi_coeffs, dtype=complex).tobytes()
        kept = self._last_dl[0]  # read once: the entry is replaced, never edited
        if kept[0] == key:
            return kept[1]
        self._last_dl[0] = kept = (None, None)  # the old build goes before the new one is made
        user, ap = self.dl_user_cols, self.dl_ap_rows
        h = _composites(self.dl_nlos, phi_coeffs, lambda n: (user[:, n], ap[:, n]),
                        "inmr,bnmt->ibnrt", user.nbytes // user.shape[1])
        h.flags.writeable = False
        if counter is not None:
            counter.add(h.size * len(phi_coeffs))
        self._last_dl[0] = key, h
        return h

    def ul_composites(self, phi_coeffs: np.ndarray) -> np.ndarray:
        """(U, B, n_sc, n_t, n_r) total UL channels of every user-AP link for
        given unit-modulus coefficients. Each piece forms the gains and hop
        stacks of its subcarriers, sized by the larger of its two stacks."""
        self._check_phase_count(phi_coeffs)
        per_sc = max(self.ul_user_steering.nbytes, self.ul_ap_steering.nbytes)
        return _composites(self.ul_nlos, phi_coeffs,
                           lambda n: (self.ul_hops("user", n), self.ul_hops("ap", n)),
                           "inmr,bnmt->ibntr", per_sc)


def _surface_hops(scenario: Scenario) -> dict:
    """The element hops of ``LinkChannels``, by field name: the DL stacks and
    the UL amplitudes, delays and steering, each stacked over all links and
    IRS elements.

    The UPA entry is the single-antenna end. Each hop takes its directions
    from its own rx - tx: the reverse hop's negated vector flips signed zeros,
    and atan2(+-0, x < 0) = +-pi.
    """
    p = scenario.params
    aps = scenario.ap_positions  # (B, 3)
    users = scenario.user_positions  # (U, 3)
    elems = scenario.irs_element_positions()[None]  # (1, M, 3)
    ap_dep, ap_arr = _panel_steering(scenario, aps)[..., None]
    user_dep, user_arr = _panel_steering(scenario, users)[..., None]

    dod, _ = compute_dod_doa(aps[:, None], elems)
    dl_ap_rows = _element_hops(
        p, p.carrier_dl, *_element_factors(p, p.carrier_dl, dod, ap_arr, _ula_along(p.n_t, dod)))
    dod, doa = compute_dod_doa(elems, aps[:, None])
    ul_ap = _element_factors(p, p.carrier_ul, dod, _ula_along(p.n_t, doa), ap_dep)
    dod, doa = compute_dod_doa(elems, users[:, None])
    dl_user_cols = _element_hops(
        p, p.carrier_dl, *_element_factors(p, p.carrier_dl, dod, _ula_along(p.n_r, doa), user_dep))
    dod, _ = compute_dod_doa(users[:, None], elems)
    ul_user = _element_factors(p, p.carrier_ul, dod, user_arr, _ula_along(p.n_r, dod))
    return dict(dl_user_cols=dl_user_cols, dl_ap_rows=dl_ap_rows,
                ul_user_amp=ul_user[0], ul_user_delay=ul_user[1], ul_user_steering=ul_user[2],
                ul_ap_amp=ul_ap[0], ul_ap_delay=ul_ap[1], ul_ap_steering=ul_ap[2])


def synthesize_links(scenario: Scenario, seed: int = 0) -> LinkChannels:
    """Synthesize every raw link channel of the scenario once.

    Each hop family (direct, AP-IRS, IRS-user, both bands) is built as one
    stack over all links and IRS elements; the UL element hops are kept as
    their factors.
    """
    p = scenario.params
    aps = scenario.ap_positions  # (B, 3)
    users = scenario.user_positions  # (U, 3)

    # direct NLoS links, stacked (U, B)
    dod, doa = compute_dod_doa(aps[None], users[:, None])
    dl_nlos = _direct_hops(p, p.carrier_dl, dod, _ula_along(p.n_r, doa), _ula_along(p.n_t, dod))
    dod, doa = compute_dod_doa(users[:, None], aps[None])
    ul_nlos = _direct_hops(p, p.carrier_ul, dod, _ula_along(p.n_t, doa), _ula_along(p.n_r, dod))
    if p.smallscale:
        for i, j in np.ndindex(dl_nlos.shape[:2]):
            dl_nlos[i, j] *= nlos_smallscale_factor(seed, i, j, "DL")
            ul_nlos[i, j] *= nlos_smallscale_factor(seed, i, j, "UL")
    return LinkChannels(scenario, seed, dl_nlos=dl_nlos, ul_nlos=ul_nlos, **_surface_hops(scenario))
