"""SINR with intra/inter-cell interference, achievable rates, the three
delay components, and the multi-attribute utility.

Effective gain tables are indexed [rx_user, ap, precoder_owner, subcarrier]
for DL and [user, ap, subcarrier] for UL. A gain entry of NaN marks a
missing interferer channel and is reported as an error, never silently
zeroed.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from irslink.scenario import Assignment, Scenario


def sum_in_order(values):
    """Sum added left to right (Python 3.12's sum() of floats is compensated):
    a float for floats, an array for arrays of one shape."""
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class SinrBreakdown:
    signal: float  # Watts
    intra_interference: float
    inter_interference: float
    noise: float

    @property
    def sinr(self) -> float:
        return self.signal / (self.noise + self.intra_interference + self.inter_interference)


@dataclass(frozen=True)
class DelayBreakdown:
    transmission: float  # seconds
    processing: float
    queuing: float

    @property
    def total(self) -> float:
        return self.transmission + self.processing + self.queuing

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.total)


@dataclass(frozen=True)
class UtilityRow:
    user: int
    ap: int
    subcarrier: int
    rate_dl: float
    rate_ul: float
    delay: DelayBreakdown
    conditional_utility: float
    routing_utility: float
    feasible: bool

    @property
    def total_utility(self) -> float:
        return self.conditional_utility * self.routing_utility


@dataclass(frozen=True, eq=False)
class UtilityReport:
    """Delay and utility columns of every served (user, AP) pair and subcarrier.

    Pairs run in user order. ``users``, ``aps`` and ``rate_dl`` have shape
    (P,); the other arrays (P, n_sc). Utilities are 0 where ``feasible`` is
    false. ``rows`` builds the same values as ``UtilityRow`` objects, pair
    by pair then subcarrier by subcarrier, only when it is read.
    """

    users: np.ndarray
    aps: np.ndarray
    rate_dl: np.ndarray  # bits/s
    rate_ul: np.ndarray  # bits/s
    transmission: np.ndarray  # seconds
    processing: np.ndarray  # seconds
    queuing: float  # seconds, the same for every pair
    conditional_utility: np.ndarray
    routing_utility: np.ndarray
    feasible: np.ndarray

    @property
    def sum_utility(self) -> float:
        return sum_in_order((self.conditional_utility * self.routing_utility).ravel().tolist())

    @property
    def min_transmission_delay(self) -> float:
        """Smallest finite transmission delay over every pair and subcarrier."""
        finite = self.transmission[np.isfinite(self.transmission)]
        return float(finite.min()) if finite.size else math.inf

    @cached_property
    def rows(self) -> tuple[UtilityRow, ...]:
        per_sc = (self.rate_ul, self.transmission, self.processing,
                  self.conditional_utility, self.routing_utility, self.feasible)
        rows = []
        for k, (user, ap, rate_dl) in enumerate(
            zip(self.users.tolist(), self.aps.tolist(), self.rate_dl.tolist())
        ):
            for n, (rate_ul, d_t, d_p, u_cond, u_route, ok) in enumerate(
                zip(*(column[k].tolist() for column in per_sc))
            ):
                delay = DelayBreakdown(d_t, d_p, self.queuing)
                rows.append(UtilityRow(user, ap, n, rate_dl, rate_ul, delay, u_cond, u_route, ok))
        return tuple(rows)


def _check_used(gains: np.ndarray, index: np.ndarray, label: str) -> None:
    """Raise on the first NaN of ``gains`` (..., n_sc), naming the row of
    ``index`` (..., k) at its position."""
    missing = np.isnan(gains).any(axis=-1)
    if missing.any():
        at = tuple(index[np.unravel_index(np.argmax(missing), missing.shape)].tolist())
        raise ValueError(f"missing interferer channel in {label} gain table at {at}")


def sinr_dl(
    scenario: Scenario,
    assignment: Assignment,
    eff_gains: np.ndarray,
    signal_aggregate: str = "mean",
) -> dict[tuple[int, int], SinrBreakdown]:
    """Per served (user, AP) DL SINR breakdown.

    eff_gains[i, b, l, n] is the effective channel power gain at user i
    from AP b transmitting user l's stream on subcarrier n (unit-power
    precoders; AP power is applied here). The serving-link gain is
    aggregated over subcarriers by mean or min per ``signal_aggregate``;
    interference always uses the mean. The gains of the assignment's DL
    triples are gathered once; interferers are added one owner at a time,
    in ``assignment.owners`` order.
    """
    if signal_aggregate not in ("mean", "min"):
        raise ValueError("signal_aggregate must be 'mean' or 'min'")
    p = scenario.params
    rx, ap, owner = assignment.dl_triples.T
    used = eff_gains[rx, ap, owner]  # (Q, n_sc)
    _check_used(used, assignment.dl_triples, "DL")
    mean = p.p_ap * np.mean(used, axis=1)
    serving = np.flatnonzero(owner == rx)  # each pair's own triple, in served order
    signal = mean[serving] if signal_aggregate == "mean" else p.p_ap * np.min(used[serving], axis=1)
    mean = mean.reshape(len(serving), len(assignment.owners))
    users, aps = assignment.users, assignment.aps
    intra, inter = np.zeros(len(serving)), np.zeros(len(serving))
    for k, (b, l) in enumerate(assignment.owners):
        np.add(intra, mean[:, k], out=intra, where=(aps == b) & (users != l))
        np.add(inter, mean[:, k], out=inter, where=aps != b)
    return {pair: SinrBreakdown(*terms, p.sigma2) for pair, terms in
            zip(assignment.served, zip(signal.tolist(), intra.tolist(), inter.tolist()))}


def sinr_ul(scenario: Scenario, assignment: Assignment, ul_gains: np.ndarray) -> np.ndarray:
    """UL SINR (P, n_sc) of every served (user, AP) pair, in served order, on
    every subcarrier.

    ul_gains[i, j, n] is the composite channel power gain from user i to
    AP j on subcarrier n. All other served users interfere at the receiving
    AP, same-cell users as intra-cell and other cells as inter-cell
    interference, each sum added one user at a time in served order.
    """
    p = scenario.params
    users, aps = assignment.users, assignment.aps
    # [r, t]: the power of pair t's user at pair r's AP, (P, P, n_sc)
    received = p.p_user * ul_gains[users[None, :], aps[:, None]]
    _check_used(received, np.stack(np.broadcast_arrays(users[None, :], aps[:, None]), -1), "UL")
    intra = np.zeros((len(users), ul_gains.shape[-1]))
    inter = np.zeros_like(intra)
    for t, b in enumerate(aps.tolist()):
        others = np.arange(len(users)) != t
        np.add(intra, received[:, t], out=intra, where=((aps == b) & others)[:, None])
        np.add(inter, received[:, t], out=inter, where=(aps != b)[:, None])
    signal = received[np.arange(len(users)), np.arange(len(users))]
    return signal / (p.sigma2 + intra + inter)


def rate(sinr, bandwidth: float):
    """Achievable rate BW * log2(1 + sinr), elementwise."""
    sinr = np.asarray(sinr, dtype=float)
    if np.any(sinr < 0):
        raise ValueError("sinr must be non-negative")
    out = bandwidth * np.log2(1.0 + sinr)
    return float(out) if out.ndim == 0 else out


def _bits_over_rate(bits: float, rates: np.ndarray) -> np.ndarray:
    """bits / rate, infinite where a needed rate is zero."""
    out = np.full(rates.shape, math.inf if bits > 0 else 0.0)
    return np.divide(bits, rates, out=out, where=rates > 0)


def transmission_delay(s_i: float, a_i: float, rate_dl, rate_ul):
    """S_i / c_DL + A_i / c_UL elementwise; infinite (infeasible) where a
    needed rate is zero, or so small that the delay overflows."""
    rate_dl, rate_ul = np.asarray(rate_dl, dtype=float), np.asarray(rate_ul, dtype=float)
    with np.errstate(over="ignore"):  # an overflowed delay is infinite, as at a zero rate
        out = _bits_over_rate(s_i, rate_dl) + _bits_over_rate(a_i, rate_ul)
    return float(out) if out.ndim == 0 else out


def processing_delay(tracking_error, params, users_served=1):
    """Payload v*error clamped to [0, S_i], over the per-user share of the
    AP's processing capacity; elementwise in the error and the user count."""
    err = np.asarray(tracking_error, dtype=float)
    if np.any(err < 0):
        raise ValueError("tracking error must be non-negative")
    with np.errstate(over="ignore"):  # the clamp to S_i takes an overflowed payload
        payload = np.minimum(np.maximum(params.v_bits * err, 0.0), params.s_i)
    out = payload / (params.m_proc / np.maximum(users_served, 1))
    return float(out) if out.ndim == 0 else out


def queuing_delay(mu: float, lam: float) -> float:
    """M/M/1 waiting time 1/(mu - lambda); requires stability mu > lambda."""
    if mu <= lam:
        raise ValueError("queuing stability violated (mu <= lambda)")
    return 1.0 / (mu - lam)


def conditional_utility(d, d_max, gamma: float):
    """Piecewise-linear delay satisfaction, elementwise: 1 below gamma, 0 at
    d_max. When d_max <= gamma the denominator degenerates to a step at
    gamma."""
    d, d_max = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(d_max, dtype=float))
    out = np.where(d <= gamma, 1.0, 0.0)
    ramp = (d > gamma) & (d_max > gamma)
    out[ramp] = np.clip((d_max[ramp] - d[ramp]) / (d_max[ramp] - gamma), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def routing_utility(tracking_errors: np.ndarray) -> np.ndarray:
    """1 - err_n / max_n err_n over the last (subcarrier) axis; all ones
    where the errors vanish.

    Note the normalization pins the worst subcarrier to exactly 0, and
    all-equal errors give 0 everywhere.
    """
    err = np.asarray(tracking_errors, dtype=float)
    if err.size == 0:
        return np.ones_like(err)
    peak = err.max(axis=-1, keepdims=True)
    positive = peak > 0
    return np.where(positive, 1.0 - err / np.where(positive, peak, 1.0), 1.0)


def tracking_error_model(sinr_ul_values, e0: float = 1.0):
    """Tracking error versus UL SINR, e0/(1+sinr): strictly decreasing."""
    s = np.asarray(sinr_ul_values, dtype=float)
    if np.any(s < 0):
        raise ValueError("sinr must be non-negative")
    return e0 / (1.0 + s)


def utility_report(
    scenario: Scenario,
    assignment: Assignment,
    rate_dl: np.ndarray,
    sinr_ul: np.ndarray,
) -> UtilityReport:
    """Delay and utility of every served (user, AP) pair on every subcarrier.

    The served pairs are ``assignment.served``, in user order. ``rate_dl``
    (P,) holds their DL rates in bits/s and ``sinr_ul`` (P, n_sc) their UL
    SINRs; one column stands for every subcarrier of an imported trace. A
    pair's conditional utility compares each subcarrier's total delay with
    the largest finite one of that pair.
    """
    p = scenario.params
    n_pairs = len(assignment.served)
    users, aps = assignment.users, assignment.aps
    rate_dl = np.asarray(rate_dl, dtype=float)
    sinr_ul = np.asarray(sinr_ul, dtype=float)
    if rate_dl.shape != (n_pairs,) or sinr_ul.ndim != 2 or len(sinr_ul) != n_pairs:
        raise ValueError(
            f"need rate_dl (P,) and sinr_ul (P, n_sc) for P = {n_pairs} served pairs, "
            f"got {rate_dl.shape} and {sinr_ul.shape}"
        )
    rate_ul = rate(sinr_ul, p.bandwidth)
    errors = tracking_error_model(sinr_ul, e0=p.tracking_e0)
    served = np.bincount(aps)[aps]  # users of each pair's AP
    d_t = transmission_delay(p.s_i, p.a_i, rate_dl[:, None], rate_ul)
    d_p = processing_delay(errors, p, users_served=served[:, None])
    d_q = queuing_delay(p.mu_j, p.lambda_i)
    total = d_t + d_p + d_q
    finite = np.isfinite(total)
    d_max = np.broadcast_to(
        np.max(total, axis=1, keepdims=True, initial=-math.inf, where=finite), total.shape
    )
    feasible = finite & ~np.array(assignment.infeasible, dtype=bool)[users][:, None]
    u_cond = np.zeros_like(total)
    u_cond[feasible] = conditional_utility(total[feasible], d_max[feasible], p.gamma_d)
    u_route = np.where(feasible, routing_utility(errors), 0.0)
    return UtilityReport(users, aps, rate_dl, rate_ul, d_t, d_p, d_q, u_cond, u_route, feasible)
