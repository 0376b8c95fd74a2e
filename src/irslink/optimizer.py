"""IRS phase optimization and the alternating outer loop.

Phases are optimized as real angles theta with phi = exp(j*theta), so the
unit-modulus constraint holds identically. The inner solver is conjugate
gradient ascent with Polak-Ribiere conjugation and Armijo backtracking on
the sum of serving-link DL spectral efficiencies; the outer loop alternates
hybrid beamformer redesign with phase optimization and keeps the
best-objective state.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from irslink.beamforming import (
    BeamformerSet,
    build_analog_codebook,
    design_beamformers,
)
from irslink.channel import LinkChannels, synthesize_links
from irslink.metrics import UtilityReport, rate, sinr_dl, sinr_ul, utility_report
from irslink.opcount import OpCounter
from irslink.scenario import (
    Assignment,
    CodebookScenario,
    Scenario,
    associate_users,
    with_codebook,
)


@dataclass(frozen=True)
class RcgConfig:
    epsilon: float = 1e-3
    max_iter: int = 200
    step_init: float = 1.0
    step_shrink: float = 0.5
    armijo_slope: float = 1e-4
    outer_rounds: int = 20
    improvement_tol: float = 1e-6
    beam_grid: int = 16

    @classmethod
    def from_overrides(cls, overrides: dict) -> "RcgConfig":
        unknown = set(overrides) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown optimizer overrides: {sorted(unknown)}")
        return cls(**overrides)


@dataclass(frozen=True)
class RcgState:
    iteration: int
    objective: float
    grad_norm: float
    phases: np.ndarray
    line_search_fallback: bool = False


class DlRateObjective:
    """Sum of serving-link DL spectral efficiencies as a function of IRS phases.

    Evaluation rebuilds the composite channel from the raw per-element
    cascades and applies the fixed (unit-power) beamformers; interference
    follows the intra/inter-cell decomposition. SINR is formed per
    subcarrier; a link contributes the sum over subcarriers of
    log2(1 + SINR_n) ("mean" aggregation) or n_sc times the worst
    subcarrier's spectral efficiency ("min").
    """

    def __init__(
        self,
        links: LinkChannels,
        assignment: Assignment,
        precoders: dict,
        combiners: dict,
        aggregate: str = "mean",
        counter: OpCounter | None = None,
    ):
        self.links = links
        self.assignment = assignment
        self.precoders = precoders  # user l -> F_l (n_sc, n_t, n_s), unit power
        self.combiners = combiners  # user i -> W_i (n_sc, n_r, n_s)
        self.aggregate = aggregate
        self.counter = counter
        p = links.scenario.params
        self.sigma2 = p.sigma2
        self.p_ap = p.p_ap
        self.pairs = [(i, j) for i, j in enumerate(assignment.user_to_ap) if j >= 0]
        self.active_aps = sorted({j for _, j in self.pairs})
        self.users_of = {j: assignment.users_of_ap(j) for j in self.active_aps}
        self.n_phases = links.scenario.n_irs_elements
        # theta-independent tangent factors: u depends on the receiver,
        # v on (transmitting AP via its rows, precoder owner)
        self._u = {
            i: np.einsum("nrs,nmr->nms", np.conj(self.combiners[i]), links.dl_user_cols[i])
            for i, _ in self.pairs
        }
        self._v = {
            (b, l): np.einsum("nmt,nts->nms", links.dl_ap_rows[b], self.precoders[l])
            for b in self.active_aps
            for l in self.users_of[b]
        }

    def _effective(self, coeffs):
        """Effective matrices and power gains for every (rx, ap, owner) triple."""
        eff = {}
        gains = {}
        links = self.links
        n_sc = links.scenario.params.n_sc
        n_r, n_t = links.scenario.params.n_r, links.scenario.params.n_t
        for i, _ in self.pairs:
            for b in self.active_aps:
                h = links.dl_composite(i, b, coeffs)
                if self.counter is not None:
                    self.counter.add(n_sc * self.n_phases * n_r * n_t)
                w = self.combiners[i]
                for l in self.users_of[b]:
                    e = np.einsum("nrs,nrt,ntk->nsk", np.conj(w), h, self.precoders[l])
                    if self.counter is not None:
                        n_s = e.shape[1]
                        self.counter.add(n_sc * n_s * (n_r * n_t + n_t * n_s))
                    eff[(i, b, l)] = e
                    gains[(i, b, l)] = np.sum(np.abs(e) ** 2, axis=(1, 2))
        return eff, gains

    def _sinr_terms(self, gains):
        """Per served user: (signal, denominator) arrays over subcarriers."""
        terms = {}
        for i, j in self.pairs:
            signal = self.p_ap * gains[(i, j, i)]
            denom = np.full_like(signal, self.sigma2)
            for b in self.active_aps:
                for l in self.users_of[b]:
                    if b == j and l == i:
                        continue
                    denom += self.p_ap * gains[(i, b, l)]
            terms[(i, j)] = (signal, denom)
        return terms

    def _link_value(self, sinr: np.ndarray) -> float:
        se = np.log2(1.0 + sinr)
        if self.aggregate == "mean":
            return float(np.sum(se))
        return float(len(sinr) * np.min(se))

    def link_rates(self, phases: np.ndarray, bandwidth: float) -> dict:
        """Per served (user, AP): achievable DL rate in bits/s at these phases."""
        coeffs = np.exp(1j * np.asarray(phases, dtype=float))
        _, gains = self._effective(coeffs)
        terms = self._sinr_terms(gains)
        n_sc = next(iter(terms.values()))[0].shape[0] if terms else 1
        return {
            key: bandwidth / n_sc * self._link_value(s / d)
            for key, (s, d) in terms.items()
        }

    def value(self, phases: np.ndarray) -> float:
        coeffs = np.exp(1j * np.asarray(phases, dtype=float))
        _, gains = self._effective(coeffs)
        terms = self._sinr_terms(gains)
        return float(sum(self._link_value(s / d) for s, d in terms.values()))

    def value_and_grad(self, phases: np.ndarray) -> tuple[float, np.ndarray]:
        phases = np.asarray(phases, dtype=float)
        coeffs = np.exp(1j * phases)
        eff, gains = self._effective(coeffs)
        terms = self._sinr_terms(gains)
        value = float(sum(self._link_value(s / d) for s, d in terms.values()))
        if self.n_phases == 0:
            return value, np.zeros(0)

        # dg[n, m] for each triple: 2*Re(j*c_m * <E_n, u_m v_m^T>)
        dgains = {}
        for key, e in eff.items():
            i, b, l = key
            t = np.einsum("nsk,nms,nmk->nm", np.conj(e), self._u[i], self._v[(b, l)])
            dgains[key] = 2.0 * np.real(1j * coeffs[None, :] * t)
            if self.counter is not None:
                n_sc, n_s = e.shape[0], e.shape[1]
                self.counter.add(2 * n_sc * self.n_phases * n_s * n_s)

        grad = np.zeros(self.n_phases)
        ln2 = np.log(2.0)
        for i, j in self.pairs:
            s, d = terms[(i, j)]
            ds = self.p_ap * dgains[(i, j, i)]
            dd = np.zeros_like(ds)
            for b in self.active_aps:
                for l in self.users_of[b]:
                    if b == j and l == i:
                        continue
                    dd += self.p_ap * dgains[(i, b, l)]
            sinr = s / d
            dsinr = (ds * d[:, None] - s[:, None] * dd) / (d * d)[:, None]
            per_sc = dsinr / (ln2 * (1.0 + sinr))[:, None]
            if self.aggregate == "mean":
                grad += np.sum(per_sc, axis=0)
            else:
                # subgradient at the worst subcarrier
                n_star = int(np.argmin(sinr))
                grad += len(sinr) * per_sc[n_star]
        return value, grad


def rcg_optimize_phases(
    objective,
    phases0: np.ndarray,
    epsilon: float = 1e-3,
    max_iter: int = 200,
    config: RcgConfig | None = None,
) -> tuple[np.ndarray, list[RcgState]]:
    """Conjugate gradient ascent over IRS phase angles.

    Polak-Ribiere conjugation with non-negativity safeguard, Armijo
    backtracking line search with steepest-ascent fallback, direction
    restart every len(phases) iterations. Stops when the gradient 2-norm
    drops to epsilon or at max_iter; returns the best-objective iterate.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    cfg = config or RcgConfig(epsilon=epsilon, max_iter=max_iter)
    theta = np.array(phases0, dtype=float)
    f, g = objective.value_and_grad(theta)
    d = g.copy()
    trace = [RcgState(0, f, float(np.linalg.norm(g)), theta.copy())]
    best_f, best_theta = f, theta.copy()
    restart_every = max(len(theta), 1)

    def line_search(d, slope):
        """Armijo backtracking, then greedy step doubling while the
        objective keeps improving (PR conjugacy wants a near-exact search)."""
        step = cfg.step_init
        while step > 1e-14:
            f_cand = objective.value(theta + step * d)
            if f_cand >= f + cfg.armijo_slope * step * slope:
                break
            step *= cfg.step_shrink
        else:
            return None
        while True:
            f_next = objective.value(theta + 2.0 * step * d)
            if f_next <= f_cand or step > 1e6:
                break
            step, f_cand = 2.0 * step, f_next
        return step

    for it in range(1, max_iter + 1):
        if np.linalg.norm(g) <= epsilon:
            break
        fallback = False
        slope = float(np.dot(g, d))
        if slope <= 0.0:
            d = g.copy()
            slope = float(np.dot(g, g))
            fallback = True
        step = line_search(d, slope)
        if step is None and not fallback:
            # retry along the raw gradient
            d = g.copy()
            slope = float(np.dot(g, g))
            fallback = True
            step = line_search(d, slope)
        if step is not None:
            theta = theta + step * d
            f_new, g_new = objective.value_and_grad(theta)
            accepted = True
        else:
            accepted = False
            # stationary to line-search precision; keep iterating so the
            # epsilon/max_iter exit contract holds
            f_new, g_new = f, g
        beta = 0.0
        if accepted and it % restart_every != 0:
            denom = float(np.dot(g, g))
            if denom > 0:
                beta = max(0.0, float(np.dot(g_new, g_new - g)) / denom)
        d = g_new + beta * d
        f, g = f_new, g_new
        trace.append(
            RcgState(it, f, float(np.linalg.norm(g)), theta.copy(), line_search_fallback=fallback)
        )
        if f > best_f:
            best_f, best_theta = f, theta.copy()
    return best_theta, trace


@dataclass(frozen=True)
class AoRound:
    round_index: int
    objective: float  # sum DL spectral efficiency, bits/s/Hz
    per_user_rates: dict  # (user, ap) -> bits/s
    phases: np.ndarray
    codeword_ids: dict  # user -> (precoder id, combiner id)
    grad_norm: float
    seconds: float


@dataclass
class AoResult:
    beamformers: dict  # user -> BeamformerSet
    phases: np.ndarray
    assignment: Assignment
    report: UtilityReport
    trace: list[AoRound] = field(default_factory=list)
    rcg_trace: list[RcgState] = field(default_factory=list)

    @property
    def sum_utility(self) -> float:
        return self.report.sum_utility


def _initial_assignment(scenario: Scenario, links: LinkChannels, coeffs) -> Assignment:
    """Interference-free rate table on raw composite channels for association."""
    p = scenario.params
    rates = np.zeros((scenario.n_users, scenario.n_aps))
    for i in range(scenario.n_users):
        for j in range(scenario.n_aps):
            g = float(np.mean(np.sum(np.abs(links.dl_composite(i, j, coeffs)) ** 2, axis=(1, 2))))
            rates[i, j] = rate(p.p_ap * g / p.sigma2, p.bandwidth)
    return associate_users(scenario, rates)


def _design_all_beamformers(scenario, links, assignment, coeffs, tx_codebook, rx_codebook,
                            counter=None):
    sets = {}
    for i, j in enumerate(assignment.user_to_ap):
        if j < 0:
            continue
        h = links.dl_composite(i, j, coeffs)
        sets[i] = design_beamformers(
            h, tx_codebook, rx_codebook, scenario.params.n_s, total_power=1.0, counter=counter
        )
    return sets


def _gain_tables(scenario, links, assignment, coeffs, beamformers):
    """Effective DL gain table (unit-power beamformers) and UL composite gains."""
    p = scenario.params
    U, B = scenario.n_users, scenario.n_aps
    _, gains = DlRateObjective(
        links,
        assignment,
        {i: bf.precoders() for i, bf in beamformers.items()},
        {i: bf.combiners() for i, bf in beamformers.items()},
    )._effective(coeffs)
    eff = np.full((U, B, U, p.n_sc), np.nan)
    for (i, b, l), gain in gains.items():
        eff[i, b, l] = gain
    ul = np.zeros((U, B, p.n_sc))
    for i in range(U):
        for j in range(B):
            ul[i, j] = np.sum(np.abs(links.ul_composite(i, j, coeffs)) ** 2, axis=(1, 2))
    return eff, ul


def _evaluate(scenario, links, assignment, coeffs, beamformers, aggregate):
    eff, ul = _gain_tables(scenario, links, assignment, coeffs, beamformers)
    dl = sinr_dl(scenario, assignment, eff, signal_aggregate=aggregate)
    ul_table = sinr_ul(scenario, assignment, ul)
    return utility_report(scenario, assignment, dl, ul_table), dl


def alternating_optimize(
    scenario: Scenario,
    seed: int = 0,
    codebook: CodebookScenario | None = None,
    aggregate: str = "mean",
    config: RcgConfig | None = None,
    links: LinkChannels | None = None,
    counter: OpCounter | None = None,
) -> AoResult:
    """Alternating optimization: hybrid beamformer design then RCG phase
    optimization, for up to ``outer_rounds`` rounds, keeping the best state.

    With no IRS elements the loop degenerates to a single beamforming pass
    identical to the plain pipeline evaluation.
    """
    cfg = config or RcgConfig.from_overrides(scenario.optimizer_overrides)
    if codebook is not None:
        scenario = with_codebook(scenario, codebook)
    p = scenario.params
    if links is None or links.scenario is not scenario or links.seed != seed:
        links = synthesize_links(scenario, seed)
    m = scenario.n_irs_elements
    phases = np.zeros(m)
    coeffs = np.exp(1j * phases)
    assignment = _initial_assignment(scenario, links, coeffs)
    tx_codebook = build_analog_codebook(p.n_t, p.n_rf, beam_grid=cfg.beam_grid)
    rx_grid = 1 if p.n_r == 1 else min(cfg.beam_grid, 8)
    rx_codebook = build_analog_codebook(p.n_r, min(p.n_r, p.n_s), beam_grid=max(rx_grid, 1))

    best = None  # (objective, phases, beamformers, round trace, rcg trace)
    trace: list[AoRound] = []
    rcg_trace: list[RcgState] = []
    prev_obj = -np.inf
    for rnd in range(1, max(cfg.outer_rounds, 1) + 1):
        t0 = time.perf_counter()
        coeffs = np.exp(1j * phases)
        beamformers = _design_all_beamformers(
            scenario, links, assignment, coeffs, tx_codebook, rx_codebook, counter
        )
        precoders = {i: bf.precoders() for i, bf in beamformers.items()}
        combiners = {i: bf.combiners() for i, bf in beamformers.items()}
        objective = DlRateObjective(
            links, assignment, precoders, combiners, aggregate=aggregate, counter=counter
        )
        grad_norm = 0.0
        if m > 0:
            phases, round_rcg = rcg_optimize_phases(
                objective, phases, epsilon=cfg.epsilon, max_iter=cfg.max_iter, config=cfg
            )
            grad_norm = round_rcg[-1].grad_norm
        else:
            round_rcg = []
        obj_val = objective.value(phases)
        if best is not None and obj_val < best[0]:
            break  # beamformer redesign hurt the objective; keep the best state
        per_user = objective.link_rates(phases, p.bandwidth)
        trace.append(
            AoRound(
                round_index=rnd,
                objective=obj_val,
                per_user_rates=per_user,
                phases=phases.copy(),
                codeword_ids={
                    i: (bf.analog_precoder.codebook_id, bf.analog_combiner.codebook_id)
                    for i, bf in beamformers.items()
                },
                grad_norm=grad_norm,
                seconds=time.perf_counter() - t0,
            )
        )
        rcg_trace.extend(round_rcg)
        best = (obj_val, phases.copy(), beamformers)
        if m == 0:
            break
        if prev_obj > -np.inf and obj_val - prev_obj <= cfg.improvement_tol * max(abs(prev_obj), 1.0):
            prev_obj = obj_val
            break
        prev_obj = obj_val

    obj_val, phases, beamformers = best
    report, _ = _evaluate(scenario, links, assignment, np.exp(1j * phases), beamformers, aggregate)
    return AoResult(beamformers, phases, assignment, report, trace, rcg_trace)


def complexity_probe(
    m_values: list[int],
    rcg_iters: int = 30,
    n_sc: int = 4,
    seed: int = 0,
) -> list[dict]:
    """Measure counted multiply-accumulates and wall time versus element count.

    Antenna counts scale with M (n_t = n_r = M) so the probe exercises the
    cubic composite-rebuild cost of phase optimization and the quadratic
    projection cost of hybrid beamforming.
    """
    if list(m_values) != sorted(m_values):
        raise ValueError("m_values must be ascending")
    from irslink.scenario import Box, IrsPanel, SystemParams

    rows = []
    for m in m_values:
        params = SystemParams(
            n_t=m, n_r=m, n_rf=1, n_s=1, n_sc=n_sc, smallscale=False, r_min=0.0, v_cap=1
        )
        scenario = Scenario(
            ap_positions=np.array([[1.0, 1.0, 1.0]]),
            user_positions=np.array([[9.0, 9.0, 1.0]]),
            irs_panels=(IrsPanel((0.0, 4.0, 1.0), m, 1, params.wavelength_dl / 2.0),),
            bounds=Box((0.0, 0.0, 0.0), (10.0, 50.0, 3.0)),
            params=params,
        )
        links = synthesize_links(scenario, seed)
        assignment = Assignment((0,), (False,))
        bf_counter = OpCounter()
        tx_cb = build_analog_codebook(m, 1, beam_grid=1)
        rx_cb = build_analog_codebook(m, 1, beam_grid=1)
        coeffs = np.ones(m, dtype=complex)
        beamformers = _design_all_beamformers(
            scenario, links, assignment, coeffs, tx_cb, rx_cb, bf_counter
        )
        phase_counter = OpCounter()
        objective = DlRateObjective(
            links,
            assignment,
            {0: beamformers[0].precoders()},
            {0: beamformers[0].combiners()},
            counter=phase_counter,
        )
        t0 = time.perf_counter()
        rcg_optimize_phases(objective, np.zeros(m), epsilon=0.0, max_iter=rcg_iters)
        seconds = time.perf_counter() - t0
        rows.append(
            {
                "m": m,
                "phase_macs": phase_counter.macs,
                "beamforming_macs": bf_counter.macs,
                "seconds": seconds,
            }
        )
    return rows
