"""IRS phase optimization and the alternating outer loop.

Phases are optimized as real angles theta with phi = exp(j*theta), so the
unit-modulus constraint holds identically. The inner solver is conjugate
gradient ascent with Polak-Ribiere conjugation and Armijo backtracking on
the sum of serving-link DL spectral efficiencies; the outer loop alternates
hybrid beamformer redesign with phase optimization and keeps the
best-objective state.
"""

import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from irslink.beamforming import build_analog_codebook, design_beamformers
from irslink.channel import LinkChannels, subcarrier_pieces, synthesize_links
from irslink.metrics import UtilityReport, rate, sinr_dl, sinr_ul, sum_in_order, utility_report
from irslink.opcount import OpCounter
from irslink.scenario import (
    Assignment,
    Box,
    CodebookScenario,
    IrsPanel,
    RcgConfig,
    Scenario,
    SystemParams,
    associate_users,
    with_codebook,
)


# Armijo backtracking: first trial step, shrink factor per backtrack and the
# fraction of the predicted ascent a step must achieve
STEP_INIT, STEP_SHRINK, ARMIJO_SLOPE = 1.0, 0.5, 1e-4
# backtracking gives up below STEP_MIN; doubling stops past STEP_CAP
STEP_MIN, STEP_CAP = 1e-14, 1e6
# most steps bracketed per call of an objective's ``brackets``; a search's
# ladders hold LADDER_MARGIN rungs beyond those the previous search read
LADDER, LADDER_MARGIN = 12, 2
# the alternating loop stops once a round gains no more than this, relative
IMPROVEMENT_TOL = 1e-6
# subcarriers of ``complexity_probe``'s link
PROBE_N_SC = 4

# unit roundoff of float64, and the factor by which a bracket's radius and
# widenings exceed their first-order rounding bounds (see ``DlRateObjective.brackets``)
UNIT_ROUNDOFF = 2.0**-53
BRACKET_SAFETY = 2.0
# roundings charged to one float64 log2 (an error of up to 8 ulp)
LOG2_ROUNDINGS = 16


def _checked_aggregate(aggregate):
    if aggregate not in ("mean", "min"):
        raise ValueError(f"aggregate must be 'mean' or 'min', not {aggregate!r}")
    return aggregate


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u)."""
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


def _fro(stack, axes):
    """Frobenius norms of a complex ``stack`` over the einsum ``axes`` it
    drops ("inmr->in" sums over m and r), from views of its real and
    imaginary parts, so the stack is not copied."""
    ins, out = axes.split("->")
    spec = f"{ins},{ins}->{out}"
    return np.sqrt(np.einsum(spec, stack.real, stack.real)
                   + np.einsum(spec, stack.imag, stack.imag))


@dataclass(frozen=True)
class RcgState:
    iteration: int
    objective: float
    grad_norm: float
    phases: np.ndarray
    line_search_fallback: bool = False
    # set on the last state only: "epsilon" (the gradient norm fell to
    # epsilon), "max_iter" (the iteration budget ran out) or "line_search"
    # (no step along the raw gradient both ascends and moves the phases)
    stop_reason: str | None = None


class DlRateObjective:
    """Sum of serving-link DL spectral efficiencies as a function of IRS phases.

    Evaluation rebuilds the composite channel from the raw per-element
    cascades and applies the fixed (unit-power) beamformers; interference
    follows the intra/inter-cell decomposition. SINR is formed per
    subcarrier; a link contributes the sum over subcarriers of
    log2(1 + SINR_n) ("mean" aggregation) or n_sc times the worst
    subcarrier's spectral efficiency ("min").

    Every (receiver i, AP b, precoder owner l) triple is evaluated in one
    stacked pass: ``dl_composites`` gives the composites of all user-AP
    links (its last build when it was at the same point, such as the one
    the round's beamformers were designed on), and ``_products`` forms the
    effective matrices W_i^H H_ib F_l from W^H per served pair and F per
    owner, one einsum per AP over its owners. Triples run receiver-major,
    then by (AP, owner), the order in which each receiver's interferers are
    summed (``Assignment.dl_triples``). The effective matrices and gains of
    the last two points are kept, keyed by the coefficient bytes, so a point
    evaluated again (the accepted line-search point, the round's final value
    and gains) costs nothing. ``brackets`` bounds the values at a stack of
    points from the affine form of the effective matrices, without
    composites, for the line search's comparisons.
    """

    _CACHED_POINTS = 2

    def __init__(
        self,
        links: LinkChannels,
        assignment: Assignment,
        beamformers: dict,
        aggregate: str = "mean",
        counter: OpCounter | None = None,
    ):
        self.aggregate = _checked_aggregate(aggregate)
        self.links = links
        self.assignment = assignment
        self.counter = counter
        params = links.scenario.params
        self.sigma2 = params.sigma2
        self.p_ap = params.p_ap
        pairs, owners = assignment.served, assignment.owners
        self.n_phases = links.scenario.n_irs_elements
        # triple q = p * len(owners) + k: receiver of pair p, owner k's AP and precoder
        rx, _, owner = assignment.dl_triples.T
        self._signal = np.flatnonzero(owner == rx)
        self._interferers = np.flatnonzero(owner != rx).reshape(
            len(pairs), max(len(owners) - 1, 0)
        )
        # owners run AP by AP: (AP, its slice of the owners)
        owner_aps = [b for b, _ in owners]
        self._by_ap = [(b, slice(owner_aps.index(b), owner_aps.index(b) + owner_aps.count(b)))
                       for b in dict.fromkeys(owner_aps)]
        if pairs:
            # every served user's total precoder F and combiner W (unit power),
            # one stacked einsum each, with the products and sums of
            # ``BeamformerSet.precoders()`` / ``combiners()``
            sets = [beamformers[i] for i, _ in pairs]
            f = np.einsum("ltk,lnks->lnts", np.stack([bf.analog_precoder.matrix for bf in sets]),
                          np.stack([bf.digital_precoders for bf in sets]))
            self._f = f[[pairs.index((l, b)) for b, l in owners]]  # per owner, (K, n_sc, n_t, n_s)
            # per served pair, (P, n_sc, n_r, n_s)
            self._wh = np.conj(np.einsum("ltk,lnks->lnts",
                                         np.stack([bf.analog_combiner.matrix for bf in sets]),
                                         np.stack([bf.digital_combiners for bf in sets])))
            # theta-independent tangent factors: u depends on the receiver,
            # v on (transmitting AP via its rows, precoder owner)
            self._u = np.einsum("pnrs,pnmr->pnms", self._wh, links.dl_user_cols[assignment.users])
            # the AP rows are too large to gather once per owner
            self._v = np.empty(f.shape[:2] + (self.n_phases, f.shape[3]), dtype=complex)
            for b, k in self._by_ap:
                np.einsum("nmt,knts->knms", links.dl_ap_rows[b], self._f[k], out=self._v[k])
        self._cache = {}  # coefficient bytes -> (effective matrices, gains)
        self._e0 = None  # formed by the first ``brackets`` call, with its other stacks

    def _effective(self, coeffs):
        """Effective matrices (Q, n_sc, n_s, n_s) and power gains (Q, n_sc) of
        every triple, from the cache when this point was evaluated lately."""
        key = coeffs.tobytes()
        hit = self._cache.pop(key, None)
        if hit is None:
            hit = self._kernel(coeffs)
            if len(self._cache) == self._CACHED_POINTS:
                del self._cache[next(iter(self._cache))]
        self._cache[key] = hit
        return hit

    def _kernel(self, coeffs):
        """One stacked pass over every triple. Counts the paper-literal MACs:
        M n_r n_t per link and subcarrier for each composite built (a
        composite the links kept costs none), and the chain (W^H H) F,
        n_s (n_r n_t + n_t n_s) per triple and subcarrier, for the effective
        matrices, which ``_ProbeObjective`` forms as the chain's two GEMMs."""
        p = self.links.scenario.params
        if not self.assignment.served:
            return np.zeros((0, p.n_sc, p.n_s, p.n_s), dtype=complex), np.zeros((0, p.n_sc))
        eff = self._effective_matrices(self._build_composites(coeffs))
        if self.counter is not None:
            n_q, n_s = eff.shape[0], eff.shape[2]
            self.counter.add(n_q * p.n_sc * n_s * (p.n_r * p.n_t + p.n_t * n_s))
        return eff, np.sum(np.abs(eff) ** 2, axis=(2, 3))

    def _build_composites(self, coeffs):
        """The DL composites at ``coeffs``: the links' last build, or a new
        one counted in the objective's counter."""
        return self.links.dl_composites(coeffs, self.counter)

    def _products(self, h, out):
        """W_i^H H_ib F_l of every (served pair p, owner k) from the link stack
        ``h`` (U, B, n_sc, n_r, n_t), into ``out`` (P, K, n_sc, n_s, n_s): one
        einsum per AP b over its owners, on the served users' links of b."""
        users = self.assignment.users
        for b, k in self._by_ap:
            np.einsum("pnrs,pnrt,kntc->pknsc", self._wh, h[users, b], self._f[k], out=out[:, k])
        return out

    def _effective_matrices(self, h):
        """W_i^H H_ib F_l of every triple, (Q, n_sc, n_s, n_s), from the
        composites ``h``."""
        n_pairs, n_sc, _, n_s = self._wh.shape
        out = np.empty((n_pairs, len(self._f), n_sc, n_s, n_s), dtype=complex)
        return self._products(h, out).reshape(-1, n_sc, n_s, n_s)

    def _sinr_terms(self, gains, interferer_gains):
        """Signal and denominator (..., served pair, subcarrier) from triple
        gains (..., Q, n_sc): the signal from ``gains``, the interferers from
        ``interferer_gains``, added to the noise one at a time in triple order."""
        signal = gains[..., self._signal, :]  # gathers copy, so both scale in place
        signal *= self.p_ap
        denom = np.full_like(signal, self.sigma2)
        # (..., pair, interferer, subcarrier)
        interference = interferer_gains[..., self._interferers, :]
        interference *= self.p_ap
        for k in range(interference.shape[-2]):
            denom += interference[..., k, :]
        return signal, denom

    def _link_values(self, signal, denom, widen=None):
        """Spectral efficiency of every served link (..., P): log2(1 + SINR_n)
        summed over subcarriers ("mean"), or n_sc times the smallest ("min").
        ``widen`` scales 1 + SINR before the log2 and the log2 is clamped at
        0, as ``brackets`` bounds them."""
        x = signal / denom
        x += 1.0
        if widen is not None:
            x *= widen
        se = np.log2(x, out=x)
        if widen is not None:
            np.maximum(se, 0.0, out=se)  # log2 of a float >= 1
        if self.aggregate == "mean":
            return np.sum(se, axis=-1)
        return se.shape[-1] * np.min(se, axis=-1)

    def value(self, phases: np.ndarray) -> float:
        _, gains = self._effective(np.exp(1j * np.asarray(phases, dtype=float)))
        return sum_in_order(self._link_values(*self._sinr_terms(gains, gains)).tolist())

    def value_and_grad(self, phases: np.ndarray) -> tuple[float, np.ndarray]:
        coeffs = np.exp(1j * np.asarray(phases, dtype=float))
        eff, gains = self._effective(coeffs)
        signal, denom = self._sinr_terms(gains, gains)
        value = sum_in_order(self._link_values(signal, denom).tolist())
        if self.n_phases == 0:
            return value, np.zeros(0)
        n_sc, n_s = eff.shape[1], eff.shape[2]
        if self.counter is not None:
            self.counter.add(len(eff) * 2 * n_sc * self.n_phases * n_s * n_s)
        conj_eff, jc = np.conj(eff), 1j * coeffs[None, :]
        # p_ap * 2*Re(.) in one scale: 2 is a power of two, so the bits are the same
        p2 = 2.0 * self.p_ap
        # refilled for every triple or pair: the gradient allocates nothing per triple
        t = np.empty((n_sc, self.n_phases), dtype=complex)
        ds, dd, term = (np.empty((n_sc, self.n_phases)) for _ in range(3))

        def dgain(q, out):
            """p_ap * dg[n, m] of triple q into ``out``: 2*p_ap*Re(j*c_m * <E_n, u_m v_m^T>)."""
            p, k = divmod(q, len(self._v))
            np.einsum("nsk,nms,nmk->nm", conj_eff[q], self._u[p], self._v[k], out=t)
            np.multiply(jc, t, out=t)
            return np.multiply(t.real, p2, out=out)

        grad = np.zeros(self.n_phases)
        ln2 = np.log(2.0)
        for s, d, q_signal, interferers in zip(signal, denom, self._signal, self._interferers):
            dgain(q_signal, ds)
            dd.fill(0.0)
            for q in interferers:
                dd += dgain(q, term)
            sinr = s / d
            # d(SINR)/(ln2 * (1 + SINR)) = (ds*d - s*dd) / d^2 / (ln2 * (1 + SINR)), in ds
            ds *= d[:, None]
            dd *= s[:, None]
            ds -= dd
            ds /= (d * d)[:, None]
            ds /= (ln2 * (1.0 + sinr))[:, None]
            if self.aggregate == "mean":
                grad += np.sum(ds, axis=0)
            else:
                # subgradient at the worst subcarrier
                n_star = int(np.argmin(sinr))
                grad += len(sinr) * ds[n_star]
        return value, grad

    def brackets(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds lo <= value(points[j]) <= hi of every row of ``points``
        (S, M), from the affine kernel; lo and hi have shape (S,).

        With the beamformers fixed, every triple's effective matrix is affine
        in c = exp(j theta): E_q(c) = e0_q + sum_m c_m u_m v_m^T, with
        e0_q = W_i^H H_nlos F_l and the gradient's factors u (receiver side)
        and v (AP rows times precoder) (Wu & Zhang, IEEE TWC 2019). With
        W[m, (n, p, k, s, t)] = u[p, n, m, s] v[k, n, m, t], the entries of
        all triples at all S points are one GEMM, exp(j points) @ W + e0:
        S*P*K*n_sc*M*n_s^2 MACs against the composites' U*B*n_sc*M*n_r*n_t
        per point. W is stored transposed, in ``subcarrier_pieces``: when it
        spans at most two pieces (1 MiB) the set-up forms it whole and the
        round keeps it, else every call forms each piece into one buffer, so
        at most one piece is held.
        The affine kernel rounds otherwise than ``value``'s composite kernel,
        so it yields an interval; the line search settles a comparison on
        brackets wherever they lie on one side of it (a floating-point
        filter, Shewchuk 1997).

        Derivation, with u = 2^-53, gamma_n = n u / (1 - n u) and theta_n any
        product of n factors (1 + delta)^-+1, |delta| <= u, so |theta_n| <=
        gamma_n (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
        ed., ch. 3). Underflow aside, a complex sum of n products rounds
        within gamma_{2n+4} sum |a||b| in any order (einsum, BLAS, with or
        without FMA), and a real sum of n nonnegative terms within theta_n.
        1. On each subcarrier let U_i (M, n_r) and V_b (M, n_t) be the
           element hops of receiver i and AP b, and A_q = |W|^T (|H_nlos| +
           |U_i|^T |V_b|) |F| (entrywise moduli, |c_m| = 1 within 2u).
           Against the exact product of the stored floats, the composite
           kernel is within gamma_n1 A_q,
           n1 = 2M + 2 n_r n_t + 18. The affine entry is e0 + sum_m c_m W_m:
           e0 and every u_m and v_m are einsum sums (of n_r n_t, n_r and n_t
           products), W_m = u_m v_m is one ufunc complex multiply (fused
           or not, within gamma_3 |u_m||v_m|) and the GEMM's sum of the
           M + 1 terms c_m W_m and e0 a complex sum of products. So each
           term carries the roundings the earlier (u_m c_m) v_m carried, one
           multiply before the sum and one in it, and the affine entry is
           within gamma_n2 A_q, n2 = n1 + 2 n_r + 2 n_t + 1, whatever the
           order the BLAS sums in. By the triangle inequality,
           ||E_kernel||_F lies in ||E_affine||_F -+ gamma_{n1+n2} ||A_q||_F.
           A modulus keeps a Frobenius norm, so the triangle inequality,
           ||X Y||_F <= ||X||_F ||Y||_F and Cauchy-Schwarz over the elements
           give ||A_q||_F <= ||W||_F ||F||_F (||H_nlos||_F + ||U_i||_F
           ||V_b||_F). The radius rho_q is BRACKET_SAFETY * gamma_{n1+n2}
           times that bound, formed once per subcarrier; the factor 2 covers
           the rounding of rho_q and the relative terms moved past it below.
        2. The bracket's norm, sqrt of a sum of N = 2 n_s^2 squares, is
           ||E_affine||_F theta_{N+1}; (norm -+ rho)^2, clamped at 0, adds
           theta_3. The kernel's gain (hypot, square, n_s^2 terms) is
           ||E_kernel||_F^2 theta_{n_s^2+5}. So each exact gain lies within
           the bracket's lo and hi gains times theta_A, A = 5 n_s^2 + 10.
        3. 1 + p_ap g_s / (sigma2 + p_ap sum g_i) rises in g_s and falls in
           every g_i; theta_A on each gain moves it by theta_{2A}. Its
           roundings add theta_{K+3} on the exact path and theta_{K+2} on the
           bracket's. So 1 + SINR lies in (1 + SINR_lo, 1 + SINR_hi) times
           1 -+ 2 gamma_{n_pre}, n_pre = 2A + 2K + 6 (one for the scaling).
        4. log2 is monotone and within LOG2_ROUNDINGS roundings of its
           result, which is >= 0 on the exact path. The sum over subcarriers
           or n_sc * min, then the sum over links, are monotone and
           homogeneous on nonnegative values; with both paths' roundings they
           add theta_{P n_sc + n_sc + P}. So the final sums, with lo clamped
           at 0 before them, times 1 -+ 2 gamma_{n_post}, n_post =
           2 LOG2_ROUNDINGS + P n_sc + n_sc + P + 1, bound the value.
        Every row is bounded on its own: lo and hi of all rows run as one
        stacked array, one numpy call per stage, and a row whose bound is not
        finite gives (-inf, inf), which settles nothing. Counts the GEMM's
        MACs and one per entry of every piece of W formed; the first call
        also counts the set-up's: e0, W if kept, and one per entry of
        the element stacks whose norms it takes. Nothing enters the cache of
        exact points.
        """
        points = np.asarray(points, dtype=float)
        if not self.assignment.served:
            return np.zeros(len(points)), np.zeros(len(points))
        if self._e0 is None:
            self._bracket_setup()
        # (2, S, Q, n_sc): the gains of ||E|| -+ rho, with the affine entries
        # freed before them
        g = self._affine_norms(np.exp(1j * points)).swapaxes(1, 2) + self._radius
        np.maximum(g, 0.0, out=g)
        g *= g
        # lo over hi and hi over lo: the interferers' gains run swapped
        links = self._link_values(*self._sinr_terms(g, g[::-1]), widen=self._pre_log)
        lo, hi = sum_in_order(np.moveaxis(links, -1, 0))
        lo, hi = lo * self._post_log[0], hi * self._post_log[1]
        open_ = ~((-np.inf < lo) & (lo <= hi) & (hi < np.inf))
        lo[open_], hi[open_] = -np.inf, np.inf
        return lo, hi

    def _affine_norms(self, coeffs):
        """||E_q||_F of the affine form at every row of ``coeffs`` (S, M), as
        (S, n_sc, Q): one GEMM on the kept W, or one per piece of W, each
        piece formed into one buffer the first piece's size; e0 added,
        squares summed in place. Every column of a GEMM is its own dot
        product over M, so the pieces give the whole W's bits."""
        n_sc, m, n_s = self._v.shape[1:]
        per_sc = len(self._e0) // n_sc
        eff = np.empty((len(coeffs), len(self._e0)), dtype=complex)
        if self._wt is not None:
            np.matmul(coeffs, self._wt.T, out=eff)
        else:
            first = self._pieces[0]
            buffer = np.empty(((first.stop - first.start) * per_sc, m), dtype=complex)
            for n in self._pieces:
                wt = self._affine_piece(n, buffer)
                if self.counter is not None:
                    self.counter.add(wt.size)
                np.matmul(coeffs, wt.T, out=eff[:, n.start * per_sc:n.stop * per_sc])
        eff += self._e0
        if self.counter is not None:
            self.counter.add(eff.size * m)
        parts = eff.view(float).reshape(-1, 2 * n_s * n_s)
        np.square(parts, out=parts)
        norm = parts[:, 0] + parts[:, 1]
        for i in range(2, parts.shape[1]):
            norm += parts[:, i]
        return np.sqrt(norm, out=norm).reshape(len(coeffs), n_sc, -1)

    def _affine_piece(self, n, out):
        """The subcarriers ``n`` (a slice) of W's transpose, W^T[(n, p, k, s,
        t), m] = u[p, n, m, s] v[k, n, m, t], into the (rows, M) buffer
        ``out``; returns the rows filled."""
        n_owners, n_sc, m, n_s = self._v.shape
        u = self._u[:, n].transpose(1, 0, 3, 2)  # (n, P, s, M)
        v = self._v[:, n].transpose(1, 0, 3, 2)  # (n, K, t, M)
        wt = out[:len(u) * (len(self._e0) // n_sc)]
        np.multiply(u[:, :, None, :, None], v[:, None, :, None],
                    out=wt.reshape(u.shape[:2] + (n_owners, n_s, n_s, m)))
        return wt

    def _bracket_setup(self):
        """e0 in the product's layout, W^T when it spans at most two pieces,
        rho of every (triple, subcarrier) from Frobenius norms and the two
        widening factors (see ``brackets``)."""
        links = self.links
        n_pairs, n_sc, m, n_s = self._u.shape
        n_owners, n_r, n_t = len(self._v), self._wh.shape[2], self._f.shape[2]
        e0 = np.empty((n_sc, n_pairs, n_owners, n_s, n_s), dtype=complex)
        self._products(links.dl_nlos, e0.transpose(1, 2, 0, 3, 4))
        self._e0 = e0.reshape(-1)
        per_sc = n_pairs * n_owners * n_s * n_s
        self._pieces = subcarrier_pieces(n_sc, per_sc * m * 16)
        # W^T, kept for the round up to 1 MiB: re-formed on every call, the
        # two-piece W of M = 48 and 64 slowed their AO runs by 4-5%
        self._wt = None
        if len(self._pieces) <= 2:
            self._wt = self._affine_piece(slice(0, n_sc),
                                          np.empty((n_sc * per_sc, m), dtype=complex))
        # ||A_q||_F <= ||W||_F ||F||_F (||H_nlos||_F + ||U_i||_F ||V_b||_F), (P, K, n_sc)
        users, aps = self.assignment.users[:, None], [b for b, _ in self.assignment.owners]
        hops = (_fro(links.dl_nlos, "ibnrt->ibn")[users, aps]
                + _fro(links.dl_user_cols, "inmr->in")[users]
                * _fro(links.dl_ap_rows, "bnmt->bn")[aps])
        n1 = 2 * m + 2 * n_r * n_t + 18
        n2 = n1 + 2 * n_r + 2 * n_t + 1
        rho = (BRACKET_SAFETY * _gamma(n1 + n2) * _fro(self._wh, "pnrs->pn")[:, None]
               * _fro(self._f, "knts->kn") * hops).reshape(-1, n_sc)
        self._radius = np.stack([-rho, rho])[:, None]
        w_pre = BRACKET_SAFETY * _gamma(2 * (5 * n_s * n_s + 10) + 2 * n_owners + 6)
        w_post = BRACKET_SAFETY * _gamma(2 * LOG2_ROUNDINGS + n_pairs * n_sc + n_sc + n_pairs + 1)
        self._pre_log = np.array([1.0 - w_pre, 1.0 + w_pre])[:, None, None, None]
        self._post_log = (1.0 - w_post, 1.0 + w_post)
        if self.counter is not None:
            kept = 0 if self._wt is None else self._wt.size
            self.counter.add(n_pairs * n_owners * n_sc * n_s * (n_r * n_t + n_t * n_s) + kept
                             + links.dl_user_cols.size + links.dl_ap_rows.size)


def rcg_optimize_phases(
    objective,
    phases0: np.ndarray,
    epsilon: float = 1e-3,
    max_iter: int = 200,
) -> tuple[np.ndarray, list[RcgState]]:
    """Conjugate gradient ascent over IRS phase angles.

    Polak-Ribiere conjugation with non-negativity safeguard, Armijo
    backtracking line search with steepest-ascent fallback, direction
    restart every len(phases) iterations. Stops when the gradient 2-norm
    drops to epsilon, at max_iter, or when the search along the raw
    gradient finds no ascent; returns the best-objective iterate.
    """
    RcgConfig(epsilon=epsilon, max_iter=max_iter)  # raises ConfigError on a bad value
    theta = np.array(phases0, dtype=float)
    f, g = objective.value_and_grad(theta)
    d = g.copy()
    trace = [RcgState(0, f, float(np.linalg.norm(g)), theta.copy())]
    best_f, best_theta = f, theta.copy()
    restart_every = max(len(theta), 1)

    brackets = getattr(objective, "brackets", None)
    expected_reads = LADDER  # rungs the previous search read

    def line_search(d, slope):
        """Armijo backtracking, then greedy step doubling while the
        objective keeps improving (Polak-Ribiere conjugacy wants a near-exact
        search).

        Each comparison is settled on brackets lo <= value <= hi when they
        lie on one side of it, and on exact values otherwise, so it is the
        one exact values make. A bracket with lo == hi is the exact value.
        An objective with ``brackets`` brackets a ladder of steps in one
        call, each rung the step the walk would try next: up from the first
        step and the doubling steps (to the doubling cap), down from the
        backtracking steps. A step off every ladder so far starts a new one.
        A ladder up holds the rungs the previous search of the run read
        (LADDER in a run's first search) less those this search has read,
        plus LADDER_MARGIN, at most LADDER. A ladder down holds the step and
        its next LADDER - 1 halvings, those above STEP_MIN. Without
        ``brackets`` each value is taken exactly when the walk reaches it.
        """
        nonlocal expected_reads
        rungs = {}  # step -> bracket of theta + step * d
        read = set()  # the steps whose brackets the walk asked for

        def exact(step):
            value = objective.value(theta + step * d)
            return value, value

        def bracket(step, up):
            if brackets is None:
                return exact(step)
            if step not in rungs:
                ladder = [step]
                if up:
                    size = min(LADDER, max(expected_reads - len(read), 0) + LADDER_MARGIN)
                    while len(ladder) < size and ladder[-1] <= STEP_CAP:
                        ladder.append(2.0 * ladder[-1])
                else:
                    while len(ladder) < LADDER and ladder[-1] * STEP_SHRINK > STEP_MIN:
                        ladder.append(ladder[-1] * STEP_SHRINK)
                lo, hi = brackets(np.stack([theta + s * d for s in ladder]))
                rungs.update(zip(ladder, zip(lo.tolist(), hi.tolist())))
            read.add(step)
            return rungs[step]

        step = STEP_INIT
        while step > STEP_MIN:
            threshold = f + ARMIJO_SLOPE * step * slope
            # the first step's ladder runs up: most searches accept it and double;
            # a backtracking step's runs down, as most backtracking steps fail
            cand = bracket(step, up=step == STEP_INIT)
            if cand[0] < threshold <= cand[1]:
                cand = exact(step)
            if cand[0] >= threshold:
                break
            step *= STEP_SHRINK
        else:
            step = None
        while step is not None and step <= STEP_CAP:
            nxt = bracket(2.0 * step, up=True)
            if nxt[1] <= cand[0]:
                break
            if nxt[0] <= cand[1]:  # the brackets overlap
                if cand[0] != cand[1]:
                    cand = exact(step)
                nxt = exact(2.0 * step)
                if nxt[0] <= cand[0]:
                    break
            step, cand = 2.0 * step, nxt
        expected_reads = len(read)
        return step

    for it in range(1, max_iter + 1):
        if np.linalg.norm(g) <= epsilon:
            stop_reason = "epsilon"
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
        if step is None or (np.array_equal(d, g) and np.array_equal(theta + step * d, theta)):
            # no ascent along the raw gradient, or a step below the phases'
            # rounding: every later iteration would repeat this search
            stop_reason = "line_search"
            break
        theta = theta + step * d
        f_new, g_new = objective.value_and_grad(theta)
        beta = 0.0
        if it % restart_every != 0:
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
    else:
        stop_reason = "max_iter"
    trace[-1] = replace(trace[-1], stop_reason=stop_reason)
    return best_theta, trace


@dataclass(frozen=True)
class AoRound:
    round_index: int
    objective: float  # sum DL spectral efficiency, bits/s/Hz
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
    # why the outer loop stopped: "regressed" (a round's redesign lowered the
    # objective), "no_improvement", "no_surface" (one pass, no IRS elements)
    # or "round_cap" (outer_rounds reached)
    stop_reason: str
    trace: list[AoRound] = field(default_factory=list)
    rcg_trace: list[RcgState] = field(default_factory=list)

    @property
    def sum_utility(self) -> float:
        return self.report.sum_utility


def _initial_assignment(scenario: Scenario, links: LinkChannels, coeffs) -> Assignment:
    """Interference-free rate table on raw composite channels for association."""
    p = scenario.params
    h = links.dl_composites(coeffs)
    gains = np.mean(np.sum(np.abs(h) ** 2, axis=(3, 4)), axis=2)
    return associate_users(scenario, rate(p.p_ap * gains / p.sigma2, p.bandwidth))


def _design_all_beamformers(scenario, links, assignment, coeffs, tx_codebook, rx_codebook,
                            counter=None):
    """Hybrid beamformers of every served user, one stacked design over their
    serving links."""
    h = links.dl_composites(coeffs)
    designs = design_beamformers(h[assignment.users, assignment.aps], tx_codebook, rx_codebook,
                                 scenario.params.n_s, total_power=1.0, counter=counter)
    return {i: design for (i, _), design in zip(assignment.served, designs)}


def _dl_gain_table(links: LinkChannels, assignment: Assignment, gains):
    """Effective DL gain table (U, B, U, n_sc) from the (Q, n_sc) gains of the
    assignment's DL triples; NaN off those triples."""
    sc = links.scenario
    table = np.full((sc.n_users, sc.n_aps, sc.n_users, sc.params.n_sc), np.nan)
    rx, ap, owner = assignment.dl_triples.T
    table[rx, ap, owner] = gains
    return table


def _ul_gains(links: LinkChannels, coeffs):
    """UL composite power gains (U, B, n_sc)."""
    return np.sum(np.abs(links.ul_composites(coeffs)) ** 2, axis=(3, 4))


def _evaluate(scenario, links, assignment, coeffs, beamformers, aggregate, dl_gains=None):
    """Utility report and DL SINR table of a final state. ``dl_gains`` are the
    (Q, n_sc) gains of the DL triples of these beamformers at these phases, if
    already formed."""
    if dl_gains is None:
        _, dl_gains = DlRateObjective(links, assignment, beamformers)._effective(coeffs)
    p = scenario.params
    table = _dl_gain_table(links, assignment, dl_gains)
    dl = sinr_dl(scenario, assignment, table, signal_aggregate=aggregate)
    rate_dl = np.array([rate(dl[pair].sinr, p.bandwidth) for pair in assignment.served])
    ul = sinr_ul(scenario, assignment, _ul_gains(links, coeffs))
    return utility_report(scenario, assignment, rate_dl, ul), dl


def _phase_round(links, assignment, beamformers, phases, aggregate, cfg, counter):
    """RCG phase optimization for fixed beamformers, from ``phases``.

    Returns the phases, their objective, their DL triple gains (Q, n_sc) and
    the RCG trace. The objective, with its theta-gradient factors, lives only
    for the round.
    """
    objective = DlRateObjective(links, assignment, beamformers, aggregate, counter)
    round_rcg = []
    if objective.n_phases > 0:
        phases, round_rcg = rcg_optimize_phases(objective, phases, cfg.epsilon, cfg.max_iter)
    obj_val = objective.value(phases)
    _, dl_gains = objective._effective(np.exp(1j * phases))  # cached by ``value``
    return phases, obj_val, dl_gains, round_rcg


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

    Each round designs on the DL composites at its start phases, which
    ``links.dl_composites`` builds only when its last build was at other
    phases (the previous round's objective usually built there last), and
    the round's objective reads them at its first point. A round that
    returns its start phases is followed by a copy of itself, not a run of
    the next round, which would repeat it bit for bit and stop with
    ``no_improvement``.

    With no IRS elements the loop degenerates to a single beamforming pass
    identical to the plain pipeline evaluation.
    """
    _checked_aggregate(aggregate)
    cfg = config or scenario.optimizer
    if codebook is not None:
        scenario = with_codebook(scenario, codebook)
    p = scenario.params
    if links is None or links.scenario is not scenario or links.seed != seed:
        links = synthesize_links(scenario, seed)
    m = scenario.n_irs_elements
    phases = np.zeros(m)
    assignment = _initial_assignment(scenario, links, np.exp(1j * phases))
    tx_codebook = build_analog_codebook(p.n_t, p.n_rf, beam_grid=cfg.beam_grid)
    rx_grid = 1 if p.n_r == 1 else min(cfg.beam_grid, 8)
    rx_codebook = build_analog_codebook(p.n_r, min(p.n_r, p.n_s), beam_grid=rx_grid)

    best = None  # (objective value, phases, beamformers, DL triple gains)
    trace: list[AoRound] = []
    rcg_trace: list[RcgState] = []
    prev_obj = -np.inf
    stop_reason = "round_cap"
    for rnd in range(1, cfg.outer_rounds + 1):
        t0 = time.perf_counter()
        beamformers = _design_all_beamformers(
            scenario, links, assignment, np.exp(1j * phases), tx_codebook, rx_codebook, counter
        )
        start = phases
        phases, obj_val, dl_gains, round_rcg = _phase_round(
            links, assignment, beamformers, phases, aggregate, cfg, counter
        )
        if best is not None and obj_val < best[0]:
            stop_reason = "regressed"  # beamformer redesign hurt the objective
            break
        trace.append(
            AoRound(
                round_index=rnd,
                objective=obj_val,
                phases=phases.copy(),
                codeword_ids={
                    i: (bf.analog_precoder.codebook_id, bf.analog_combiner.codebook_id)
                    for i, bf in beamformers.items()
                },
                grad_norm=round_rcg[-1].grad_norm if round_rcg else 0.0,
                seconds=time.perf_counter() - t0,
            )
        )
        rcg_trace.extend(round_rcg)
        best = (obj_val, phases.copy(), beamformers, dl_gains)
        if m == 0:
            stop_reason = "no_surface"
            break
        if prev_obj > -np.inf and obj_val - prev_obj <= IMPROVEMENT_TOL * max(abs(prev_obj), 1.0):
            stop_reason = "no_improvement"
            break
        if rnd < cfg.outer_rounds and phases.tobytes() == start.tobytes():
            # the next round would run on this round's composites, assignment
            # and codebooks, so it would repeat this round and stop: record it
            trace.append(replace(trace[-1], round_index=rnd + 1))
            rcg_trace.extend(round_rcg)
            stop_reason = "no_improvement"
            break
        prev_obj = obj_val

    obj_val, phases, beamformers, dl_gains = best
    report, _ = _evaluate(
        scenario, links, assignment, np.exp(1j * phases), beamformers, aggregate, dl_gains
    )
    return AoResult(beamformers, phases, assignment, report, stop_reason, trace, rcg_trace)


class _ProbeObjective(DlRateObjective):
    """``DlRateObjective`` that runs the products ``_kernel`` counts, as
    batched GEMMs: the composites H = H_nlos + (phi . U)^T V per (user, AP,
    subcarrier), where U and V are the user and AP element stacks (the
    paper-literal rebuild, M n_r n_t MACs per link and subcarrier), and the
    effective matrices as the chain (W^H H) F (n_s (n_r n_t + n_t n_s) MACs
    per triple and subcarrier). Every ``_probe_objective`` has one user and
    one AP, so the chain reads that link of the composites in place.

    The GEMMs round otherwise than the run path's ``_cascade`` einsum and
    three-operand effective einsum, whose bits the golden result files and
    the benchmark's reference digests pin, so only the probe uses them. The
    class goes once a rounding-level re-record moves the run path onto the
    same products (ROADMAP item 2).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # the composites, and the user stack as stored, (U, n_sc, n_r, M),
        # scaled by the phases: both refilled by every pass
        self._composites = np.empty_like(self.links.dl_nlos)
        self._scaled = np.empty_like(self.links.dl_user_cols.swapaxes(2, 3))

    def _build_composites(self, coeffs):
        links, h = self.links, self._composites
        if len(coeffs):
            np.multiply(links.dl_user_cols.swapaxes(2, 3), coeffs, out=self._scaled)
            np.matmul(self._scaled[:, None], links.dl_ap_rows[None], out=h)
            h += links.dl_nlos
        else:
            np.copyto(h, links.dl_nlos)
        if self.counter is not None:
            self.counter.add(h.size * len(coeffs))
        return h

    def _effective_matrices(self, h):
        # W^H as (1, n_sc, n_s, n_r): with one stream, a contiguous view
        return np.matmul(np.matmul(self._wh.swapaxes(2, 3), h[:, 0]), self._f)


def _probe_objective(m: int, bf_counter=None, counter=None):
    """The probe's objective at M elements: one AP and one user, n_t = n_r = M,
    beside an M-element surface, with beamformers designed at zero phases;
    ``bf_counter`` counts the design's MACs, ``counter`` the objective's.
    Small-scale fading is off, so the links depend on no seed."""
    params = SystemParams(
        n_t=m, n_r=m, n_rf=1, n_s=1, n_sc=PROBE_N_SC, smallscale=False, r_min=0.0, v_cap=1
    )
    scenario = Scenario(
        ap_positions=np.array([[1.0, 1.0, 1.0]]),
        user_positions=np.array([[9.0, 9.0, 1.0]]),
        irs_panels=(IrsPanel((0.0, 4.0, 1.0), m, 1, params.wavelength_dl / 2.0),),
        bounds=Box((0.0, 0.0, 0.0), (10.0, 50.0, 3.0)),
        params=params,
    )
    links = synthesize_links(scenario)
    assignment = Assignment((0,), (False,))
    tx_cb = build_analog_codebook(m, 1, beam_grid=1)
    rx_cb = build_analog_codebook(m, 1, beam_grid=1)
    coeffs = np.ones(m, dtype=complex)
    # designed on a copy of the links, whose kept build is freed with it: the
    # objective builds into its own buffer
    beamformers = _design_all_beamformers(
        scenario, replace(links), assignment, coeffs, tx_cb, rx_cb, bf_counter
    )
    return _ProbeObjective(links, assignment, beamformers, counter=counter)


def complexity_probe(m_values: list[int], rcg_iters: int = 30) -> list[dict]:
    """Measure counted multiply-accumulates and wall time versus element count.

    Antenna counts scale with M (n_t = n_r = M) so the probe exercises the
    cubic composite-rebuild cost of phase optimization and the quadratic
    projection cost of hybrid beamforming. The probe measures the paper's
    search: its RCG sees the objective without ``brackets``, so every trial
    point runs the counted composite kernel. ``_ProbeObjective`` runs that
    kernel as the products it counts, one GEMM for the composites and two
    for the effective matrices, so the wall time and ``phase_macs`` measure
    the same work.
    """
    if list(m_values) != sorted(m_values):
        raise ValueError("m_values must be ascending")

    rows = []
    for m in m_values:
        bf_counter, phase_counter = OpCounter(), OpCounter()
        objective = _probe_objective(m, bf_counter, phase_counter)
        t0 = time.perf_counter()
        exact = SimpleNamespace(value=objective.value, value_and_grad=objective.value_and_grad)
        rcg_optimize_phases(exact, np.zeros(m), epsilon=0.0, max_iter=rcg_iters)
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
