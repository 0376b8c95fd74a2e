"""Phase-gradient oracles, conjugate-gradient behavior and the outer loop."""

import gc
import tracemalloc
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irslink import channel, optimizer
from irslink.beamforming import build_analog_codebook, design_beamformers
from irslink.channel import synthesize_links
from irslink.metrics import rate
from irslink.opcount import OpCounter
from irslink.optimizer import (
    DlRateObjective,
    RcgConfig,
    alternating_optimize,
    complexity_probe,
    rcg_optimize_phases,
    _design_all_beamformers,
    _dl_gain_table,
    _evaluate,
    _initial_assignment,
    _probe_objective,
    _ProbeObjective,
    _ul_gains,
)
from irslink.scenario import STOCK_CODEBOOKS, Assignment, default_scenario, with_codebook

from conftest import assert_same_design, build_rate_objective, scalar_scenario


def _scalar_coefficients(objective, links, beamformers):
    """Collapse a 1x1-antenna, 1-subcarrier objective to e0 + sum c_m e^{j theta_m}."""
    w = beamformers[0].combiners()[0, 0, 0]
    f = beamformers[0].precoders()[0, 0, 0]
    h0 = links.dl_nlos[0, 0, 0, 0, 0]
    cols = links.dl_user_cols[0][0, :, 0]
    rows = links.dl_ap_rows[0][0, :, 0]
    return np.conj(w) * h0 * f, np.conj(w) * cols * rows * f


class PerTripleObjective:
    """Reference: the per-(receiver, AP, owner) dict loop the stacked kernel
    replaced, with each link's composite built on its own."""

    def __init__(self, links, assignment, beamformers, aggregate="mean"):
        self.links, self.aggregate = links, aggregate
        self.precoders = precoders = {i: bf.precoders() for i, bf in beamformers.items()}
        self.combiners = combiners = {i: bf.combiners() for i, bf in beamformers.items()}
        p = links.scenario.params
        self.sigma2, self.p_ap = p.sigma2, p.p_ap
        self.pairs = assignment.served
        self.active_aps = sorted({j for _, j in self.pairs})
        self.users_of = {j: [l for l, a in enumerate(assignment.user_to_ap) if a == j]
                         for j in self.active_aps}
        self.n_phases = links.scenario.n_irs_elements
        self._u = {
            i: np.einsum("nrs,nmr->nms", np.conj(combiners[i]), links.dl_user_cols[i])
            for i, _ in self.pairs
        }
        self._v = {
            (b, l): np.einsum("nmt,nts->nms", links.dl_ap_rows[b], precoders[l])
            for b in self.active_aps
            for l in self.users_of[b]
        }

    def dl_composite(self, i, b, coeffs):
        h = self.links.dl_nlos[i, b].copy()
        if len(coeffs):
            h += np.einsum("m,nmr,nmt->nrt", coeffs, self.links.dl_user_cols[i],
                           self.links.dl_ap_rows[b])
        return h

    def effective(self, coeffs):
        eff, gains = {}, {}
        for i, _ in self.pairs:
            for b in self.active_aps:
                h = self.dl_composite(i, b, coeffs)
                for l in self.users_of[b]:
                    e = np.einsum("nrs,nrt,ntk->nsk", np.conj(self.combiners[i]), h,
                                  self.precoders[l])
                    eff[(i, b, l)] = e
                    gains[(i, b, l)] = np.sum(np.abs(e) ** 2, axis=(1, 2))
        return eff, gains

    def sinr_terms(self, gains):
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

    def link_value(self, sinr):
        se = np.log2(1.0 + sinr)
        if self.aggregate == "mean":
            return float(np.sum(se))
        return float(len(sinr) * np.min(se))

    def value(self, phases):
        _, gains = self.effective(np.exp(1j * np.asarray(phases, dtype=float)))
        return float(sum(self.link_value(s / d) for s, d in self.sinr_terms(gains).values()))

    def value_and_grad(self, phases):
        coeffs = np.exp(1j * np.asarray(phases, dtype=float))
        eff, gains = self.effective(coeffs)
        terms = self.sinr_terms(gains)
        value = float(sum(self.link_value(s / d) for s, d in terms.values()))
        if self.n_phases == 0:
            return value, np.zeros(0)
        dgains = {}
        for (i, b, l), e in eff.items():
            t = np.einsum("nsk,nms,nmk->nm", np.conj(e), self._u[i], self._v[(b, l)])
            dgains[(i, b, l)] = 2.0 * np.real(1j * coeffs[None, :] * t)
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
                grad += len(sinr) * per_sc[int(np.argmin(sinr))]
        return value, grad

    def gain_tables(self, coeffs):
        links = self.links
        sc = links.scenario
        U, B = sc.n_users, sc.n_aps
        _, gains = self.effective(coeffs)
        eff = np.full((U, B, U, sc.params.n_sc), np.nan)
        for (i, b, l), gain in gains.items():
            eff[i, b, l] = gain
        ul = np.zeros((U, B, sc.params.n_sc))
        # the UL hops in C order, formed from their stored factors
        user_rows = np.ascontiguousarray(links.ul_hops("user"))
        ap_cols = np.ascontiguousarray(links.ul_hops("ap"))
        for i in range(U):
            for j in range(B):
                h = links.ul_nlos[i, j].copy()
                if len(coeffs):
                    h += np.einsum("m,nmr,nmt->ntr", coeffs, user_rows[i], ap_cols[j])
                ul[i, j] = np.sum(np.abs(h) ** 2, axis=(1, 2))
        return eff, ul


def _unequal_owners_scenario(ap):
    """The stock room with ``v_cap`` = 3 and one user moved so that AP ``ap``
    serves three users and the other AP one."""
    users = default_scenario().user_positions.copy()
    users[2 if ap == 0 else 1] = (3.5, 7.0, 1.5) if ap == 0 else (7.0, 10.0, 1.5)
    return replace(default_scenario(v_cap=3), user_positions=users)


def _c_ordered(links):
    """The same channels with the DL cascade stacks in C order, the layout the
    per-triple loop ran on."""
    stacks = ("dl_user_cols", "dl_ap_rows")
    return replace(links, **{name: np.ascontiguousarray(getattr(links, name)) for name in stacks})


def _gain_tables(objective, coeffs):
    """The DL gain table and the UL gains that the final report reads."""
    _, gains = objective._effective(coeffs)
    return (_dl_gain_table(objective.links, objective.assignment, gains),
            _ul_gains(objective.links, coeffs))


def _assert_matches_per_triple(objective, beamformers, n_points=3, seed=0):
    """Every output of the stacked objective equals the per-triple loop's bit for bit."""
    oracle = PerTripleObjective(_c_ordered(objective.links), objective.assignment, beamformers,
                                aggregate=objective.aggregate)
    rng = np.random.default_rng(seed)
    for k in range(n_points):
        theta = np.zeros(objective.n_phases) if k == 0 else rng.uniform(
            -np.pi, np.pi, objective.n_phases)
        value, grad = objective.value_and_grad(theta)
        expected_value, expected_grad = oracle.value_and_grad(theta)
        assert value == expected_value
        np.testing.assert_array_equal(grad, expected_grad)
        assert objective.value(theta) == oracle.value(theta)
        coeffs = np.exp(1j * theta)
        for table, expected in zip(_gain_tables(objective, coeffs), oracle.gain_tables(coeffs)):
            np.testing.assert_array_equal(table, expected)


class TestStackedKernel:
    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical_on_stock_codebooks(self, seed):
        for cb in STOCK_CODEBOOKS:
            objective, _, _, beamformers = build_rate_objective(
                with_codebook(default_scenario(), cb), seed=seed)
            _assert_matches_per_triple(objective, beamformers, seed=seed)

    def test_bit_identical_min_aggregate(self):
        for cb in STOCK_CODEBOOKS:
            objective, _, _, beamformers = build_rate_objective(
                with_codebook(default_scenario(), cb), seed=3, aggregate="min")
            _assert_matches_per_triple(objective, beamformers)

    def test_bit_identical_with_two_antenna_two_stream_users(self):
        sc = default_scenario(16, n_r=2, n_s=2, n_sc=8)
        links = synthesize_links(sc, seed=1)
        coeffs = np.ones(sc.n_irs_elements, dtype=complex)
        assignment = _initial_assignment(sc, links, coeffs)
        beamformers = _design_all_beamformers(
            sc, links, assignment, coeffs, build_analog_codebook(8, 2, beam_grid=4),
            build_analog_codebook(2, 2, beam_grid=4))
        objective = DlRateObjective(links, assignment, beamformers)
        assert objective._wh.shape[-2:] == (2, 2)
        _assert_matches_per_triple(objective, beamformers)

    def test_bit_identical_with_user_left_unserved(self):
        objective, _, assignment, beamformers = build_rate_objective(
            default_scenario(v_cap=1), seed=2)
        assert -1 in assignment.user_to_ap
        _assert_matches_per_triple(objective, beamformers)

    @pytest.mark.parametrize("ap", [0, 1], ids=["three_on_ap0", "three_on_ap1"])
    def test_bit_identical_with_unequal_owner_slices(self, ap):
        # the products run one einsum per AP over its owners' slice: slices of
        # 3 and 1 owners, the longer first or last
        for aggregate in ("mean", "min"):
            objective, _, assignment, beamformers = build_rate_objective(
                _unequal_owners_scenario(ap), seed=1, aggregate=aggregate)
            owner_aps = [b for b, _ in assignment.owners]
            assert owner_aps.count(ap) == 3 and owner_aps.count(1 - ap) == 1
            _assert_matches_per_triple(objective, beamformers)

    def test_single_subcarrier_two_antenna_receivers_within_rounding(self):
        # for this one shape numpy's per-triple einsum summed each combiner
        # row on its own before adding the rows; the stacked einsum sums all
        # n_r * n_t products in one sequence, so results agree to rounding
        objective, _, _, beamformers = build_rate_objective(
            default_scenario(16, n_r=2, n_sc=1), seed=0)
        oracle = PerTripleObjective(_c_ordered(objective.links), objective.assignment,
                                    beamformers)
        theta = np.random.default_rng(0).uniform(-np.pi, np.pi, objective.n_phases)
        value, grad = objective.value_and_grad(theta)
        expected_value, expected_grad = oracle.value_and_grad(theta)
        assert value == pytest.approx(expected_value, rel=1e-14)
        np.testing.assert_allclose(grad, expected_grad, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expected_grad)))

    def test_no_served_user(self, stock_links):
        n_users = stock_links.scenario.n_users
        objective = DlRateObjective(
            stock_links, Assignment((-1,) * n_users, (False,) * n_users), {})
        theta = np.full(stock_links.scenario.n_irs_elements, 0.3)
        value, grad = objective.value_and_grad(theta)
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(theta))
        assert objective.value(theta) == 0.0
        eff, _ = _gain_tables(objective, np.exp(1j * theta))
        assert np.all(np.isnan(eff))

    def test_value_then_gradient_adds_only_gradient_macs(self, stock_scenario):
        counter = OpCounter()
        objective, *_ = build_rate_objective(stock_scenario, seed=0)
        objective.counter = counter
        theta = np.linspace(-1.0, 1.0, objective.n_phases)
        objective.value(theta)
        kernel_macs = counter.macs
        objective.value_and_grad(theta)
        p = stock_scenario.params
        n_triples = len(objective.assignment.served) ** 2
        grad_macs = n_triples * 2 * p.n_sc * objective.n_phases * p.n_s * p.n_s
        assert counter.macs == kernel_macs + grad_macs

    def test_rcg_counts_one_kernel_pass_per_distinct_point(self, stock_scenario):
        objective, *_ = build_rate_objective(stock_scenario, seed=0)
        objective.counter = probe = OpCounter()
        objective.value(np.full(objective.n_phases, 9.0))
        kernel_macs = probe.macs
        probe.reset()
        objective.value_and_grad(np.full(objective.n_phases, 9.0))
        grad_macs = probe.macs

        points, n_grads = set(), 0

        class Recording:
            def value(self, theta):
                points.add(np.exp(1j * theta).tobytes())
                return objective.value(theta)

            def value_and_grad(self, theta):
                nonlocal n_grads
                points.add(np.exp(1j * theta).tobytes())
                n_grads += 1
                return objective.value_and_grad(theta)

        objective.counter = counter = OpCounter()
        _, trace = rcg_optimize_phases(Recording(), np.zeros(objective.n_phases), max_iter=20)
        assert len(points) > n_grads > 1  # line searches evaluated points of their own
        assert counter.macs == len(points) * kernel_macs + n_grads * grad_macs


class TestCompositeBuffer:
    """Every kernel pass reads the composites ``dl_composites`` gives, a new
    build or the links' kept one; what the objective returns and caches must
    not depend on which."""

    def test_evicted_point_evaluated_again_matches_fresh_objective(self, stock_scenario):
        objective, links, assignment, beamformers = build_rate_objective(stock_scenario, seed=0)
        rng = np.random.default_rng(7)
        points = [rng.uniform(-np.pi, np.pi, objective.n_phases) for _ in range(6)]
        kept = []  # each point's cached arrays, and copies of them taken at once
        for theta in points:
            objective.value_and_grad(theta)
            eff, gains = objective._effective(np.exp(1j * theta))
            kept.append(((eff, gains), (eff.copy(), gains.copy())))
        assert len(points) > objective._CACHED_POINTS
        assert np.exp(1j * points[0]).tobytes() not in objective._cache  # evicted
        fresh = DlRateObjective(links, assignment, beamformers)
        for theta in (points[0], points[-1]):
            value, grad = objective.value_and_grad(theta)
            expected_value, expected_grad = fresh.value_and_grad(theta)
            assert value == expected_value
            np.testing.assert_array_equal(grad, expected_grad)
            assert objective.value(theta) == fresh.value(theta)
            coeffs = np.exp(1j * theta)
            for table, expected in zip(_gain_tables(objective, coeffs),
                                       _gain_tables(fresh, coeffs)):
                np.testing.assert_array_equal(table, expected)
        # the fresh objective's pass at points[0] read the objective's build of
        # it, its pass at points[-1] built anew
        kept_build = links.dl_composites(np.exp(1j * points[-1]))
        for arrays, copies in kept:  # later passes wrote into no earlier entry
            for array, copy in zip(arrays, copies):
                np.testing.assert_array_equal(array, copy)
                assert not np.shares_memory(array, kept_build)
        # every pass wrote its effective matrices and gains into arrays of its own
        entries = [array for arrays, _ in kept for array in arrays]
        for k, array in enumerate(entries):
            assert not any(np.shares_memory(array, other) for other in entries[k + 1:])

    def test_no_surface(self):
        objective, *_ = build_rate_objective(scalar_scenario(0, n_sc=2), seed=0)
        value, grad = objective.value_and_grad(np.zeros(0))
        assert objective.value(np.zeros(0)) == value > 0.0
        assert grad.shape == (0,)
        links = objective.links
        h = links.dl_composites(np.zeros(0))
        np.testing.assert_array_equal(h, links.dl_nlos)
        assert not np.shares_memory(h, links.dl_nlos)

    def test_probe_counts_as_recorded(self):
        # counted before the composites were built in two steps; the counter
        # still charges the paper-literal cubic rebuild of every composite (the
        # probe's search sees no bracket), and the line search's step doubling
        # evaluates no point past its 1e6 cap
        rows = complexity_probe([8, 16, 32], rcg_iters=5)
        assert [row["phase_macs"] for row in rows] == [248000, 1520832, 14342912]
        assert [row["beamforming_macs"] for row in rows] == [576, 2176, 8448]


_ROUND_SCENARIOS = {
    **{cb.name: with_codebook(default_scenario(), cb) for cb in STOCK_CODEBOOKS},
    "two_antenna_two_stream": default_scenario(16, n_t=4, n_r=2, n_s=2, n_sc=8),
    "user_left_unserved": default_scenario(v_cap=1),
}


class TestStackedRoundSetUp:
    """Association and beamformer design of an AO round, built over all links
    at once, equal the link-by-link computations bit for bit."""

    @pytest.mark.parametrize("name", _ROUND_SCENARIOS)
    def test_beamformers_as_designed_per_link(self, name):
        sc = _ROUND_SCENARIOS[name]
        p = sc.params
        links = synthesize_links(sc, seed=1)
        coeffs = np.exp(1j * np.random.default_rng(1).uniform(-np.pi, np.pi, sc.n_irs_elements))
        assignment = _initial_assignment(sc, links, coeffs)
        if name == "user_left_unserved":
            assert -1 in assignment.user_to_ap
        tx = build_analog_codebook(p.n_t, p.n_rf, beam_grid=16)
        rx = build_analog_codebook(p.n_r, min(p.n_r, p.n_s), beam_grid=1 if p.n_r == 1 else 8)
        counter, per_link = OpCounter(), OpCounter()
        got = _design_all_beamformers(sc, links, assignment, coeffs, tx, rx, counter)
        h = links.dl_composites(coeffs)
        served = dict(assignment.served)
        assert list(got) == list(served)
        for i, j in served.items():
            (alone,) = design_beamformers(h[i, j][None], tx, rx, p.n_s, counter=per_link)
            assert_same_design(got[i], alone)
        assert counter.macs == per_link.macs

    @pytest.mark.parametrize("name", _ROUND_SCENARIOS)
    def test_association_table_as_built_per_link(self, name, monkeypatch):
        sc = _ROUND_SCENARIOS[name]
        p = sc.params
        links = synthesize_links(sc, seed=2)
        coeffs = np.exp(1j * np.random.default_rng(2).uniform(-np.pi, np.pi, sc.n_irs_elements))
        tables = []
        monkeypatch.setattr(optimizer, "associate_users",
                            lambda scenario, rates: tables.append(rates))
        _initial_assignment(sc, links, coeffs)
        h = links.dl_composites(coeffs)
        expected = np.zeros((sc.n_users, sc.n_aps))
        for i, j in np.ndindex(expected.shape):
            g = float(np.mean(np.sum(np.abs(h[i, j]) ** 2, axis=(1, 2))))
            expected[i, j] = rate(p.p_ap * g / p.sigma2, p.bandwidth)
        np.testing.assert_array_equal(tables[0], expected)

    @pytest.mark.parametrize("name", _ROUND_SCENARIOS)
    def test_objective_beamformers_as_formed_per_user(self, name):
        # the objective forms every user's F and W in one stacked einsum each,
        # and keeps W^H per served pair and F per owner
        objective, _, _, beamformers = _round_objective(_ROUND_SCENARIOS[name], seed=3)
        assignment = objective.assignment
        assert len(objective._wh) == len(objective._f) == len(assignment.served) > 0
        for wh, i in zip(objective._wh, assignment.users.tolist()):
            np.testing.assert_array_equal(wh, np.conj(beamformers[i].combiners()))
        for f, (_, l) in zip(objective._f, assignment.owners):
            np.testing.assert_array_equal(f, beamformers[l].precoders())


def _round_objective(sc, seed):
    """An AO round's objective: beamformers designed on the composites at
    random phases theta, which are returned with it, and those composites,
    the links' kept build."""
    p = sc.params
    links = synthesize_links(sc, seed=seed)
    theta = np.random.default_rng(seed).uniform(-np.pi, np.pi, sc.n_irs_elements)
    coeffs = np.exp(1j * theta)
    assignment = _initial_assignment(sc, links, coeffs)
    tx = build_analog_codebook(p.n_t, p.n_rf, beam_grid=16)
    rx = build_analog_codebook(p.n_r, min(p.n_r, p.n_s), beam_grid=1 if p.n_r == 1 else 8)
    beamformers = _design_all_beamformers(sc, links, assignment, coeffs, tx, rx)
    return (DlRateObjective(links, assignment, beamformers), theta, links.dl_composites(coeffs),
            beamformers)


@pytest.fixture
def cascade_calls(monkeypatch):
    """Records every ``channel._cascade`` call: one per subcarrier piece of a
    composite build (every scenario here builds in one piece)."""
    calls = []
    cascade = channel._cascade
    monkeypatch.setattr(channel, "_cascade", lambda *a, **k: calls.append(1) or cascade(*a, **k))
    return calls


class TestKeptComposites:
    """The composites an AO round designed on are the links' kept build, so
    the round's objective, whose first point is at those phases, builds
    none there."""

    @pytest.mark.parametrize("name", ["4ant_2rf", "two_antenna_two_stream", "user_left_unserved"])
    def test_first_point_builds_no_composites(self, name, cascade_calls):
        objective, theta, composites, beamformers = _round_objective(_ROUND_SCENARIOS[name], 4)
        # links with nothing kept: its objective builds at theta
        unbuilt = DlRateObjective(replace(objective.links), objective.assignment, beamformers)
        unbuilt.counter = OpCounter()
        expected_value, expected_grad = unbuilt.value_and_grad(theta)
        objective.counter = OpCounter()
        cascade_calls.clear()
        value, grad = objective.value_and_grad(theta)
        assert cascade_calls == []
        assert value == expected_value
        np.testing.assert_array_equal(grad, expected_grad)
        # the pass on the kept build counts the effective-matrix and gradient MACs only
        p = objective.links.scenario.params
        n_users, n_aps = composites.shape[:2]
        cascade_macs = n_users * n_aps * p.n_sc * objective.n_phases * p.n_r * p.n_t
        assert cascade_macs > 0
        assert objective.counter.macs == unbuilt.counter.macs - cascade_macs
        other = theta + 0.5
        assert objective.value(other) == unbuilt.value(other)  # one build each
        assert objective.value(theta) == expected_value  # a cache hit
        assert len(cascade_calls) == 2

    def test_no_surface(self, cascade_calls):
        # with no surface the round's value is the objective's first point
        objective, theta, _, beamformers = _round_objective(default_scenario(0), 5)
        cascade_calls.clear()
        value = objective.value(theta)
        assert cascade_calls == []
        unbuilt = DlRateObjective(replace(objective.links), objective.assignment, beamformers)
        assert value == unbuilt.value(theta)
        assert len(cascade_calls) == 1
        coeffs = np.exp(1j * theta)
        np.testing.assert_array_equal(_gain_tables(objective, coeffs)[0],
                                      _gain_tables(unbuilt, coeffs)[0])

    def test_another_point_is_built(self, cascade_calls):
        objective, theta, composites, beamformers = _round_objective(default_scenario(), 6)
        cascade_calls.clear()
        other = theta + 0.25
        value, grad = objective.value_and_grad(other)
        assert objective.links.dl_composites(np.exp(1j * other)) is not composites
        objective.value(theta)
        assert len(cascade_calls) == 2  # one build per point
        unbuilt = DlRateObjective(replace(objective.links), objective.assignment, beamformers)
        expected_value, expected_grad = unbuilt.value_and_grad(other)
        assert value == expected_value
        np.testing.assert_array_equal(grad, expected_grad)

    def test_cache_hit_keeps_the_last_build(self, cascade_calls):
        objective, theta, composites, _ = _round_objective(default_scenario(), 6)
        links, coeffs = objective.links, np.exp(1j * theta)
        objective.value(theta)  # the pass on the kept build
        assert links.dl_composites(coeffs) is composites
        other = np.exp(1j * (theta + 0.25))
        objective.value(theta + 0.25)
        built = links.dl_composites(other)
        cascade_calls.clear()
        objective.value(theta)  # a cache hit builds nothing
        assert cascade_calls == []
        assert links.dl_composites(other) is built

    def test_one_cascade_fewer_per_round(self, cascade_calls):
        result = alternating_optimize(default_scenario(24), seed=0)
        # three rounds run, the third regressed. The first round builds the
        # composites at its start phases (1) for association and design, and
        # its objective's first point reads them; the line searches decide on
        # brackets, so composites are built only at the 10 accepted points
        # past each round's first, and once for the report's UL gains (1).
        # Rounds 2 and 3 start where the previous round's objective built
        # last. Building at each round's start the run took 3 + 10 + 1, and
        # building at every objective's first point too 89 cascades; without
        # the brackets, 86.
        assert len(result.trace) == 2 and result.stop_reason == "regressed"
        assert len(cascade_calls) == 1 + 10 + 1


class TestRoundHandOver:
    """An AO round after the first designs on the very array the previous
    round's objective built last, at the phases it returned."""

    @pytest.mark.parametrize("overrides", [
        {"outer_rounds": 3},
        # RCG stops at its first gradient, so the objective builds nothing: it
        # reads the composites the round designed on, at the phases it
        # returns, and the round after it would repeat it, so it is recorded
        {"epsilon": 1e3, "outer_rounds": 3},
    ])
    def test_next_round_designs_on_the_last_build(self, fast_config, monkeypatch, overrides):
        designs, builds = [], []  # per round: (links, coeffs, composites), the objective's reads
        design, phase_round = optimizer._design_all_beamformers, optimizer._phase_round
        build = DlRateObjective._build_composites

        def recording_design(scenario, links, assignment, coeffs, *args):
            out = design(scenario, links, assignment, coeffs, *args)
            designs.append((links, coeffs.copy(), links.dl_composites(coeffs)))
            return out

        def recording_round(*args):
            builds.append([])
            return phase_round(*args)

        def recording_build(objective, coeffs):
            builds[-1].append(build(objective, coeffs))
            return builds[-1][-1]

        monkeypatch.setattr(optimizer, "_design_all_beamformers", recording_design)
        monkeypatch.setattr(optimizer, "_phase_round", recording_round)
        monkeypatch.setattr(DlRateObjective, "_build_composites", recording_build)
        result = alternating_optimize(default_scenario(24), seed=0,
                                      config=replace(fast_config, **overrides))
        for links, coeffs, composites in designs:  # bit for bit a fresh build
            assert composites.tobytes() == replace(links).dl_composites(coeffs).tobytes()
        if overrides.get("epsilon"):
            assert {state.iteration for state in result.rcg_trace} == {0}
            assert len(designs) == len(builds) == 1 and len(result.trace) == 2
            # the round's objective read the array the round designed on
            assert len(builds[0]) == 1 and builds[0][0] is designs[0][2]
            return
        assert len(designs) == len(builds) >= 2
        assert builds[0][0] is designs[0][2]
        for (_, _, composites), previous in zip(designs[1:], builds):
            assert composites is previous[-1]  # not built again


def _states_equal(got, want):
    """RCG states equal field by field, phases bit for bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert replace(a, phases=None) == replace(b, phases=None)
        assert a.phases.tobytes() == b.phases.tobytes()


class TestRecordedRound:
    """A round that returns its start phases is followed by a copy of itself,
    not by a run of the next round, which would repeat it bit for bit."""

    def test_round_at_its_start_phases_is_recorded_not_run(self, fast_config, monkeypatch):
        config = replace(fast_config, epsilon=1e3, outer_rounds=3)  # RCG runs no iteration
        scenario = default_scenario(24)
        alone = alternating_optimize(scenario, seed=0, config=replace(config, outer_rounds=1))
        runs, designs = [], []
        phase_round, design = optimizer._phase_round, optimizer._design_all_beamformers
        monkeypatch.setattr(optimizer, "_phase_round",
                            lambda *args: runs.append(1) or phase_round(*args))
        monkeypatch.setattr(optimizer, "_design_all_beamformers",
                            lambda *args: designs.append(1) or design(*args))
        result = alternating_optimize(scenario, seed=0, config=config)
        assert len(runs) == len(designs) == 1
        first, second = result.trace
        assert (first.round_index, second.round_index) == (1, 2)
        assert replace(second, round_index=1, phases=None) == replace(first, phases=None)
        assert second.phases.tobytes() == first.phases.tobytes() == np.zeros(24).tobytes()
        # as the run of round 2 gave: the same RCG run again, and the same state
        assert result.stop_reason == "no_improvement"
        assert len(result.rcg_trace) == 2 and result.rcg_trace[1] is result.rcg_trace[0]
        _states_equal(result.rcg_trace, alone.rcg_trace * 2)
        assert result.phases.tobytes() == alone.phases.tobytes()
        assert result.report.rows == alone.report.rows

    def test_round_whose_phases_moved_is_run(self, fast_config, monkeypatch):
        # each round's phases move by one ulp, with the next round's
        # composites left to be built at them: every round runs
        runs, phase_round = [], optimizer._phase_round

        def nudged_round(*args):
            phases, *out = phase_round(*args)
            runs.append(phases)
            return (np.nextafter(phases, np.inf), *out)

        monkeypatch.setattr(optimizer, "_phase_round", nudged_round)
        config = replace(fast_config, epsilon=1e3, outer_rounds=3)
        result = alternating_optimize(default_scenario(24), seed=0, config=config)
        assert len(runs) == 2 and result.stop_reason in ("no_improvement", "regressed")
        assert len(result.trace) <= len(runs)
        assert runs[1].tobytes() != runs[0].tobytes()  # round 2 started where round 1 moved to

    def test_stock_runs_copy_only_rounds_that_returned_their_start(self, monkeypatch):
        starts, phase_round = [], optimizer._phase_round
        monkeypatch.setattr(optimizer, "_phase_round",
                            lambda *args: starts.append(args[3]) or phase_round(*args))
        copies = 0
        for cb in STOCK_CODEBOOKS[:2]:
            for aggregate in ("mean", "min"):
                starts.clear()
                result = alternating_optimize(with_codebook(default_scenario(), cb), seed=0,
                                              aggregate=aggregate)
                # every kept round after the ones run is a copy, and only of a
                # run round that returned its start phases
                copied = result.trace[len(starts):]
                assert len(copied) <= 1
                if copied:
                    copies += 1
                    last_run = result.trace[len(starts) - 1]
                    assert last_run.phases.tobytes() == starts[-1].tobytes()
                    assert replace(copied[0], round_index=last_run.round_index) == last_run
        assert copies >= 1


_BRACKET_CASES = {
    **{cb.name: (with_codebook(default_scenario(), cb), "mean") for cb in STOCK_CODEBOOKS},
    "min_aggregate": (default_scenario(), "min"),
    "two_antenna_two_stream": (default_scenario(16, n_t=4, n_r=2, n_s=2, n_sc=8), "mean"),
    "one_subcarrier": (default_scenario(16, n_t=4, n_r=2, n_s=2, n_sc=1), "min"),
    "user_left_unserved": (default_scenario(v_cap=1), "mean"),
    **{f"m{m}": (default_scenario(m), "mean") for m in (1, 96, 384)},
}


class _ExactOnly:
    """An objective seen through ``value`` and ``value_and_grad`` alone."""

    def __init__(self, objective):
        self.value, self.value_and_grad = objective.value, objective.value_and_grad


class _Loose(_ExactOnly):
    """Brackets widened row by row by a random amount, so some settle a
    comparison and some leave it to exact values."""

    def __init__(self, objective, seed):
        super().__init__(objective)
        self.objective, self.rng = objective, np.random.default_rng(seed)
        self.calls = 0

    def brackets(self, points):
        self.calls += 1
        lo, hi = self.objective.brackets(points)
        pad = np.abs(hi) * self.rng.choice([0.0, 1e-9, 1e-3], size=len(hi))
        return lo - pad, hi + pad


def _bracket_objective(name, seed):
    """A maker of the named case's objective, with beamformers designed at
    random phases."""
    scenario, aggregate = _BRACKET_CASES[name]
    objective, _, _, beamformers = _round_objective(scenario, seed)
    return partial(DlRateObjective, objective.links, objective.assignment, beamformers, aggregate)


def _rcg_runs_equal(got, want):
    (phases, trace), (expected_phases, expected_trace) = got, want
    assert phases.tobytes() == expected_phases.tobytes()
    assert len(trace) == len(expected_trace)
    for state, expected in zip(trace, expected_trace):
        assert state.objective == expected.objective
        assert state.grad_norm == expected.grad_norm
        assert state.phases.tobytes() == expected.phases.tobytes()
        assert state.line_search_fallback == expected.line_search_fallback
        assert state.stop_reason == expected.stop_reason


class TestBracket:
    """``DlRateObjective.brackets`` bounds the exact value, and a line search
    that decides on brackets makes every decision exact values make."""

    @pytest.mark.parametrize("name", _BRACKET_CASES)
    def test_contains_exact_value(self, name):
        objective = _bracket_objective(name, 2)()
        rng = np.random.default_rng(5)
        for _ in range(2):
            theta = rng.uniform(-np.pi, np.pi, objective.n_phases)
            _, d = objective.value_and_grad(theta)
            # the line search's trial points: steps from its doubling cap to
            # its shortest backtrack, bracketed one by one and as one stack
            points = np.stack([theta] + [theta + 2.0**-k * d for k in range(-20, 47, 3)])
            for theta_k, stacked in zip(points, zip(*objective.brackets(points))):
                value = objective.value(theta_k)
                alone = next(zip(*objective.brackets(theta_k[None])))
                for lo, hi in (alone, stacked):
                    assert lo <= value <= hi
                    assert hi - lo <= 1e-9 * value  # narrow enough to decide

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_contains_value_on_random_scenarios(self, data):
        # containment only: at very low SNR the bracket is far wider than the
        # value, which is then close to 0
        n_t, n_r = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 3))
        n_s = data.draw(st.integers(1, min(2, n_t, n_r)))
        scenario = default_scenario(
            data.draw(st.integers(1, 96)), n_t=n_t, n_r=n_r, n_s=n_s,
            n_rf=data.draw(st.integers(n_s, min(n_t, 3))), n_sc=data.draw(st.integers(1, 64)),
            p_ap=10.0 ** data.draw(st.floats(-8.0, 8.0)),
            noise_figure_db=data.draw(st.floats(-150.0, 150.0)),
            nlos_penalty_db=data.draw(st.floats(0.0, 250.0)),
        )
        objective, theta, _, beamformers = _round_objective(scenario, data.draw(st.integers(0, 99)))
        objective = DlRateObjective(objective.links, objective.assignment, beamformers,
                                    data.draw(st.sampled_from(["mean", "min"])))
        _, d = objective.value_and_grad(theta)
        steps = data.draw(st.lists(st.integers(-20, 46), min_size=1, max_size=12))
        points = np.stack([theta + 2.0**-k * d for k in steps])
        for point, lo, hi in zip(points, *objective.brackets(points)):
            assert lo <= objective.value(point) <= hi

    def test_no_served_user(self, stock_links):
        n_users = stock_links.scenario.n_users
        objective = DlRateObjective(
            stock_links, Assignment((-1,) * n_users, (False,) * n_users), {})
        theta = np.full(stock_links.scenario.n_irs_elements, 0.3)
        assert objective.value(theta) == 0.0
        for points in (theta[None], np.stack([theta, theta + 1.0])):
            lo, hi = objective.brackets(points)
            assert lo.tolist() == hi.tolist() == [0.0] * len(points)

    @pytest.mark.parametrize("name", _BRACKET_CASES)
    def test_trajectory_as_with_exact_values(self, name):
        make = _bracket_objective(name, 1)
        objective = make()
        theta0 = np.zeros(objective.n_phases)
        want = rcg_optimize_phases(_ExactOnly(make()), theta0, max_iter=40)
        _rcg_runs_equal(rcg_optimize_phases(objective, theta0, max_iter=40), want)
        loose = _Loose(make(), seed=3)
        _rcg_runs_equal(rcg_optimize_phases(loose, theta0, max_iter=40), want)
        # the solver asked the twin for brackets whenever it searched a line
        assert (loose.calls > 0) == (len(want[1]) > 1 or want[1][-1].stop_reason == "line_search")

    def test_counts_affine_and_set_up_macs(self, stock_scenario):
        objective, *_ = build_rate_objective(stock_scenario, seed=0)
        objective.counter = counter = OpCounter()
        theta = np.full(objective.n_phases, 0.3)
        objective.brackets(theta[None])
        first = counter.macs
        counter.reset()
        objective.brackets(np.stack([theta + 0.1 * k for k in range(5)]))
        p = stock_scenario.params
        n_pairs = len(objective.assignment.served)
        m, n_q = objective.n_phases, n_pairs * n_pairs
        point = n_pairs * n_pairs * p.n_sc * m * p.n_s * p.n_s
        assert counter.macs == 5 * point
        # e0, the product matrix, kept whole at this size, and one MAC per
        # entry of the DL element stacks whose norms bound the radius
        n_users, n_aps = stock_scenario.n_users, stock_scenario.n_aps
        set_up = (n_q * p.n_sc * p.n_s * (p.n_r * p.n_t + p.n_t * p.n_s) + point
                  + p.n_sc * m * (n_users * p.n_r + n_aps * p.n_t))
        assert first == set_up + point

    def test_product_matrix_formed_in_pieces(self, stock_scenario, monkeypatch):
        objective, links, assignment, beamformers = build_rate_objective(stock_scenario, seed=0)
        whole = DlRateObjective(links, assignment, beamformers)
        rng = np.random.default_rng(4)
        points = rng.uniform(-np.pi, np.pi, (7, objective.n_phases))
        want = whole.brackets(points)
        # two subcarriers per piece at M = 24, n_s = 1 and P = K = 4
        monkeypatch.setattr(channel, "PIECE_BYTES", 2 * 16 * 16 * objective.n_phases)
        objective.counter = counter = OpCounter()
        objective.brackets(points)
        counter.reset()
        lo, hi = objective.brackets(points)
        point = 16 * stock_scenario.params.n_sc * objective.n_phases
        # one piece: the round keeps W. In pieces, W is not kept, and every
        # call forms each piece, one MAC per entry of W
        assert whole._wt.shape == (point // objective.n_phases, objective.n_phases)
        assert objective._wt is None
        assert counter.macs == 7 * point + point
        np.testing.assert_allclose(lo, want[0], rtol=1e-12)
        np.testing.assert_allclose(hi, want[1], rtol=1e-12)
        for theta, low, high in zip(points, lo, hi):
            assert low <= objective.value(theta) <= high

    def test_two_piece_product_matrix_kept_for_the_round(self):
        # at M = 48, W (768 KiB) spans two pieces: the set-up forms it whole
        # and the round keeps it, so its entries are counted once per
        # objective and later calls count their GEMM alone
        scenario = default_scenario(48)
        objective, *_ = build_rate_objective(scenario, seed=0)
        objective.counter = counter = OpCounter()
        m = objective.n_phases
        points = np.random.default_rng(5).uniform(-np.pi, np.pi, (6, m))
        objective.brackets(points[:1])
        n_pairs = len(objective.assignment.served)
        point = n_pairs * n_pairs * scenario.params.n_sc * m
        assert len(objective._pieces) == 2
        assert objective._wt.shape == (point // m, m)
        counter.reset()
        lo, hi = objective.brackets(points)
        assert counter.macs == len(points) * point
        for theta, low, high in zip(points, lo, hi):
            assert low <= objective.value(theta) <= high

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_radius_covers_the_entrywise_norm(self, data):
        # the radius bounds ||A_q||_F by norms; the entrywise A_q = |W|^T
        # (|H_nlos| + |U_i|^T |V_b|) |F| is formed here, subcarrier by
        # subcarrier. Where the inequality is tight (no element or one, and
        # beams along a rank-one |H_nlos|), the two rounded evaluations may
        # differ by a few ulp either way (about 1e-15 relative)
        n_t, n_r = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 3))
        n_s = data.draw(st.integers(1, min(2, n_t, n_r)))
        scenario = default_scenario(
            data.draw(st.integers(0, 96)), n_t=n_t, n_r=n_r, n_s=n_s,
            n_rf=data.draw(st.integers(n_s, min(n_t, 3))), n_sc=data.draw(st.integers(1, 16)),
            nlos_penalty_db=data.draw(st.floats(0.0, 250.0)),
        )
        objective, theta, _, _ = _round_objective(scenario, data.draw(st.integers(0, 99)))
        assume(objective.assignment.served)
        objective.brackets(theta[None])
        links, (rx, ap, _) = objective.links, objective.assignment.dl_triples.T
        # triple q = p K + k: W^H of pair p, F of owner k
        pair, owner = np.divmod(np.arange(len(rx)), len(objective.assignment.owners))
        hops = np.abs(links.dl_nlos[rx, ap]) + np.einsum(
            "qnmr,qnmt->qnrt", np.abs(links.dl_user_cols[rx]), np.abs(links.dl_ap_rows[ap]))
        a = np.einsum("qnrs,qnrt,qntc->qnsc", np.abs(objective._wh[pair]), hops,
                      np.abs(objective._f[owner]))
        m, n_rt = objective.n_phases, n_r * n_t
        n1 = 2 * m + 2 * n_rt + 18
        scale = optimizer.BRACKET_SAFETY * optimizer._gamma(2 * n1 + 2 * n_r + 2 * n_t + 1)
        oracle = scale * np.sqrt(np.einsum("qnsc,qnsc->qn", a, a))
        radius = objective._radius[1, 0]
        assert radius.shape == oracle.shape
        np.testing.assert_array_equal(objective._radius[0, 0], -radius)
        assert np.all(radius >= oracle * (1.0 - 1e-12))

    def test_exact_cache_and_kept_composites_untouched(self):
        objective, theta, composites, _ = _round_objective(default_scenario(), 6)
        objective.brackets(theta[None])
        objective.brackets(theta[None] + 0.25)
        assert objective._cache == {}
        assert objective.links.dl_composites(np.exp(1j * theta)) is composites


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

    def test_stop_reason_on_last_state(self):
        sc = scalar_scenario(4, n_sc=2)
        objective, *_ = build_rate_objective(sc, seed=6)
        _, trace = rcg_optimize_phases(objective, np.full(4, 0.5), epsilon=0.0, max_iter=5)
        assert trace[-1].stop_reason == "max_iter"
        assert all(s.stop_reason is None for s in trace[:-1])
        _, trace = rcg_optimize_phases(objective, np.full(4, 0.5), epsilon=1e3, max_iter=5)
        assert len(trace) == 1 and trace[-1].stop_reason == "epsilon"

        class Peak:
            """Every step along the (false) gradient lowers the objective."""

            def value(self, phases):
                return -1.0

            def value_and_grad(self, phases):
                return 0.0, np.ones(len(phases))

        phases, trace = rcg_optimize_phases(Peak(), np.full(4, 0.5), epsilon=0.0, max_iter=5)
        assert len(trace) == 1 and trace[-1].stop_reason == "line_search"
        np.testing.assert_array_equal(phases, np.full(4, 0.5))

    def test_step_doubling_evaluates_nothing_past_its_cap(self):
        steps = []

        class Ramp:
            """Ascends without bound along the gradient, so the step doubles to its cap."""

            def value(self, phases):
                steps.append(float(phases[0]))
                return float(phases[0])

            def value_and_grad(self, phases):
                return float(phases[0]), np.array([1.0])

        phases, _ = rcg_optimize_phases(Ramp(), np.zeros(1), epsilon=0.0, max_iter=1)
        assert phases[0] == 2.0**20  # the first doubled step above 1e6
        assert max(steps) == 2.0**20

    def test_backtracking_step_brackets_its_halvings(self):
        stacks = []

        class Bump:
            """Peaks at phase 1, halfway along the first step, so step 1 backtracks."""

            def value(self, phases):
                return -float((phases[0] - 1.0) ** 2)

            def value_and_grad(self, phases):
                return self.value(phases), np.array([-2.0 * (phases[0] - 1.0)])

            def brackets(self, points):
                stacks.append(points[:, 0].tolist())
                values = -((points[:, 0] - 1.0) ** 2)
                return values, values

        phases, _ = rcg_optimize_phases(Bump(), np.zeros(1), epsilon=0.0, max_iter=1)
        assert phases[0] == 1.0
        # the first step's ladder runs up; step 0.5 brackets itself and its
        # next 11 halvings, and its doubling (step 1) is read from the first ladder
        assert stacks == [[2.0 * 2.0**k for k in range(12)], [2.0**-k for k in range(12)]]

    def test_downward_ladders_stop_above_the_smallest_step(self):
        stacks = []

        class Peak:
            """Every step along the gradient lowers the objective."""

            def value(self, phases):
                return -1.0

            def value_and_grad(self, phases):
                return 0.0, np.ones(len(phases))

            def brackets(self, points):
                stacks.append(points[:, 0].tolist())
                return np.full(len(points), -1.0), np.full(len(points), -1.0)

        _, trace = rcg_optimize_phases(Peak(), np.zeros(1), epsilon=0.0, max_iter=1)
        assert trace[-1].stop_reason == "line_search"
        # each search (the conjugate one, then the raw gradient's) tries the
        # steps 2^0 ... 2^-46, the last above STEP_MIN = 1e-14, each bracketed
        # once: the first step's ladder runs up, the backtracking steps' ladders
        # run down, 12 rungs at most
        search = [[2.0**k for k in range(12)]] + [
            [2.0**-k for k in range(start, min(start + 12, 47))] for start in (1, 13, 25, 37)]
        assert stacks == search + search

    def test_ladders_hold_the_rungs_the_last_search_read(self):
        stacks = []

        class Target:
            """Each search along d = 1 peaks at step 2^j and reads the rungs
            1, 2, ..., 2^(j+1); j is drawn from ``peaks`` at every gradient."""

            def __init__(self, peaks):
                self.peaks = iter(peaks)

            def value(self, phases):
                return -abs(float(phases[0]) - self.target)

            def value_and_grad(self, phases):
                self.origin = float(phases[0])
                self.target = self.origin + 2.0 ** next(self.peaks)
                return self.value(phases), np.array([1.0])

            def brackets(self, points):
                stacks.append((points[:, 0] - self.origin).tolist())
                values = -np.abs(points[:, 0] - self.target)
                return values, values

        rcg_optimize_phases(Target([10, 3, 6, 0, 2, 0]), np.zeros(1), epsilon=0.0, max_iter=5)
        # rungs read: 12, 5, 8, 2 and 4. A ladder holds the rungs the last
        # search read less those read so far, plus LADDER_MARGIN = 2, at most
        # LADDER = 12
        assert stacks == [[2.0**k for k in range(12)], [2.0**k for k in range(12)],
                          # the walk reads all 7 rungs and doubles on: 2 more
                          [2.0**k for k in range(7)], [128.0, 256.0],
                          [2.0**k for k in range(10)], [2.0**k for k in range(4)]]

    class _Rays:
        """``value`` and ``value_and_grad`` alone, no ``brackets``. The k-th
        gradient is ``grads[k]``; from the point of the last gradient the
        value peaks at step 1 along it and reads -2, below the gradient's -1,
        off its ray. ``steps`` holds the steps of every value taken after
        each gradient."""

        def __init__(self, grads):
            self.grads, self.steps = iter(grads), []

        def value_and_grad(self, phases):
            self.origin, self.g = np.array(phases, dtype=float), np.array(next(self.grads))
            self.steps.append([])
            return -1.0, self.g.copy()

        def value(self, phases):
            step = phases - self.origin
            self.steps[-1].append(step.tolist())
            s = float(step @ self.g) / float(self.g @ self.g)
            return -((s - 1.0) ** 2) if np.array_equal(step, s * self.g) else -2.0

    def test_direction_that_does_not_ascend_searches_the_raw_gradient_once(self):
        # d1 = g1 + beta d0 = (-1, 1) + 3 (1, 0) = (2, 1), and g1 . d1 = -1
        toy = self._Rays([[1.0, 0.0], [-1.0, 1.0], [1.0, 0.0]])
        _, trace = rcg_optimize_phases(toy, np.zeros(2), epsilon=0.0, max_iter=2)
        assert [s.line_search_fallback for s in trace] == [False, False, True]
        # the second iteration searches along g1 alone: step 1 ascends, 2 does not
        assert toy.steps[1] == [[-1.0, 1.0], [-2.0, 2.0]]
        np.testing.assert_array_equal(trace[-1].phases, [0.0, 1.0])

    def test_conjugate_search_without_a_step_is_retried_once_on_the_raw_gradient(self):
        # d1 = g1 + beta d0 = (1, 1) + (1, 0) = (2, 1) ascends (g1 . d1 = 3),
        # but reads -2 at every step
        toy = self._Rays([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0]])
        _, trace = rcg_optimize_phases(toy, np.zeros(2), epsilon=0.0, max_iter=2)
        assert [s.line_search_fallback for s in trace] == [False, False, True]
        halvings = [[2.0 * 0.5**k, 0.5**k] for k in range(47)]  # down to STEP_MIN
        assert 0.5**46 > optimizer.STEP_MIN >= 0.5**47
        assert toy.steps[1] == halvings + [[1.0, 1.0], [2.0, 2.0]]
        np.testing.assert_array_equal(trace[-1].phases, [2.0, 1.0])

    def test_conjugate_step_below_the_phases_rounding_falls_back_to_the_raw_gradient(self):
        # at theta1 = 2^36 (1, 1), half an ulp is 7.6e-6: the conjugate
        # direction d1 = g1 + beta g0 ~ (2e-6, -2e-6) moves no phase at steps
        # 1 and 2, and its Armijo threshold rounds to f, so its search accepts
        # step 1; g1 ~ (-1e-4, -1e-4) itself moves both phases
        theta1 = np.full(2, 2.0**36)
        g0, g1 = np.ones(2), np.array([-1e-4 + 2e-6, -1e-4 - 2e-6])
        assert not np.array_equal(g1 + float(g1 @ (g1 - g0)) / 2.0 * g0, g1)

        class Cliff:
            """1e8 at theta1 and 1e8 + 1 at theta1 + g1, 1e8 - 5 elsewhere;
            the k-th gradient is g0, g1, then zero."""

            def __init__(self):
                self.grads = iter([g0, g1, np.zeros(2)])

            def value(self, phases):
                if np.array_equal(phases, theta1):
                    return 1e8
                return 1e8 + 1.0 if np.array_equal(phases, theta1 + g1) else 1e8 - 5.0

            def value_and_grad(self, phases):
                return self.value(phases), next(self.grads).copy()

        _, trace = rcg_optimize_phases(Cliff(), theta1 - g0, epsilon=1e-9, max_iter=5)
        assert [s.line_search_fallback for s in trace] == [False, False, True]
        np.testing.assert_array_equal(trace[1].phases, theta1)
        np.testing.assert_array_equal(trace[2].phases, theta1 + g1)
        assert trace[-1].objective == 1e8 + 1.0 and trace[-1].stop_reason == "epsilon"

    def test_argument_validation(self):
        sc = scalar_scenario(1)
        objective, *_ = build_rate_objective(sc)
        with pytest.raises(ValueError):
            rcg_optimize_phases(objective, np.zeros(1), max_iter=0)
        with pytest.raises(ValueError):
            rcg_optimize_phases(objective, np.zeros(1), epsilon=-1.0)

    def test_stalled_search_stops_whatever_the_budget(self, monkeypatch):
        """At M = 8 the probe reaches a point where the step along the raw
        gradient no longer moves the phases; the solver stops there, so a
        larger iteration budget asks for no further point."""
        import irslink.optimizer as opt

        traces, points = [], []

        def rcg(*args, **kwargs):
            phases, trace = rcg_optimize_phases(*args, **kwargs)
            traces.append(trace)
            return phases, trace

        def recorded(method):
            def wrapper(self, phases):
                points.append(np.asarray(phases, dtype=float).tobytes())
                return method(self, phases)
            return wrapper

        monkeypatch.setattr(opt, "rcg_optimize_phases", rcg)
        monkeypatch.setattr(DlRateObjective, "value", recorded(DlRateObjective.value))
        monkeypatch.setattr(DlRateObjective, "value_and_grad", recorded(DlRateObjective.value_and_grad))
        runs = []
        for budget in (30, 60):
            points.clear()
            complexity_probe([8], rcg_iters=budget)
            runs.append(list(points))
        assert [t[-1].stop_reason for t in traces] == ["line_search", "line_search"]
        assert traces[0][-1].iteration < 30
        assert runs[0] == runs[1]


class TestAlternatingOptimization:
    def test_no_objective_outlives_its_round(self, monkeypatch):
        # a finished round's objective, with its theta-gradient factors, is
        # freed before the next round's phase optimization starts
        made, alive = [], []
        make, rcg = optimizer.DlRateObjective, optimizer.rcg_optimize_phases

        def recording_objective(*args, **kwargs):
            objective = make(*args, **kwargs)
            made.append(weakref.ref(objective))
            return objective

        def counting_rcg(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in made))
            return rcg(*args, **kwargs)

        monkeypatch.setattr(optimizer, "DlRateObjective", recording_objective)
        monkeypatch.setattr(optimizer, "rcg_optimize_phases", counting_rcg)
        config = RcgConfig(max_iter=5, outer_rounds=3)
        result = alternating_optimize(default_scenario(24, lambda_i=2e3, mu_j=4e3), seed=0,
                                      config=config)
        assert len(alive) >= 2 and alive == [1] * len(alive)
        assert result.report.sum_utility > 0
        gc.collect()
        assert all(ref() is None for ref in made)

    def test_unknown_aggregate_is_rejected_before_any_work(self, monkeypatch):
        objective, *_ = build_rate_objective(scalar_scenario(2))
        with pytest.raises(ValueError, match="'mean' or 'min'"):
            DlRateObjective(objective.links, objective.assignment, {}, aggregate="median")
        monkeypatch.setattr(optimizer, "synthesize_links", lambda *a: pytest.fail("synthesized"))
        with pytest.raises(ValueError, match="'mean' or 'min', not 'median'"):
            alternating_optimize(default_scenario(24), aggregate="median")

    def test_one_dl_gain_table_per_run(self, monkeypatch):
        # each round keeps its triple gains; only the kept round's are scattered
        tables, build = [], optimizer._dl_gain_table
        monkeypatch.setattr(optimizer, "_dl_gain_table",
                            lambda *args: tables.append(1) or build(*args))
        result = alternating_optimize(default_scenario(24), seed=0)
        assert len(result.trace) == 2 and result.stop_reason == "regressed"  # three rounds run
        assert len(tables) == 1

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

    @pytest.mark.parametrize(
        "n_elements, seed, overrides, reason, rounds",
        [
            (0, 0, {}, "no_surface", 1),
            (24, 1, {}, "regressed", 1),
            (24, 0, {}, "round_cap", 2),
            # RCG stops at once, so round 2 would repeat round 1 and is recorded
            (24, 0, {"epsilon": 1e3, "outer_rounds": 3}, "no_improvement", 2),
        ],
    )
    def test_stop_reason(self, fast_config, n_elements, seed, overrides, reason, rounds):
        config = replace(fast_config, **overrides)
        result = alternating_optimize(default_scenario(n_elements), seed=seed, config=config)
        assert result.stop_reason == reason
        assert len(result.trace) == rounds

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


class TestRunProperties:
    """Whole ``alternating_optimize`` runs on random small scenarios, with
    every bracket the line searches ask for checked against the exact value
    at its point."""

    _AO_STOPS = {"regressed", "no_improvement", "no_surface", "round_cap"}
    _RCG_STOPS = {"epsilon", "max_iter", "line_search"}

    @staticmethod
    def _checked_brackets(rows):
        """``DlRateObjective.brackets`` that asserts lo <= value <= hi at every
        point it bounds and appends its row count to ``rows``."""
        brackets = DlRateObjective.brackets

        def checked(self, points):
            lo, hi = brackets(self, points)
            for point, low, high in zip(points, lo, hi):
                assert low <= self.value(point) <= high
            rows.append(len(points))
            return lo, hi

        return checked

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_brackets_hold_and_runs_are_well_formed(self, data):
        m = data.draw(st.integers(0, 8), label="M")
        n_t, n_r = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 2))
        n_s = data.draw(st.integers(1, min(n_t, n_r)))
        scenario = default_scenario(
            m, n_t=n_t, n_r=n_r, n_s=n_s, n_rf=data.draw(st.integers(n_s, min(n_t, 2))),
            n_sc=data.draw(st.integers(1, 4)), v_cap=data.draw(st.integers(1, 2)),
            nlos_penalty_db=data.draw(st.floats(0.0, 60.0)),
        )
        # a weak surface path stops RCG at its first gradient unless epsilon is 0
        config = RcgConfig(epsilon=data.draw(st.sampled_from([0.0, 1e-3])),
                           max_iter=data.draw(st.integers(1, 30)),
                           outer_rounds=data.draw(st.integers(1, 4)), beam_grid=4)
        rows = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DlRateObjective, "brackets", self._checked_brackets(rows))
            result = alternating_optimize(
                scenario, seed=data.draw(st.integers(0, 99)), config=config,
                aggregate=data.draw(st.sampled_from(["mean", "min"])))
        assert all(0 < n <= optimizer.LADDER for n in rows)
        # unit modulus: real, finite phases of the surface's size
        for phases in [result.phases] + [r.phases for r in result.trace]:
            assert phases.shape == (m,) and np.all(np.isfinite(phases))
            np.testing.assert_allclose(np.abs(np.exp(1j * phases)), 1.0, rtol=1e-15)
        objectives = [r.objective for r in result.trace]
        assert objectives == sorted(objectives) and np.all(np.isfinite(objectives))
        # each RCG run: a non-decreasing trace whose last state alone has a reason
        starts = [i for i, state in enumerate(result.rcg_trace) if state.iteration == 0]
        for start, end in zip(starts, starts[1:] + [len(result.rcg_trace)]):
            run = result.rcg_trace[start:end]
            assert [s.objective for s in run] == sorted(s.objective for s in run)
            assert [s.stop_reason for s in run[:-1]] == [None] * (len(run) - 1)
            assert run[-1].stop_reason in self._RCG_STOPS
        assert result.stop_reason in self._AO_STOPS
        assert (result.stop_reason == "no_surface") == (m == 0)
        assert not rows if m == 0 else len(starts) == len(result.trace)
        report = result.report
        for name in ("rate_dl", "rate_ul", "transmission", "processing",
                     "conditional_utility", "routing_utility"):
            assert np.all(np.isfinite(getattr(report, name))), name
        assert np.isfinite(report.queuing) and np.isfinite(report.sum_utility)


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

    def test_search_takes_no_brackets(self, monkeypatch):
        assert _ProbeObjective.brackets is None

        def bracketing(objective, points):
            raise AssertionError("the probe's search bracketed its points")

        monkeypatch.setattr(DlRateObjective, "brackets", bracketing)
        assert complexity_probe([8], rcg_iters=3)[0]["phase_macs"] > 0

    def test_objective_builds_composites_by_gemm(self, monkeypatch):
        def einsum_build(objective, coeffs):
            raise AssertionError("the probe built composites with the run path's einsum")

        monkeypatch.setattr(DlRateObjective, "_build_composites", einsum_build)
        assert complexity_probe([8], rcg_iters=2)[0]["phase_macs"] > 0

    def test_objective_forms_effective_matrices_by_gemm(self, monkeypatch):
        def einsum_step(objective, h):
            raise AssertionError("the probe formed its effective matrices with the run path's einsum")

        monkeypatch.setattr(DlRateObjective, "_effective_matrices", einsum_step)
        assert complexity_probe([8], rcg_iters=2)[0]["phase_macs"] > 0


def _stock_probe_objective():
    _, links, assignment, beamformers = build_rate_objective(
        with_codebook(default_scenario(), STOCK_CODEBOOKS[-1]), seed=0)  # 8ant_2rf
    return _ProbeObjective(links, assignment, beamformers)


_PROBE_OBJECTIVES = [partial(_probe_objective, 8), partial(_probe_objective, 64)]
_PROBE_BUILDS = pytest.mark.parametrize(
    "build", _PROBE_OBJECTIVES + [_stock_probe_objective], ids=["m8", "m64", "8ant_2rf"])


class TestProbeKernel:
    """The probe's GEMM composites agree with ``LinkChannels.dl_composites``,
    and its GEMM chain's effective matrices and gains with the run path's
    einsum, to rounding."""

    @_PROBE_BUILDS
    def test_agrees_with_run_path_composites(self, build):
        objective = build()
        links = objective.links
        rng = np.random.default_rng(3)
        for _ in range(3):
            coeffs = np.exp(1j * rng.uniform(-np.pi, np.pi, objective.n_phases))
            want = links.dl_composites(coeffs)
            got = objective._build_composites(coeffs)
            assert got is objective._composites
            # relative Frobenius error per (user, AP, subcarrier)
            error = np.linalg.norm(got - want, axis=(3, 4)) / np.linalg.norm(want, axis=(3, 4))
            assert error.max() <= 1e-12

    @pytest.mark.parametrize("build", _PROBE_OBJECTIVES, ids=["m8", "m64"])
    def test_effective_matrices_agree_with_run_path(self, build):
        objective = build()
        # one user and one AP: the chain reads the composites' one link in place
        assert objective._composites.shape[:2] == (1, 1)
        assert len(objective.assignment.dl_triples) == 1
        rng = np.random.default_rng(5)
        for _ in range(3):
            coeffs = np.exp(1j * rng.uniform(-np.pi, np.pi, objective.n_phases))
            eff, gains = objective._kernel(coeffs)
            want = DlRateObjective._effective_matrices(objective, objective._composites)
            want_gains = np.sum(np.abs(want) ** 2, axis=(2, 3))
            # relative Frobenius error per (triple, subcarrier), and of the gains
            error = np.linalg.norm(eff - want, axis=(2, 3)) / np.linalg.norm(want, axis=(2, 3))
            assert error.max() <= 1e-12
            assert np.max(np.abs(gains - want_gains) / want_gains) <= 1e-12

    def test_no_surface_gives_direct_hops(self):
        _, links, assignment, beamformers = build_rate_objective(default_scenario(0), seed=0)
        got = _ProbeObjective(links, assignment, beamformers)._build_composites(np.zeros(0))
        assert got.tobytes() == links.dl_nlos.tobytes()


def test_opcounter_reset():
    c = OpCounter()
    c.add(5)
    c.add(7)
    assert c.macs == 12
    c.reset()
    assert c.macs == 0


def test_large_surface_run_holds_about_one_piece_beyond_its_stacks():
    # at M = 384 the DL hop stacks take 7.5 MiB and a round's u / v tangent
    # stacks 3 MiB; beyond them the phase loop holds about one 512 KiB
    # PIECE_BYTES piece at a time. The traced peak read 16.8 MiB when the
    # links kept the UL gains, a composite build scaled the whole user stack
    # and the objective kept W's first piece, 13.28 MiB with 1 MiB pieces,
    # 12.99 MiB while the objective kept a composite buffer of its own, and
    # reads 12.92 MiB now
    scenario = default_scenario(384)
    config = replace(scenario.optimizer, max_iter=5, outer_rounds=2)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    start, _ = tracemalloc.get_traced_memory()
    try:
        alternating_optimize(scenario, seed=3, config=config,
                             links=synthesize_links(scenario, seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak - start <= 14.0 * 2**20
