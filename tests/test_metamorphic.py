"""Metamorphic relations: how AO results must move when inputs move in a
known way. Every result depends on powers and channels only through their
ratios, so scaling them by powers of two keeps every bit, and relabelling
the users relabels the results."""

from dataclasses import replace

import numpy as np
import pytest

from irslink.channel import synthesize_links
from irslink.experiment import ExperimentSpec, run_experiment
from irslink.optimizer import alternating_optimize
from irslink.scenario import STOCK_CODEBOOKS, RcgConfig, default_scenario

CONFIG = RcgConfig(max_iter=8, outer_rounds=2)


def _stock(**overrides):
    """The stock room with its thermal noise power given explicitly, so it
    scales with the powers."""
    scenario = default_scenario(**overrides)
    return replace(scenario, params=replace(scenario.params, noise_power=scenario.params.sigma2))


def _run(scenario, seed, aggregate, links=None):
    return alternating_optimize(scenario, seed, aggregate=aggregate, config=CONFIG, links=links)


def _assert_same_bits(got, want):
    assert got.phases.tobytes() == want.phases.tobytes()
    assert got.stop_reason == want.stop_reason
    assert [s.objective for s in got.rcg_trace] == [s.objective for s in want.rcg_trace]
    assert [r.objective for r in got.trace] == [r.objective for r in want.trace]
    assert got.assignment == want.assignment
    for name in ("rate_dl", "rate_ul"):
        assert getattr(got.report, name).tobytes() == getattr(want.report, name).tobytes()


@pytest.mark.parametrize("k", [-20, 7, 40])
@pytest.mark.parametrize("aggregate", ["mean", "min"])
def test_powers_and_noise_scaled_by_a_power_of_two_keep_every_bit(k, aggregate):
    base = _stock()
    p = base.params
    scaled = replace(base, params=replace(p, p_ap=p.p_ap * 2.0**k, p_user=p.p_user * 2.0**k,
                                          noise_power=p.noise_power * 2.0**k))
    _assert_same_bits(_run(scaled, 1, aggregate), _run(base, 1, aggregate))


@pytest.mark.parametrize("k", [-30, 20, 60])
def test_channels_up_and_powers_down_by_powers_of_two_keep_every_bit(k):
    # every received power is p |h|^2: channels x 2^k and powers x 2^-2k.
    # Scaling the direct hops and the user-side element hops scales every
    # composite; the synthesis check sees the scaled links as valid too
    base = _stock()
    p = base.params
    scaled = replace(base, params=replace(p, p_ap=p.p_ap * 2.0**(-2 * k),
                                          p_user=p.p_user * 2.0**(-2 * k)))
    links = synthesize_links(base, 2)
    up = 2.0**k
    scaled_links = replace(links, scenario=scaled, dl_nlos=links.dl_nlos * up,
                           ul_nlos=links.ul_nlos * up, dl_user_cols=links.dl_user_cols * up,
                           ul_user_amp=links.ul_user_amp * up)
    _assert_same_bits(_run(scaled, 2, "mean", scaled_links), _run(base, 2, "mean", links))


@pytest.mark.parametrize("order", [(1, 0, 2, 3), (2, 0, 3, 1)])
@pytest.mark.parametrize("aggregate", ["mean", "min"])
def test_relabelled_users_relabel_the_results(order, aggregate):
    # fading is seeded by user index, so it is off; the products sum in
    # another order, so the objectives agree to rounding
    base = _stock(smallscale=False)
    relabelled = replace(base, user_positions=base.user_positions[list(order)])
    want, got = _run(base, 0, aggregate), _run(relabelled, 0, aggregate)
    assert got.assignment.user_to_ap == tuple(want.assignment.user_to_ap[i] for i in order)
    assert got.stop_reason == want.stop_reason
    assert len(got.trace) == len(want.trace)
    for a, b in zip(got.trace, want.trace):
        assert a.objective == pytest.approx(b.objective, rel=3e-14, abs=0.0)


@pytest.mark.parametrize("seed", range(6))
def test_surface_gives_utility_on_finite_queues(seed):
    # the stock queue rates wait 5e8 s, so every stock utility is about 0
    # with or without the surface; with finite queues (lambda_i = 2e3,
    # mu_j = 4e3) the surface's links meet the delay and earn utility, and
    # the direct links, blocked by 30 dB, do not
    spec = ExperimentSpec(seed=seed, optimizer_overrides={"max_iter": 30, "outer_rounds": 3})
    scenario = default_scenario(24, lambda_i=2e3, mu_j=4e3)
    utility = {(r.codebook, r.mode): r.sum_utility for r in run_experiment(spec, scenario)}
    for codebook in STOCK_CODEBOOKS:
        assert utility[codebook.name, "with_irs"] > utility[codebook.name, "no_irs"]
