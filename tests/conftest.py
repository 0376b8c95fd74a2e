"""Shared builders for small, fast test scenarios."""

import os

import numpy as np
import pytest
from hypothesis import settings

from irslink.beamforming import build_analog_codebook
from irslink.channel import synthesize_links
from irslink.optimizer import (
    DlRateObjective,
    RcgConfig,
    _design_all_beamformers,
    _initial_assignment,
)
from irslink.scenario import Box, IrsPanel, Scenario, SystemParams, default_scenario

# with CI set, every property test draws the same examples on every run, so a
# commit cannot pass or fail by the luck of the draw
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def scalar_scenario(m_elements: int, n_sc: int = 1, **overrides) -> Scenario:
    """Single user, single AP, 1x1 antennas: every channel is a scalar."""
    overrides.setdefault("smallscale", False)
    overrides.setdefault("r_min", 0.0)
    overrides.setdefault("nlos_penalty_db", 30.0)
    params = SystemParams(n_t=1, n_r=1, n_rf=1, n_s=1, n_sc=n_sc, v_cap=1, **overrides)
    panels = ()
    if m_elements:
        panels = (IrsPanel((0.0, 4.0, 1.2), m_elements, 1, params.wavelength_dl / 2.0),)
    return Scenario(
        ap_positions=np.array([[2.0, 3.0, 2.5]]),
        user_positions=np.array([[7.0, 9.0, 1.5]]),
        irs_panels=panels,
        bounds=Box((0.0, 0.0, 0.0), (10.0, 17.0, 3.0)),
        params=params,
    )


def build_rate_objective(scenario, seed=0, aggregate="mean", beam_grid=4):
    """Full pipeline up to a phase-optimization objective, plus its context."""
    links = synthesize_links(scenario, seed)
    m = scenario.n_irs_elements
    coeffs = np.ones(m, dtype=complex)
    assignment = _initial_assignment(scenario, links, coeffs)
    p = scenario.params
    tx = build_analog_codebook(p.n_t, p.n_rf, beam_grid=max(beam_grid, p.n_rf))
    rx = build_analog_codebook(p.n_r, min(p.n_r, p.n_s), beam_grid=1)
    beamformers = _design_all_beamformers(scenario, links, assignment, coeffs, tx, rx)
    objective = DlRateObjective(links, assignment, beamformers, aggregate=aggregate)
    return objective, links, assignment, beamformers


def assert_same_design(got, want):
    """Two BeamformerSets are equal bit for bit."""
    for a, b in ((got.analog_precoder, want.analog_precoder),
                 (got.analog_combiner, want.analog_combiner)):
        assert a.codebook_id == b.codebook_id
        np.testing.assert_array_equal(a.matrix, b.matrix)
    np.testing.assert_array_equal(got.digital_precoders, want.digital_precoders)
    np.testing.assert_array_equal(got.digital_combiners, want.digital_combiners)


@pytest.fixture(scope="session")
def stock_scenario():
    return default_scenario()


@pytest.fixture(scope="session")
def stock_links(stock_scenario):
    return synthesize_links(stock_scenario, seed=0)


@pytest.fixture
def fast_config():
    return RcgConfig(max_iter=30, outer_rounds=2, beam_grid=4)
