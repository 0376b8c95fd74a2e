"""Steering-vector geometry oracles and unit-modulus properties."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from irslink.arrays import (
    angles_from_vector,
    ula_steering,
    unit_vector_from_angles,
    upa_steering,
)


class TestAnglesFromVector:
    def test_boresight(self):
        assert angles_from_vector((1.0, 0.0, 0.0)) == (0.0, 0.0)

    def test_zenith_azimuth_convention(self):
        az, el = angles_from_vector((0.0, 0.0, 1.0))
        assert az == 0.0
        assert el == pytest.approx(np.pi / 2)

    def test_diagonal(self):
        # (1, 1, sqrt(2)) has norm 2: azimuth pi/4, elevation pi/4
        az, el = angles_from_vector((1.0, 1.0, np.sqrt(2.0)))
        assert az == pytest.approx(np.pi / 4)
        assert el == pytest.approx(np.pi / 4)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero direction"):
            angles_from_vector((0.0, 0.0, 0.0))

    @given(
        az=st.floats(-np.pi + 1e-6, np.pi - 1e-6),
        el=st.floats(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6),
    )
    def test_round_trip(self, az, el):
        az2, el2 = angles_from_vector(unit_vector_from_angles(az, el))
        assert el2 == pytest.approx(el, abs=1e-9)
        if abs(abs(el) - np.pi / 2) > 1e-6:
            assert az2 == pytest.approx(az, abs=1e-6)


class TestUlaSteering:
    def test_single_element(self):
        sv = ula_steering(1, 0.73)
        np.testing.assert_allclose(sv, [1.0 + 0j])

    def test_broadside_all_ones(self):
        sv = ula_steering(4, 0.0)
        np.testing.assert_allclose(sv, np.ones(4))

    def test_quarter_turn_progression(self):
        # sin(pi/6) = 0.5, spacing 0.5 -> phase step pi/2 per element
        sv = ula_steering(4, np.pi / 6, spacing_wavelengths=0.5)
        np.testing.assert_allclose(sv, [1.0, 1j, -1.0, -1j], atol=1e-12)

    def test_bad_count(self):
        with pytest.raises(ValueError):
            ula_steering(0, 0.0)

    @given(
        n=st.integers(1, 32),
        az=st.floats(-np.pi / 2, np.pi / 2),
        spacing=st.floats(0.1, 2.0),
    )
    def test_unit_modulus_and_length(self, n, az, spacing):
        sv = ula_steering(n, az, spacing)
        assert len(sv) == n
        np.testing.assert_allclose(np.abs(sv), 1.0, atol=1e-12)


class TestUpaSteering:
    def test_single_element(self):
        sv = upa_steering(1, 1, 0.4, -0.2)
        np.testing.assert_allclose(sv, [1.0 + 0j])

    def test_broadside_all_ones(self):
        sv = upa_steering(3, 2, 0.0, 0.0)
        np.testing.assert_allclose(sv, np.ones(6))

    def test_endfire_alternation_along_y(self):
        # azimuth pi/2, elevation 0, spacing 0.5 -> phases {0, pi} along Y
        sv = upa_steering(2, 2, np.pi / 2, 0.0, spacing_wavelengths=0.5)
        np.testing.assert_allclose(sv, [1.0, -1.0, 1.0, -1.0], atol=1e-12)

    def test_flattening_order_y_fastest(self):
        # pure elevation tilt: phase depends only on the Z index b, and the
        # flat index is b*m_y + a
        m_y, m_z = 3, 2
        sv = upa_steering(m_y, m_z, 0.0, np.pi / 6, spacing_wavelengths=0.5)
        step = np.exp(1j * 2 * np.pi * 0.5 * np.sin(np.pi / 6))
        for b in range(m_z):
            for a in range(m_y):
                assert sv[b * m_y + a] == pytest.approx(step**b)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            upa_steering(0, 1, 0.0, 0.0)

    @given(
        m_y=st.integers(1, 6),
        m_z=st.integers(1, 6),
        az=st.floats(-np.pi / 2, np.pi / 2),
        el=st.floats(-np.pi / 2, np.pi / 2),
    )
    def test_unit_modulus_and_length(self, m_y, m_z, az, el):
        sv = upa_steering(m_y, m_z, az, el)
        assert len(sv) == m_y * m_z
        np.testing.assert_allclose(np.abs(sv), 1.0, atol=1e-12)
