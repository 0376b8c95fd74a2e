"""Steering vectors for ULA (APs, users) and UPA (IRS panels).

Entries are kept unit-modulus; any 1/sqrt(N) normalization is absorbed into
the path gain downstream. UPA vectors are flattened row-major with the Y
index running fastest, matching the IRS element ordering in
:mod:`irslink.scenario`.

Every function broadcasts over leading axes: a stack of directions or
angles of shape (...) gives angles of shape (...) and steering vectors of
shape (..., N).
"""

import numpy as np

SPEED_OF_LIGHT = 2.998e8  # m/s


def vector_norm(v) -> np.ndarray:
    """Euclidean norm over the last axis, shape (...).

    Each norm is one dot product, so it carries the same bits as
    ``np.linalg.norm`` of that single vector.
    """
    v = np.ascontiguousarray(v, dtype=float)
    return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0, 0]


def angles_from_vector(direction) -> tuple[np.ndarray, np.ndarray]:
    """Azimuth/elevation of 3D direction vectors of shape (..., 3).

    azimuth = atan2(y, x) in (-pi, pi]; elevation = asin(z/|d|) in
    [-pi/2, pi/2]. At zenith/nadir (x = y = 0) the azimuth is returned
    as 0 by convention.
    """
    d = np.asarray(direction, dtype=float)
    norm = vector_norm(d)
    if np.any(norm == 0.0):
        raise ValueError("zero direction vector has no angles")
    x, y = d[..., 0], d[..., 1]
    azimuth = np.where((x == 0.0) & (y == 0.0), 0.0, np.arctan2(y, x))[()]
    elevation = np.arcsin(np.clip(d[..., 2] / norm, -1.0, 1.0))
    return azimuth, elevation


def unit_vector_from_angles(azimuth: float, elevation: float) -> np.ndarray:
    """Inverse of angles_from_vector for unit vectors."""
    ce = np.cos(elevation)
    return np.array([ce * np.cos(azimuth), ce * np.sin(azimuth), np.sin(elevation)])


def ula_steering(n: int, azimuth, spacing_wavelengths: float = 0.5) -> np.ndarray:
    """Uniform linear array steering vectors, shape (..., n), complex unit-modulus.

    Entry k = exp(j*2*pi*spacing*k*sin(azimuth)), k = 0..n-1.
    """
    if n < 1:
        raise ValueError("antenna count must be >= 1")
    k = np.arange(n)
    sin_az = np.sin(np.asarray(azimuth, dtype=float))[..., None]
    phases = 2.0 * np.pi * spacing_wavelengths * k * sin_az
    return np.exp(1j * phases)


def upa_steering(
    m_y: int,
    m_z: int,
    azimuth,
    elevation,
    spacing_wavelengths: float = 0.5,
) -> np.ndarray:
    """Uniform planar array steering vectors (panel in the Y-Z plane), shape (..., m_y*m_z).

    Entry (a, b) = exp(j*2*pi*spacing*(a*sin(az)*cos(el) + b*sin(el))),
    flattened with a (the Y index) running fastest.
    """
    if m_y < 1 or m_z < 1:
        raise ValueError("panel dimensions must be >= 1")
    az = np.asarray(azimuth, dtype=float)[..., None]
    el = np.asarray(elevation, dtype=float)[..., None]
    a = np.arange(m_y)
    b = np.arange(m_z)
    phase_y = spacing_wavelengths * a * np.sin(az) * np.cos(el)
    phase_z = spacing_wavelengths * b * np.sin(el)
    # b-major, a fastest: element index = b*m_y + a
    grid = phase_z[..., :, None] + phase_y[..., None, :]
    phases = 2.0 * np.pi * grid.reshape(grid.shape[:-2] + (m_y * m_z,))
    return np.exp(1j * phases)
