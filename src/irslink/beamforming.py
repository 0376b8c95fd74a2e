"""Hybrid beamforming: analog codebooks under per-entry modulus constraints,
and per-subcarrier digital beamformers from the SVD of the analog-projected
channel.

Analog matrices are frequency-flat; every entry of an analog precoder has
squared magnitude exactly 1/n_antennas. The digital precoder is scaled so
the per-subcarrier transmit power ||P_A P_D||_F^2 equals the configured
total power.
"""

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from irslink.arrays import ula_steering
from irslink.opcount import OpCounter


@dataclass(frozen=True)
class AnalogBeamformer:
    matrix: np.ndarray  # (n_antennas, n_rf), entries of modulus 1/sqrt(n_antennas)
    codebook_id: str

    @property
    def n_antennas(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_rf(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class BeamformerSet:
    analog_precoder: AnalogBeamformer
    analog_combiner: AnalogBeamformer
    digital_precoders: np.ndarray  # (n_sc, n_rf, n_s)
    digital_combiners: np.ndarray  # (n_sc, rx_rf, n_s)

    def precoders(self) -> np.ndarray:
        """Total per-subcarrier precoders F = P_A P_D, (n_sc, n_t, n_s)."""
        return np.einsum("tk,nks->nts", self.analog_precoder.matrix, self.digital_precoders)

    def combiners(self) -> np.ndarray:
        """Total per-subcarrier combiners W = G_A G_D, (n_sc, n_r, n_s)."""
        return np.einsum("rk,nks->nrs", self.analog_combiner.matrix, self.digital_combiners)


@dataclass(frozen=True)
class AnalogCodebook:
    """Every n_rf-subset of a beam grid, in ``combinations`` order.

    Only the grid is stored; a codeword is built when it is asked for, with
    the id ``bX_Y`` naming its beam indices.
    """

    columns: np.ndarray  # (n_antennas, beam_grid)
    n_rf: int

    @property
    def n_antennas(self) -> int:
        return self.columns.shape[0]

    @property
    def beam_grid(self) -> int:
        return self.columns.shape[1]

    def codeword(self, beams) -> AnalogBeamformer:
        """The codeword holding the given ascending beam indices."""
        mat = np.take(self.columns, beams, axis=1)
        return AnalogBeamformer(mat, codebook_id="b" + "_".join(map(str, beams)))

    def __len__(self) -> int:
        return comb(self.beam_grid, self.n_rf)

    def __iter__(self) -> Iterator[AnalogBeamformer]:
        return map(self.codeword, combinations(range(self.beam_grid), self.n_rf))


def build_analog_codebook(n_antennas: int, n_rf: int, beam_grid: int = 16) -> AnalogCodebook:
    """All n_rf-subsets of a uniform azimuth grid of scaled ULA steering columns."""
    if n_rf > n_antennas:
        raise ValueError("n_rf cannot exceed n_antennas")
    if beam_grid < n_rf:
        raise ValueError("beam grid must offer at least n_rf directions")
    azimuths = -np.pi / 2 + (np.arange(beam_grid) + 0.5) * np.pi / beam_grid
    columns = ula_steering(n_antennas, azimuths) / np.sqrt(n_antennas)
    return AnalogCodebook(np.ascontiguousarray(columns.T), n_rf)


def project_channel(h: np.ndarray, g_a: AnalogBeamformer, p_a: AnalogBeamformer,
                    counter: OpCounter | None = None) -> np.ndarray:
    """Analog-projected channel G_A^H H P_A per subcarrier, (n_sc, rx_rf, n_rf)."""
    n_sc, n_rx, n_tx = h.shape
    if g_a.n_antennas != n_rx or p_a.n_antennas != n_tx:
        raise ValueError("analog beamformer dimensions do not match channel")
    out = np.einsum("rk,nrt,tl->nkl", g_a.matrix.conj(), h, p_a.matrix)
    if counter is not None:
        counter.add(n_sc * (g_a.n_rf * n_rx * n_tx + g_a.n_rf * n_tx * p_a.n_rf))
    return out


def _rotate(x: np.ndarray, rot: np.ndarray, length: int) -> np.ndarray:
    """x * rot, rounded as numpy rounds ``v *= rot`` on one vector v of ``length``.

    For two or more entries numpy's SIMD kernel forms each product with a
    fused multiply-add; a one-entry vector takes the scalar loop, which rounds
    every real product. The stacked product always takes the SIMD kernel, so
    the one-entry case is written out in real arithmetic.
    """
    if length > 1:
        return x * rot
    out = np.empty(np.broadcast_shapes(x.shape, rot.shape), dtype=complex)
    out.real = x.real * rot.real - x.imag * rot.imag
    out.imag = x.real * rot.imag + x.imag * rot.real
    return out


def digital_beamformers_svd(
    h_d: np.ndarray,
    n_s: int,
    p_a: np.ndarray | None = None,
    total_power: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-subcarrier digital precoder/combiner from the SVD of H_D, for a
    stack of links: h_d (..., n_sc, rx_rf, n_rf) -> P_D (..., n_sc, n_rf, n_s)
    and G_D (..., n_sc, rx_rf, n_s).

    P_D takes the first n_s right singular vectors, G_D the first n_s left
    ones, singular values descending, each pair rotated so the
    largest-magnitude entry of the left vector is real-positive. If the
    analog precoders p_a (..., n_t, n_rf) are given the precoder is scaled so
    ||P_A P_D||_F^2 = total_power per subcarrier, otherwise ||P_D||_F^2 =
    total_power; a subcarrier whose norm is zero stays unscaled.
    """
    *lead, n_sc, rx_rf, n_rf = h_d.shape
    if n_s > min(rx_rf, n_rf):
        raise ValueError("stream count exceeds projected channel rank bound")
    u, _, vh = np.linalg.svd(h_d.reshape(-1, rx_rf, n_rf), full_matrices=False)
    u, vh = u[:, :, :n_s], vh[:, :n_s, :]
    # singular vectors have unit norm, so the pivot is never zero
    pivot = np.take_along_axis(u, np.argmax(np.abs(u), axis=1)[:, None, :], axis=1)
    rot = np.conj(pivot) / np.abs(pivot)  # (links * n_sc, 1, n_s)
    g_d = _rotate(u, rot, rx_rf)
    vh = _rotate(vh, np.conj(rot).transpose(0, 2, 1), n_rf)
    p_d = np.ascontiguousarray(vh.conj().transpose(0, 2, 1))
    full = p_d if p_a is None else p_a[..., None, :, :] @ p_d.reshape(*lead, n_sc, n_rf, n_s)
    full = full.reshape(len(p_d), -1)
    # one dot product per part and subcarrier, the same bits as np.linalg.norm
    re, im = full.real[:, None, :], full.imag[:, None, :]
    norm = np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])
    scaled = norm > 0
    p_d[scaled] *= (np.sqrt(total_power) / norm[scaled])[:, None, None]
    return p_d.reshape(*lead, n_sc, n_rf, n_s), g_d.reshape(*lead, n_sc, rx_rf, n_s)


def select_codewords(
    h: np.ndarray,
    tx_codebook: AnalogCodebook,
    rx_codebook: AnalogCodebook,
    counter: OpCounter | None = None,
) -> tuple[list[AnalogBeamformer], list[AnalogBeamformer]]:
    """Pick each link's analog codeword pair maximizing ||G_A^H H P_A||_F^2,
    for a stack of links h (L, n_sc, n_rx, n_tx): the chosen precoders and
    combiners, one list each.

    For a fixed combiner the norm is a sum of per-beam energies over the
    precoder's columns, so the best precoder holds the n_rf beams of
    largest energy; ties go to the lower beam index, which is the codeword
    an ordered search over all subsets meets first. Combiners are compared
    in codebook order and the first strictly larger value wins. A link's
    choice does not depend on the other links of the stack.
    """
    n_links, n_sc, n_rx, n_tx = h.shape
    if rx_codebook.n_antennas != n_rx or tx_codebook.n_antennas != n_tx:
        raise ValueError("analog beamformer dimensions do not match channel")
    combiners = list(rx_codebook)
    best_val = np.full(n_links, -np.inf)
    best_beams = np.zeros((n_links, tx_codebook.n_rf), dtype=int)
    best_rx = np.zeros(n_links, dtype=int)
    for c, g_a in enumerate(combiners):
        beam_gains = np.einsum("rk,lnrt->lnkt", g_a.matrix.conj(), h) @ tx_codebook.columns
        energy = np.sum(beam_gains.real ** 2 + beam_gains.imag ** 2, axis=(1, 2))
        beams = np.sort(np.argsort(-energy, axis=1, kind="stable")[:, : tx_codebook.n_rf], axis=1)
        if counter is not None:
            counter.add(
                n_links * n_sc * (g_a.n_rf * n_rx * n_tx + g_a.n_rf * n_tx * tx_codebook.beam_grid)
            )
        val = np.sum(np.take_along_axis(energy, beams, axis=1), axis=1)
        better = val > best_val
        best_val[better], best_beams[better], best_rx[better] = val[better], beams[better], c
    return [tx_codebook.codeword(b) for b in best_beams.tolist()], [combiners[c] for c in best_rx]


def design_beamformers(
    h: np.ndarray,
    tx_codebook: AnalogCodebook,
    rx_codebook: AnalogCodebook,
    n_s: int,
    total_power: float = 1.0,
    counter: OpCounter | None = None,
) -> list[BeamformerSet]:
    """Full hybrid design, codeword selection then SVD digital stage, for a
    stack of links h (L, n_sc, n_rx, n_tx): one BeamformerSet per link.

    Selection and the digital stage are each one array pass over all links,
    and a link's design does not depend on the other links of the stack. The
    projection stays one einsum per link: with one subcarrier a stacked
    einsum sums the products in another order.
    """
    if not len(h):
        return []
    p_a, g_a = select_codewords(h, tx_codebook, rx_codebook, counter)
    h_d = np.stack([project_channel(*link, counter) for link in zip(h, g_a, p_a)])
    p_d, g_d = digital_beamformers_svd(h_d, n_s, np.stack([p.matrix for p in p_a]), total_power)
    return [BeamformerSet(*bf) for bf in zip(p_a, g_a, p_d, g_d)]
