"""Hybrid beamforming: analog codebooks under per-entry modulus constraints,
per-subcarrier digital beamformers from the SVD of the analog-projected
channel, and effective-channel computation.

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
import yaml

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
    p_a: AnalogBeamformer | None = None,
    total_power: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-subcarrier digital precoder/combiner from the SVD of H_D.

    P_D takes the first n_s right singular vectors, G_D the first n_s left
    ones, singular values descending, each pair rotated so the
    largest-magnitude entry of the left vector is real-positive. If p_a is
    given the precoder is scaled so ||P_A P_D||_F^2 = total_power per
    subcarrier, otherwise ||P_D||_F^2 = total_power; a subcarrier whose
    norm is zero stays unscaled.
    """
    n_sc, rx_rf, n_rf = h_d.shape
    if n_s > min(rx_rf, n_rf):
        raise ValueError("stream count exceeds projected channel rank bound")
    u, _, vh = np.linalg.svd(h_d, full_matrices=False)
    u, vh = u[:, :, :n_s], vh[:, :n_s, :]
    # singular vectors have unit norm, so the pivot is never zero
    pivot = np.take_along_axis(u, np.argmax(np.abs(u), axis=1)[:, None, :], axis=1)
    rot = np.conj(pivot) / np.abs(pivot)  # (n_sc, 1, n_s)
    g_d = _rotate(u, rot, rx_rf)
    vh = _rotate(vh, np.conj(rot).transpose(0, 2, 1), n_rf)
    p_d = np.ascontiguousarray(vh.conj().transpose(0, 2, 1))
    full = (p_a.matrix @ p_d if p_a is not None else p_d).reshape(n_sc, -1)
    # one dot product per part and subcarrier, the same bits as np.linalg.norm
    re, im = full.real[:, None, :], full.imag[:, None, :]
    norm = np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])
    scaled = norm > 0
    p_d[scaled] *= (np.sqrt(total_power) / norm[scaled])[:, None, None]
    return p_d, g_d


def combine_beamformers(
    p_a: AnalogBeamformer,
    p_d: np.ndarray,
    g_a: AnalogBeamformer,
    g_d: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Total precoder F = P_A P_D and combiner W = G_A G_D per subcarrier."""
    if p_a.n_rf != p_d.shape[1] or g_a.n_rf != g_d.shape[1]:
        raise ValueError("analog/digital RF-chain dimensions do not match")
    f = np.einsum("tk,nks->nts", p_a.matrix, p_d)
    w = np.einsum("rk,nks->nrs", g_a.matrix, g_d)
    return f, w


def effective_channel(h: np.ndarray, f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-subcarrier effective channel W^H H F, shape (n_sc, n_s, n_s)."""
    if h.shape[0] != f.shape[0] or h.shape[0] != w.shape[0]:
        raise ValueError("subcarrier counts do not match")
    return np.einsum("nrs,nrt,ntk->nsk", w.conj(), h, f)


def select_codewords(
    h: np.ndarray,
    tx_codebook: AnalogCodebook,
    rx_codebook: AnalogCodebook,
    counter: OpCounter | None = None,
) -> tuple[AnalogBeamformer, AnalogBeamformer]:
    """Pick the analog codeword pair maximizing ||G_A^H H P_A||_F^2.

    For a fixed combiner the norm is a sum of per-beam energies over the
    precoder's columns, so the best precoder holds the n_rf beams of
    largest energy; ties go to the lower beam index, which is the codeword
    an ordered search over all subsets meets first. Combiners are compared
    in codebook order and the first strictly larger value wins.
    """
    n_sc, n_rx, n_tx = h.shape
    if rx_codebook.n_antennas != n_rx or tx_codebook.n_antennas != n_tx:
        raise ValueError("analog beamformer dimensions do not match channel")
    best_val, best = -np.inf, None
    for g_a in rx_codebook:
        beam_gains = np.einsum("rk,nrt->nkt", g_a.matrix.conj(), h) @ tx_codebook.columns
        energy = np.sum(beam_gains.real ** 2 + beam_gains.imag ** 2, axis=(0, 1))
        beams = np.sort(np.argsort(-energy, kind="stable")[: tx_codebook.n_rf])
        if counter is not None:
            counter.add(n_sc * (g_a.n_rf * n_rx * n_tx + g_a.n_rf * n_tx * tx_codebook.beam_grid))
        val = float(np.sum(energy[beams]))
        if val > best_val:
            best_val, best = val, (beams, g_a)
    beams, g_a = best
    return tx_codebook.codeword(beams.tolist()), g_a


def design_beamformers(
    h: np.ndarray,
    tx_codebook: AnalogCodebook,
    rx_codebook: AnalogCodebook,
    n_s: int,
    total_power: float = 1.0,
    counter: OpCounter | None = None,
) -> BeamformerSet:
    """Full hybrid design for one link: codeword selection then SVD digital stage."""
    p_a, g_a = select_codewords(h, tx_codebook, rx_codebook, counter)
    h_d = project_channel(h, g_a, p_a, counter)
    p_d, g_d = digital_beamformers_svd(h_d, n_s, p_a=p_a, total_power=total_power)
    return BeamformerSet(p_a, g_a, p_d, g_d)


def export_codebook(codebook: AnalogCodebook, name: str, path) -> None:
    """Write every codeword of a codebook as structured text (name, shape, complex entries)."""
    doc = {
        "name": name,
        "n_antennas": codebook.n_antennas,
        "n_rf": codebook.n_rf,
        "codewords": [
            {
                "id": bf.codebook_id,
                "entries_re": bf.matrix.real.tolist(),
                "entries_im": bf.matrix.imag.tolist(),
            }
            for bf in codebook
        ],
    }
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)


def import_codebook(path) -> AnalogCodebook:
    """Read a codebook written by export_codebook.

    The beam grid is rebuilt from the columns each ``bX_Y`` id names. The
    file must list every n_rf-subset of that grid in ``combinations`` order,
    with each beam's column the same in every codeword that holds it.
    """
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    columns = {}
    ids = []
    for cw in doc["codewords"]:
        mat = np.asarray(cw["entries_re"]) + 1j * np.asarray(cw["entries_im"])
        if mat.shape != (doc["n_antennas"], doc["n_rf"]):
            raise ValueError(f"codeword {cw['id']}: shape mismatch")
        try:
            beams = [int(k) for k in cw["id"].removeprefix("b").split("_")]
        except ValueError:
            raise ValueError(f"codeword {cw['id']}: id is not b<beam>_<beam>...") from None
        for k, col in zip(beams, mat.T):
            if not np.array_equal(columns.setdefault(k, col), col):
                raise ValueError(f"codeword {cw['id']}: beam {k} differs from an earlier codeword")
        ids.append(cw["id"])
    codebook = AnalogCodebook(np.stack([columns[k] for k in sorted(columns)], axis=1), doc["n_rf"])
    if ids != [bf.codebook_id for bf in codebook]:
        raise ValueError("codewords are not every n_rf-subset of the beam grid in order")
    return codebook
