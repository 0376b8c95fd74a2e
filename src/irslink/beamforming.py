"""Hybrid beamforming: analog codebooks under per-entry modulus constraints,
per-subcarrier digital beamformers from the SVD of the analog-projected
channel, and effective-channel computation.

Analog matrices are frequency-flat; every entry of an analog precoder has
squared magnitude exactly 1/n_antennas. The digital precoder is scaled so
the per-subcarrier transmit power ||P_A P_D||_F^2 equals the configured
total power.
"""

from dataclasses import dataclass
from itertools import combinations

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


def build_analog_codebook(n_antennas: int, n_rf: int, beam_grid: int = 16) -> list[AnalogBeamformer]:
    """All n_rf-subsets of a uniform azimuth grid of scaled ULA steering columns."""
    if n_rf > n_antennas:
        raise ValueError("n_rf cannot exceed n_antennas")
    if beam_grid < n_rf:
        raise ValueError("beam grid must offer at least n_rf directions")
    azimuths = -np.pi / 2 + (np.arange(beam_grid) + 0.5) * np.pi / beam_grid
    columns = [ula_steering(n_antennas, az) / np.sqrt(n_antennas) for az in azimuths]
    codebook = []
    for combo in combinations(range(beam_grid), n_rf):
        mat = np.stack([columns[k] for k in combo], axis=1)
        codebook.append(AnalogBeamformer(mat, codebook_id="b" + "_".join(map(str, combo))))
    return codebook


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


def _svd_sign_fix(u: np.ndarray, vh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Make the largest-magnitude entry of each left singular vector real-positive."""
    for k in range(u.shape[1]):
        idx = np.argmax(np.abs(u[:, k]))
        pivot = u[idx, k]
        if pivot != 0:
            rot = np.conj(pivot) / np.abs(pivot)
            u[:, k] *= rot
            vh[k, :] *= np.conj(rot)
    return u, vh


def digital_beamformers_svd(
    h_d: np.ndarray,
    n_s: int,
    p_a: AnalogBeamformer | None = None,
    total_power: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-subcarrier digital precoder/combiner from the SVD of H_D.

    P_D takes the first n_s right singular vectors, G_D the first n_s left
    ones, singular values descending. If p_a is given the precoder is
    scaled so ||P_A P_D||_F^2 = total_power per subcarrier, otherwise
    ||P_D||_F^2 = total_power.
    """
    n_sc, rx_rf, n_rf = h_d.shape
    if n_s > min(rx_rf, n_rf):
        raise ValueError("stream count exceeds projected channel rank bound")
    p_d = np.zeros((n_sc, n_rf, n_s), dtype=complex)
    g_d = np.zeros((n_sc, rx_rf, n_s), dtype=complex)
    for n in range(n_sc):
        u, s, vh = np.linalg.svd(h_d[n], full_matrices=False)
        u, vh = _svd_sign_fix(u, vh)
        p_d[n] = vh.conj().T[:, :n_s]
        g_d[n] = u[:, :n_s]
        full = p_a.matrix @ p_d[n] if p_a is not None else p_d[n]
        norm = np.linalg.norm(full)
        if norm > 0:
            p_d[n] *= np.sqrt(total_power) / norm
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
    tx_codebook: list[AnalogBeamformer],
    rx_codebook: list[AnalogBeamformer],
    counter: OpCounter | None = None,
) -> tuple[AnalogBeamformer, AnalogBeamformer]:
    """Pick the analog codeword pair maximizing the projected Frobenius norm."""
    best = None
    best_val = -np.inf
    for p_a in tx_codebook:
        for g_a in rx_codebook:
            val = float(np.sum(np.abs(project_channel(h, g_a, p_a, counter)) ** 2))
            if val > best_val:
                best_val = val
                best = (p_a, g_a)
    return best


def design_beamformers(
    h: np.ndarray,
    tx_codebook: list[AnalogBeamformer],
    rx_codebook: list[AnalogBeamformer],
    n_s: int,
    total_power: float = 1.0,
    counter: OpCounter | None = None,
) -> BeamformerSet:
    """Full hybrid design for one link: codeword selection then SVD digital stage."""
    p_a, g_a = select_codewords(h, tx_codebook, rx_codebook, counter)
    h_d = project_channel(h, g_a, p_a, counter)
    p_d, g_d = digital_beamformers_svd(h_d, n_s, p_a=p_a, total_power=total_power)
    return BeamformerSet(p_a, g_a, p_d, g_d)


def export_codebook(codebook: list[AnalogBeamformer], name: str, path) -> None:
    """Write a codebook as structured text (name, shape, complex entries)."""
    doc = {
        "name": name,
        "n_antennas": codebook[0].n_antennas,
        "n_rf": codebook[0].n_rf,
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


def import_codebook(path) -> list[AnalogBeamformer]:
    """Read a codebook written by export_codebook."""
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    codebook = []
    for cw in doc["codewords"]:
        mat = np.asarray(cw["entries_re"]) + 1j * np.asarray(cw["entries_im"])
        if mat.shape != (doc["n_antennas"], doc["n_rf"]):
            raise ValueError(f"codeword {cw['id']}: shape mismatch")
        codebook.append(AnalogBeamformer(mat, cw["id"]))
    return codebook
