"""Hybrid beamforming: codebook constraints, projection, SVD digital stage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslink.arrays import ula_steering
from irslink.beamforming import (
    AnalogBeamformer,
    BeamformerSet,
    build_analog_codebook,
    design_beamformers,
    digital_beamformers_svd,
    project_channel,
    select_codewords,
    _svd_of_rows,
)
from irslink.experiment import ExperimentSpec, run_experiment
from irslink.opcount import OpCounter
from irslink.scenario import STOCK_CODEBOOKS, default_scenario

from conftest import assert_same_design


def _random_channel(rng, n_sc, n_r, n_t):
    return (
        rng.standard_normal((n_sc, n_r, n_t)) + 1j * rng.standard_normal((n_sc, n_r, n_t))
    )


def combine_beamformers(p_a, p_d, g_a, g_d):
    """Total precoder F = P_A P_D and combiner W = G_A G_D per subcarrier."""
    if p_a.n_rf != p_d.shape[1] or g_a.n_rf != g_d.shape[1]:
        raise ValueError("analog/digital RF-chain dimensions do not match")
    f = np.einsum("tk,nks->nts", p_a.matrix, p_d)
    w = np.einsum("rk,nks->nrs", g_a.matrix, g_d)
    return f, w


def effective_channel(h, f, w):
    """Per-subcarrier effective channel W^H H F, shape (n_sc, n_s, n_s)."""
    if h.shape[0] != f.shape[0] or h.shape[0] != w.shape[0]:
        raise ValueError("subcarrier counts do not match")
    return np.einsum("nrs,nrt,ntk->nsk", w.conj(), h, f)


def _per_subcarrier_svd(h_d, n_s, p_a=None, total_power=1.0):
    """Reference for digital_beamformers_svd: one SVD, sign fix and norm per subcarrier."""
    n_sc, rx_rf, n_rf = h_d.shape
    p_d = np.zeros((n_sc, n_rf, n_s), dtype=complex)
    g_d = np.zeros((n_sc, rx_rf, n_s), dtype=complex)
    for n in range(n_sc):
        u, _, vh = np.linalg.svd(h_d[n], full_matrices=False)
        for k in range(u.shape[1]):
            pivot = u[np.argmax(np.abs(u[:, k])), k]
            if pivot != 0:
                rot = np.conj(pivot) / np.abs(pivot)
                u[:, k] *= rot
                vh[k, :] *= np.conj(rot)
        p_d[n] = vh.conj().T[:, :n_s]
        g_d[n] = u[:, :n_s]
        norm = np.linalg.norm(p_a.matrix @ p_d[n] if p_a is not None else p_d[n])
        if norm > 0:
            p_d[n] *= np.sqrt(total_power) / norm
    return p_d, g_d


class TestAnalogCodebook:
    def test_small_codebook_structure(self):
        cb = build_analog_codebook(2, 1, beam_grid=4)
        assert len(cb) == 4
        for bf in cb:
            assert bf.matrix.shape == (2, 1)
            np.testing.assert_allclose(np.abs(bf.matrix) ** 2, 0.5, atol=1e-15)

    def test_all_stock_configurations_constructible(self):
        for cb in STOCK_CODEBOOKS:
            book = build_analog_codebook(cb.n_t, cb.n_rf, beam_grid=8)
            assert book, cb.name
            for bf in book:
                assert bf.matrix.shape == (cb.n_t, cb.n_rf)
                np.testing.assert_allclose(
                    np.abs(bf.matrix) ** 2, 1.0 / cb.n_t, atol=1e-15
                )

    def test_grid_too_small(self):
        with pytest.raises(ValueError, match="beam grid"):
            build_analog_codebook(4, 3, beam_grid=2)

    def test_rf_exceeds_antennas(self):
        with pytest.raises(ValueError):
            build_analog_codebook(2, 3)

    def test_best_codeword_tracks_los_direction(self):
        # a rank-one LoS channel steered at a grid azimuth is matched by the
        # codeword containing that very grid point
        grid = 16
        azimuths = -np.pi / 2 + (np.arange(grid) + 0.5) * np.pi / grid
        target = azimuths[5]
        a_tx = ula_steering(8, target)
        h = np.outer(np.ones(1), a_tx.conj())[None, :, :].astype(complex)
        tx_cb = build_analog_codebook(8, 1, beam_grid=grid)
        rx_cb = build_analog_codebook(1, 1, beam_grid=1)
        (p_a,), _ = select_codewords(h[None], tx_cb, rx_cb)
        assert p_a.codebook_id == "b5"


def _exhaustive_select(h, tx_codebook, rx_codebook):
    """Codeword ids of the first pair, in order, with the largest projected norm."""
    best, best_val = None, -np.inf
    for p_a in tx_codebook:
        for g_a in rx_codebook:
            val = float(np.sum(np.abs(project_channel(h, g_a, p_a)) ** 2))
            if val > best_val:
                best_val, best = val, (p_a.codebook_id, g_a.codebook_id)
    return best


def _selected_ids(h, tx_codebook, rx_codebook, counter=None):
    (p_a,), (g_a,) = select_codewords(h[None], tx_codebook, rx_codebook, counter)
    return p_a.codebook_id, g_a.codebook_id


class TestCodewordSelection:
    def test_matches_exhaustive_search_on_stock_pairs(self):
        rng = np.random.default_rng(11)
        rx = build_analog_codebook(1, 1, beam_grid=1)
        for trial in range(200):
            cb = STOCK_CODEBOOKS[trial % len(STOCK_CODEBOOKS)]
            tx = build_analog_codebook(cb.n_t, cb.n_rf, beam_grid=16)
            h = _random_channel(rng, 8, 1, cb.n_t)
            assert _selected_ids(h, tx, rx) == _exhaustive_select(h, tx, rx), (trial, cb.name)

    def test_matches_exhaustive_search_with_multi_column_combiners(self):
        rng = np.random.default_rng(12)
        tx = build_analog_codebook(4, 2, beam_grid=8)
        rx = build_analog_codebook(4, 2, beam_grid=8)
        channels = [_random_channel(rng, 4, 4, 4) for _ in range(20)]
        # tied beams: broadside (mirrored pairs) and all-zero (every value)
        channels += [np.ones((4, 4, 4), dtype=complex), np.zeros((4, 4, 4), dtype=complex)]
        for trial, h in enumerate(channels):
            assert _selected_ids(h, tx, rx) == _exhaustive_select(h, tx, rx), trial

    @pytest.mark.parametrize("cb", STOCK_CODEBOOKS, ids=lambda cb: cb.name)
    def test_ties_go_to_the_lower_beam(self, cb):
        tx = build_analog_codebook(cb.n_t, cb.n_rf, beam_grid=16)
        rx = build_analog_codebook(1, 1, beam_grid=1)
        # a broadside channel gives mirrored beams equal energies
        broadside = np.ones((4, 1, cb.n_t), dtype=complex)
        assert _selected_ids(broadside, tx, rx) == _exhaustive_select(broadside, tx, rx)
        zero = np.zeros((4, 1, cb.n_t), dtype=complex)
        first = "b" + "_".join(map(str, range(cb.n_rf)))
        assert _selected_ids(zero, tx, rx) == _exhaustive_select(zero, tx, rx) == (first, "b0")

    def test_mac_count_is_per_combiner(self):
        counter = OpCounter()
        tx = build_analog_codebook(8, 2, beam_grid=16)
        rx = build_analog_codebook(4, 2, beam_grid=8)
        h = _random_channel(np.random.default_rng(13), 5, 4, 8)
        select_codewords(h[None], tx, rx, counter)
        # per combiner: G_A^H H, then that against every grid column
        assert counter.macs == len(rx) * 5 * (2 * 4 * 8 + 2 * 8 * 16)

    def test_dimension_mismatch(self):
        tx = build_analog_codebook(4, 1, beam_grid=4)
        rx = build_analog_codebook(1, 1, beam_grid=1)
        with pytest.raises(ValueError, match="dimensions"):
            select_codewords(np.zeros((1, 1, 1, 8), dtype=complex), tx, rx)


class TestProjection:
    def test_identity_like_projection(self):
        rng = np.random.default_rng(0)
        h = _random_channel(rng, 3, 2, 2)
        ident = AnalogBeamformer(np.eye(2, dtype=complex), "ident")
        np.testing.assert_allclose(project_channel(h, ident, ident), h, rtol=1e-12)

    def test_scalar_rf_case(self):
        rng = np.random.default_rng(1)
        h = _random_channel(rng, 2, 3, 4)
        g = AnalogBeamformer(
            (rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))), "g"
        )
        p = AnalogBeamformer(
            (rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))), "p"
        )
        out = project_channel(h, g, p)
        for n in range(2):
            expected = g.matrix.conj().T @ h[n] @ p.matrix
            assert out[n, 0, 0] == pytest.approx(expected[0, 0], abs=1e-12)

    def test_triple_product_oracle(self):
        rng = np.random.default_rng(2)
        h = _random_channel(rng, 4, 4, 4)
        g = AnalogBeamformer(np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 2))) / 2.0, "g")
        p = AnalogBeamformer(np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 2))) / 2.0, "p")
        out = project_channel(h, g, p)
        for n in range(4):
            np.testing.assert_allclose(
                out[n], g.matrix.conj().T @ h[n] @ p.matrix, atol=1e-12
            )

    def test_dimension_mismatch(self):
        h = np.zeros((1, 2, 2), dtype=complex)
        bad = AnalogBeamformer(np.ones((3, 1), dtype=complex), "bad")
        with pytest.raises(ValueError, match="dimensions"):
            project_channel(h, bad, bad)

    def test_mac_counting(self):
        counter = OpCounter()
        h = np.zeros((2, 3, 4), dtype=complex)
        g = AnalogBeamformer(np.ones((3, 2), dtype=complex), "g")
        p = AnalogBeamformer(np.ones((4, 2), dtype=complex), "p")
        project_channel(h, g, p, counter)
        assert counter.macs == 2 * (2 * 3 * 4 + 2 * 4 * 2)


class TestDigitalSvd:
    def test_diagonal_selection(self):
        h_d = np.array([[[3.0, 0.0], [0.0, 1.0]]], dtype=complex)
        (p_d,), (g_d,) = digital_beamformers_svd(h_d[None], n_s=1)
        eff = effective_channel(h_d, p_d, g_d)
        assert abs(eff[0, 0, 0]) == pytest.approx(3.0, rel=1e-12)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            h_d = _random_channel(rng, 1, 3, 3)
            u, s, vh = np.linalg.svd(h_d[0])
            residual = np.linalg.norm(h_d[0] - u @ np.diag(s) @ vh) / np.linalg.norm(h_d[0])
            assert residual <= 1e-10

    def test_dominant_singular_value_gain(self):
        rng = np.random.default_rng(4)
        h_d = _random_channel(rng, 3, 2, 2)
        (p_d,), (g_d,) = digital_beamformers_svd(h_d[None], n_s=1)
        for n in range(3):
            sigma_max = np.linalg.svd(h_d[n], compute_uv=False)[0]
            gain = abs((g_d[n].conj().T @ h_d[n] @ p_d[n])[0, 0])
            assert gain == pytest.approx(sigma_max, rel=1e-12)

    def test_power_normalization_with_analog_stage(self):
        rng = np.random.default_rng(5)
        p_a = AnalogBeamformer(np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 2))) / 2.0, "p")
        h_d = _random_channel(rng, 3, 2, 2)
        (p_d,), _ = digital_beamformers_svd(h_d[None], n_s=1, p_a=p_a.matrix, total_power=2.5)
        for n in range(3):
            f = p_a.matrix @ p_d[n]
            assert np.linalg.norm(f) ** 2 == pytest.approx(2.5, rel=1e-12)
            assert np.trace(f.conj().T @ f).real <= 2.5 + 1e-12

    def test_stream_count_bound(self):
        with pytest.raises(ValueError, match="stream count"):
            digital_beamformers_svd(np.zeros((1, 1, 2, 2), dtype=complex), n_s=3)

    def test_beats_random_digital_pairs(self):
        rng = np.random.default_rng(6)
        h_d = _random_channel(rng, 1, 2, 2)
        (p_d,), (g_d,) = digital_beamformers_svd(h_d[None], n_s=1)
        svd_gain = abs((g_d[0].conj().T @ h_d[0] @ p_d[0])[0, 0])
        for _ in range(50):
            f = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
            w = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
            f /= np.linalg.norm(f)
            w /= np.linalg.norm(w)
            assert abs((w.conj().T @ h_d[0] @ f)[0, 0]) <= svd_gain + 1e-12

    def test_sign_fix_determinism(self):
        rng = np.random.default_rng(7)
        h_d = _random_channel(rng, 2, 2, 2)
        a = digital_beamformers_svd(h_d[None], n_s=1)
        b = digital_beamformers_svd(h_d[None].copy(), n_s=1)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("shape", [(64, 1, 1), (64, 1, 2), (8, 2, 2), (8, 4, 2)])
    @pytest.mark.parametrize("with_analog", [False, True])
    def test_bit_identical_to_per_subcarrier_loop(self, shape, with_analog):
        rng = np.random.default_rng(sum(shape))
        h_d = _random_channel(rng, *shape)
        h_d[3] = 0.0  # one all-zero subcarrier
        p_a = None
        if with_analog:
            phases = rng.uniform(0, 2 * np.pi, (6, shape[2]))
            p_a = AnalogBeamformer(np.exp(1j * phases) / np.sqrt(6), "p")
        for n_s in range(1, min(shape[1:]) + 1):
            matrix = None if p_a is None else p_a.matrix
            (p_d,), (g_d,) = digital_beamformers_svd(h_d[None], n_s, p_a=matrix, total_power=2.5)
            want = _per_subcarrier_svd(h_d, n_s, p_a=p_a, total_power=2.5)
            np.testing.assert_array_equal(p_d, want[0])
            np.testing.assert_array_equal(g_d, want[1])

    def test_zero_norm_precoder_stays_unscaled(self):
        h_d = _random_channel(np.random.default_rng(9), 4, 2, 2)
        p_a = AnalogBeamformer(np.zeros((4, 2), dtype=complex), "zero")
        (p_d,), _ = digital_beamformers_svd(h_d[None], n_s=1, p_a=p_a.matrix)
        np.testing.assert_array_equal(p_d, _per_subcarrier_svd(h_d, 1, p_a=p_a)[0])
        np.testing.assert_allclose(np.linalg.norm(p_d, axis=(1, 2)), 1.0, rtol=1e-12)


def _bits(z):
    """Bit patterns of the real and imaginary parts, so that -0.0 != +0.0."""
    z = np.ascontiguousarray(z)
    return np.stack([z.real.view(np.uint64), z.imag.view(np.uint64)])


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(_bits(got), _bits(want))


def _spy_svd(monkeypatch):
    """Record the shape of every stack np.linalg.svd is called on."""
    calls, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


class TestRowReplica:
    """``_svd_of_rows`` replays LAPACK's zgesdd on 1 x 1 and 1 x 2 rows: the
    same bits as ``np.linalg.svd``, signed zeros included."""

    @pytest.mark.parametrize("n_rf", [1, 2])
    def test_random_rows_bit_for_bit(self, n_rf):
        rng = np.random.default_rng(100 + n_rf)
        k = 100_000
        moduli = 10.0 ** rng.uniform(-120.0, 120.0, (k, 1, n_rf))
        rows = moduli * np.exp(1j * rng.uniform(-np.pi, np.pi, (k, 1, n_rf)))
        rows[: k // 100, 0, 0] = 1j * rows[: k // 100, 0, 0].imag  # purely imaginary a1
        # real and imaginary parts drawn apart, up to 1e135 and down to
        # 1e-135: some results underflow to a zero part
        parts = 10.0 ** rng.uniform(-135.0, 135.0, (k // 10, 2 * n_rf))
        parts *= rng.choice([-1.0, 1.0], parts.shape)
        h = np.concatenate([rows, parts.view(complex)[:, None, :]])
        u, _, vh = np.linalg.svd(h, full_matrices=False)
        got_u, got_vh = _svd_of_rows(h)
        _assert_same_bits(got_u, u)
        _assert_same_bits(got_vh, vh)

    # each row stands beside seven ordinary ones, which the replay keeps
    @pytest.mark.parametrize("row", [
        [0.0], [0.0, 0.0],  # zero rows
        [2.0], [-2.0 - 0.0j], [-0.0 + 3.0j],  # a real or imaginary a1 (1 x 1)
        [1.0 + 2.0j, -3.0], [1.0 - 2.0j, 0.0], [-1.0 + 2.0j, -0.0j],  # a real or zero a2
        [2.0, 1.0 + 1.0j], [3.0j, 1.0 - 1.0j],  # a real or imaginary a1 (1 x 2)
        [1e139 + 1e139j], [1e-140 - 2e-140j, 3e-140 + 1e-140j],  # outside zgesdd's unscaled range
        [1e140 + 1j, 1.0 + 1.0j], [1e-300 + 1e-300j, 1e-300 - 1e-300j],
    ], ids=repr)
    @pytest.mark.parametrize("with_analog", [False, True])
    def test_fallback_rows_take_lapack(self, row, with_analog, monkeypatch):
        n_rf = len(row)
        rng = np.random.default_rng(n_rf)
        h_d = _random_channel(rng, 8, 1, n_rf)
        h_d[5, 0] = row
        p_a = None
        if with_analog:
            phases = rng.uniform(0, 2 * np.pi, (6, n_rf))
            p_a = AnalogBeamformer(np.exp(1j * phases) / np.sqrt(6), "p")
        want = _per_subcarrier_svd(h_d, 1, p_a=p_a, total_power=2.5)
        calls = _spy_svd(monkeypatch)
        matrix = None if p_a is None else p_a.matrix
        (p_d,), (g_d,) = digital_beamformers_svd(h_d[None], 1, p_a=matrix, total_power=2.5)
        assert calls == [(1, 1, n_rf)]  # the one row the replay does not follow
        _assert_same_bits(p_d, want[0])
        _assert_same_bits(g_d, want[1])

    @pytest.mark.parametrize("shape", [(8, 1, 3), (8, 2, 1), (8, 2, 2)])
    def test_other_shapes_take_lapack(self, shape, monkeypatch):
        h_d = _random_channel(np.random.default_rng(sum(shape)), *shape)
        want = _per_subcarrier_svd(h_d, 1, total_power=2.5)
        calls = _spy_svd(monkeypatch)
        (p_d,), (g_d,) = digital_beamformers_svd(h_d[None], 1, total_power=2.5)
        assert calls == [shape]
        _assert_same_bits(p_d, want[0])
        _assert_same_bits(g_d, want[1])

    def test_stock_sweep_never_calls_lapack(self, monkeypatch):
        # every stock codebook has one receive RF chain: the replay serves
        # every digital stage of the stock sweep
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        assert len(run_experiment(ExperimentSpec(seed=0))) == 2 * len(STOCK_CODEBOOKS)

    def test_two_stream_users_take_lapack(self, monkeypatch):
        calls = _spy_svd(monkeypatch)
        spec = ExperimentSpec(codebooks=(STOCK_CODEBOOKS[1],),
                              optimizer_overrides={"max_iter": 5, "outer_rounds": 2})
        run_experiment(spec, default_scenario(n_r=2, n_s=2))
        assert calls and all(shape[1:] == (2, 2) for shape in calls)


def _per_link_design(h, tx_codebook, rx_codebook, n_s, total_power):
    """Reference for the stacked design: one link, a loop over the combiners,
    one projection einsum and the per-subcarrier digital stage."""
    best_val, best = -np.inf, None
    for g_a in rx_codebook:
        beam_gains = np.einsum("rk,nrt->nkt", g_a.matrix.conj(), h) @ tx_codebook.columns
        energy = np.sum(beam_gains.real ** 2 + beam_gains.imag ** 2, axis=(0, 1))
        beams = np.sort(np.argsort(-energy, kind="stable")[: tx_codebook.n_rf])
        val = float(np.sum(energy[beams]))
        if val > best_val:
            best_val, best = val, (tx_codebook.codeword(beams.tolist()), g_a)
    p_a, g_a = best
    h_d = np.einsum("rk,nrt,tl->nkl", g_a.matrix.conj(), h, p_a.matrix)
    return p_a, g_a, *_per_subcarrier_svd(h_d, n_s, p_a=p_a, total_power=total_power)


# (n_t, n_rf, n_r, combiner columns, combiner grid, n_s, n_sc)
_STACKED_CASES = [(cb.n_t, cb.n_rf, 1, 1, 1, 1, 16) for cb in STOCK_CODEBOOKS] + [
    (4, 2, 2, 2, 4, 2, 8),  # two-antenna, two-stream users
    # one subcarrier, two-antenna users, one RF chain: the shape on which a
    # stacked projection einsum rounds differently from the per-link one
    (4, 1, 2, 1, 5, 1, 1),
    (8, 3, 3, 2, 3, 2, 1),
]


class TestStackedDesign:
    @pytest.mark.parametrize("case", _STACKED_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_each_link_as_designed_alone(self, case):
        n_t, n_rf, n_r, rx_rf, rx_grid, n_s, n_sc = case
        tx = build_analog_codebook(n_t, n_rf, beam_grid=16)
        rx = build_analog_codebook(n_r, rx_rf, beam_grid=rx_grid)
        rng = np.random.default_rng(sum(case))
        h = np.stack([_random_channel(rng, n_sc, n_r, n_t) * 1e-4 for _ in range(5)])
        h[1] = 0.0  # every beam tied
        h[2] = 1e-4  # broadside: mirrored beams tied
        counter, per_link = OpCounter(), OpCounter()
        designs = design_beamformers(h, tx, rx, n_s, 2.5, counter)
        assert len(designs) == len(h)
        for link, got in zip(h, designs):
            want = BeamformerSet(*_per_link_design(link, tx, rx, n_s, 2.5))
            assert_same_design(got, want)
            (alone,) = design_beamformers(link[None], tx, rx, n_s, 2.5, per_link)
            assert_same_design(alone, want)
        assert counter.macs == per_link.macs

    def test_empty_stack(self):
        tx = build_analog_codebook(4, 2, beam_grid=8)
        rx = build_analog_codebook(1, 1, beam_grid=1)
        assert design_beamformers(np.zeros((0, 4, 1, 4), dtype=complex), tx, rx, 1) == []

    def test_dimension_mismatch(self):
        tx = build_analog_codebook(4, 1, beam_grid=4)
        rx = build_analog_codebook(1, 1, beam_grid=1)
        with pytest.raises(ValueError, match="dimensions"):
            design_beamformers(np.zeros((2, 1, 1, 8), dtype=complex), tx, rx, 1)


class TestCombineAndEffective:
    def test_single_column_case(self):
        rng = np.random.default_rng(8)
        p_a = AnalogBeamformer(np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 1))) / 2.0, "p")
        g_a = AnalogBeamformer(np.ones((1, 1), dtype=complex), "g")
        p_d = np.ones((2, 1, 1), dtype=complex)
        g_d = np.ones((2, 1, 1), dtype=complex)
        f, w = combine_beamformers(p_a, p_d, g_a, g_d)
        assert f.shape == (2, 4, 1) and w.shape == (2, 1, 1)

    def test_rf_dimension_mismatch(self):
        p_a = AnalogBeamformer(np.ones((4, 2), dtype=complex), "p")
        g_a = AnalogBeamformer(np.ones((2, 1), dtype=complex), "g")
        with pytest.raises(ValueError, match="RF-chain"):
            combine_beamformers(p_a, np.ones((1, 1, 1), complex), g_a, np.ones((1, 1, 1), complex))

    def test_zero_channel(self):
        h = np.zeros((2, 3, 4), dtype=complex)
        f = np.ones((2, 4, 1), dtype=complex)
        w = np.ones((2, 3, 1), dtype=complex)
        np.testing.assert_array_equal(effective_channel(h, f, w), 0.0)

    def test_scalar_chain(self):
        h = np.array([[[2.0 + 1.0j]]])
        f = np.array([[[0.5 - 0.5j]]])
        w = np.array([[[1.0 + 2.0j]]])
        out = effective_channel(h, f, w)
        assert out[0, 0, 0] == pytest.approx(np.conj(1 + 2j) * (2 + 1j) * (0.5 - 0.5j))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_effective_channel_oracle(self, seed):
        rng = np.random.default_rng(seed)
        h = _random_channel(rng, 2, 3, 4)
        f = _random_channel(rng, 2, 4, 1)
        w = _random_channel(rng, 2, 3, 1)
        out = effective_channel(h, f, w)
        for n in range(2):
            np.testing.assert_allclose(
                out[n], w[n].conj().T @ h[n] @ f[n], atol=1e-10
            )
