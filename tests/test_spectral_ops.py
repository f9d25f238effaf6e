from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chirality_lab.field_core import (
    Grid2,
    complex_pair_to_quat,
    left_j,
    quat_to_complex_pair,
)
from chirality_lab.norms import l2_norm, pointwise_abs
from chirality_lab.spectral_ops import (
    SpectralPlan,
    random_band_limited,
    random_band_limited_complex,
)


@pytest.fixture(scope="module")
def plan():
    return SpectralPlan(Grid2(64))


def plane_wave(grid, m1, m2):
    k1 = 2 * np.pi * m1 / grid.length
    k2 = 2 * np.pi * m2 / grid.length
    return np.exp(1j * (k1 * grid.x1 + k2 * grid.x2)), k1, k2


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def test_round_trip_identity(plan):
    rng = np.random.default_rng(0)
    f = random_band_limited(plan, rng)
    back = np.fft.ifft2(np.fft.fft2(f)).real
    assert rel_err(back, f) < 1e-13


def test_plane_wave_symbols(plan):
    g = plan.grid
    for m1, m2 in [(1, 0), (3, -2), (-5, 7)]:
        w, k1, k2 = plane_wave(g, m1, m2)
        assert rel_err(plan.d_z(w), 0.5 * (1j * k1 + k2) * w) < 1e-12
        assert rel_err(plan.d_zbar(w), 0.5 * (1j * k1 - k2) * w) < 1e-12
        assert rel_err(plan.laplacian(w), -(k1**2 + k2**2) * w) < 1e-12


def test_constant_derivatives_vanish(plan):
    c = np.full((64, 64), 3.7)
    assert np.max(np.abs(plan.d_z(c))) < 1e-13
    assert np.max(np.abs(plan.dx(c))) < 1e-13


def test_dz_conjugation_symmetry(plan):
    rng = np.random.default_rng(1)
    f = random_band_limited(plan, rng)
    assert rel_err(plan.d_zbar(f), np.conj(plan.d_z(f))) < 1e-13


def test_dzbar_dz_is_quarter_laplacian(plan):
    rng = np.random.default_rng(2)
    f = random_band_limited_complex(plan, rng)
    lhs = plan.d_zbar(plan.d_z(f))
    rhs = 0.25 * plan.laplacian(f)
    assert rel_err(lhs, rhs) < 1e-12


def test_complex_d_left_equals_d_right_equals_d_z(plan):
    rng = np.random.default_rng(3)
    c = random_band_limited_complex(plan, rng)
    q = complex_pair_to_quat(c, np.zeros_like(c))
    dl1, dl2 = quat_to_complex_pair(plan.d_left(q))
    dr1, dr2 = quat_to_complex_pair(plan.d_right(q))
    dz = plan.d_z(c)
    assert rel_err(dl1, dz) < 1e-12
    assert np.max(np.abs(dl2)) < 1e-13
    assert rel_err(dr1, dz) < 1e-12
    assert np.max(np.abs(dr2)) < 1e-13


def test_d_left_of_constant_j_vanishes(plan):
    q = np.zeros((64, 64, 4))
    q[..., 2] = 1.0
    assert np.max(pointwise_abs(plan.d_left(q))) < 1e-14


def fd_derivative(f, axis, h):
    return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2 * h)


def test_j_block_shuffle_identities(plan):
    # d_left(c j) = (d_z c) j and d_left(j c) = j (d_zbar c); checked both
    # against the algebra and against a finite-difference oracle.
    rng = np.random.default_rng(4)
    c = (random_band_limited(plan, rng, kmax=3)
         + 1j * random_band_limited(plan, rng, kmax=3)) / np.sqrt(2.0)
    cj = complex_pair_to_quat(np.zeros_like(c), c)
    lhs = plan.d_left(cj)
    rhs = complex_pair_to_quat(np.zeros_like(c), plan.d_z(c))
    assert np.max(pointwise_abs(lhs - rhs)) < 1e-12 * np.max(pointwise_abs(rhs))

    jc = left_j(complex_pair_to_quat(c, np.zeros_like(c)))
    lhs2 = plan.d_left(jc)
    rhs2 = left_j(complex_pair_to_quat(plan.d_zbar(c), np.zeros_like(c)))
    assert np.max(pointwise_abs(lhs2 - rhs2)) < 1e-12 * np.max(pointwise_abs(rhs2))

    h = plan.grid.spacing
    fd = 0.5 * (fd_derivative(cj, 0, h) - np.stack(
        [-fd_derivative(cj, 1, h)[..., 1],
         fd_derivative(cj, 1, h)[..., 0],
         -fd_derivative(cj, 1, h)[..., 3],
         fd_derivative(cj, 1, h)[..., 2]], axis=-1))
    # second-order oracle at one interior point; tolerance at truncation level
    assert np.abs(fd[7, 9] - lhs[7, 9]).max() < 5e-2 * max(np.max(pointwise_abs(lhs)), 1e-12)


def test_grad_curl_div_identities(plan):
    rng = np.random.default_rng(5)
    f = random_band_limited(plan, rng)
    gx, gy = plan.grad(f)
    assert np.max(np.abs(plan.curl(gx, gy))) < 1e-13 * np.max(np.abs(gx))
    px, py = plan.grad_perp(f)
    assert np.max(np.abs(plan.div(px, py))) < 1e-13 * np.max(np.abs(px))
    assert rel_err(plan.div(gx, gy), plan.laplacian(f)) < 1e-13


def test_inv_laplacian(plan):
    rng = np.random.default_rng(6)
    h = random_band_limited(plan, rng)
    h -= h.mean()
    assert rel_err(plan.inv_laplacian(plan.laplacian(h)), h) < 1e-12
    assert np.max(np.abs(plan.inv_laplacian(np.full((64, 64), 4.2)))) < 1e-13
    w, k1, k2 = plane_wave(plan.grid, 2, 5)
    assert rel_err(plan.inv_laplacian(w), -w / (k1**2 + k2**2)) < 1e-12


def test_cauchy_solve_right_inverse(plan):
    rng = np.random.default_rng(7)
    assert np.max(np.abs(plan.cauchy_solve(np.zeros((64, 64))))) == 0.0
    w, k1, k2 = plane_wave(plan.grid, 1, -3)
    g = plan.d_zbar(w)
    assert rel_err(plan.cauchy_solve(g), w) < 1e-12
    g = random_band_limited_complex(plan, rng)
    h = plan.cauchy_solve(g)
    res = plan.d_zbar(h) - (g - g.mean())
    assert l2_norm(plan.grid, res) < 1e-12 * l2_norm(plan.grid, g)
    assert abs(h.mean()) < 1e-13


def test_inv_dzbar_sq(plan):
    rng = np.random.default_rng(8)
    w, k1, k2 = plane_wave(plan.grid, 4, 1)
    sym = 0.5 * (1j * k1 - k2)
    assert rel_err(plan.inv_dzbar_sq(w), w / sym**2) < 1e-12
    assert np.max(np.abs(plan.inv_dzbar_sq(np.zeros((64, 64))))) == 0.0
    g = random_band_limited_complex(plan, rng)
    t = plan.inv_dzbar_sq(g)
    res = plan.d_zbar(plan.d_zbar(t)) - (g - g.mean())
    assert l2_norm(plan.grid, res) < 1e-12 * l2_norm(plan.grid, g)


def test_hodge_decomposition(plan):
    rng = np.random.default_rng(9)
    g = plan.grid
    # pure gradient
    alpha0 = random_band_limited(plan, rng)
    a1, a2 = plan.grad(alpha0)
    alpha, beta, mean = plan.hodge_decompose(a1, a2)
    assert l2_norm(g, beta) < 1e-12 * l2_norm(g, alpha0)
    assert rel_err(alpha, alpha0 - alpha0.mean()) < 1e-11
    # pure rotated gradient
    beta0 = random_band_limited(plan, rng)
    b1, b2 = plan.grad_perp(beta0)
    alpha, beta, mean = plan.hodge_decompose(b1, b2)
    assert l2_norm(g, alpha) < 1e-12 * l2_norm(g, beta0)
    # random reconstruction + orthogonality
    a1 = random_band_limited(plan, rng) + 0.7
    a2 = random_band_limited(plan, rng) - 0.2
    alpha, beta, mean = plan.hodge_decompose(a1, a2)
    g1x, g1y = plan.grad(alpha)
    g2x, g2y = plan.grad_perp(beta)
    r1 = a1 - mean[0] - g1x - g2x
    r2 = a2 - mean[1] - g1y - g2y
    anorm = np.sqrt(l2_norm(g, a1) ** 2 + l2_norm(g, a2) ** 2)
    assert np.sqrt(l2_norm(g, r1) ** 2 + l2_norm(g, r2) ** 2) < 1e-12 * anorm
    inner = np.sum(g1x * g2x + g1y * g2y) * g.cell_measure
    assert abs(inner) < 1e-12 * anorm**2


def test_nyquist_policy_keeps_real_fields_real(plan):
    rng = np.random.default_rng(11)
    f = rng.standard_normal((64, 64))  # full spectrum incl. Nyquist
    assert np.isrealobj(plan.dx(f))
    h = plan.cauchy_solve(f)
    res = plan.d_zbar(h)
    # the round trip reproduces f with mean and Nyquist content removed
    F = np.fft.fft2(f)
    F[0, 0] = 0.0
    F[32, :] = 0.0
    F[:, 32] = 0.0
    target = np.fft.ifft2(F)
    assert l2_norm(plan.grid, res - target) < 1e-12 * l2_norm(plan.grid, f)


# -- half-spectrum path against a full-spectrum reference ------------------

half_spectrum_cases = given(
    n=st.integers(4, 32).map(lambda k: 2 * k),
    length=st.one_of(st.just(2.0 * np.pi), st.floats(0.5, 50.0)),
    trailing=st.sampled_from([(), (4,), (2, 2)]),
    seed=st.integers(0, 2**32 - 1),
)


def reference_symbols(n, length):
    """Derivative and inverse-Laplacian symbols built apart from the plan: odd
    symbols drop the Nyquist row/column, the inverse drops the zero mode."""
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    d1 = 1j * k1
    d1[n // 2, :] = 0.0
    d2 = 1j * k2
    d2[:, n // 2] = 0.0
    k2abs = k1**2 + k2**2
    inv = np.zeros((n, n))
    inv[k2abs > 0] = -1.0 / k2abs[k2abs > 0]
    kmax = np.pi * n / length
    keep = ((np.abs(k1) < 2 / 3 * kmax) & (np.abs(k2) < 2 / 3 * kmax)).astype(float)
    return {"d1": d1, "d2": d2, "lap": -k2abs, "inv": inv, "keep": keep}


def full_spectrum(terms):
    """Real part of ifft2(sum sym * fft2(f)) over the grid axes."""
    total = 0.0
    for sym, f in terms:
        sym = sym.reshape(sym.shape + (1,) * (f.ndim - 2))
        total = total + sym * np.fft.fft2(f, axes=(0, 1))
    return np.fft.ifft2(total, axes=(0, 1)).real


def assert_matches(out, ref):
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@half_spectrum_cases
def test_real_operators_match_full_spectrum(n, length, trailing, seed):
    plan = SpectralPlan(Grid2(n, length=length))
    s = reference_symbols(n, length)
    rng = np.random.default_rng(seed)
    # white noise carries every mode, Nyquist row and column included
    f, a1, a2 = (rng.standard_normal((n, n) + trailing) for _ in range(3))
    assert_matches(plan.dx(f), full_spectrum([(s["d1"], f)]))
    assert_matches(plan.dy(f), full_spectrum([(s["d2"], f)]))
    gx, gy = plan.grad(f)
    assert_matches(gx, full_spectrum([(s["d1"], f)]))
    assert_matches(gy, full_spectrum([(s["d2"], f)]))
    assert_matches(plan.div(a1, a2), full_spectrum([(s["d1"], a1), (s["d2"], a2)]))
    assert_matches(plan.curl(a1, a2), full_spectrum([(s["d1"], a2), (-s["d2"], a1)]))
    assert_matches(plan.laplacian(f), full_spectrum([(s["lap"], f)]))
    assert_matches(plan.inv_laplacian(f), full_spectrum([(s["inv"], f)]))
    alpha, beta, _ = plan.hodge_decompose(a1, a2)
    assert_matches(
        alpha, full_spectrum([(s["inv"] * s["d1"], a1), (s["inv"] * s["d2"], a2)])
    )
    assert_matches(
        beta, full_spectrum([(s["inv"] * s["d1"], a2), (-s["inv"] * s["d2"], a1)])
    )


@half_spectrum_cases
def test_value_level_is_the_per_table_composition_bit_for_bit(n, length, trailing, seed):
    # the operators transform their inputs stacked on a leading axis, one
    # batched call each way; pocketfft transforms each line on its own, so
    # every output is numpy's per-table transform over the grid axes with
    # the symbols applied in this order, to the last bit
    plan = SpectralPlan(Grid2(n, length=length))
    rng = np.random.default_rng(seed)
    shape = (n, n) + trailing
    for real in (True, False):
        f, a1, a2 = (
            rng.standard_normal(shape)
            + (0.0 if real else 1j * rng.standard_normal(shape))
            for _ in range(3)
        )
        if real:
            fwd = partial(np.fft.rfft2, axes=(0, 1))
            back = partial(np.fft.irfft2, s=(n, n), axes=(0, 1))
        else:
            fwd = partial(np.fft.fft2, axes=(0, 1))
            back = partial(np.fft.ifft2, axes=(0, 1))
        F, F1, F2 = fwd(f), fwd(a1), fwd(a2)
        sym = plan.multipliers(F)
        gx, gy = plan.grad(f)
        alpha, beta, _ = plan.hodge_decompose(a1, a2)
        pairs = [
            (gx, back(sym.d1 * F)),
            (gy, back(F * sym.d2)),
            (plan.div(a1, a2), back(F1 * sym.d1 + F2 * sym.d2)),
            (plan.curl(a1, a2), back(F2 * sym.d1 - F1 * sym.d2)),
            (plan.laplacian(f), back(F * sym.lap)),
            (plan.inv_laplacian(f), back(F * sym.inv_lap)),
            (alpha, back(sym.inv_lap * (sym.d1 * F1 + sym.d2 * F2))),
            (beta, back(sym.inv_lap * (sym.d1 * F2 - sym.d2 * F1))),
        ]
        # the complex symbols act on the full spectrum of the complex table
        Fc = np.fft.fft2(np.asarray(f, dtype=complex), axes=(0, 1))
        csym = plan.multipliers(Fc)
        pairs += [
            (plan.d_z(f), np.fft.ifft2(Fc * csym.dz, axes=(0, 1))),
            (plan.d_zbar(f), np.fft.ifft2(Fc * csym.dzbar, axes=(0, 1))),
            (plan.cauchy_solve(f), np.fft.ifft2(Fc * csym.inv_dzbar, axes=(0, 1))),
        ]
        for out, ref in pairs:
            assert out.dtype == ref.dtype and out.shape == ref.shape
            assert np.array_equal(out, ref)


@half_spectrum_cases
def test_spectrum_level_matches_the_operators(n, length, trailing, seed):
    # complex tables stacked on a leading axis take one transform each way;
    # the multipliers applied between them are the operators' symbols
    plan = SpectralPlan(Grid2(n, length=length))
    s = reference_symbols(n, length)
    rng = np.random.default_rng(seed)
    f, g = (
        rng.standard_normal((n, n) + trailing)
        + 1j * rng.standard_normal((n, n) + trailing)
        for _ in range(2)
    )
    w = np.stack((f, g))
    # forward transforms in place and returns its input
    w_hat = plan.forward(w)
    assert w_hat is w
    for part, table in zip(w_hat, (f, g)):
        assert np.array_equal(part, np.fft.fft2(table, axes=(0, 1)))
    sym = plan.multipliers(w_hat[0])
    assert np.array_equal(np.squeeze(sym.keep), s["keep"] > 0)
    # shaped once per (columns, rank): another spectrum of the same shape
    # gets the same object, and a real table's half spectrum the first
    # n//2 + 1 columns of every full symbol
    assert plan.multipliers(w_hat[1]) is sym
    assert not any(table.flags.writeable for table in sym)
    half = plan.multipliers(plan.spectrum(f.real))
    for cut, full in zip(half, sym):
        assert cut.shape == (n, n // 2 + 1) + (1,) * len(trailing)
        assert np.array_equal(cut, full[:, : n // 2 + 1])
    cases = [
        (sym.d1 * w_hat, (plan.dx(f), plan.dx(g))),
        (sym.d2 * w_hat, (plan.dy(f), plan.dy(g))),
        (sym.inv_lap * w_hat, (plan.inv_laplacian(f), plan.inv_laplacian(g))),
        (sym.inv_dzbar * w_hat, (plan.cauchy_solve(f), plan.cauchy_solve(g))),
        (w_hat.copy(), (f, g)),
    ]
    for spectra, refs in cases:
        out = plan.inverse(spectra, out=spectra)
        assert out is spectra
        for part, ref in zip(out, refs):
            assert np.max(np.abs(part - ref)) <= 1e-13 * np.max(np.abs(ref))
    # one table's spectrum: the half spectrum of a real table
    assert np.array_equal(plan.spectrum(f.real), np.fft.rfft2(f.real, axes=(0, 1)))
    assert np.array_equal(plan.spectrum(f), np.fft.fft2(f, axes=(0, 1)))


@half_spectrum_cases
def test_shared_transforms_equal_separate_derivatives(n, length, trailing, seed):
    plan = SpectralPlan(Grid2(n, length=length))
    rng = np.random.default_rng(seed)
    f, a1, a2 = (rng.standard_normal((n, n) + trailing) for _ in range(3))
    gx, gy = plan.grad(f)
    assert np.array_equal(gx, plan.dx(f)) and np.array_equal(gy, plan.dy(f))
    assert rel_err(plan.div(a1, a2), plan.dx(a1) + plan.dy(a2)) < 1e-13
    assert rel_err(plan.curl(a1, a2), plan.dx(a2) - plan.dy(a1)) < 1e-13
    # complex tables keep the full spectrum and act on both parts
    c = a1 + 1j * a2
    assert np.iscomplexobj(plan.dx(c))
    assert rel_err(plan.dx(c), plan.dx(a1) + 1j * plan.dx(a2)) < 1e-13
    assert rel_err(plan.div(c, f), plan.div(a1, f) + 1j * plan.dx(a2)) < 1e-13


# -- round trips on random band-limited tables -----------------------------

band_limited_cases = given(
    n=st.integers(4, 32).map(lambda k: 2 * k),
    length=st.one_of(st.just(2.0 * np.pi), st.floats(0.5, 50.0)),
    band=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)


def band_limited_inputs(n, length, band, seed, count):
    """count real tables with modes up to max|k index| <= kmax below the
    Nyquist index, and a nonzero mean."""
    plan = SpectralPlan(Grid2(n, length=length))
    kmax = 1 + int(band * (n // 2 - 2))
    rng = np.random.default_rng(seed)
    tables = [
        random_band_limited(plan, rng, kmax=kmax) + rng.standard_normal()
        for _ in range(count)
    ]
    return plan, tables


@band_limited_cases
def test_hodge_parts_sum_back_and_are_orthogonal(n, length, band, seed):
    plan, (a1, a2) = band_limited_inputs(n, length, band, seed, 2)
    grid = plan.grid
    alpha, beta, mean = plan.hodge_decompose(a1, a2)
    g1, g2 = plan.grad(alpha)
    p1, p2 = plan.grad_perp(beta)
    size = l2_norm(grid, a1, a2)
    assert l2_norm(grid, a1 - g1 - p1 - mean[0], a2 - g2 - p2 - mean[1]) <= 1e-12 * size
    inner = np.sum(g1 * p1 + g2 * p2) * grid.cell_measure
    assert abs(inner) <= 1e-12 * size**2


@band_limited_cases
def test_cauchy_solve_is_a_right_inverse_of_d_zbar(n, length, band, seed):
    plan, (re, im) = band_limited_inputs(n, length, band, seed, 2)
    g = re + 1j * im
    res = plan.d_zbar(plan.cauchy_solve(g)) - (g - g.mean())
    assert l2_norm(plan.grid, res) <= 1e-12 * l2_norm(plan.grid, g)


@band_limited_cases
def test_inv_laplacian_is_a_right_inverse_of_laplacian(n, length, band, seed):
    plan, (f,) = band_limited_inputs(n, length, band, seed, 1)
    res = plan.laplacian(plan.inv_laplacian(f)) - (f - f.mean())
    assert l2_norm(plan.grid, res) <= 1e-12 * l2_norm(plan.grid, f)
