import numpy as np
import pytest
from hypothesis import given, strategies as st

from chirality_lab.field_core import Grid2
from chirality_lab.norms import (
    Ball,
    l2_norm,
    linf_norm,
    lorentz_l21,
    lorentz_weak_l2,
    lp_norm,
    _region_values,
    morrey_profile,
    pointwise_abs,
    sobolev_neg_1_2,
    spectral_neg_1_2,
)
from chirality_lab.spectral_ops import SpectralPlan, random_band_limited


@pytest.fixture(scope="module")
def grid():
    return Grid2(128)


@pytest.fixture(scope="module")
def plan(grid):
    return SpectralPlan(grid)


def ball_indicator(grid, radius, center=None):
    cx, cy = center if center is not None else (grid.length / 2, grid.length / 2)
    d1 = np.abs(grid.x1 - cx)
    d1 = np.minimum(d1, grid.length - d1)
    d2 = np.abs(grid.x2 - cy)
    d2 = np.minimum(d2, grid.length - d2)
    return (d1**2 + d2**2 <= radius**2).astype(float)


def test_lp_basics(grid):
    c = np.full((grid.n, grid.n), -1.5)
    for p in (1.0, 2.0, 3.5):
        assert lp_norm(grid, c, p) == pytest.approx(1.5 * grid.area ** (1 / p), rel=1e-13)
    assert lp_norm(grid, np.zeros((grid.n, grid.n)), 2) == 0.0
    with pytest.raises(ValueError):
        lp_norm(grid, c, 0.5)


def test_indicator_l2_matches_area(grid):
    R = 1.0
    ind = ball_indicator(grid, R)
    # pixelized area vs analytic area, one cell-layer tolerance
    assert lp_norm(grid, ind, 2) == pytest.approx(
        np.sqrt(np.pi) * R, rel=3 * grid.spacing / R
    )


def test_lorentz_indicator(grid):
    R = 1.0
    ind = ball_indicator(grid, R)
    target = np.sqrt(np.pi) * R
    assert lorentz_weak_l2(grid, ind) == pytest.approx(target, rel=0.05)
    assert lorentz_l21(grid, ind) == pytest.approx(target, rel=0.05)
    assert lorentz_weak_l2(grid, np.zeros((grid.n, grid.n))) == 0.0
    assert lorentz_l21(grid, np.zeros((grid.n, grid.n))) == 0.0


def half_cell_distance(g):
    """Torus distance of every sample from the half-cell point (h/2, h/2),
    which no sample hits, and that point."""
    c = 0.5 * g.spacing
    d1 = np.abs(g.x1 - c)
    d2 = np.abs(g.x2 - c)
    d1 = np.minimum(d1, g.length - d1)
    d2 = np.minimum(d2, g.length - d2)
    return np.sqrt(d1**2 + d2**2), (c, c)


def test_weak_l2_of_reciprocal_distance():
    # |1/z| on B(0,1) minus a small hole has weak-L2 norm sqrt(pi)
    values = []
    for n in (128, 256):
        g = Grid2(n)
        r, center = half_cell_distance(g)
        f = np.where(r >= 0.02, 1.0 / np.maximum(r, 1e-9), 0.0)
        values.append(lorentz_weak_l2(g, f, Ball(center, 1.0)))
    assert values[-1] == pytest.approx(np.sqrt(np.pi), rel=0.08)
    # refinement moves the estimate toward the analytic value
    assert abs(values[1] - np.sqrt(np.pi)) <= abs(values[0] - np.sqrt(np.pi)) + 0.02


def test_lorentz_scaling_and_ordering(grid):
    rng = np.random.default_rng(0)
    f = rng.standard_normal((grid.n, grid.n))
    c = -3.2
    assert lorentz_weak_l2(grid, c * f) == pytest.approx(
        abs(c) * lorentz_weak_l2(grid, f), rel=1e-14
    )
    assert lorentz_l21(grid, c * f) == pytest.approx(
        abs(c) * lorentz_l21(grid, f), rel=1e-14
    )
    for seed in range(5):
        f = np.random.default_rng(seed).standard_normal((grid.n, grid.n))
        weak = lorentz_weak_l2(grid, f)
        strong = lorentz_l21(grid, f)
        assert weak <= strong
        # L^{2,1} is controlled by a slightly stronger Lebesgue norm
        assert strong <= 40.0 * lp_norm(grid, f, 2.5)


def test_duality_pairing(grid):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        f = rng.standard_normal((grid.n, grid.n))
        h = rng.standard_normal((grid.n, grid.n))
        pairing = abs(np.sum(f * h) * grid.cell_measure)
        bound = lorentz_weak_l2(grid, f) * lorentz_l21(grid, h)
        worst = max(worst, pairing / bound)
    assert worst <= 4.0


def test_ball_restricted_monotone(grid):
    rng = np.random.default_rng(2)
    f = rng.standard_normal((grid.n, grid.n))
    center = (2.0, 3.0)
    radii = [0.5, 1.0, 1.5, 2.0]
    vals = [lorentz_weak_l2(grid, f, Ball(center, r)) for r in radii]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        lorentz_weak_l2(grid, f, Ball(center, grid.length))


# a centre coordinate as a fraction of L: anywhere, or within 1e-4 L of
# either side of 0, where the ball wraps around the torus
CENTRE_FRACTION = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 1e-4),
    st.floats(1.0 - 1e-4, 1.0, exclude_max=True),
)


@given(
    n=st.sampled_from([8, 16, 64]),
    trailing=st.sampled_from([(), (3,)]),
    centre=st.tuples(CENTRE_FRACTION, CENTRE_FRACTION),
    radius=st.one_of(st.floats(0.0, 1.0), st.just(1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_ball_norms_are_those_of_the_full_grid_mask(n, trailing, centre, radius, seed):
    # a ball is read on its bounding window; its values, in row-major order,
    # and so every ball norm, are bit for bit those of the full-grid mask.
    # radius is a fraction of the cap L/2 - h
    grid = Grid2(n)
    f = np.random.default_rng(seed).standard_normal((n, n) + trailing)
    ball = Ball(
        tuple(c * grid.length for c in centre),
        radius * (grid.length / 2 - grid.spacing),
    )
    vals = pointwise_abs(f)[ball_indicator(grid, ball.radius, ball.center) > 0]
    assert np.array_equal(_region_values(grid, f, ball), vals)
    for p in (1, 2):
        brute = (np.sum(vals**p) * grid.cell_measure) ** (1.0 / p)
        assert lp_norm(grid, f, p, ball) == brute
    star = np.sort(vals)[::-1]
    k = np.arange(1, star.size + 1)
    weak = np.max(star * np.sqrt(k * grid.cell_measure)) if star.size else 0.0
    l21 = np.sum(star * (np.sqrt(k) - np.sqrt(k - 1))) * np.sqrt(grid.cell_measure)
    assert lorentz_weak_l2(grid, f, ball) == (weak if star.size and star[0] else 0.0)
    assert lorentz_l21(grid, f, ball) == l21


def test_sobolev_neg(plan, grid):
    rng = np.random.default_rng(3)
    h = random_band_limited(plan, rng)
    h -= h.mean()
    f = plan.laplacian(h)
    gx, gy = plan.grad(h)
    grad_l2 = np.sqrt(l2_norm(grid, gx) ** 2 + l2_norm(grid, gy) ** 2)
    assert sobolev_neg_1_2(plan, f) == pytest.approx(grad_l2, rel=1e-12)
    assert sobolev_neg_1_2(plan, np.zeros((grid.n, grid.n))) == 0.0
    a1 = random_band_limited(plan, rng)
    a2 = random_band_limited(plan, rng)
    d = plan.div(a1, a2)
    a_l2 = np.sqrt(l2_norm(grid, a1) ** 2 + l2_norm(grid, a2) ** 2)
    assert sobolev_neg_1_2(plan, d) <= a_l2 * (1 + 1e-12)
    with pytest.raises(ValueError):
        sobolev_neg_1_2(plan, h + 1.0)


@given(
    n=st.integers(4, 24).map(lambda k: 2 * k),
    trailing=st.sampled_from([(), (3,), (2, 2)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_half_and_full_spectrum_give_one_negative_sobolev_norm(n, trailing, seed):
    # the half spectrum counts its interior columns twice: a real table has
    # the H^-1 norm of the same table held as complex, and a complex table
    # that of its real and imaginary parts together
    plan_n = SpectralPlan(Grid2(n))
    rng = np.random.default_rng(seed)
    re, im = (rng.standard_normal((n, n) + trailing) for _ in range(2))
    re, im = re - re.mean(axis=(0, 1)), im - im.mean(axis=(0, 1))
    half = spectral_neg_1_2(plan_n, plan_n.spectrum(re))
    assert half == pytest.approx(sobolev_neg_1_2(plan_n, re + 0j), rel=1e-12)
    assert sobolev_neg_1_2(plan_n, re + 1j * im) == pytest.approx(
        np.hypot(half, sobolev_neg_1_2(plan_n, im)), rel=1e-12
    )


def test_parseval_agreement(plan, grid):
    rng = np.random.default_rng(4)
    f = rng.standard_normal((grid.n, grid.n))
    c = plan.fourier_coefficients(f)
    parseval = np.sqrt(np.sum(np.abs(c) ** 2) * grid.area)
    assert lp_norm(grid, f, 2) == pytest.approx(parseval, rel=1e-12)


def test_morrey_profile_constant(grid):
    f = np.ones((grid.n, grid.n))
    center = (grid.length / 2, grid.length / 2)
    radii = [0.4, 0.6, 0.9, 1.35, 2.0]
    fit = morrey_profile(grid, f, center, radii)
    assert not fit.degenerate
    assert fit.alpha == pytest.approx(1.0, abs=0.05)
    for r, v in zip(fit.radii, fit.values):
        assert v == pytest.approx(np.sqrt(np.pi) * r, rel=0.05)


def radial_weak_l2_oracle(s, r):
    # continuum rearrangement of |z|^s on B(0, r) evaluated on a fine 1d grid
    t = np.linspace(1e-4, 1.0, 20001)
    return np.sqrt(np.pi) * r ** (s + 1) * np.max(t**s * np.sqrt(1 - t**2))


def test_morrey_profile_power(grid):
    s = 0.5
    dist, center = half_cell_distance(grid)
    f = dist**s
    radii = [0.4, 0.6, 0.9, 1.35, 2.0]
    fit = morrey_profile(grid, f, center, radii)
    assert fit.alpha == pytest.approx(s + 1.0, abs=0.08)
    for r, v in zip(fit.radii, fit.values):
        assert v == pytest.approx(radial_weak_l2_oracle(s, r), rel=0.08)


def test_morrey_profile_degenerate(grid):
    fit = morrey_profile(grid, np.zeros((grid.n, grid.n)), (1.0, 1.0), [0.3, 0.5, 0.8, 1.2])
    assert fit.degenerate
    assert np.isnan(fit.alpha)
    with pytest.raises(ValueError):
        morrey_profile(grid, np.ones((grid.n, grid.n)), (1.0, 1.0), [0.3, 0.5])


def test_linf(grid):
    f = np.zeros((grid.n, grid.n))
    f[3, 4] = -7.0
    assert linf_norm(grid, f) == 7.0


@given(
    n=st.integers(4, 16).map(lambda k: 2 * k),
    tables=st.lists(
        st.tuples(st.sampled_from([(), (4,), (2, 2)]), st.booleans()),
        min_size=1, max_size=3,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_group_norms_are_norms_of_the_concatenated_table(n, tables, seed):
    grid = Grid2(n, length=3.0)
    rng = np.random.default_rng(seed)
    fs = []
    for trailing, is_complex in tables:
        f = rng.standard_normal((n, n) + trailing)
        if is_complex:
            f = f + 1j * rng.standard_normal(f.shape)
        fs.append(f)
    joined = np.concatenate([f.reshape(n, n, -1) for f in fs], axis=-1)
    mag, ref = pointwise_abs(*fs), pointwise_abs(joined)
    assert mag.shape == (n, n)
    assert np.all(np.abs(mag - ref) <= 1e-14 * ref)
    norm, ref = l2_norm(grid, *fs), l2_norm(grid, joined)
    assert abs(norm - ref) <= 1e-14 * ref
    for f in fs:
        assert l2_norm(grid, f) == lp_norm(grid, f, 2)
