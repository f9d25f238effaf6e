import numpy as np
import pytest

from chirality_lab.compensation import (
    BUMP_WIDTH_CELLS,
    PreconditionError,
    SplitGradientData,
    bb_reconstruct,
    jacobian_vs_concentrated,
    jacobian_vs_shuffled,
    real_from_imag_bound,
    split_from_vector_potential,
    wente_solve,
)
from chirality_lab.field_core import Grid2
from chirality_lab.norms import (
    l2_norm,
    linf_norm,
    lorentz_l21,
    lp_norm,
    pointwise_abs,
    sobolev_neg_1_2,
)
from chirality_lab.spectral_ops import (
    SpectralPlan,
    random_band_limited,
    random_band_limited_complex,
)


@pytest.fixture(scope="module")
def plan():
    return SpectralPlan(Grid2(128))


def gradient_data(plan, u0):
    """Potentials a^k_j = delta_kj u0 so that f = grad u0, g = 0."""
    z = np.zeros_like(u0)
    a = np.array([[u0, z], [z, u0]])
    return SplitGradientData(plan.grid, a, np.array([z, z]))


def l1_data(plan, u0):
    z = np.zeros_like(u0)
    a = np.array([[z, z], [z, z]])
    return SplitGradientData(plan.grid, a, np.array(plan.grad(u0)))


def mixed_split(plan, u0, rng):
    """Random smooth 50/50-ish split of grad u0 between f and g."""
    m = 0.5 + 0.2 * random_band_limited(plan, rng, kmax=4, rms=1.0)
    ux, uy = plan.grad(u0)
    f1 = (1 - m) * ux
    f2 = (1 - m) * uy
    a = np.array(
        [
            [plan.inv_laplacian(plan.dx(f1)), plan.inv_laplacian(plan.dx(f2))],
            [plan.inv_laplacian(plan.dy(f1)), plan.inv_laplacian(plan.dy(f2))],
        ]
    )
    # potentials reproduce f up to its mean; push the mean into g
    g1 = ux - (f1 - f1.mean())
    g2 = uy - (f2 - f2.mean())
    return SplitGradientData(plan.grid, a, np.array([g1, g2]))


def gradient_residual(plan, data, u):
    """L2 distance of grad u from the data f + g, g's mean dropped."""
    f1, f2 = data.f(plan)
    ux, uy = plan.grad(u)
    g1, g2 = (g - g.mean() for g in data.g)
    return l2_norm(plan.grid, ux - f1 - g1, uy - f2 - g2)


def imag_mismatch(plan, data):
    """The co-exact parts of the potentials against the imaginary part of
    the Cauchy solve of g/2: they cancel when f + g is a gradient."""
    w2 = sum(
        (plan.dx if k == 0 else plan.dy)(plan.hodge_decompose(*data.a[k])[1])
        for k in range(2)
    )
    v = plan.cauchy_solve(0.5 * (data.g[0] + 1j * data.g[1]))
    m = w2 + v.imag
    return l2_norm(plan.grid, m - m.mean())


def test_bb_exact_recovery_pure_f(plan):
    rng = np.random.default_rng(0)
    u0 = random_band_limited(plan, rng)
    u0 -= u0.mean()
    data = gradient_data(plan, u0)
    u, _ = bb_reconstruct(plan, data)
    assert l2_norm(plan.grid, u - u0) < 1e-10 * l2_norm(plan.grid, u0)
    assert gradient_residual(plan, data, u) < 1e-10 * l2_norm(plan.grid, u0)


def test_bb_exact_recovery_pure_g(plan):
    rng = np.random.default_rng(1)
    u0 = random_band_limited(plan, rng)
    u0 -= u0.mean()
    u, diag = bb_reconstruct(plan, l1_data(plan, u0))
    assert l2_norm(plan.grid, u - u0) < 1e-10 * l2_norm(plan.grid, u0)
    assert diag.f_neg_sobolev < 1e-10


def test_bb_split_independence(plan):
    rng = np.random.default_rng(2)
    u0 = random_band_limited(plan, rng)
    u0 -= u0.mean()
    recs = []
    for seed in (3, 4, 5):
        data = mixed_split(plan, u0, np.random.default_rng(seed))
        u, _ = bb_reconstruct(plan, data)
        assert l2_norm(plan.grid, u - u0) < 1e-9 * l2_norm(plan.grid, u0)
        assert imag_mismatch(plan, data) < 1e-9 * l2_norm(plan.grid, u0)
        recs.append(u)
    assert l2_norm(plan.grid, recs[0] - recs[1]) < 1e-9 * l2_norm(plan.grid, u0)


def test_bb_ratio_stable_over_trials(plan):
    rng = np.random.default_rng(6)
    u0 = random_band_limited(plan, rng)
    u0 -= u0.mean()
    ratios = []
    for seed in range(40):
        data = mixed_split(plan, u0, np.random.default_rng(100 + seed))
        _, diag = bb_reconstruct(plan, data)
        assert np.isfinite(diag.ratio)
        ratios.append(diag.ratio)
    ratios = np.asarray(ratios)
    assert (ratios.max() - ratios.min()) / ratios.mean() < 0.25


def test_bb_rotated_gradient_constant_one(plan):
    # data grad u = grad_perp v + g: the v coefficient in the L2 bound is 1
    rng = np.random.default_rng(7)
    slack = []
    c_pure = 0.0
    for seed in range(20):
        r = np.random.default_rng(200 + seed)
        phi = random_band_limited(plan, r, rms=1.0)
        psi = random_band_limited(plan, r, rms=0.3)
        gx = -plan.dy(phi) + plan.dx(psi)
        gy = plan.dx(phi) + plan.dy(psi)
        v = -phi + phi.mean()
        u_true = psi - psi.mean()
        data = split_from_vector_potential(plan.grid, v - v.mean(), np.array([gx, gy]))
        u, diag = bb_reconstruct(plan, data)
        assert l2_norm(plan.grid, u - u_true) < 1e-9 * max(l2_norm(plan.grid, u_true), 1e-9)
        c_pure = max(c_pure, (l2_norm(plan.grid, u) / max(diag.g_l1, 1e-300)) ** 2)
    for seed in range(20):
        r = np.random.default_rng(400 + seed)
        phi = random_band_limited(plan, r, rms=1.0)
        psi = random_band_limited(plan, r, rms=0.3)
        gx = -plan.dy(phi) + plan.dx(psi)
        gy = plan.dx(phi) + plan.dy(psi)
        v = -phi + phi.mean()
        data = split_from_vector_potential(plan.grid, v, np.array([gx, gy]))
        u, diag = bb_reconstruct(plan, data)
        bound = l2_norm(plan.grid, v) ** 2 + c_pure * diag.g_l1**2
        slack.append(l2_norm(plan.grid, u) ** 2 / bound)
    assert max(slack) < 1.05


def test_real_from_imag_identity_random(plan):
    rng = np.random.default_rng(8)
    h = random_band_limited_complex(plan, rng)
    h -= h.mean()
    g = plan.d_zbar(h)
    diag = real_from_imag_bound(plan, h, g)
    scale = diag.re_sq + diag.im_sq + diag.g_l1 * diag.t_linf
    assert diag.identity_residual < 1e-8 * scale


def test_real_from_imag_constant(plan):
    h = np.full((128, 128), 2.0, dtype=complex)
    diag = real_from_imag_bound(plan, h, np.zeros((128, 128)))
    assert diag.identity_lhs == pytest.approx(0.0, abs=1e-12)
    assert diag.identity_rhs == pytest.approx(0.0, abs=1e-12)
    # Re(h^2) = |Re h|^2 - |Im h|^2 for the full field, trivially consistent
    full = np.real(np.sum(h * h)) * plan.grid.cell_measure
    assert full == pytest.approx(
        l2_norm(plan.grid, h.real) ** 2 - l2_norm(plan.grid, h.imag) ** 2, rel=1e-13
    )


def test_real_from_imag_precondition(plan):
    rng = np.random.default_rng(9)
    h = random_band_limited_complex(plan, rng)
    with pytest.raises(PreconditionError):
        real_from_imag_bound(plan, h, np.ones((128, 128), dtype=complex))


def test_real_from_imag_t_bounded_by_g_l1(plan):
    rng = np.random.default_rng(10)
    cs = []
    for seed in range(20):
        r = np.random.default_rng(500 + seed)
        h = random_band_limited_complex(plan, r)
        h -= h.mean()
        g = plan.d_zbar(h)
        diag = real_from_imag_bound(plan, h, g)
        cs.append(diag.t_linf / diag.g_l1)
    cs = np.asarray(cs)
    assert cs.max() < 10 * cs.min()  # stable across trials


def test_real_from_imag_refinement_stable():
    # same continuum field sampled at two resolutions
    def sample(n, seed):
        plan = SpectralPlan(Grid2(n))
        r = np.random.default_rng(seed)
        # fixed low modes so both grids resolve the same function
        g = plan.grid
        h = np.zeros((n, n), dtype=complex)
        for _ in range(6):
            m1, m2 = r.integers(-5, 6, size=2)
            c = r.standard_normal() + 1j * r.standard_normal()
            h += c * np.exp(1j * 2 * np.pi * (m1 * g.x1 + m2 * g.x2) / g.length)
        h -= h.mean()
        gg = plan.d_zbar(h)
        return real_from_imag_bound(plan, h, gg)

    for seed in (11, 12, 13):
        d1 = sample(128, seed)
        d2 = sample(256, seed)
        c1 = d1.re_sq / max(d1.im_sq + d1.g_l1**2, 1e-300)
        c2 = d2.re_sq / max(d2.im_sq + d2.g_l1**2, 1e-300)
        assert abs(c1 - c2) <= 0.1 * max(c1, c2)


def test_wente_zero_jacobian(plan):
    rng = np.random.default_rng(14)
    a = random_band_limited(plan, rng)
    phi, diag = wente_solve(plan, a, a)
    assert linf_norm(plan.grid, phi) < 1e-12 * max(diag.grad_a_l2**2, 1.0)


def test_wente_two_mode_closed_form(plan):
    g = plan.grid
    kappa = 2 * np.pi / g.length
    a = np.sin(kappa * g.x1)
    b = np.sin(kappa * g.x2)
    phi, diag = wente_solve(plan, a, b)
    expected = -0.5 * np.cos(kappa * g.x1) * np.cos(kappa * g.x2)
    assert linf_norm(g, phi - expected) < 1e-12


def test_wente_ratio_stable_under_refinement():
    ratios = []
    for n in (64, 128, 256):
        plan = SpectralPlan(Grid2(n))
        g = plan.grid
        r = np.random.default_rng(15)
        a = np.zeros((n, n))
        b = np.zeros((n, n))
        for _ in range(8):
            m1, m2 = r.integers(-6, 7, size=2)
            a += r.standard_normal() * np.cos(
                2 * np.pi * (m1 * g.x1 + m2 * g.x2) / g.length + r.random()
            )
            m1, m2 = r.integers(-6, 7, size=2)
            b += r.standard_normal() * np.cos(
                2 * np.pi * (m1 * g.x1 + m2 * g.x2) / g.length + r.random()
            )
        _, diag = wente_solve(plan, a, b)
        ratios.append(diag.ratio_linf)
    base = ratios[-1]
    assert all(abs(r - base) <= 0.1 * base for r in ratios)


def test_jacobian_vs_shuffled_runs(plan):
    # The same-spectrum shuffle pins ||grad phi||_2 of both sides, so only
    # kurtosis-level differences remain; no win-rate is asserted here.
    rng = np.random.default_rng(16)
    a = random_band_limited(plan, rng)
    b = random_band_limited(plan, rng)
    jac_norm, shuf_norm = jacobian_vs_shuffled(plan, a, b, rng)
    assert np.isfinite(jac_norm) and jac_norm > 0
    assert np.isfinite(shuf_norm) and shuf_norm > 0


def test_jacobian_beats_concentrated_mass(plan):
    rng = np.random.default_rng(17)
    wins = 0
    trials = 40
    for _ in range(trials):
        a = random_band_limited(plan, rng)
        b = random_band_limited(plan, rng)
        jac_norm, conc_norm = jacobian_vs_concentrated(plan, a, b, rng)
        wins += jac_norm < conc_norm
    assert wins >= 0.95 * trials


def value_level_bb(plan, data):
    """bb_reconstruct composed from value-level operators: u, ||f||_{H^-1}."""
    w1 = sum(
        (plan.dx if k == 0 else plan.dy)(plan.hodge_decompose(*data.a[k])[0])
        for k in range(2)
    )
    u = w1 + plan.cauchy_solve(0.5 * (data.g[0] + 1j * data.g[1])).real
    u -= u.mean()
    f1, f2 = data.f(plan)
    f_sob = np.hypot(
        sobolev_neg_1_2(plan, f1 - f1.mean()), sobolev_neg_1_2(plan, f2 - f2.mean())
    )
    return u, f_sob


def value_level_jacobian_vs_concentrated(plan, a, b, rng):
    """jacobian_vs_concentrated composed from value-level operators, with
    the same draw of the bump's centre."""
    grid = plan.grid
    ax, ay = plan.grad(a)
    bx, by = plan.grad(b)
    jac = ax * by - ay * bx
    center = rng.random(2) * grid.length
    dist_sq = 0.0
    for x, c in ((grid.x1, center[0]), (grid.x2, center[1])):
        d = np.abs(x - c)
        dist_sq = dist_sq + np.minimum(d, grid.length - d) ** 2
    bump = np.exp(-dist_sq / (2 * (BUMP_WIDTH_CELLS * grid.spacing) ** 2))
    bump -= bump.mean()
    bump *= lp_norm(grid, jac, 1) / lp_norm(grid, bump, 1)
    norms = []
    for rhs in (jac, bump):
        phi = plan.inv_laplacian(-rhs)
        norms.append(lorentz_l21(grid, pointwise_abs(*plan.grad(phi))))
    return norms


def test_spectral_estimators_match_their_value_level_composition(plan):
    # bb_reconstruct and the Jacobian comparison run on spectra; the
    # value-level operators give the same numbers to rounding
    rng = np.random.default_rng(18)
    u0 = random_band_limited(plan, rng)
    for seed in (19, 20):
        data = mixed_split(plan, u0, np.random.default_rng(seed))
        u, diag = bb_reconstruct(plan, data)
        u_ref, f_sob_ref = value_level_bb(plan, data)
        assert l2_norm(plan.grid, u - u_ref) <= 1e-12 * l2_norm(plan.grid, u_ref)
        assert diag.f_neg_sobolev == pytest.approx(f_sob_ref, rel=1e-12)
        assert diag.l2_u == pytest.approx(l2_norm(plan.grid, u_ref), rel=1e-12)
    a = random_band_limited(plan, rng)
    b = random_band_limited(plan, rng)
    pair = jacobian_vs_concentrated(plan, a, b, np.random.default_rng(21))
    ref = value_level_jacobian_vs_concentrated(plan, a, b, np.random.default_rng(21))
    assert pair == pytest.approx(ref, rel=1e-12)
