import numpy as np
import pytest

from chirality_lab.compensation import PreconditionError
from chirality_lab.field_core import Grid2, complex_pair_to_quat
from chirality_lab.gauge import (
    GaugeConfig,
    GaugeStall,
    contraction_chain,
    gauge_solve,
    zeta_potential,
)
from chirality_lab.hyperunitary import qp_commutator, qp_matmul
from chirality_lab.norms import l2_norm, lorentz_l21, pointwise_abs
from chirality_lab.pgauge import (
    MAX_INNER,
    GaugeDivergence,
    _projected_solve,
    chi_potential,
    linearization_order,
    p_connection,
    p_gauge_structures,
    pl1_solve,
    pn_apply,
)
from chirality_lab.spectral_ops import SpectralPlan, random_band_limited
from chirality_lab.systems import chain_alpha, chain_quaternion, manufacture_solution
from test_field_core import as_pair, as_quat


@pytest.fixture(scope="module")
def plan():
    return SpectralPlan(Grid2(64))


def pure_field(plan, rng, grad_norm, kmax=3):
    n = plan.grid.n
    u = np.zeros((n, n, 4))
    for c in range(1, 4):
        u[..., c] = random_band_limited(plan, rng, kmax=kmax, rms=1.0)
    gx, gy = plan.dx(u), plan.dy(u)
    g = np.sqrt(
        np.sum(pointwise_abs(gx) ** 2 + pointwise_abs(gy) ** 2) * plan.grid.cell_measure
    )
    u *= grad_norm / g
    return u


def chain_targets(omega):
    """Gauge targets (w, g) = (0, -2 omega) for d_L f = omega j f."""
    return np.zeros(omega.shape), -2.0 * omega


def exp_d1(u):
    """exp of a 1 x 1 anti-self-dual pair u, the pure quaternion a i + Y j,
    in closed form: cos|u| + sinc|u| u.  The solver retracts with the
    Cayley map; the tests keep the group exponential for its exact
    identities: the i-line subgroup, the winding gauge and constant-i
    rotations."""
    a, y = u[0].imag, u[1]
    theta = np.sqrt(a * a + y.real * y.real + y.imag * y.imag)
    s = np.sinc(theta / np.pi)
    return np.cos(theta) + 1j * (s * a), s * y


def exp_pure(u):
    """Unit quaternion table exp(u) of a pure quaternion table u."""
    return as_quat(exp_d1(as_pair(u)))


# The quaternion operator, its linearization and the Newton solve are the
# pair functions of pgauge at d = 1: q becomes a pair of 1 x 1 matrix tables,
# (1, 1, n, n), the i-line table w the 1i-line table V = i w, the jk table g
# the T table.  The value-level operators act on their (n, n) planes.


def plane(t):
    return t[0, 0]


def lift(f):
    return f[None, None]


def n_at_d1(plan, q, check=True):
    """N(q) as (V = i w, g) tables through pn_apply."""
    (v_hat, t), _ = pn_apply(plan, as_pair(q), check)
    return plane(plan.inverse(v_hat[None])[0]), plane(t)


def connection_at_d1(plan, q):
    """The pair (q^-1 d1 q, q^-1 d2 q) of 1 x 1 matrix tables."""
    x, y = p_connection(plan, as_pair(q))
    return (x[0], y[0]), (x[1], y[1])


def l1_at_d1(plan, u):
    """The linearization at the identity, (Lap X_u, 2 d_zbar Y_u)."""
    return lift(plan.laplacian(plane(u[0]))), lift(2.0 * plan.d_zbar(plane(u[1])))


def as_targets(w, g):
    return lift(1j * w), lift(g)


def pl1_values(plan, v, t):
    """pl1_solve, which acts on spectra, on value tables (V, T)."""
    u = plan.inverse(pl1_solve(plan, plan.spectrum(v), plan.spectrum(t)))
    return u[0], u[1]


def lq_at_d1(plan, q0, w, g, max_iter=MAX_INNER):
    """The mean-projected Newton solve L_q0(u) = (w, g): (u, iterations)."""
    v, t = as_targets(w, g)
    u, _, iters = _projected_solve(
        plan, p_connection(plan, as_pair(q0)), plan.spectrum(v), plan.spectrum(t),
        1e-11, max_iter,
    )
    return u, iters


# The physical-space reference of the spectral Newton solve: the same
# iteration with every operator applied to value tables.

def l1_inverse(plan, v, t):
    """Inverse of the base linearization on values: Lap X_u = V - mean(V),
    2 d_zbar Y_u = T - mean(T)."""
    return lift(plan.inv_laplacian(plane(v))), lift(plan.cauchy_solve(0.5 * plane(t)))


def perturbation(plan, x1, x2, u):
    """L_q(u) - L_I(u) on values: the commutator terms of the connection."""
    c1, c2 = qp_commutator(x1, u), qp_commutator(x2, u)
    return lift(plan.div(plane(c1[0]), plane(c2[0]))), c1[1] + 1j * c2[1]


def test_n_apply_identity(plan):
    n = plan.grid.n
    q = np.zeros((n, n, 4))
    q[..., 0] = 1.0
    v, g = n_at_d1(plan, q)
    assert np.max(np.abs(v)) == 0.0
    assert np.max(np.abs(g)) == 0.0
    with pytest.raises(ValueError):
        n_at_d1(plan, 2.0 * q)


def test_n_apply_i_line_subgroup(plan):
    # q = exp(theta i): i-part is Lap(theta), jk-part vanishes
    rng = np.random.default_rng(0)
    theta = 0.2 * random_band_limited(plan, rng, kmax=2)
    n = plan.grid.n
    u = np.zeros((n, n, 4))
    u[..., 1] = theta
    q = exp_pure(u)
    v, g = n_at_d1(plan, q)
    lap = plan.laplacian(theta)
    # tolerance at the spectral-tail level of the composed field
    assert np.max(np.abs(v - 1j * lap)) < 1e-9 * np.max(np.abs(lap))
    assert np.max(np.abs(g)) < 1e-9 * np.max(np.abs(lap))


def test_n_apply_winding_gauge(plan):
    # q = exp(2 pi i x1 / L): harmonic angle, both components vanish
    g2 = plan.grid
    n = g2.n
    u = np.zeros((n, n, 4))
    u[..., 1] = 2 * np.pi * g2.x1 / g2.length
    q = exp_pure(u)  # periodic despite the winding angle
    v, g = n_at_d1(plan, q)
    assert np.max(np.abs(v)) < 1e-10
    assert np.max(np.abs(g)) < 1e-10


def test_i_part_mean_zero_structural(plan):
    rng = np.random.default_rng(1)
    q = exp_pure(pure_field(plan, rng, 0.8))
    v, _ = n_at_d1(plan, q)
    assert abs(v.mean()) < 1e-14 * max(np.abs(v).max(), 1e-30)


def test_connection_is_pure(plan):
    rng = np.random.default_rng(2)
    q = exp_pure(pure_field(plan, rng, 0.5))
    # the real part of q^-1 d_l q is the real part of its X part
    x1, x2 = connection_at_d1(plan, q)
    assert np.max(np.abs(x1[0].real)) < 1e-12
    assert np.max(np.abs(x2[0].real)) < 1e-12


def test_l1_solve_round_trip(plan):
    rng = np.random.default_rng(3)
    n = plan.grid.n
    w = random_band_limited(plan, rng)
    w -= w.mean()
    g = random_band_limited(plan, rng) + 1j * random_band_limited(plan, rng)
    g -= g.mean()
    v, t = as_targets(w, g)
    u = pl1_values(plan, v, t)
    lv, lt = l1_at_d1(plan, u)
    assert l2_norm(plan.grid, plane(lv - v)) < 1e-11 * l2_norm(plan.grid, w)
    assert l2_norm(plan.grid, plane(lt - t)) < 1e-11 * l2_norm(plan.grid, g)
    zero = np.zeros((1, 1, n, n), dtype=complex)
    assert np.max(pointwise_abs(*map(plane, pl1_values(plan, zero, zero)))) == 0.0


def test_l1_solve_plane_wave(plan):
    g2 = plan.grid
    k = 2 * np.pi * 3 / g2.length
    f = np.cos(k * g2.x1)
    u = pl1_values(plan, *as_targets(f, np.zeros((g2.n, g2.n), dtype=complex)))
    # the i-component is the imaginary part of X, the jk-plane is Y
    assert np.max(np.abs(plane(u[0]) + 1j * f / k**2)) < 1e-12
    assert np.max(np.abs(u[1])) < 1e-14


def test_lq_solve_reduces_to_l1_at_identity(plan):
    rng = np.random.default_rng(4)
    n = plan.grid.n
    q1 = np.zeros((n, n, 4))
    q1[..., 0] = 1.0
    w = random_band_limited(plan, rng)
    w -= w.mean()
    g = random_band_limited(plan, rng) + 1j * random_band_limited(plan, rng)
    u, iters = lq_at_d1(plan, q1, w, g)
    u_ref = l1_inverse(plan, *as_targets(w, g - g.mean()))
    diff = pointwise_abs(plane(u[0] - u_ref[0]), plane(u[1] - u_ref[1]))
    assert np.max(diff) < 1e-10 * max(np.max(pointwise_abs(*map(plane, u_ref))), 1e-10)


def test_lq_solve_converges_small_q0(plan):
    rng = np.random.default_rng(5)
    q0 = exp_pure(pure_field(plan, rng, 0.05))
    w = random_band_limited(plan, rng)
    w -= w.mean()
    g = random_band_limited(plan, rng) + 1j * random_band_limited(plan, rng)
    u, iters = lq_at_d1(plan, q0, w, g)
    assert iters <= 20
    # forward-apply: L1(u) + commutator terms reproduce the right side
    x1, x2 = connection_at_d1(plan, q0)
    lw, lg = l1_at_d1(plan, u)
    pw, pg = perturbation(plan, x1, x2, u)
    w, g = as_targets(w, g)
    res_w = l2_norm(plan.grid, plane(lw + pw - w))
    res_g = l2_norm(plan.grid, plane((lg + pg) - g))
    scale = l2_norm(plan.grid, plane(w)) + l2_norm(plan.grid, plane(g))
    # the oscillatory parts match; the jk mean is matched by the constant fix
    assert res_w < 1e-9 * scale
    assert res_g < 1e-9 * scale + 2 * abs(np.mean(lg + pg - g)) * plan.grid.length


def test_lq_solve_divergence_reported(plan):
    rng = np.random.default_rng(6)
    q0 = exp_pure(pure_field(plan, rng, 20.0))
    w = random_band_limited(plan, rng)
    w -= w.mean()
    g = random_band_limited(plan, rng) + 0j
    with pytest.raises(GaugeDivergence) as err:
        lq_at_d1(plan, q0, w, g, max_iter=60)
    assert err.value.contraction_estimate > 1.0


def test_lq_solve_budget_reports_the_last_contraction(plan):
    # the small-q0 case contracts; stopped after three iterations, the
    # estimate is the ratio of the last two changes of the iterate
    rng = np.random.default_rng(5)
    q0 = exp_pure(pure_field(plan, rng, 0.05))
    w = random_band_limited(plan, rng)
    w -= w.mean()
    g = random_band_limited(plan, rng) + 1j * random_band_limited(plan, rng)
    with pytest.raises(GaugeDivergence) as err:
        lq_at_d1(plan, q0, w, g, max_iter=3)
    # replay the iteration u <- L_I^-1(rhs - pert(u)) from u = 0
    x1, x2 = connection_at_d1(plan, q0)
    v_rhs, t_rhs = as_targets(w, g)
    u = np.zeros_like(v_rhs), np.zeros_like(v_rhs)
    changes = []
    for _ in range(3):
        pv, pt = perturbation(plan, x1, x2, u)
        u_new = l1_inverse(plan, v_rhs - pv, t_rhs - pt)
        changes.append(max(np.max(np.abs(u_new[0] - u[0])),
                           np.max(np.abs(u_new[1] - u[1]))))
        u = u_new
    ratio = changes[2] / changes[1]
    assert err.value.contraction_estimate == pytest.approx(ratio, rel=1e-12)
    assert err.value.contraction_estimate < 1.0
    assert f"estimated contraction {ratio:.3f}" in str(err.value)


def test_gauge_solve_zero_targets(plan):
    n = plan.grid.n
    res = gauge_solve(plan, np.zeros((n, n)), np.zeros((n, n), dtype=complex))
    assert res.residual == pytest.approx(0.0, abs=1e-14)
    assert np.max(np.abs(res.q - np.array([1.0, 0, 0, 0]))) < 1e-14


def test_gauge_solve_manufactured_image(plan):
    # target taken from a known N(q*): recover a gauge with equal image
    rng = np.random.default_rng(7)
    q_star = exp_pure(pure_field(plan, rng, 0.08))
    v_t, g_t = n_at_d1(plan, q_star)
    res = gauge_solve(plan, v_t.imag, g_t, GaugeConfig(eps0=0.2, tol=1e-9))
    assert res.residual < 1e-8
    assert res.t_reached == 1.0
    assert res.unitarity_defect < 1e-12
    # anti-self-duality along the way: the connection stays pure
    x1, _ = connection_at_d1(plan, res.q)
    assert np.max(np.abs(x1[0].real)) < 1e-12


def test_gauge_solve_chain_targets(plan):
    rng = np.random.default_rng(8)
    alpha = chain_alpha(plan, rng, 0.05)
    w_t, g_t = chain_targets(plan.d_z(alpha))
    res = gauge_solve(plan, w_t, g_t)
    assert res.residual < 1e-8
    assert res.theta > 0


def test_gauge_stall_carries_the_partial_quaternion_gauge():
    # a constant jk target is out of reach at n = 16: the jk mean cannot be
    # closed at t = 1, and the stall carries the last accepted level's gauge
    plan16 = SpectralPlan(Grid2(16))
    osc = random_band_limited(plan16, np.random.default_rng(0), kmax=2)
    g = 0.01 + 0.02 * osc + 0j
    with pytest.raises(GaugeStall) as err:
        gauge_solve(plan16, np.zeros((16, 16)), g, GaugeConfig(eps0=0.5, tol=1e-8))
    stall = err.value
    assert stall.t_reached < 1.0
    assert stall.result.t_reached == stall.t_reached
    # the level trace passes through the adapter, ending at the failed level
    assert max(t for t, _, ok in stall.result.levels if ok) == stall.t_reached
    assert not stall.result.levels[-1][2]
    assert stall.result.q.shape == (16, 16, 4)
    assert stall.result.unitarity_defect <= 1e-10
    assert np.max(np.abs(stall.result.q - np.array([1.0, 0, 0, 0]))) > 1e-3


def test_gauge_smallness_enforced(plan):
    rng = np.random.default_rng(9)
    g = 5.0 * (random_band_limited(plan, rng) + 0j)
    with pytest.raises(ValueError, match="eps0"):
        gauge_solve(plan, np.zeros((64, 64)), g)


def test_gauge_invariance_under_constant_i_rotation(plan):
    # N(q exp(theta i)) keeps the i-part and rotates the jk-part by -2 theta
    rng = np.random.default_rng(10)
    q = exp_pure(pure_field(plan, rng, 0.3))
    w0, g0 = n_at_d1(plan, q)
    theta = 0.37
    c = np.zeros((64, 64, 4))
    c[..., 1] = theta
    qc = as_quat(qp_matmul(as_pair(q), exp_d1(as_pair(c))))
    w1, g1 = n_at_d1(plan, qc)
    assert np.max(np.abs(w1 - w0)) < 1e-12 * max(np.abs(w0).max(), 1e-12)
    rot = np.exp(-2j * theta)
    assert np.max(np.abs(g1 - rot * g0)) < 1e-12 * max(np.abs(g0).max(), 1e-12)
    assert np.max(np.abs(np.abs(g1) - np.abs(g0))) < 1e-12 * max(np.abs(g0).max(), 1e-12)


def test_linearization_order(plan):
    rng = np.random.default_rng(11)
    u = pure_field(plan, rng, 1.0)
    # linearization_order takes grid-first (n, n, 1, 1) tables
    u = tuple(np.moveaxis(part, (0, 1), (-2, -1)) for part in as_pair(u))
    order, vals = linearization_order(plan, u)
    assert order >= 1.9
    assert all(v > 0 for v in vals)


def test_zeta_potential_identity_gauge(plan):
    n = plan.grid.n
    q = np.zeros((n, n, 4))
    q[..., 0] = 1.0
    zeta, _ = zeta_potential(plan, q)
    assert np.max(np.abs(zeta)) == 0.0


def test_zeta_potential_i_line_gauge(plan):
    # winding i-line gauge: harmonic angle, zero Jacobian, zeta = 0
    g2 = plan.grid
    u = np.zeros((g2.n, g2.n, 4))
    u[..., 1] = 2 * np.pi * g2.x1 / g2.length
    q = exp_pure(u)
    zeta, _ = zeta_potential(plan, q)
    assert np.max(np.abs(zeta)) < 1e-10


def test_zeta_potential_after_gauge_solve(plan):
    rng = np.random.default_rng(12)
    alpha = chain_alpha(plan, rng, 0.05)
    w_t, g_t = chain_targets(plan.d_z(alpha))
    res = gauge_solve(plan, w_t, g_t)
    zeta, _ = zeta_potential(plan, res.q, precondition_tol=1e-3)
    chi, _ = chi_potential(plan, as_pair(res.q), precondition_tol=1e-3)
    assert np.array_equal(zeta, plane(chi).imag)
    # the 1i-line a of the connection is mean(a) + grad_perp(chi), and
    # ||grad chi||_{2,1} is controlled by ||grad P||_2^2 (Wente)
    x1, x2 = connection_at_d1(plan, res.q)
    a1, a2 = plane(x1[0]), plane(x2[0])
    cx, cy = plan.grad(plane(chi))
    grid = plan.grid
    stream = l2_norm(grid, a1 - a1.mean() + cy, a2 - a2.mean() - cx)
    connection = (plane(part) for m in (x1, x2) for part in m)
    wente = lorentz_l21(grid, pointwise_abs(cx, cy)) / l2_norm(grid, *connection) ** 2
    assert stream < 1e-6
    assert wente < 10.0


def test_zeta_potential_precondition(plan):
    rng = np.random.default_rng(13)
    q = exp_pure(pure_field(plan, rng, 0.4))
    with pytest.raises(PreconditionError):
        zeta_potential(plan, q, precondition_tol=1e-10)


def test_contraction_chain_small_alpha(plan):
    rng = np.random.default_rng(14)
    sys = manufacture_solution(plan, "adapted_frame", rng, grad_alpha=0.05,
                               equation_sign=+1)
    alpha = sys.diagnostics["equation_alpha"]
    omega = plan.d_z(alpha)
    frak = sys.frak_f()
    w_t, g_t = chain_targets(omega)
    res = gauge_solve(plan, w_t, g_t)
    zeta, _ = zeta_potential(plan, res.q, precondition_tol=1e-3)
    out = contraction_chain(plan, frak, omega, res.q, zeta)
    assert not out["degenerate"]
    assert out["b_converged"]
    assert out["factor"] < 1.0
    assert out["transport_residual"] < 1e-5


def test_chain_pipeline_at_d1_matches_the_adapters(plan):
    # chain_quaternion packs the quaternion chain as a doubled system at
    # d = 1: p_gauge_structures solves the adapters' gauge bit for bit, and
    # its factor differs only through chi's rounding-level real part, which
    # the adapters drop
    rng = np.random.default_rng(15)
    doubled = chain_quaternion(plan, rng, 0.05)
    sys = manufacture_solution(plan, "adapted_frame", np.random.default_rng(15),
                               grad_alpha=0.05, equation_sign=+1)
    omega = plan.d_z(sys.diagnostics["equation_alpha"])
    frak = sys.frak_f()
    g_quat = complex_pair_to_quat(doubled.g1[..., 0], doubled.g2[..., 0])
    assert np.array_equal(g_quat, frak)
    assert doubled.certificate["doubled_residual"] < 1e-9 * l2_norm(plan.grid, frak)

    res = gauge_solve(plan, *chain_targets(omega))
    out = p_gauge_structures(
        plan, doubled.gamma, doubled.gamma1, (doubled.g1, doubled.g2),
        GaugeConfig(), partial_ok=True,
    )
    # the returned gauge is grid-first, (n, n, 1, 1)
    x, y = out["gauge"].p
    assert np.array_equal(complex_pair_to_quat(x[..., 0, 0], y[..., 0, 0]), res.q)
    zeta, _ = zeta_potential(plan, res.q, precondition_tol=1e-2)
    factor = contraction_chain(plan, frak, omega, res.q, zeta)["factor"]
    assert out["contraction"]["factor"] == pytest.approx(factor, rel=1e-12)


def test_contraction_chain_degenerate(plan):
    n = plan.grid.n
    q = np.zeros((n, n, 4))
    q[..., 0] = 1.0
    out = contraction_chain(
        plan, np.zeros((n, n, 4)), np.zeros((n, n), dtype=complex), q,
        np.zeros((n, n))
    )
    assert out["degenerate"]
