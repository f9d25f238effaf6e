import numpy as np
import pytest

from chirality_lab.jms import (
    JmsParams,
    gradient_l1_limit,
    gradient_lp_annulus,
    jms_alpha,
    jms_alpha_prime,
    jms_matrix,
    jms_matrix_gradient,
    jms_norm_divergence,
    jms_residual_study,
    jms_solution,
    jms_solution_gradient,
    strong_residual,
)


@pytest.fixture(scope="module")
def params():
    return JmsParams()


def test_params_validation():
    JmsParams()  # default has margin
    with pytest.raises(ValueError, match="increase r0"):
        JmsParams(beta=1.5, r0=float(np.exp(4.0)))
    # log(r0/r) must be positive on (0, 1]: r0 = 0 would give alpha = 0
    for r0 in (0.0, 1.0):
        with pytest.raises(ValueError, match="r0 must exceed 1"):
            JmsParams(beta=1.5, r0=r0)
    with pytest.raises(ValueError):
        JmsParams(beta=1.0)


def test_alpha_hand_value():
    # at r = r0/e the log ratio is 1: alpha = beta(beta-1) for n = 2
    p = JmsParams(beta=1.5, r0=float(np.exp(6.0)))
    r = p.r0 / np.e
    assert jms_alpha(r, p) == pytest.approx(1.5 * 0.5, rel=1e-13)


def test_alpha_prime_fd(params):
    rs = np.geomspace(1e-3, 0.9, 50)
    h = 1e-7
    fd = (jms_alpha(rs + h, params) - jms_alpha(rs - h, params)) / (2 * h)
    assert np.max(np.abs(fd - jms_alpha_prime(rs, params))) < 1e-5 * np.max(
        np.abs(fd)
    )


def test_matrix_on_axis(params):
    r = 0.3
    a = jms_matrix(np.array([r, 0.0]), params)
    assert a == pytest.approx(np.diag([1.0, 1.0 + jms_alpha(r, params)]), rel=1e-14)
    with pytest.raises(ValueError):
        jms_matrix(np.zeros(2), params)


def test_matrix_symmetry_and_eigenstructure(params):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(200, 2))
    x = x[np.hypot(x[:, 0], x[:, 1]) > 0.01]
    a = jms_matrix(x, params)
    assert np.max(np.abs(a - np.swapaxes(a, -1, -2))) < 1e-14
    # radial eigenvector with eigenvalue exactly 1
    r = np.sqrt(np.sum(x**2, axis=-1))
    xhat = x / r[:, None]
    av = np.einsum("...ij,...j->...i", a, xhat)
    assert np.max(np.abs(av - xhat)) < 1e-13


def test_strong_ellipticity(params):
    # uniform ellipticity is claimed on the unit ball
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(500, 2))
    r = np.hypot(x[:, 0], x[:, 1])
    x = x[(r > 1e-3) & (r <= 1.0)]
    xi = rng.standard_normal((len(x), 2))
    a = jms_matrix(x, params)
    quad = np.einsum("...i,...ij,...j->...", xi, a, xi)
    assert np.all(quad >= 0.5 * np.sum(xi**2, axis=-1) - 1e-12)


def test_matrix_gradient_vs_fd(params):
    rng = np.random.default_rng(2)
    x = rng.uniform(-0.9, 0.9, size=(100, 2))
    x = x[np.hypot(x[:, 0], x[:, 1]) > 0.05]
    grad = jms_matrix_gradient(x, params)
    h = 1e-6
    for k in range(2):
        xp = x.copy()
        xp[:, k] += h
        xm = x.copy()
        xm[:, k] -= h
        fd = (jms_matrix(xp, params) - jms_matrix(xm, params)) / (2 * h)
        scale = np.max(np.abs(fd))
        assert np.max(np.abs(fd - grad[..., k])) < 1e-6 * scale


def test_matrix_gradient_axis_projector(params):
    # on the x1 axis the alpha' term of the (1,1) entry vanishes
    x = np.array([0.4, 0.0])
    grad = jms_matrix_gradient(x, params)
    aprime = jms_alpha_prime(0.4, params)
    assert abs(grad[0, 0, 0]) < 1e-14 * abs(aprime)


def test_matrix_gradient_decay_bound(params):
    rs = np.geomspace(1e-6, 0.9, 40)
    x = np.stack([rs / np.sqrt(2), rs / np.sqrt(2)], axis=-1)
    grad = jms_matrix_gradient(x, params)
    bound = np.max(np.abs(grad), axis=(-1, -2, -3))
    scaled = bound * rs * np.log(params.r0 / rs)
    assert np.max(scaled) < 20.0  # bounded along the ray toward 0


def test_solution_values_and_symmetry(params):
    r = 0.3
    u = jms_solution(np.array([r, 0.0]), params)
    assert u == pytest.approx(
        1.0 / (r * np.log(params.r0 / r) ** params.beta), rel=1e-14
    )
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(100, 2))
    x = x[np.hypot(x[:, 0], x[:, 1]) > 0.01]
    mirrored = x * np.array([-1.0, 1.0])
    assert np.allclose(
        jms_solution(mirrored, params), -jms_solution(x, params), atol=1e-14
    )


def test_solution_gradient_vs_fd(params):
    rng = np.random.default_rng(4)
    x = rng.uniform(-0.9, 0.9, size=(100, 2))
    x = x[np.hypot(x[:, 0], x[:, 1]) > 0.05]
    grad = jms_solution_gradient(x, params)
    h = 1e-6
    for k in range(2):
        xp = x.copy()
        xp[:, k] += h
        xm = x.copy()
        xm[:, k] -= h
        fd = (jms_solution(xp, params) - jms_solution(xm, params)) / (2 * h)
        assert np.max(np.abs(fd - grad[:, k])) < 1e-6 * np.max(np.abs(fd))


def test_pde_strong_residual_pointwise(params):
    # the closed forms satisfy the equation: residual at fixed points
    # shrinks at fourth order in the stencil width
    pts = np.array([[0.3, 0.1], [-0.2, 0.4], [0.5, -0.3]])
    r1 = np.max(np.abs(strong_residual(pts, params, 1e-2)))
    r2 = np.max(np.abs(strong_residual(pts, params, 5e-3)))
    assert r2 < r1 / 8.0  # at least third order observed


def test_residual_study(params):
    study = jms_residual_study(params)
    assert [row["grid_n"] for row in study["rows"]] == [128, 256, 512]
    weak_orders = study["orders"]["weak_residual"]
    assert min(weak_orders) >= 2.0
    assert study["rows"][-1]["weak_residual"] < study["rows"][0]["weak_residual"]
    assert study["parity_defect"] < 1e-12


def test_residual_grows_toward_singularity(params):
    vals = []
    for exc in (0.2, 0.1, 0.05):
        rng = np.random.default_rng(5)
        theta = rng.uniform(0, 2 * np.pi, 200)
        rad = np.exp(rng.uniform(np.log(exc), np.log(2 * exc), 200))
        pts = np.stack([rad * np.cos(theta), rad * np.sin(theta)], axis=-1)
        vals.append(np.max(np.abs(strong_residual(pts, params, 2.0 / 256))))
    assert vals[0] < vals[1] < vals[2]


def test_l1_norm_converges(params):
    from chirality_lab.jms import gradient_lp_annulus_oracle

    deltas = [1e-2, 1e-3, 1e-4, 1e-5]
    vals = [gradient_lp_annulus(params, 1.0, d) for d in deltas]
    limit = gradient_l1_limit(params)
    # monotone increase toward the finite limit, with shrinking increments
    assert all(a < b for a, b in zip(vals, vals[1:]))
    incs = np.diff(vals)
    assert all(b < a for a, b in zip(incs, incs[1:]))
    assert all(v < limit for v in vals)
    # adaptive quadrature agrees with the independent fixed-grid oracle
    for d, v in zip(deltas, vals):
        oracle = gradient_lp_annulus_oracle(params, 1.0, d)
        assert v == pytest.approx(oracle, rel=1e-6)


def test_p15_divergence_slope(params):
    table = jms_norm_divergence(params)
    entry = table[1]
    assert entry["p"] == 1.5
    fitted = np.asarray(entry["fitted_slopes"])
    predicted = np.asarray(entry["predicted_slopes"])
    # the asymptotic regime: pairs with delta <= 1e-2
    assert np.all(np.abs(fitted[1:] - predicted[1:]) <= 0.05 * np.abs(predicted[1:]))
    # the norms themselves blow up
    assert entry["values"][-1] > 10 * entry["values"][0]


def test_larger_beta_converges_faster():
    deltas = [1e-2, 1e-4]
    p_a = JmsParams(beta=1.1, r0=float(np.exp(10.5)))
    p_b = JmsParams(beta=3.0, r0=float(np.exp(10.5)))
    rel = []
    for p in (p_a, p_b):
        vals = [gradient_lp_annulus(p, 1.0, d) for d in deltas]
        limit = gradient_l1_limit(p)
        rel.append(abs(vals[-1] - limit) / limit)
    assert rel[1] < rel[0]
