import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chirality_lab import pgauge
from chirality_lab.compensation import PreconditionError
from chirality_lab.field_core import Grid2
from chirality_lab.hyperunitary import (
    _cayley_asd_d1,
    grid_first,
    grid_last,
    project_asd,
    qp_cayley_asd,
    qp_commutator,
    qp_conj_t,
    qp_dagger_defect,
    qp_matmul,
    qp_matvec,
    random_asd,
)
from chirality_lab.norms import l2_norm, lorentz_weak_l2, pointwise_abs, sobolev_neg_1_2
from chirality_lab.pgauge import (
    GaugeConfig,
    GaugeStall,
    _asd_commutators,
    _unitarity_defect,
    absorbed_residual,
    chi_potential,
    p_contraction_chain,
    p_gauge_solve,
    p_gauge_structures,
    pn_apply,
)
from chirality_lab.spectral_ops import SpectralPlan, random_band_limited
from chirality_lab.systems import chain_doubled, double_system, manufacture_doubled
from test_field_core import as_pair


@pytest.fixture(scope="module")
def plan():
    return SpectralPlan(Grid2(64))


def eye_field(dim, n):
    """The identity matrix field, matrix axes first."""
    return np.broadcast_to(np.eye(dim, dtype=complex)[:, :, None, None], (dim, dim, n, n)).copy()


def smooth_asd_field(plan, rng, dim, scale):
    n = plan.grid.n
    x = np.zeros((dim, dim, n, n), dtype=complex)
    y = np.zeros((dim, dim, n, n), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            x[i, j] = scale * (
                random_band_limited(plan, rng, kmax=2)
                + 1j * random_band_limited(plan, rng, kmax=2)
            )
            y[i, j] = scale * (
                random_band_limited(plan, rng, kmax=2)
                + 1j * random_band_limited(plan, rng, kmax=2)
            )
    return project_asd((x, y))


def test_entrywise_sobolev_batched_matches_entry_loop(plan):
    rng = np.random.default_rng(20)
    n = plan.grid.n
    v = rng.standard_normal((n, n, 4, 4)) + 1j * rng.standard_normal((n, n, 4, 4))
    v += rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    total = 0.0
    for i in range(4):
        for j in range(4):
            entry = v[..., i, j] - v[..., i, j].mean()
            total += (
                sobolev_neg_1_2(plan, entry.real) ** 2
                + sobolev_neg_1_2(plan, entry.imag) ** 2
            )
    batched = sobolev_neg_1_2(plan, v - v.mean(axis=(0, 1)))
    assert batched == pytest.approx(np.sqrt(total), rel=1e-12)


def test_cayley_asd_is_unitary(plan):
    rng = np.random.default_rng(0)
    u = smooth_asd_field(plan, rng, 4, 0.2)
    p = qp_cayley_asd(u)
    prod = qp_matmul(qp_conj_t(p), p)
    assert np.max(np.abs(prod[0] - eye_field(4, plan.grid.n))) < 1e-12
    assert np.max(np.abs(prod[1])) < 1e-12


def test_pn_apply_identity(plan):
    eye = eye_field(4, plan.grid.n)
    p = (eye, np.zeros_like(eye))
    (v, t), _ = pn_apply(plan, p)
    assert np.max(np.abs(v)) == 0.0
    assert np.max(np.abs(t)) == 0.0
    with pytest.raises(ValueError):
        pn_apply(plan, (2 * eye, np.zeros_like(eye)))


def test_pn_apply_structure(plan):
    # V is pointwise skew-Hermitian, T symmetric; V has zero mean
    rng = np.random.default_rng(1)
    u = smooth_asd_field(plan, rng, 4, 0.05)
    p = qp_cayley_asd(u)
    (v_hat, t), _ = pn_apply(plan, p)
    v = plan.inverse(v_hat[None])[0]
    assert np.max(np.abs(v + np.conj(np.swapaxes(v, 0, 1)))) < 1e-10
    assert np.max(np.abs(t - np.swapaxes(t, 0, 1))) < 1e-10
    assert np.max(np.abs(v.mean(axis=(-2, -1)))) < 1e-13 * max(np.abs(v).max(), 1e-10)


def test_p_gauge_solve_manufactured_image(plan):
    rng = np.random.default_rng(2)
    u = smooth_asd_field(plan, rng, 4, 0.004)
    p_star = qp_cayley_asd(u)
    (v_hat, t_t), _ = pn_apply(plan, p_star)
    v_t = plan.inverse(v_hat[None])[0]
    # p_gauge_solve takes grid-first tables
    res = p_gauge_solve(
        plan, grid_first(v_t), grid_first(t_t), GaugeConfig(eps0=0.5, tol=1e-8)
    )
    assert res.residual < 1e-8
    assert res.t_reached == 1.0
    assert res.unitarity_defect < 1e-10


def test_p_gauge_structures_from_doubled_n2_chain(plan):
    # doubled instance of the 2d frame chain at small angle energy
    doubled = chain_doubled(plan, np.random.default_rng(3), 0.05)
    assert doubled.certificate["doubled_residual"] < 1e-9

    out = p_gauge_structures(
        plan, doubled.gamma, doubled.gamma1, (doubled.g1, doubled.g2),
        GaugeConfig(eps0=0.2, tol=1e-8),
    )
    assert out["gauge"].residual < 1e-8
    assert out["absorbed_residual"] < 1e-7
    assert out["contraction"]["factor"] < 1.0
    assert out["contraction"]["b_converged"]


def value_space_contraction_factor(plan, p, chi, gamma1, g_pair, iterations):
    """The contraction factor with the B fixed point run on value tables for
    a given number of iterations: the reference of the spectral loop.  The
    algebra takes the matrix axes first, the value-level operators the grid
    axes first."""
    def grad(f):
        return tuple(grid_last(part) for part in plan.grad(grid_first(f)))

    def inv_laplacian(f):
        return grid_last(plan.inv_laplacian(grid_first(f)))

    def div(a1, a2):
        return grid_last(plan.div(grid_first(a1), grid_first(a2)))

    _, rhs, pg = absorbed_residual(plan, p, chi, gamma1, g_pair)
    w = qp_matmul((1j * p[0], -1j * p[1]), qp_conj_t(p))
    (ax_x, ay_x), (ax_y, ay_y) = (grad(inv_laplacian(r)) for r in rhs)
    ax, ay = (ax_x, ax_y), (ay_x, ay_y)
    bx = by = (0.0, 0.0)
    for _ in range(iterations):
        gx = ax[0] - by[0], ax[1] - by[1]
        gy = ay[0] + bx[0], ay[1] + bx[1]
        t1, t2 = qp_matvec(w, gx), qp_matvec(w, gy)
        b = [inv_laplacian(-div(u1, u2)) for u1, u2 in zip(t1, t2)]
        (bx_x, by_x), (bx_y, by_y) = (grad(part) for part in b)
        bx, by = (bx_x, bx_y), (by_x, by_y)
    weak = lambda *tables: lorentz_weak_l2(plan.grid, pointwise_abs(*map(grid_first, tables)))
    return (weak(*ax, *ay) + weak(*bx, *by)) / weak(*pg)


def test_spectral_b_loop_matches_the_value_space_iteration(monkeypatch):
    # converged, and stopped by the iteration budget after one and two
    # iterations: the factor is the value-space loop's to rounding
    plan32 = SpectralPlan(Grid2(32))
    doubled = chain_doubled(plan32, np.random.default_rng(3), 0.05)
    g_pair = (doubled.g1, doubled.g2)
    out = p_gauge_structures(
        plan32, doubled.gamma, doubled.gamma1, g_pair, GaugeConfig(eps0=0.2, tol=1e-8)
    )
    # the measurement takes the solver's layout, matrix axes first
    p, chi = tuple(map(grid_last, out["gauge"].p)), grid_last(out["chi"])
    gamma1, g_pair = tuple(map(grid_last, doubled.gamma1)), tuple(map(grid_last, g_pair))
    runs = [(out["contraction"], True)]
    for budget in (1, 2):
        monkeypatch.setattr(pgauge, "B_MAX_ITER", budget)
        record = p_contraction_chain(plan32, p, chi, gamma1, g_pair)
        runs.append((record, False))
    for record, converged in runs:
        assert record["b_converged"] is converged
        ref = value_space_contraction_factor(
            plan32, p, chi, gamma1, g_pair, record["b_iterations"]
        )
        assert record["factor"] == pytest.approx(ref, rel=1e-12)


def test_p_gauge_structures_from_manufactured_doubled(plan):
    # generic antisymmetric data can be obstructed in the harmonic sector
    # near t = 1; the pipeline then reports the largest-t partial gauge
    rng = np.random.default_rng(4)
    g, a, b = manufacture_doubled(plan, 2, rng, b_norm=0.04)
    doubled = double_system(plan, g, a, b)
    out = p_gauge_structures(
        plan, doubled.gamma, doubled.gamma1, (doubled.g1, doubled.g2),
        GaugeConfig(eps0=0.2, tol=1e-8), partial_ok=True,
    )
    assert out["t_reached"] > 0.95
    assert out["gauge"].residual < 1e-5
    assert out["contraction"]["factor"] < 1.0


def test_p_gauge_structures_returns_the_gauge_when_chi_fails():
    # chain data at n = 16 stall at t = 0.96875, and the partial gauge's
    # connection fails chi's precondition: the gauge comes back with the
    # error and without a measurement
    plan16 = SpectralPlan(Grid2(16))
    doubled = chain_doubled(plan16, np.random.default_rng(102), 0.1)
    out = p_gauge_structures(
        plan16, doubled.gamma, doubled.gamma1, (doubled.g1, doubled.g2),
        GaugeConfig(eps0=0.25, tol=1e-8), partial_ok=True,
    )
    assert out["t_reached"] == out["gauge"].t_reached == 0.96875
    assert isinstance(out["error"], PreconditionError)
    assert "contraction" not in out and "chi" not in out
    # the one data whose line search accepts a half step: the two-fraction
    # search keeps every level.  The direct attempt is rejected; after
    # 1 - 1/32 and t = 1 the level at step 1/64 is rejected too, the second
    # in a row
    assert out["gauge"].levels == (
        (1.0, 1.0, False), (0.0625, 0.0625, True), (0.1875, 0.125, True),
        (0.4375, 0.25, True), (0.9375, 0.5, True), (1.0, 1.0, False),
        (0.96875, 0.03125, True), (1.0, 0.0625, False),
        (0.984375, 0.015625, False),
    )


def test_p_gauge_rejects_non_asd(plan):
    n = plan.grid.n
    bad = (
        np.zeros((n, n, 4, 4), dtype=complex),
        np.ones((n, n, 4, 4), dtype=complex) + 1j,
    )
    bad_y_nonsym = (bad[0], bad[1].copy())
    bad_y_nonsym[1][..., 0, 1] = 5.0
    with pytest.raises(ValueError):
        p_gauge_structures(plan, bad_y_nonsym, bad, (None, None))


def test_gamma_zero_gives_identity(plan):
    n = plan.grid.n
    zero = np.zeros((n, n, 4, 4), dtype=complex)
    res = p_gauge_solve(plan, zero, zero)
    assert res.residual == pytest.approx(0.0, abs=1e-14)
    eye = np.eye(4)
    assert np.max(np.abs(res.p[0] - eye)) < 1e-14
    assert np.max(np.abs(res.p[1])) < 1e-14


def test_chi_potential_identity(plan):
    eye = eye_field(4, plan.grid.n)
    p = (eye, np.zeros_like(eye))
    chi, dres = chi_potential(plan, p, precondition_tol=1.0)
    assert np.max(np.abs(chi)) == 0.0
    assert dres == 0.0


def test_chi_potential_precondition(plan):
    # a generic hyper-unitary field: its 1i-line connection has divergence
    p = qp_cayley_asd(smooth_asd_field(plan, np.random.default_rng(21), 2, 0.3))
    with pytest.raises(PreconditionError):
        chi_potential(plan, p, precondition_tol=1e-10)


def test_p_contraction_chain_zero_data_gives_nan_factor(plan):
    n = plan.grid.n
    eye = eye_field(2, n)
    zero = np.zeros_like(eye)
    g_zero = (np.zeros((2, n, n), dtype=complex), np.zeros((2, n, n), dtype=complex))
    out = p_contraction_chain(plan, (eye, zero), zero, (zero, zero), g_zero)
    assert np.isnan(out["factor"])
    assert out["degenerate"]


# -- the two algebras of the shared continuation ---------------------------

def hamilton(a, b):
    """Quaternion product on (..., 4) component tables (re, i, j, k)."""
    a0, a1, a2, a3 = np.moveaxis(a, -1, 0)
    b0, b1, b2, b3 = np.moveaxis(b, -1, 0)
    return np.stack([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ], axis=-1)


def conjugate(a):
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def assert_pair_close(pair, q):
    ref = as_pair(q)
    scale = max(1.0, float(np.max(np.abs(q))))
    for part, ref_part in zip(pair, ref):
        assert part.shape == ref_part.shape
        assert np.max(np.abs(part - ref_part)) <= 1e-13 * scale


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 3.0))
def test_hyper_unitary_algebra_at_d1_is_the_quaternion_algebra(seed, scale):
    rng = np.random.default_rng(seed)
    a, b = (scale * rng.standard_normal((8, 8, 4)) for _ in range(2))
    assert_pair_close(qp_matmul(as_pair(a), as_pair(b)), hamilton(a, b))
    assert_pair_close(qp_conj_t(as_pair(a)), conjugate(a))
    u = a.copy()
    u[..., 0] = 0.0  # pure quaternions are the 1 x 1 anti-self-dual matrices
    assert qp_dagger_defect(as_pair(u)) == 0.0


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([1, 2, 4]),
    scale=st.floats(1e-3, 2.0),
    s=st.sampled_from([1.0, 0.5, 1.0 / 32.0]),
)
def test_retractions_land_in_the_group(seed, dim, scale, s):
    # the continuation's retraction P cay(s u), from P = cay(scale v)
    rng = np.random.default_rng(seed)
    v = random_asd(rng, (8, 8), dim)
    p = qp_cayley_asd((scale * v[0], scale * v[1]))
    w = random_asd(rng, (8, 8), dim)
    w = (scale * w[0], scale * w[1])
    assert _unitarity_defect(qp_matmul(p, qp_cayley_asd((s * w[0], s * w[1])))) <= 1e-12


def random_matrix_pair(rng, shape):
    """A general (not anti-self-dual) quaternion matrix field."""
    return tuple(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2)
    )


# -- the matrix-axes-first algebra against the complex embedding -----------
#
# The reference, written here only: E(X + Y j) = [[X, Y], [-conj(Y),
# conj(X)]] is multiplicative, E(M1 M2) = E(M1) E(M2), and E(M^dagger) is
# E(M)^H.  It is built grid-first, (n1, n2, 2r, 2c), for numpy's matmul and
# solve.

def embed(m):
    x, y = (np.moveaxis(part, (-2, -1), (0, 1)) for part in m)
    return np.concatenate(
        (np.concatenate((x, y), axis=-1),
         np.concatenate((-np.conj(y), np.conj(x)), axis=-1)),
        axis=-2,
    )


def unembed(e, rows, cols):
    """The pair (X, Y) of an embedding's top block row, matrix axes first."""
    return tuple(
        np.moveaxis(part, (0, 1), (-2, -1))
        for part in (e[..., :rows, :cols], e[..., :rows, cols:])
    )


def embedded_cayley(u):
    """2 (I - u/2)^-1 - I by a batched solve of the embedding."""
    dim = u[0].shape[0]
    eye = np.eye(dim)[:, :, None, None]
    e = embed((eye - 0.5 * u[0], -0.5 * u[1]))
    x, y = unembed(np.linalg.solve(e, np.broadcast_to(np.eye(2 * dim), e.shape)), dim, dim)
    return 2.0 * x - eye, 2.0 * y


def elimination_pivots(m):
    """Real parts of the pivots of elimination without pivoting on a field
    of quaternion matrices M: the leading entries of its Schur complements
    M[k, k] - M[k, :k] M[:k, :k]^-1 M[:k, k], on the embedding with its rows
    and columns ordered so that each quaternion entry is a 2 x 2 block."""
    dim = m[0].shape[0]
    order = np.ravel(np.column_stack((np.arange(dim), dim + np.arange(dim))))
    e = embed(m)[..., order, :][..., :, order]
    pivots = []
    for k in range(dim):
        lead, here = slice(0, 2 * k), slice(2 * k, 2 * k + 2)
        block = e[..., here, here]
        if k:
            block = block - e[..., here, lead] @ np.linalg.solve(
                e[..., lead, lead], e[..., lead, here]
            )
        pivots.append(block[..., 0, 0].real)
    return pivots


def assert_close(out, ref, rel):
    for part, ref_part in zip(out, ref):
        assert part.shape == ref_part.shape
        assert np.max(np.abs(part - ref_part)) <= rel * max(np.max(np.abs(ref_part)), 1.0)


grids = st.tuples(st.integers(1, 6), st.integers(1, 6))


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 4),
    inner=st.integers(1, 4),
    cols=st.integers(1, 4),
    grid=grids,
)
def test_products_match_the_complex_embedding(seed, rows, inner, cols, grid):
    rng = np.random.default_rng(seed)
    m1 = random_matrix_pair(rng, (rows, inner) + grid)
    m2 = random_matrix_pair(rng, (inner, cols) + grid)
    v = random_matrix_pair(rng, (inner,) + grid)
    assert_close(qp_matmul(m1, m2), unembed(embed(m1) @ embed(m2), rows, cols), 1e-14)
    column = unembed(embed(m1) @ embed((v[0][:, None], v[1][:, None])), rows, 1)
    assert_close(qp_matvec(m1, v), (column[0][:, 0], column[1][:, 0]), 1e-14)
    # a stack on a leading axis broadcasts against one field
    stack = tuple(np.stack((part, 2.0 * part)) for part in m1)
    for k, scale in enumerate((1.0, 2.0)):
        ref = qp_matmul((scale * m1[0], scale * m1[1]), m2)
        assert_close(tuple(part[k] for part in qp_matmul(stack, m2)), ref, 1e-14)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), cols=st.integers(1, 4), grid=grids)
def test_adjoint_and_algebra_match_the_complex_embedding(seed, dim, cols, grid):
    rng = np.random.default_rng(seed)
    m = random_matrix_pair(rng, (dim, cols) + grid)
    e = embed(m)
    e_h = np.conj(np.swapaxes(e, -1, -2))
    assert_close(qp_conj_t(m), unembed(e_h, cols, dim), 0.0)
    square = random_matrix_pair(rng, (dim, dim) + grid)
    e = embed(square)
    e_h = np.conj(np.swapaxes(e, -1, -2))
    assert_close(project_asd(square), unembed(0.5 * (e - e_h), dim, dim), 1e-15)
    assert qp_dagger_defect(square) == float(np.max(np.abs(e + e_h)))
    assert qp_dagger_defect(project_asd(square)) == 0.0


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    scale=st.one_of(st.floats(1e-6, 1.0), st.floats(1.0, 100.0)),
    grid=grids,
)
def test_cayley_elimination_matches_the_embedded_solve(seed, dim, scale, grid):
    # I - u/2 has Hermitian part I, so every pivot of the elimination has
    # real part >= 1 and it needs no pivoting, however large u is
    rng = np.random.default_rng(seed)
    u = random_asd(rng, grid, dim)
    u = (scale * u[0], scale * u[1])
    p = qp_cayley_asd(u)
    assert _unitarity_defect(p) <= 1e-13
    assert_close(p, embedded_cayley(u), 1e-13)
    eye = np.eye(dim)[:, :, None, None]
    pivots = elimination_pivots((eye - 0.5 * u[0], -0.5 * u[1]))
    assert min(float(np.min(piv)) for piv in pivots) >= 1.0 - 1e-12


def test_the_boundary_stays_grid_first():
    # systems builds grid-first tables and p_gauge_structures returns its
    # gauge grid-first: the benchmark's checks read them so.  Its unitarity
    # check is copied here (perfbench/reference.py::hyperunitary_defect), and
    # its target size reads n off the first axis of Gamma_Y
    n, d = 16, 4
    plan16 = SpectralPlan(Grid2(n))
    g, a, b = manufacture_doubled(plan16, 2, np.random.default_rng(1), b_norm=0.04)
    doubled = double_system(plan16, g, a, b)
    assert doubled.gamma[0].shape == doubled.gamma[1].shape == (n, n, d, d)
    assert doubled.gamma1[0].shape == doubled.gamma1[1].shape == (n, n, d, d)
    assert doubled.g1.shape == doubled.g2.shape == (n, n, d)
    f = doubled.gamma[1]
    length = plan16.grid.length
    size = np.sqrt(np.sum(np.abs(f) ** 2) * (length / f.shape[0]) ** 2)
    assert size == pytest.approx(l2_norm(plan16.grid, f), rel=1e-14)

    out = p_gauge_structures(
        plan16, doubled.gamma, doubled.gamma1, (doubled.g1, doubled.g2),
        GaugeConfig(eps0=0.2, tol=1e-8), partial_ok=True,
    )
    x, y = out["gauge"].p
    assert x.shape == y.shape == out["chi"].shape == (n, n, d, d)
    e = np.concatenate(
        [np.concatenate([x, y], axis=-1),
         np.concatenate([-np.conj(y), np.conj(x)], axis=-1)],
        axis=-2,
    )
    prod = np.matmul(np.conj(np.swapaxes(e, -1, -2)), e)
    assert float(np.max(np.abs(prod - np.eye(e.shape[-1])))) <= 1e-9


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 4]))
def test_embedded_product_matches_the_einsum_formula(seed, dim):
    # (X1 + Y1 j)(X2 + Y2 j) = (X1 X2 - Y1 conj(Y2)) + (X1 Y2 + Y1 conj(X2)) j
    rng = np.random.default_rng(seed)
    (x1, y1), (x2, y2) = (random_matrix_pair(rng, (dim, dim, 8, 8)) for _ in range(2))
    v1, v2 = random_matrix_pair(rng, (dim, 8, 8))
    mm = lambda a, b: np.einsum("ij...,jk...->ik...", a, b)
    mv = lambda a, b: np.einsum("ij...,j...->i...", a, b)
    column = qp_matmul((x1, y1), (v1[:, None], v2[:, None]))
    # (out, reference, whether they agree bit for bit)
    cases = [
        (
            qp_matmul((x1, y1), (x2, y2)),
            (mm(x1, x2) - mm(y1, np.conj(y2)), mm(x1, y2) + mm(y1, np.conj(x2))),
            dim == 1,
        ),
        (
            qp_matvec((x1, y1), (v1, v2)),
            (mv(x1, v1) - mv(y1, np.conj(v2)), mv(x1, v2) + mv(y1, np.conj(v1))),
            dim == 1,
        ),
        # a vector is the one-column matrix at every d
        (qp_matvec((x1, y1), (v1, v2)), (column[0][:, 0], column[1][:, 0]), True),
    ]
    for out, ref, exact in cases:
        for part, ref_part in zip(out, ref):
            assert part.shape == ref_part.shape
            if exact:
                # d = 1 keeps the einsum formula, and qp_matvec is the
                # one-column product, bit for bit
                assert np.array_equal(part, ref_part)
            else:
                err = np.max(np.abs(part - ref_part))
                assert err <= 1e-14 * np.max(np.abs(ref_part))


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_cayley_of_a_nearly_anti_self_dual_step_stays_in_the_group(dim):
    # a Newton step is anti-self-dual only up to the rounding of the
    # connection it came from; the retraction must not pass that on to P
    rng = np.random.default_rng(6)
    u = random_asd(rng, (16, 16), dim)
    noise = random_matrix_pair(rng, (dim, dim, 16, 16))
    u = (u[0] + 1e-6 * noise[0], u[1] + 1e-6 * noise[1])
    assert qp_dagger_defect(u) > 1e-7
    assert _unitarity_defect(qp_cayley_asd(u)) <= 1e-14


@given(
    seed=st.integers(0, 2**32 - 1),
    theta=st.one_of(st.floats(0.0, 1e-6), st.floats(0.0, 20.0), st.floats(1e2, 1e6)),
)
def test_closed_form_cayley_at_d1_matches_the_embedded_solve(seed, theta):
    rng = np.random.default_rng(seed)
    u = random_asd(rng, (4, 4), 1)
    size = np.sqrt(np.abs(u[0]) ** 2 + np.abs(u[1]) ** 2)
    u = (theta * u[0] / size, theta * u[1] / size)
    p = _cayley_asd_d1(u)
    ref = embedded_cayley(u)
    for part, ref_part in zip(p, ref):
        assert part.shape == ref_part.shape
        assert np.max(np.abs(part - ref_part)) <= 1e-14
    assert _unitarity_defect(p) <= 1e-14


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 4]))
def test_asd_commutator_matches_the_general_one_on_the_algebra(seed, dim):
    # one product for the commutators of a stack of left factors
    rng = np.random.default_rng(seed)
    a, c, b = (random_asd(rng, (8, 8), dim) for _ in range(3))
    for left in ([a], [a, c]):
        stack = tuple(np.stack([m[part] for m in left]) for part in (0, 1))
        out = _asd_commutators(stack, b)
        assert out[0].shape == stack[0].shape
        for k, m in enumerate(left):
            comm = out[0][k], out[1][k]
            for part, ref_part in zip(comm, qp_commutator(m, b)):
                assert part.shape == ref_part.shape
                err = np.max(np.abs(part - ref_part))
                assert err <= 1e-14 * np.max(np.abs(ref_part))


# -- the continuation's step policy ----------------------------------------

def test_continuation_step_doubles_after_each_accepted_level(stall16_data):
    # chain data: the first level is t = 1, and it is accepted
    plan32 = SpectralPlan(Grid2(32))
    gamma = chain_doubled(plan32, np.random.default_rng(3), 0.05).gamma
    cfg = GaugeConfig(eps0=0.2, tol=1e-8, dt=1.0 / 16.0)
    res = p_gauge_solve(plan32, np.zeros_like(gamma[1]), -2.0 * gamma[1], cfg)
    assert res.residual < 1e-8
    assert res.levels == ((1.0, 1.0, True),) and res.continuation_steps == 1
    # after a rejected direct attempt the continuation starts at t = 0 with
    # the step GaugeConfig.dt and doubles it after each accepted level
    plan16, target = stall16_data
    for dt in (1.0 / 16.0, 1.0 / 8.0):
        cfg = GaugeConfig(eps0=0.2, tol=1e-8, dt=dt)
        with pytest.raises(GaugeStall) as err:
            p_gauge_solve(plan16, np.zeros_like(target), target, cfg)
        levels = err.value.result.levels
        assert levels[0] == (1.0, 1.0, False)
        t, step = 0.0, dt
        for level in levels[1:]:
            if level[0] == 1.0:
                break
            assert level == (t + step, step, True)
            t, step = t + step, 2.0 * step
        assert level == (1.0, step, False) and t + step > 1.0


def stall_target(n, seed, b_norm):
    """The plan and the jk-plane target -2 Gamma_Y of generic doubled data
    (manufacture_doubled with m = 2)."""
    plan_n = SpectralPlan(Grid2(n))
    g, a, b = manufacture_doubled(plan_n, 2, np.random.default_rng(seed), b_norm=b_norm)
    return plan_n, -2.0 * double_system(plan_n, g, a, b).gamma[1]


@pytest.fixture(scope="module")
def stall16_data():
    """Generic doubled data at n = 16, which stall just short of t = 1."""
    return stall_target(16, 0, 0.04)


@pytest.fixture(scope="module")
def stall16_run(stall16_data):
    """The stall of stall16_data, and the number of residual evaluations
    (pn_apply calls) it took."""
    plan16, target = stall16_data
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return pn_apply(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pgauge, "pn_apply", counted)
        with pytest.raises(GaugeStall) as err:
            p_gauge_solve(
                plan16, np.zeros_like(target), target, GaugeConfig(eps0=0.2, tol=1e-8)
            )
    return err.value, len(calls)


@pytest.fixture(scope="module")
def stall16(stall16_run):
    return stall16_run[0]


def test_p_gauge_stall_carries_the_partial_gauge(stall16):
    # the stall carries the gauge of the last accepted level
    assert stall16.t_reached == 0.9921875
    assert stall16.result.t_reached == stall16.t_reached
    assert stall16.result.unitarity_defect <= 1e-9


def test_rejected_level_is_not_retried_at_the_same_t(stall16):
    levels = stall16.result.levels
    for (t_failed, _, accepted), (t_next, _, _) in zip(levels, levels[1:]):
        if not accepted:
            assert t_next < t_failed
    # the stall follows a rejected level, which its message names
    t_last, dt_last, accepted = levels[-1]
    assert not accepted
    assert f"t = {t_last:.6g}, dt = {dt_last:.3g}" in str(stall16)


def test_stall_path_keeps_its_levels_and_its_work_bound(stall16_run):
    stall, residual_evals = stall16_run
    assert stall.t_reached == 0.9921875
    # the direct attempt fails, then t = 1 is tried after each accepted
    # level near it; the level at step 1/256 just above t_reached is the
    # second rejected in a row and stalls the run
    assert stall.result.levels == (
        (1.0, 1.0, False), (0.0625, 0.0625, True), (0.1875, 0.125, True),
        (0.4375, 0.25, True), (0.9375, 0.5, True), (1.0, 1.0, False),
        (0.96875, 0.03125, True), (1.0, 0.0625, False),
        (0.984375, 0.015625, True), (1.0, 0.03125, False),
        (0.9921875, 0.0078125, True), (1.0, 0.015625, False),
        (0.99609375, 0.00390625, False),
    )
    assert stall.rule == "two levels in a row rejected"
    # a rejected level takes one accepted Newton step and one failed
    # two-fraction line search; a six-fraction search takes 95 evaluations.
    # An accepted field's evaluation is handed to the next level, but a
    # rejected level releases its start field's, so the rejected levels
    # evaluate their start field once more: at the retry, and after the
    # last one for the partial result (the direct attempt starts from and
    # falls back to P = I, which needs none).  Halving the step on down to
    # DT_MIN took 47
    assert residual_evals <= 32


def test_stall_names_the_failed_residual_and_its_bound(stall16_data, stall16):
    assert stall16.residual > stall16.bound > 0.0
    assert stall16.jk_mean >= 0.0
    message = str(stall16)
    assert (
        f"oscillatory residual {stall16.residual:.2e} > bound {stall16.bound:.2e}"
        in message
    )
    # two rejections in a row: the second lies below t = 1, at the bound
    # 0.02 dt |target| of the halved step it was tried with
    plan16, target = stall16_data
    t_last, dt_last, _ = stall16.result.levels[-1]
    assert not stall16.result.levels[-2][2] and t_last < 1.0
    assert stall16.bound == pytest.approx(
        0.02 * dt_last * l2_norm(plan16.grid, target), rel=1e-12
    )
    assert message.startswith(
        f"continuation stalled at t = {stall16.t_reached:.4f}, "
        f"two levels in a row rejected (last failed level t = {t_last:.6g}, "
        f"dt = {dt_last:.3g}: "
    )


def test_alternating_stall_ends_below_dt_min():
    # at n = 32 accepted levels approaching 1 alternate with rejections at
    # t = 1, so no two rejections are in a row; the step falls below DT_MIN
    plan32, target = stall_target(32, 0, 0.04)
    with pytest.raises(GaugeStall) as err:
        p_gauge_solve(
            plan32, np.zeros_like(target), target, GaugeConfig(eps0=0.2, tol=1e-8)
        )
    stall = err.value
    assert stall.rule == "step below DT_MIN"
    assert stall.t_reached == 1.0 - 2.0**-13
    continuation = stall.result.levels[1:]
    assert [accepted for _, _, accepted in continuation[4:]] == [False, True] * 9 + [False]
    t_last, dt_last, _ = continuation[-1]
    # from t_reached = 1 - 2^-13 the retry's step would be 2^-14 < DT_MIN
    assert (t_last, dt_last) == (1.0, 2.0**-12) and 2.0**-14 < pgauge.DT_MIN
    assert str(stall).startswith(
        "continuation stalled at t = 0.9999, step below DT_MIN "
        f"(last failed level t = 1, dt = {dt_last:.3g}: residual with jk mean"
    )


# t_reached of generic doubled data at n = 16 (manufacture_doubled, m = 2),
# by seed and b_norm: the values of the continuation that halved down to
# DT_MIN, which the stall rule keeps
STALL16_T_REACHED = {
    (0, 0.01): 0.998046875, (0, 0.02): 0.99609375, (0, 0.04): 0.9921875,
    (1, 0.01): 0.9990234375, (1, 0.02): 0.998046875, (1, 0.04): 0.99609375,
    (2, 0.01): 0.9990234375, (2, 0.02): 0.998046875, (2, 0.04): 0.99609375,
    (3, 0.01): 0.998046875, (3, 0.02): 0.99609375, (3, 0.04): 0.9921875,
}


@pytest.mark.parametrize("seed,b_norm", sorted(STALL16_T_REACHED))
def test_stall_rule_keeps_t_reached(seed, b_norm):
    plan16, target = stall_target(16, seed, b_norm)
    with pytest.raises(GaugeStall) as err:
        p_gauge_solve(
            plan16, np.zeros_like(target), target, GaugeConfig(eps0=0.2, tol=1e-8)
        )
    assert err.value.t_reached == STALL16_T_REACHED[seed, b_norm]


@pytest.fixture(scope="module")
def clean32():
    """The plan and the jk-plane table Gamma_Y (d = 4) of chain data at
    n = 32, which the continuation solves to t = 1 without a rejection."""
    plan32 = SpectralPlan(Grid2(32))
    return plan32, chain_doubled(plan32, np.random.default_rng(0), 0.05).gamma[1]


CLEAN32_CONFIG = GaugeConfig(eps0=0.15, tol=1e-8)


def test_chain_data_solve_in_one_newton_level(clean32, monkeypatch):
    # chain data admit an exact gauge: the direct attempt at t = 1 is
    # accepted after two Newton steps, one evaluation each
    plan32, gamma_y = clean32
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return pn_apply(*args, **kwargs)

    monkeypatch.setattr(pgauge, "pn_apply", counted)
    res = p_gauge_solve(
        plan32, np.zeros_like(gamma_y), -2.0 * gamma_y, CLEAN32_CONFIG
    )
    assert res.levels == ((1.0, 1.0, True),)
    assert res.t_reached == 1.0 and res.continuation_steps == 1
    assert len(calls) == 2
    assert res.residual <= CLEAN32_CONFIG.tol


def test_each_field_is_evaluated_once(clean32, monkeypatch):
    # N(P) and the connection do not depend on t: the accepted field's
    # evaluation is handed to the next level and to the result, and the
    # identity, whose N and connection vanish, is never evaluated
    plan32, gamma_y = clean32
    fields, identities = [], []

    def hashed(plan_, p, check=True):
        fields.append(hashlib.sha256(p[0].tobytes() + p[1].tobytes()).digest())
        identities.append(
            np.array_equal(p[0], eye_field(4, p[0].shape[-1])) and not p[1].any()
        )
        return pn_apply(plan_, p, check)

    monkeypatch.setattr(pgauge, "pn_apply", hashed)
    res = p_gauge_solve(
        plan32, np.zeros_like(gamma_y), -2.0 * gamma_y, CLEAN32_CONFIG
    )
    assert res.t_reached == 1.0 and res.residual < 1e-8
    assert all(accepted for _, _, accepted in res.levels)
    assert fields and len(set(fields)) == len(fields)
    assert not any(identities)


def test_solve_keeps_the_live_peak_of_one_field(clean32):
    # handing evaluations on must not raise the live peak: each Newton step
    # releases N before its inner solve and the connection before its line
    # search.  The peak reads 30.29 tables here, the copy of the jk target
    # that p_gauge_solve converts to (d, d, n, n) among them; keeping the
    # start field's evaluation through the step reads 32.56
    plan32, gamma_y = clean32
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        p_gauge_solve(plan32, np.zeros_like(gamma_y), -2.0 * gamma_y, CLEAN32_CONFIG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    # the two targets are tables of the traced span too
    assert (peak - base) / gamma_y.nbytes <= 31
