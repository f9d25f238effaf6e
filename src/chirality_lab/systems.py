"""The reformulation chain for div(S grad u) = 0 and its residual evaluators.

One problem instance is a ChiralitySystem (S, u, v, ...) threaded through
equivalent forms: the conjugate-potential relation grad_perp v = S grad u,
the projector splitting (P_L d_z f = 0, P_R d_zbar f = 0) for f = u + i v,
the 2d frame form d_z f = R d_z(alpha) conj(f) for f = S0 Q u + i Q v, its
quaternion packing d_L frak_f = -d_z(alpha) j frak_f, and the doubled
2n-component quaternion system (chain_doubled; chain_quaternion packs the
quaternion form as one at d = 1).

Frame convention used throughout this module: Q = rotation2(alpha) and
S = Q^t S0 Q, so that the frame field is f = S0 Q u + i Q v and the
rotation generator in the 2d form is R = [[0, 1], [-1, 0]].

Torus harmonics are affine functions; VectorField carries an optional
affine part (constant gradient) so that constant-S instances built from
harmonic conjugate pairs are exact.  Affine parts are only allowed where
the chirality frame is constant, which keeps every stored table periodic.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from chirality_lab.chirality import (
    ChiralityField,
    make_chirality,
    projections,
    rotation2,
    s0_matrix,
)
from chirality_lab.field_core import (
    complex_left,
    complex_pair_to_quat,
    left_j,
    quat_to_complex_pair,
)
from chirality_lab.hyperunitary import qp_dagger_defect, qp_matvec
from chirality_lab.norms import l2_norm, pointwise_abs
from chirality_lab.spectral_ops import random_band_limited

__all__ = [
    "VectorField",
    "ChiralitySystem",
    "PotentialPair",
    "DoubledSystem",
    "conjugate_potential",
    "holo_split_residual",
    "n2_transform",
    "quaternion_residual",
    "complex_pair_residual",
    "dirac_residual",
    "omega_pm",
    "double_system",
    "chain_alpha",
    "manufacture_solution",
    "chain_doubled",
    "chain_quaternion",
    "manufacture_doubled",
    "energy_identity",
    "rewrite_identity_residual",
]

ROT_GEN = np.array([[0.0, 1.0], [-1.0, 0.0]])
DIV_TOL = 1e-8            # relative div(S grad u) that conjugate_potential calls div_ok
ANTISYMMETRY_TOL = 1e-12  # relative antisymmetry defect of B that double_system accepts
G_FLOOR = 0.25            # least |g| of manufacture_doubled, which divides by |g|^2
ALPHA_KMAX = 3            # chain angles keep wavenumber indices |k| <= ALPHA_KMAX


@dataclass
class VectorField:
    """Component table (n, n, m) plus an optional affine part c[j] . x."""

    periodic: np.ndarray
    affine: np.ndarray | None = None  # (m, 2)

    def values(self, grid):
        vals = self.periodic
        if self.affine is not None:
            vals = vals + np.einsum(
                "jc,cxy->xyj",
                self.affine,
                np.stack([grid.x1, grid.x2]),
            )
        return vals

    def gradient(self, plan):
        gx, gy = plan.grad(self.periodic)
        if self.affine is not None:
            gx = gx + self.affine[:, 0]
            gy = gy + self.affine[:, 1]
        return gx, gy


@dataclass
class ChiralitySystem:
    grid: object
    chirality: ChiralityField
    u: VectorField
    v: VectorField
    alpha: np.ndarray      # frame angle: S = Q^t S0 Q with Q = rotation2(alpha)
    diagnostics: dict = dataclass_field(default_factory=dict)

    def f_frame(self):
        return _frame_field(self.grid, self.alpha, self.u, self.v)

    def frak_f(self):
        """The quaternion packing of the frame field."""
        f = self.f_frame()
        return complex_pair_to_quat(f[..., 0], f[..., 1])


def conjugate_potential(plan, chirality, u):
    """Least-squares potential v with grad_perp v = S grad u.

    Always returns (v, diagnostics); a divergence residual above DIV_TOL is
    reported in the diagnostics, not raised, since the degraded mode is a
    documented behavior.
    """
    grid = plan.grid
    s = chirality.s
    ux, uy = u.gradient(plan)
    wx = np.einsum("...jl,...l->...j", s, ux)
    wy = np.einsum("...jl,...l->...j", s, uy)
    div_res = l2_norm(grid, plan.div(wx, wy))
    v_per = plan.inv_laplacian(plan.curl(wx, wy))
    mean_w = np.stack([wx.mean(axis=(0, 1)), wy.mean(axis=(0, 1))], axis=-1)  # (m, 2)
    affine = np.stack([mean_w[:, 1], -mean_w[:, 0]], axis=-1)
    w_scale = max(float(np.max(np.abs(wx))), float(np.max(np.abs(wy))), 1e-300)
    if np.max(np.abs(affine)) < 1e-13 * w_scale:
        affine = None
    v = VectorField(v_per, affine)
    vx, vy = v.gradient(plan)
    lsq = l2_norm(grid, -vy - wx, vx - wy)
    scale = max(l2_norm(grid, wx, wy), 1e-300)
    return v, {
        "div_residual": div_res,
        "lsq_residual": lsq,
        "lsq_relative": lsq / scale,
        "div_ok": div_res <= DIV_TOL * scale,
    }


def holo_split_residual(plan, system):
    """Norms of P_L d_z f and P_R d_zbar f for f = u + i v."""
    grid = system.grid
    ux, uy = system.u.gradient(plan)
    vx, vy = system.v.gradient(plan)
    fx = ux + 1j * vx
    fy = uy + 1j * vy
    dz = 0.5 * (fx - 1j * fy)
    dzbar = 0.5 * (fx + 1j * fy)
    pl, pr = projections(system.chirality)
    r_l = l2_norm(grid, np.einsum("...jl,...l->...j", pl, dz))
    r_r = l2_norm(grid, np.einsum("...jl,...l->...j", pr, dzbar))
    return r_l, r_r


def _frame_field(grid, alpha, u, v):
    """Frame field f = S0 Q u + i Q v for Q = rotation2(alpha)."""
    q = rotation2(alpha)
    s0 = s0_matrix(2, 1)
    fr = np.einsum("ij,...jk,...k->...i", s0, q, u.values(grid))
    fi = np.einsum("...jk,...k->...j", q, v.values(grid))
    return fr + 1j * fi


def n2_transform(plan, alpha, u, v):
    """Frame field f = S0 Q u + i Q v and the residual of
    d_z f = R d_z(alpha) conj(f)."""
    grid = plan.grid
    alpha = np.asarray(alpha, dtype=float)
    nonconstant = np.ptp(alpha) > 0
    if (u.affine is not None or v.affine is not None) and nonconstant:
        raise ValueError("affine parts require a constant frame angle")
    f = _frame_field(grid, alpha, u, v)
    if nonconstant:
        dzf = plan.d_z(f)
    else:
        # constant frame commutes with d_z; affine parts give constants
        (ux, uy), (vx, vy) = u.gradient(plan), v.gradient(plan)
        fx = _frame_field(grid, alpha, VectorField(ux), VectorField(vx))
        fy = _frame_field(grid, alpha, VectorField(uy), VectorField(vy))
        dzf = 0.5 * (fx - 1j * fy)
    dza = plan.d_z(alpha)
    rhs = np.einsum("ij,...,...j->...i", ROT_GEN, dza, np.conj(f))
    residual = l2_norm(grid, dzf - rhs)
    return f, residual


def quaternion_residual(plan, frak_f, omega):
    """|| d_L frak_f - omega j frak_f ||_2 for a complex coefficient table
    omega; the chain form has omega = -d_z(alpha)."""
    rhs = complex_left(omega, left_j(frak_f))
    return l2_norm(plan.grid, plan.d_left(frak_f) - rhs)


def complex_pair_residual(plan, f, omega):
    """Aggregated residual of the split complex system
    d_z f1 = -omega conj(f2), d_z f2 = omega conj(f1)."""
    r1 = plan.d_z(f[..., 0]) + omega * np.conj(f[..., 1])
    r2 = plan.d_z(f[..., 1]) - omega * np.conj(f[..., 0])
    return l2_norm(plan.grid, r1, r2)


def dirac_residual(plan, psi, u_pot):
    """|| D psi - diag(U, conj U) psi ||_2 with D = [[0, d_z], [-d_zbar, 0]],
    plus the hypothesis norm || Im d_zbar U ||_2."""
    grid = plan.grid
    r1 = plan.d_z(psi[..., 1]) - u_pot * psi[..., 0]
    r2 = -plan.d_zbar(psi[..., 0]) - np.conj(u_pot) * psi[..., 1]
    return l2_norm(grid, r1, r2), l2_norm(grid, plan.d_zbar(u_pot).imag)


@dataclass
class PotentialPair:
    plus: np.ndarray     # block-diagonal w.r.t. the m | n-m split
    minus: np.ndarray    # block-off-diagonal
    certificate: dict


def omega_pm(plan, q, m_plus):
    """Connection pair from a rotation field: Omega^l = (d_l Q) Q^t, the
    sign-twisted Omega~^l = S0 Omega^l S0, and their +/- combinations.

    The certificate checks antisymmetry, the exact block structure, and
    that Im(d_zbar of each entry) equals the explicit Jacobian sum of Q's
    entries.
    """
    grid = plan.grid
    q = np.asarray(q, dtype=float)
    dim = q.shape[-1]
    s = np.concatenate([np.ones(m_plus), -np.ones(dim - m_plus)])
    sign = s[:, None] * s[None, :]
    qx, qy = plan.grad(q)
    om = [np.einsum("...ij,...kj->...ik", dq, q) for dq in (qx, qy)]
    tilde = [sign * o for o in om]
    plus = 0.5 * ((tilde[0] + om[0]) - 1j * (tilde[1] + om[1]))
    minus = 0.5 * ((tilde[0] - om[0]) - 1j * (tilde[1] - om[1]))

    scale = max(np.max(np.abs(om[0])), np.max(np.abs(om[1])), 1e-300)
    antisym = max(
        np.max(np.abs(om[0] + np.swapaxes(om[0], -1, -2))),
        np.max(np.abs(om[1] + np.swapaxes(om[1], -1, -2))),
    )
    onblock = sign > 0
    block_defect = max(
        np.max(np.abs(plus[..., ~onblock])) if (~onblock).any() else 0.0,
        np.max(np.abs(minus[..., onblock])),
    )

    jac_sum = np.einsum("...it,...jt->...ij", qx, qy) - np.einsum(
        "...it,...jt->...ij", qy, qx
    )
    jac_defect = 0.0
    # plus_ij = c+ (Om1 - i Om2)_ij, minus_ij = -c- (Om1 - i Om2)_ij
    for w, c in ((plus, 0.5 * (1 + sign)), (minus, -0.5 * (1 - sign))):
        lhs = plan.d_zbar(w).imag
        rhs = 0.5 * c * jac_sum
        jac_defect = max(jac_defect, float(np.max(np.abs(lhs - rhs))))
    # Jacobians scale like |grad Q|^2; both sides can vanish identically
    jac_scale = max(float(np.max(np.abs(jac_sum))), scale**2, 1e-300)
    cert = {
        "antisymmetry": antisym / scale,
        "block_structure": block_defect,
        "jacobian_identity": jac_defect / jac_scale,
    }
    return PotentialPair(plus, minus, cert)


@dataclass
class DoubledSystem:
    g1: np.ndarray       # pair representation of the stacked field G
    g2: np.ndarray
    gamma: tuple         # off-diagonal +-Bj blocks
    gamma1: tuple        # diagonal A blocks
    certificate: dict


def double_system(plan, g, a_coef, b_coef):
    """Stack G = (g, g j) and build the doubled coefficients.

    g is a complex (n, n, m) solution field of d_z g = A g + B conj(g);
    b_coef must be antisymmetric.  The structure certificate checks that
    Gamma is anti-self-dual and that the doubled equation reproduces the
    componentwise pair exactly.
    """
    grid = plan.grid
    g = np.asarray(g, dtype=complex)
    a_coef = np.asarray(a_coef, dtype=complex)
    b_coef = np.asarray(b_coef, dtype=complex)
    m = g.shape[-1]
    anti = np.max(np.abs(b_coef + np.swapaxes(b_coef, -1, -2)))
    if anti > ANTISYMMETRY_TOL * max(np.max(np.abs(b_coef)), 1e-300):
        raise ValueError(f"B must be antisymmetric (defect {anti:.3e})")

    zeros_m = np.zeros_like(g)
    g1 = np.concatenate([g, zeros_m], axis=-1)
    g2 = np.concatenate([zeros_m, g], axis=-1)

    zmat = np.zeros(b_coef.shape[:-2] + (2 * m, 2 * m), dtype=complex)
    gamma_y = zmat.copy()
    gamma_y[..., :m, m:] = -b_coef
    gamma_y[..., m:, :m] = b_coef
    gamma = (zmat.copy(), gamma_y)
    gamma1_x = zmat.copy()
    gamma1_x[..., :m, :m] = a_coef
    gamma1_x[..., m:, m:] = a_coef
    gamma1 = (gamma1_x, np.zeros_like(gamma1_x))

    asd_defect = qp_dagger_defect(gamma)

    # residual of the doubled equation against componentwise d_L
    dg1 = plan.d_z(g1)
    dg2 = plan.d_z(g2)
    tot = (gamma[0] + gamma1[0], gamma[1] + gamma1[1])
    rhs1, rhs2 = qp_matvec(tot, (g1, g2))
    res = l2_norm(grid, dg1 - rhs1, dg2 - rhs2)

    # steps 1-2: the first m rows reproduce d_z g = A g + B conj(g)
    base = plan.d_z(g) - np.einsum("...ij,...j->...i", a_coef, g) - np.einsum(
        "...ij,...j->...i", b_coef, np.conj(g)
    )
    pair_defect = l2_norm(grid, (dg1 - rhs1)[..., :m] - base)

    cert = {
        "anti_self_duality": asd_defect,
        "doubled_residual": res,
        "componentwise_match": pair_defect,
    }
    return DoubledSystem(g1, g2, gamma, gamma1, cert)


# ---------------------------------------------------------------------------
# manufactured instances
# ---------------------------------------------------------------------------


def chain_alpha(plan, rng, grad_norm, x1_only=False):
    """Random band-limited angle field with || grad alpha ||_2 = grad_norm;
    a function of x1 alone when x1_only."""
    grid = plan.grid
    if x1_only:
        profile = np.zeros(grid.n)
        modes = rng.integers(1, ALPHA_KMAX + 1, size=3)
        for mm in modes:
            profile += rng.standard_normal() * np.cos(
                2 * np.pi * mm * (grid.x1[:, 0]) / grid.length + rng.random()
            )
        alpha = np.broadcast_to(profile[:, None], (grid.n, grid.n)).copy()
    else:
        alpha = random_band_limited(plan, rng, kmax=ALPHA_KMAX)
    norm = l2_norm(grid, *plan.grad(alpha))
    return alpha * (grad_norm / norm) if norm > 0 else alpha


def manufacture_solution(plan, mode, rng, grad_alpha=0.05, equation_sign=-1,
                         theta0=0.0):
    """Exact instances of the chain, by construction:

    constant_S          affine harmonic-conjugate pairs, S constant
                        (= Q(theta0)^t S0 Q(theta0), nontrivial gradients)
    conjugated_harmonic constant frame data pushed through Q(alpha(x1))
    adapted_frame       same with a fully 2d angle field

    The frame modes use frak_f = exp(sign*alpha j) frak_f0 (constant
    frak_f0), which solves d_L frak_f = sign * d_z(alpha) j frak_f exactly
    for any smooth periodic alpha; the pulled-back pair (u, v) is constant
    and satisfies grad_perp v = S grad u to spectral accuracy.
    """
    grid = plan.grid
    if mode == "constant_S":
        coeffs_u = rng.standard_normal((2, 2))
        alpha = np.full((grid.n, grid.n), float(theta0))
        q0 = rotation2(np.array(float(theta0)))
        s0 = s0_matrix(2, 1)
        # the constant matrices' own product, not make_chirality's: the two
        # round apart in the last bit, and this branch's residuals sit at
        # that level
        s_const = q0.T @ s0 @ q0
        # affine conjugate: grad_perp v_j = (S grad u)_j, all constant
        w = s_const @ coeffs_u  # (j, deriv): rows are S grad u_j
        affine_v = np.stack([w[:, 1], -w[:, 0]], axis=-1)
        u = VectorField(np.zeros((grid.n, grid.n, 2)), coeffs_u)
        v = VectorField(np.zeros((grid.n, grid.n, 2)), affine_v)
        chir = ChiralityField(
            grid, np.broadcast_to(s_const, (grid.n, grid.n, 2, 2)).copy(), 1
        )
        return ChiralitySystem(grid, chir, u, v, alpha)
    if mode not in ("conjugated_harmonic", "adapted_frame"):
        raise ValueError(f"unknown mode {mode!r}")

    alpha = chain_alpha(plan, rng, grad_alpha, x1_only=(mode == "conjugated_harmonic"))
    f0 = rng.standard_normal(4)
    f0 /= np.linalg.norm(f0)
    # exp(sign * alpha j) (a + b j) solves d_L frak = sign * d_z(alpha) j frak;
    # with j z = conj(z) j it is the pair (c a - s conj(b), c b + s conj(a))
    a, b = f0[0] + 1j * f0[1], f0[2] + 1j * f0[3]
    c, s = np.cos(alpha), np.sin(equation_sign * alpha)
    f = np.stack([c * a - s * np.conj(b), c * b + s * np.conj(a)], axis=-1)

    # the chain form uses the minus sign, so the frame angle is -sign*alpha
    beta = -equation_sign * alpha
    q = rotation2(beta)
    s0 = s0_matrix(2, 1)
    # S = Q^t S0 Q; u = Q^t S0 f_Re, v = Q^t f_Im
    chir = make_chirality(grid, np.swapaxes(q, -1, -2), 1)
    u_vals = np.einsum("...ji,jk,...k->...i", q, s0, f.real)
    v_vals = np.einsum("...ji,...j->...i", q, f.imag)
    v_vals = v_vals - v_vals.mean(axis=(0, 1))
    u = VectorField(u_vals)
    v = VectorField(v_vals)
    return ChiralitySystem(
        grid, chir, u, v, beta,
        diagnostics={"equation_alpha": alpha},
    )


def chain_doubled(plan, rng, grad_alpha):
    """Doubled system of an adapted_frame instance of the 2d frame form
    d_z f = R d_z(alpha) conj(f): g = f, A = 0 and B = R d_z(alpha)."""
    sys = manufacture_solution(plan, "adapted_frame", rng, grad_alpha=grad_alpha)
    b_coef = np.einsum("ij,...->...ij", ROT_GEN, plan.d_z(sys.alpha))
    return double_system(plan, sys.f_frame(), np.zeros_like(b_coef), b_coef)


def chain_quaternion(plan, rng, grad_alpha):
    """The quaternion form d_L frak = omega j frak, omega = d_z(alpha), of an
    adapted_frame instance (equation sign +1), packed as a doubled system at
    d = 1: Gamma = (0, omega) and Gamma1 = 0 as (n, n, 1, 1) tables and G
    the pair of frak as (n, n, 1) tables.  The certificate's
    doubled_residual is quaternion_residual(plan, frak, omega)."""
    sys = manufacture_solution(
        plan, "adapted_frame", rng, grad_alpha=grad_alpha, equation_sign=+1
    )
    omega = plan.d_z(sys.diagnostics["equation_alpha"])
    frak = sys.frak_f()
    g1, g2 = (z[..., None] for z in quat_to_complex_pair(frak))
    zero = np.zeros(omega.shape + (1, 1), dtype=complex)
    return DoubledSystem(
        g1, g2, (zero, omega[..., None, None]), (zero, zero),
        {"doubled_residual": quaternion_residual(plan, frak, omega)},
    )


def manufacture_doubled(plan, m, rng, b_norm):
    """Exact (g, A, B) with d_z g = A g + B conj(g): pick g bounded away
    from zero and an antisymmetric mean-zero B, then solve for the rank-one
    A = (d_z g - B conj(g)) g^H / |g|^2 pointwise."""
    grid = plan.grid
    base = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    base *= 1.0 / np.linalg.norm(base)
    g = np.broadcast_to(base, (grid.n, grid.n, m)).copy()
    for j in range(m):
        g[..., j] += 0.2 * (
            random_band_limited(plan, rng, kmax=3, rms=1.0)
            + 1j * random_band_limited(plan, rng, kmax=3, rms=1.0)
        ) / np.sqrt(2)
    floor = pointwise_abs(g).min()
    if floor < G_FLOOR:
        g += base * (G_FLOOR - floor + 0.1)

    b = np.zeros((grid.n, grid.n, m, m), dtype=complex)
    for i in range(m):
        for j in range(i + 1, m):
            entry = random_band_limited(plan, rng, kmax=3) + 1j * random_band_limited(
                plan, rng, kmax=3
            )
            b[..., i, j] = entry
            b[..., j, i] = -entry
    total = l2_norm(grid, b)
    if total > 0:
        b *= b_norm / total

    f_rhs = plan.d_z(g)
    num = f_rhs - np.einsum("...ij,...j->...i", b, np.conj(g))
    denom = np.sum(np.abs(g) ** 2, axis=-1)
    a = np.einsum("...s,...t->...st", num, np.conj(g)) / denom[..., None, None]
    return g, a, b


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def energy_identity(plan, chirality, u):
    """The indefinite Dirichlet energy two ways: via projections and via
    -<grad u, S grad u>.  Returns (via_projections, via_s)."""
    grid = plan.grid
    s = chirality.s
    pl, pr = projections(chirality)
    ux, uy = u.gradient(plan)
    cell = grid.cell_measure

    def pair(p, gx, gy):
        return np.sum(
            np.einsum("...jl,...l->...j", p, gx) ** 2
            + np.einsum("...jl,...l->...j", p, gy) ** 2
        ) * cell

    via_proj = pair(pr, ux, uy) - pair(pl, ux, uy)
    via_s = -np.sum(
        ux * np.einsum("...jl,...l->...j", s, ux)
        + uy * np.einsum("...jl,...l->...j", s, uy)
    ) * cell
    return float(via_proj), float(via_s)


def rewrite_identity_residual(plan, system):
    """Operator identity Lap(w) - div(grad S . S w) = div(S grad u) for
    w = S u; returns the sup-norm defect relative to scale."""
    grid = plan.grid
    s = system.chirality.s
    if system.u.affine is not None:
        raise ValueError("identity check needs periodic data; use a frame instance")
    u_vals = system.u.values(grid)
    w = np.einsum("...jl,...l->...j", s, u_vals)
    lap_w = plan.laplacian(w)
    sx, sy = plan.grad(s)
    tx = np.einsum("...jl,...lm,...m->...j", sx, s, w)
    ty = np.einsum("...jl,...lm,...m->...j", sy, s, w)
    ux, uy = system.u.gradient(plan)
    wx = np.einsum("...jl,...l->...j", s, ux)
    wy = np.einsum("...jl,...l->...j", s, uy)
    lhs = lap_w - plan.div(tx, ty)
    rhs = plan.div(wx, wy)
    scale = max(float(np.max(np.abs(lap_w))), 1e-300)
    return float(np.max(np.abs(lhs - rhs))) / scale
