"""Gauge construction over quaternion-unitary matrix fields.

Fields P with conj(P)^t P = I act on the doubled 2n-component systems.
Matrices are carried in the complex-pair representation (X, Y) of
hyperunitary.py: the 1i-plane of a quaternion matrix is its X part, the
jk-plane its Y part.

The operator is

    N(P) = ( 1i-part of div(P^-1 grad P),
             jk-part of P^-1 d1 P - (P^-1 d2 P) i )

and p_gauge_solve runs the continuation of gauge.py over the hyper-unitary
algebra below, with the same torus mean bookkeeping as the quaternion
gauge: intermediate levels converge the mean-projected residual, the jk
mean is closed at the endpoint.  The stream potential chi and the
contraction measurement run the shared code of gauge.py over the same
algebra.
"""

from dataclasses import dataclass

import numpy as np

from chirality_lab.gauge import (
    GaugeStall,
    _closure_factor,
    _continue,
    _projected_solve,
    _stream_potential,
)
from chirality_lab.hyperunitary import (
    qp_commutator,
    qp_conj_t,
    qp_dagger_defect,
    qp_exp_asd,
    qp_matmul,
    qp_matvec,
)
from chirality_lab.norms import l2_norm, pointwise_abs

__all__ = [
    "PGaugeResult",
    "pn_apply",
    "p_gauge_solve",
    "chi_potential",
    "p_contraction_chain",
    "p_gauge_structures",
]


@dataclass
class PGaugeResult:
    p: tuple
    residual: float
    residual_1i: float
    residual_jk: float
    residual_jk_mean: float
    theta: float
    continuation_steps: int
    t_reached: float

    @property
    def unitarity_defect(self):
        return _unitarity_defect(self.p)


def _unitarity_defect(p):
    """max |conj(P)^t P - I| over both parts of the pair."""
    x, y = qp_matmul(qp_conj_t(p), p)
    return max(
        float(np.max(np.abs(x - np.eye(x.shape[-1])))), float(np.max(np.abs(y)))
    )


def _grad_pair(plan, m):
    """Gradient of a complex-pair table as (d1 pair, d2 pair)."""
    (x1, x2), (y1, y2) = plan.grad(m[0]), plan.grad(m[1])
    return (x1, y1), (x2, y2)


def p_connection(plan, p):
    pct = qp_conj_t(p)
    g1, g2 = _grad_pair(plan, p)
    return qp_matmul(pct, g1), qp_matmul(pct, g2)


def _jk_of(x1, x2):
    # Y part of X1 - X2 * i; right-i sends (X, Y) to (iX, -iY)
    return x1[1] + 1j * x2[1]


def pn_apply(plan, p, check=True):
    """N(P) as (complex skew-Hermitian table V, complex symmetric table T)."""
    if check:
        defect = _unitarity_defect(p)
        if defect > 1e-9:
            raise ValueError(f"field is not hyper-unitary (defect {defect:.3e})")
    x1, x2 = p_connection(plan, p)
    return plan.div(x1[0], x2[0]), _jk_of(x1, x2)


def pl1_solve(plan, v_rhs, t_rhs):
    """Invert the base linearization: Lap X_u = V, 2 d_zbar Y_u = T."""
    return plan.inv_laplacian(v_rhs), plan.cauchy_solve(0.5 * t_rhs)


class _HyperUnitary:
    """Hyper-unitary fields and anti-self-dual increments as (X, Y) pairs
    of (n, n, d, d) tables."""

    line = "1i-line"
    w_dtype = complex
    result = PGaugeResult

    def identity(self, v):
        eye = np.broadcast_to(np.eye(v.shape[-1], dtype=complex), v.shape)
        return eye.copy(), np.zeros_like(eye)

    def zero(self, v):
        return np.zeros(v.shape, dtype=complex), np.zeros(v.shape, dtype=complex)

    def n_apply(self, plan, p):
        return pn_apply(plan, p, check=False)

    def perturbation(self, plan, x1, x2, u):
        c1 = qp_commutator(x1, u)
        c2 = qp_commutator(x2, u)
        return plan.div(c1[0], c2[0]), _jk_of(c1, c2)

    def base_solve(self, plan, v, t):
        return pl1_solve(plan, v, t)

    def linear_solve(self, plan, p, v, t, tol, max_iter):
        x1, x2 = p_connection(plan, p)
        return _projected_solve(self, plan, x1, x2, v, t, tol, max_iter)

    def sup(self, u, v=None):
        """Sup norm of u, or of u - v."""
        if v is not None:
            u = self.parts(np.subtract, u, v)
        return max(float(np.max(np.abs(u[0]))), float(np.max(np.abs(u[1]))))

    def retract(self, p, u, s):
        return qp_matmul(p, qp_exp_asd((s * u[0], s * u[1])))

    def grad_l2(self, plan, p):
        gx, gy = _grad_pair(plan, p)
        return l2_norm(plan.grid, *gx, *gy)

    def grad(self, plan, m):
        return _grad_pair(plan, m)

    def parts(self, fn, *pairs):
        """fn applied part by part: to the X parts, then to the Y parts."""
        return tuple(fn(*part) for part in zip(*pairs))

    def act(self, w, v):
        return qp_matvec(w, v)

    def mag(self, *pairs):
        """Pointwise magnitude of pairs of (n, n, d) vector tables."""
        return pointwise_abs(*(part for pair in pairs for part in pair))


_HYPER_UNITARY = _HyperUnitary()


def p_gauge_solve(plan, v_target, t_target, config=None):
    """Continuation solve of N(P) = (V, T) over hyper-unitary fields."""
    return _continue(_HYPER_UNITARY, plan, v_target, t_target, config)


def chi_potential(plan, p, precondition_tol=1e-6):
    """Stream potential of the 1i-line of the matrix connection; see
    gauge.zeta_potential."""
    x1, x2 = p_connection(plan, p)
    return _stream_potential(
        plan, x1[0], x2[0], _HYPER_UNITARY.grad_l2(plan, p), _HYPER_UNITARY.line,
        precondition_tol,
    )


def absorbed_residual(plan, p, chi, gamma1, g_pair):
    """Residual of d1(PG) - d2(P i G) = 2 P (-i d_L chi + Gamma1) G;
    returns (residual, right side, P G)."""
    pg = qp_matvec(p, g_pair)
    ig = (1j * g_pair[0], 1j * g_pair[1])
    pig = qp_matvec(p, ig)
    lhs = tuple(plan.curl(c2, c1) for c1, c2 in zip(pg, pig))
    chi_x, chi_y = plan.grad(chi)
    dchi = 0.5 * (chi_x - 1j * chi_y)
    m_tot = (-1j * dchi + gamma1[0], gamma1[1])
    rhs_inner = qp_matvec(m_tot, g_pair)
    rhs = qp_matvec(p, rhs_inner)
    rhs = (2.0 * rhs[0], 2.0 * rhs[1])
    return l2_norm(plan.grid, lhs[0] - rhs[0], lhs[1] - rhs[1]), rhs, pg


def p_contraction_chain(plan, p, chi, gamma1, g_pair, b_tol=1e-11, b_max_iter=400):
    """The contraction measurement of gauge.contraction_chain for the doubled
    system: A is the potential of the absorbed right side, and the factor
    is taken against ||P G||_{2,inf}."""
    res, rhs, pg = absorbed_residual(plan, p, chi, gamma1, g_pair)
    eye, zero = _HYPER_UNITARY.identity(p[0])
    w = qp_matmul(qp_matmul(p, (1j * eye, zero)), qp_conj_t(p))
    a = _HYPER_UNITARY.parts(plan.inv_laplacian, rhs)
    out = _closure_factor(_HYPER_UNITARY, plan, w, pg, a, b_tol, b_max_iter)
    return {**out, "absorbed_residual": res}


def p_gauge_structures(plan, gamma, gamma1, g_pair, config=None, partial_ok=False):
    """Full matrix-gauge pipeline: solve N(P) = (0, -2 Gamma), build the
    stream potential chi, and report the absorbed-equation residual and
    contraction factor for the supplied doubled field.

    Chain-derived Gamma (from a rotation frame) admits an exact gauge;
    generic antisymmetric data can be obstructed in the torus harmonic
    sector near t = 1, in which case the continuation stalls.  With
    partial_ok the largest-t partial gauge is used and reported.
    """
    asd = qp_dagger_defect(gamma)
    if asd > 1e-10:
        raise ValueError(f"Gamma is not anti-self-dual (defect {asd:.3e})")
    if np.max(np.abs(gamma[0])) > 0:
        raise ValueError("Gamma must lie in the jk-plane")
    dim = gamma[1].shape[-1]
    v_target = np.zeros((plan.grid.n, plan.grid.n, dim, dim), dtype=complex)
    t_reached = 1.0
    try:
        result = p_gauge_solve(plan, v_target, -2.0 * gamma[1], config)
    except GaugeStall as stall:
        if not partial_ok:
            raise
        result = stall.result
        t_reached = stall.t_reached
    chi, chi_diag = chi_potential(plan, result.p, precondition_tol=1e-2)
    contraction = p_contraction_chain(plan, result.p, chi, gamma1, g_pair)
    return {
        "gauge": result,
        "t_reached": t_reached,
        "chi": chi,
        "chi_diagnostics": chi_diag,
        "absorbed_residual": contraction["absorbed_residual"],
        "contraction": contraction,
    }
