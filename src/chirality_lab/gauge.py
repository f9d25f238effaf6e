"""Coulomb-type gauge construction over the unit quaternions, and the
continuation loop it shares with the hyper-unitary gauge of pgauge.py.

The nonlinear operator sends a unit-quaternion field q to

    N(q) = ( i-part of div(q^-1 grad q),
             jk-part of q^-1 d1 q - (q^-1 d2 q) i )

Targets and residuals use the natural encodings: the i-line component is a
real table, the jk-plane component a complex table g_j + i g_k.  N(q) = y
is solved by numerical continuation along t*y with a damped Newton step
q <- q exp(u) at each level; the linearization at q0 = 1 inverts in closed
form (a Laplace solve for the i-line, a d_zbar solve for the jk-plane).

Torus bookkeeping: the i-line component of N is a divergence and has zero
mean structurally, so targets must be mean-zero there.  The jk-plane mean
of the image is quadratic near q = 1, so linear solves project it out;
intermediate continuation levels track the path to basin accuracy and the
endpoint Newton closes the mean where a solution exists.

The quaternion and the hyper-unitary gauge are one algorithm over two
algebras.  ``_continue`` (levels, damped Newton, line search, step halving,
GaugeStall), ``_projected_solve`` and ``_residual_norms`` exist once and see
the field only through an algebra object: ``_Quaternions`` here,
``_HyperUnitary`` in pgauge.py.  Its members are the identity field and the
zero increment, N, the perturbation L_p - L_1 of the frozen connection, the
base solve L_1^-1, the Newton linear solve, the sup norm of an increment,
the retraction p exp(s u), grad_l2 and the result type.
Residual tables reduce over the grid axes (0, 1) and contract trailing
axes, so the same norms serve (n, n) and (n, n, d, d) tables.

The contraction measurement is shared the same way: ``_stream_potential``
and ``_closure_factor`` (the B fixed point and the weak-L^{2,inf} factor)
see the field through the algebra's ``grad``, ``parts`` (a map over whole
tables or part by part), ``act`` on the transported field and ``mag``.
"""

from dataclasses import dataclass

import numpy as np

from chirality_lab.compensation import PreconditionError
from chirality_lab.field_core import (
    complex_left,
    left_j,
    qconj,
    qexp_pure,
    qmul,
    qnorm,
    qnormalize,
    right_i,
)
from chirality_lab.norms import (
    l2_norm,
    lorentz_l21,
    lorentz_weak_l2,
    pointwise_abs,
    sobolev_neg_1_2,
)

__all__ = [
    "GaugeConfig",
    "GaugeResult",
    "GaugeDivergence",
    "GaugeStall",
    "n_apply",
    "l1_solve",
    "l1_apply",
    "lq_solve",
    "gauge_solve",
    "zeta_potential",
    "contraction_chain",
    "linearization_order",
]

I_UNIT = np.array([0.0, 1.0, 0.0, 0.0])

# continuation budget: smallest step before a stall, Newton steps per level,
# inner iterations per Newton step
DT_MIN = 1e-4
MAX_NEWTON = 20
MAX_INNER = 120


class GaugeDivergence(RuntimeError):
    def __init__(self, message, contraction_estimate):
        super().__init__(f"{message} (estimated contraction {contraction_estimate:.3f})")
        self.contraction_estimate = contraction_estimate


class GaugeStall(RuntimeError):
    def __init__(self, t_reached, result):
        super().__init__(f"continuation stalled at t = {t_reached:.4f}")
        self.t_reached = t_reached
        self.result = result


@dataclass
class GaugeConfig:
    eps0: float = 0.1
    tol: float = 1e-8
    dt: float = 1.0 / 16.0


@dataclass
class GaugeResult:
    q: np.ndarray
    residual: float
    residual_i: float
    residual_jk: float
    residual_jk_mean: float
    theta: float
    continuation_steps: int
    t_reached: float

    @property
    def unit_defect(self):
        return float(np.max(np.abs(qnorm(self.q) - 1.0)))


def _check_unit(q, tol=1e-10):
    defect = float(np.max(np.abs(qnorm(q) - 1.0)))
    if defect > tol:
        raise ValueError(f"field is not unit-quaternion valued (defect {defect:.3e})")


def connection(plan, q):
    """The pure-quaternion pair X_l = q^-1 d_l q."""
    qc = qconj(q)
    qx, qy = plan.grad(q)
    return qmul(qc, qx), qmul(qc, qy)


def n_apply(plan, q, check=True):
    """N(q) as (real i-line table, complex jk-plane table)."""
    if check:
        _check_unit(q)
    x1, x2 = connection(plan, q)
    return plan.div(x1[..., 1], x2[..., 1]), _jk_of(x1, x2)


def _jk_of(x1, x2):
    y = x1 - right_i(x2)
    return y[..., 2] + 1j * y[..., 3]


def l1_apply(plan, u):
    """Linearization at q = 1: (Lap u_i, 2 d_zbar(u_j + i u_k))."""
    w = plan.laplacian(u[..., 1])
    g = 2.0 * plan.d_zbar(u[..., 2] + 1j * u[..., 3])
    return w, g


def l1_solve(plan, w_rhs, g_rhs):
    """Invert the base linearization; right sides are mean-projected."""
    n = plan.grid.n
    u = np.zeros((n, n, 4))
    u[..., 1] = plan.inv_laplacian(w_rhs)
    jk = plan.cauchy_solve(0.5 * g_rhs)
    u[..., 2] = jk.real
    u[..., 3] = jk.imag
    return u


def _residual_norms(plan, w, g):
    """(negative-Sobolev norm of the i-part, L2 of the oscillatory jk-part,
    L2 carried by the jk mean); trailing matrix axes are contracted."""
    w0 = w - w.mean(axis=(0, 1))
    g_mean = g.mean(axis=(0, 1))
    # builtin abs of a scalar mean: np.abs can differ from it in the last bit
    mean_abs = abs(g_mean) if g_mean.ndim == 0 else np.sqrt(np.sum(np.abs(g_mean) ** 2))
    mean_l2 = float(mean_abs * plan.grid.length)
    return sobolev_neg_1_2(plan, w0), l2_norm(plan.grid, g - g_mean), mean_l2


def _projected_solve(alg, plan, x1, x2, w_rhs, g_rhs, tol, max_iter):
    """Mean-projected stationary iteration u <- L1^-1(rhs - pert(u));
    converges geometrically while the frozen connection is small."""
    u = alg.zero(w_rhs)
    scale = max(np.abs(w_rhs).max(), np.abs(g_rhs).max(), 1e-300)
    prev = np.inf
    bad = 0
    change = np.inf
    for it in range(max_iter):
        pw, pg = alg.perturbation(plan, x1, x2, u)
        rw = w_rhs - pw
        u_new = alg.base_solve(plan, rw - rw.mean(axis=(0, 1)), g_rhs - pg)
        change = alg.sup(u_new, u)
        u = u_new
        if change < tol * max(scale, alg.sup(u)):
            return u, it + 1
        if change > prev * 1.0001:
            bad += 1
            if bad >= 4:
                raise GaugeDivergence(
                    "preconditioned iteration diverges", change / max(prev, 1e-300)
                )
        else:
            bad = 0
        prev = change
    raise GaugeDivergence("iteration budget exhausted", change / max(prev, 1e-300))


def lq_solve(plan, q0, w_rhs, g_rhs, tol=1e-11, max_iter=MAX_INNER):
    """Solve the mean-projected L_q0(u) = (w, g).

    The jk-plane mean is a 2-dimensional harmonic sector reachable only at
    second order in the connection (the image mean of N is quadratic near
    q = 1), so the linear solve projects it out; the outer Newton flow
    carries the mean along and closes it at the end of the continuation.

    Returns (u, iterations).  Raises GaugeDivergence when the inner
    iteration stops contracting.
    """
    x1, x2 = connection(plan, q0)
    return _projected_solve(_QUATERNIONS, plan, x1, x2, w_rhs, g_rhs, tol, max_iter)


class _Quaternions:
    """Unit-quaternion fields (n, n, 4), pure-quaternion increments."""

    line = "i-line"
    w_dtype = float
    result = GaugeResult

    def identity(self, w):
        q = self.zero(w)
        q[..., 0] = 1.0
        return q

    def zero(self, w):
        return np.zeros(w.shape + (4,))

    def n_apply(self, plan, q):
        return n_apply(plan, q, check=False)

    def perturbation(self, plan, x1, x2, u):
        """L_q0(u) - L_1(u): commutator terms of the frozen connection."""
        c1 = qmul(x1, u) - qmul(u, x1)
        c2 = qmul(x2, u) - qmul(u, x2)
        return plan.div(c1[..., 1], c2[..., 1]), _jk_of(c1, c2)

    def base_solve(self, plan, w, g):
        return l1_solve(plan, w, g)

    def linear_solve(self, plan, q, w, g, tol, max_iter):
        return lq_solve(plan, q, w, g, tol=tol, max_iter=max_iter)

    def sup(self, u, v=None):
        """Sup norm of u, or of u - v."""
        return float(np.max(qnorm(u if v is None else u - v)))

    def retract(self, q, u, s):
        return qnormalize(qmul(q, qexp_pure(s * u)))

    def grad_l2(self, plan, q):
        return l2_norm(plan.grid, *plan.grad(q))

    def grad(self, plan, f):
        return plan.grad(f)

    def parts(self, fn, *tables):
        """fn applied to whole tables."""
        return fn(*tables)

    def act(self, w, f):
        return qmul(w, f)

    def mag(self, *tables):
        return pointwise_abs(*tables)


_QUATERNIONS = _Quaternions()


def _continue(alg, plan, w_target, g_target, config):
    """Continuation for N(p) = (w, g) over the algebra alg: the levels t*(w, g)
    are solved by damped Newton from the previous level's field.

    A level that fails is retried at half the step; GaugeStall (carrying the
    partial result at the last accepted t) is raised once the step drops
    below DT_MIN.
    """
    cfg = config or GaugeConfig()
    w_target = np.asarray(w_target, dtype=alg.w_dtype)
    g_target = np.asarray(g_target, dtype=complex)
    w_mean = w_target.mean(axis=(0, 1))
    w_scale = max(float(np.max(np.abs(w_target))), 1e-300)
    if np.max(np.abs(w_mean)) > 1e-10 * w_scale:
        raise ValueError(f"the {alg.line} target must be mean-zero on the torus")
    target_size = sobolev_neg_1_2(plan, w_target - w_mean) + l2_norm(
        plan.grid, g_target
    )
    if target_size > cfg.eps0:
        raise ValueError(f"target norm {target_size:.3e} exceeds eps0 = {cfg.eps0}")

    p = alg.identity(w_target)
    t = 0.0
    dt = cfg.dt
    steps = 0

    def residual(p_now, t_now):
        """(rw, rg, oscillatory residual, i-part, jk-part, jk-mean)."""
        nw, ng = alg.n_apply(plan, p_now)
        rw = t_now * w_target - nw
        rg = t_now * g_target - ng
        ri, rjk, rmean = _residual_norms(plan, rw, rg)
        return rw, rg, ri + rjk, ri, rjk, rmean

    def finish(t_now):
        _, _, _, ri, rjk, rmean = residual(p, t_now)
        theta = alg.grad_l2(plan, p) / target_size if target_size > 0 else 0.0
        return alg.result(p, ri + rjk + rmean, ri, rjk, rmean, theta, steps, t_now)

    tol_floor = max(cfg.tol, 1e-13 * max(target_size, 1.0))

    def level_converged(res_osc, rmean, t_now, dt_now):
        # intermediate levels only need basin-tracking accuracy; the jk mean
        # follows quadratically and is enforced at the endpoint, where the
        # final Newton polish closes it
        if t_now >= 1.0 - 1e-12:
            return res_osc + rmean <= tol_floor
        return res_osc <= max(tol_floor, 0.02 * dt_now * target_size)

    while t < 1.0 - 1e-12:
        t_next = min(t + dt, 1.0)
        p_level = p
        rw, rg, res, _, _, rmean = residual(p, t_next)
        for _ in range(MAX_NEWTON):
            if level_converged(res, rmean, t_next, dt):
                break
            try:
                u, _ = alg.linear_solve(
                    plan, p, rw, rg, 1e-3 * res / max(target_size, 1e-300), MAX_INNER
                )
            except GaugeDivergence:
                break
            u = alg.parts(plan.dealias, u)
            s = 1.0
            while s >= 1.0 / 32.0:
                p_try = alg.retract(p, u, s)
                rw2, rg2, res2, _, _, rmean2 = residual(p_try, t_next)
                if res2 < res * (1.0 - 0.25 * s) or level_converged(
                    res2, rmean2, t_next, dt
                ):
                    p, rw, rg, res, rmean = p_try, rw2, rg2, res2, rmean2
                    break
                s *= 0.5
            else:
                break
        if level_converged(res, rmean, t_next, dt):
            t = t_next
            steps += 1
            dt = cfg.dt
        else:
            p = p_level
            dt *= 0.5
            if dt < DT_MIN:
                raise GaugeStall(t, finish(t))
    return finish(1.0)


def gauge_solve(plan, w_target, g_target, config=None):
    """Numerical continuation for N(q) = (w, g) over unit quaternions.

    Targets must have a mean-zero i-line part (structural on the torus).
    Raises GaugeStall (carrying the partial result) when step halving
    drops below DT_MIN.
    """
    return _continue(_QUATERNIONS, plan, w_target, g_target, config)


def linearization_order(plan, u, ts=(0.1, 0.05, 0.025)):
    """Measured order of || N(exp(t u)) - t L1(u) || in t (expected 2)."""
    lw, lg = l1_apply(plan, u)
    vals = []
    for t in ts:
        q = qexp_pure(t * u)
        nw, ng = n_apply(plan, q, check=False)
        rw = nw - t * lw
        rg = ng - t * lg
        ri, rjk, rmean = _residual_norms(plan, rw, rg)
        vals.append(ri + rjk + rmean)
    fit = np.polyfit(np.log(ts), np.log(vals), 1)
    return float(fit[0]), vals


def _stream_potential(plan, a1, a2, grad_p_l2, line, precondition_tol):
    """Stream potential psi of a divergence-free line connection (a1, a2),
    a = mean(a) + grad_perp(psi), on (n, n) or (n, n, d, d) tables.

    grad_p_l2 is ||grad p||_2 of the gauge.  Returns (psi, diagnostics) with
    the compensation ratio ||grad psi||_{2,1} / ||grad p||_2^2; raises
    PreconditionError when the divergence does not vanish.
    """
    grid = plan.grid
    scale = max(grad_p_l2**2, 1e-300)
    dres = l2_norm(grid, plan.div(a1, a2))
    if dres > precondition_tol * scale:
        raise PreconditionError(f"{line} of the connection is not divergence free", dres)
    psi = plan.inv_laplacian(plan.curl(a1, a2))
    px, py = plan.grad(psi)
    rel_res = l2_norm(
        grid, (a1 - a1.mean(axis=(0, 1))) + py, (a2 - a2.mean(axis=(0, 1))) - px
    )
    l21 = lorentz_l21(grid, pointwise_abs(px, py))
    return psi, {
        "divergence_residual": dres,
        "stream_residual": rel_res,
        "grad_potential_l21": l21,
        "grad_gauge_l2": grad_p_l2,
        "wente_ratio": l21 / scale,
    }


def zeta_potential(plan, q, precondition_tol=1e-6):
    """Stream potential of the i-line of the connection.

    Requires the first gauge equation (i-line divergence zero); returns
    (zeta, diagnostics) with the compensation ratio
    ||grad zeta||_{2,1} / ||grad q||_2^2.
    """
    x1, x2 = connection(plan, q)
    return _stream_potential(
        plan, x1[..., 1], x2[..., 1], _QUATERNIONS.grad_l2(plan, q),
        _QUATERNIONS.line, precondition_tol,
    )


def _transported(plan, q, frak_f, zeta):
    """(q f, q i f, 2 q (d_z zeta) f): the transported field, its i-turn and
    the right side of d1[q f] - d2[q i f]."""
    qf = qmul(q, frak_f)
    qif = qmul(q, qmul(np.broadcast_to(I_UNIT, q.shape), frak_f))
    zx, zy = plan.grad(zeta)
    rhs = 2.0 * qmul(q, complex_left(0.5 * (zx - 1j * zy), frak_f))
    return qf, qif, rhs


def _closure_factor(alg, plan, w, pf, a, b_tol, b_max_iter):
    """Split the transported field pf over the algebra alg into the
    potential part A (given) and the closing part B, which solves
    Lap B = -div(w (grad A + grad_perp B)) by fixed point; w = p i p^-1.

    Returns the record of the measurement with the factor
    (||grad A||_{2,inf} + ||grad B||_{2,inf}) / ||pf||_{2,inf}, NaN (and
    degenerate) for zero data.
    """
    if alg.sup(pf) == 0.0:
        return {"degenerate": True, "factor": np.nan, "b_converged": False,
                "b_iterations": 0}
    grid = plan.grid
    ax, ay = alg.grad(plan, a)
    b = alg.parts(np.zeros_like, a)
    converged = False
    for it in range(b_max_iter):
        bx, by = alg.grad(plan, b)
        t1 = alg.act(w, alg.parts(np.subtract, ax, by))
        t2 = alg.act(w, alg.parts(np.add, ay, bx))
        b_new = alg.parts(lambda u1, u2: plan.inv_laplacian(-plan.div(u1, u2)), t1, t2)
        change = alg.sup(b_new, b)
        b = b_new
        if change < b_tol * max(alg.sup(b), 1e-300):
            converged = True
            break
    weak_pf = lorentz_weak_l2(grid, alg.mag(pf))
    bx, by = alg.grad(plan, b)
    weak_a = lorentz_weak_l2(grid, alg.mag(ax, ay))
    weak_b = lorentz_weak_l2(grid, alg.mag(bx, by))
    return {
        "degenerate": False,
        "factor": float((weak_a + weak_b) / max(weak_pf, 1e-300)),
        "b_converged": converged,
        "b_iterations": it + 1,
        "weak_transported": weak_pf,
    }


def contraction_chain(plan, frak_f, omega, q, zeta, pre_tol=1e-6,
                      b_tol=1e-11, b_max_iter=400):
    """Measured factor of the closure estimate chain.

    For frak_f near-solving d_L f = omega j f (omega complex; d_z(alpha)
    in the chirality chain) and a gauge q with N(q) = (0, -2 omega), the
    transported field satisfies d1[q f] - d2[q i f] = q (2 d_z zeta) f.
    A is the mean-zero potential of that right side; B closes the
    divergence-free remainder via its own elliptic equation solved by
    fixed point.  The returned factor is

        (||grad A||_{2,inf} + ||grad B||_{2,inf}) / ||q f||_{2,inf}

    which is below one exactly when the chain contracts at this scale.
    """
    eq_res = l2_norm(plan.grid, plan.d_left(frak_f) - complex_left(omega, left_j(frak_f)))
    f_l2 = l2_norm(plan.grid, frak_f)
    if eq_res > pre_tol * max(f_l2, 1e-300):
        raise PreconditionError("frak_f does not near-solve the equation", eq_res)

    qf, qif, rhs = _transported(plan, q, frak_f, zeta)
    # identity check: d1[qf] - d2[q i f] = rhs up to the gauge residual
    transport_res = l2_norm(plan.grid, plan.curl(qif, qf) - rhs)
    w = qmul(qmul(q, np.broadcast_to(I_UNIT, q.shape)), qconj(q))
    out = _closure_factor(
        _QUATERNIONS, plan, w, qf, plan.inv_laplacian(rhs), b_tol, b_max_iter
    )
    return {**out, "transport_residual": transport_res, "equation_residual": eq_res}
