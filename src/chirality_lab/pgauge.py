"""Gauge construction over quaternion-unitary matrix fields: the one gauge
solver of the package.

Fields P with conj(P)^t P = I act on the doubled 2n-component systems.
Matrices are carried in the complex-pair representation (X, Y) of
hyperunitary.py: the 1i-plane of a quaternion matrix is its X part, the
jk-plane its Y part.  Unit quaternions are the 1 x 1 case (Sp(1)), so the
quaternion gauge of gauge.py runs this code at d = 1 and converts its
tables at the boundary.

The operator is

    N(P) = ( 1i-part of div(P^-1 grad P),
             jk-part of P^-1 d1 P - (P^-1 d2 P) i )

with the 1i-line component a skew-Hermitian table V and the jk-plane
component a complex symmetric table T.  N(P) = (V, T) is solved by
damped Newton, P <- P cay(s u), where cay is the Cayley retraction of
hyperunitary.qp_cayley_asd.  The line search tries s = 1 and s = 1/2
only: near an obstruction the residual sits on a floor that no shorter
step lowers (backtracking as in Dennis & Schnabel, Numerical Methods for
Unconstrained Optimization and Nonlinear Equations, SIAM 1996, 6.3).
Newton comes first: the first level is t = 1 itself, tried from P = I.
Only when it is rejected does numerical continuation along t*(V, T) take
over, as a globalization used where Newton's basin is left (Deuflhard,
Newton Methods for Nonlinear Problems, Springer 2004).  The continuation
starts again from t = 0 and P = I; its step starts at GaugeConfig.dt,
doubles after each accepted level and, after a rejected one, halves until
the next level lies below the failed one (step-length control as in
Allgower & Georg, Introduction to Numerical Continuation Methods, SIAM
2003).  A rejected level is therefore not retried at once, but on data
that stall near 1 the doubling after an accepted level clips the step to
t = 1 again.  The continuation stalls at the second rejected level in a
row.  That level lies below 1, at the bound 0.02 dt |target| of its halved
step, which only gets stricter as the step halves further: its failure
marks a residual floor that no level closer in t meets.  Where accepted
levels and rejections at t = 1 alternate, the step falls below DT_MIN and
the continuation stalls there.

The linearization at P = I inverts in closed form (a Laplace solve for
the 1i-line, a d_zbar solve for the jk-plane); the Newton solve iterates
it against the commutator terms of the frozen connection, which the
residual evaluation hands over.  The connection and the iterate are both
anti-self-dual, so each commutator [A, u] is A u - (A u)^dagger, and the
two blocks of the connection, stacked, take one product together.  The
evaluation of a field, N(P) with its connection, does not depend on t: an
accepted field's evaluation is handed to the next level and to the
result, and P = I, where both vanish, needs none, at the direct attempt
or at the continuation's start, where the Newton step is L_I^-1 of the
residual in closed form.

The Newton step stays in Fourier space between its pointwise products,
through the spectrum level of SpectralPlan (batched transforms of tables
stacked on a leading axis, the multipliers, and the plan's gradient and
divergence of stacked spectra).  An evaluation takes grad P with one
forward transform of (X, Y) and one inverse of the four derivatives, and
keeps the 1i-part of N, the divergence of the connection's 1i-line, as a
spectrum: it is used only through its H^-1 norm and as the Newton right
side.  Each inner iteration makes one batched forward transform of the
commutator terms and one batched inverse of the new iterate, and the step
is dealiased on the last iterate's spectrum.  The result's theta reads
||grad P||_2 from the held connection, since P acts isometrically:
||grad P||_2 = ||P^-1 grad P||_2.

Torus bookkeeping: the 1i-line component of N is a divergence and has zero
mean structurally, so targets must be mean-zero there.  The jk-plane mean
of the image is quadratic near P = I, so linear solves project it out;
intermediate continuation levels track the path to basin accuracy, and
the mean is enforced only at t = 1.  On generic data it sits on a floor
there that Newton has not closed, and the continuation stalls.  Residual
tables reduce over the grid axes (0, 1) and contract the matrix axes.

The stream potential chi of the 1i-line of the connection (p_connection is
the one P^-1 grad P of the module; the result holds the solver's
connection of the returned gauge, which chi reads) and the contraction
measurement (the B fixed point and the weak-L^{2,inf} factor) complete
the pipeline of p_gauge_structures, which runs every chain trial of the
experiments, on systems.chain_quaternion (d = 1) or chain_doubled data.
linearization_order checks the operator against its linearization at
P = I along the Newton step's retraction.
"""

from dataclasses import dataclass

import numpy as np

from chirality_lab.compensation import PreconditionError
from chirality_lab.hyperunitary import (
    qp_cayley_asd,
    qp_conj_t,
    qp_dagger_defect,
    qp_matmul,
    qp_matvec,
    qp_row_matmul,
)
from chirality_lab.norms import (
    l2_norm,
    lorentz_weak_l2,
    pointwise_abs,
    spectral_neg_1_2,
)

__all__ = [
    "GaugeConfig",
    "GaugeDivergence",
    "GaugeStall",
    "PGaugeResult",
    "pn_apply",
    "p_gauge_solve",
    "linearization_order",
    "chi_potential",
    "chi_from_connection",
    "p_contraction_chain",
    "p_gauge_structures",
]

# continuation budget: smallest step before a stall, Newton steps per level,
# smallest line-search fraction of a Newton step, inner iterations per
# Newton step
DT_MIN = 1e-4
MAX_NEWTON = 20
MIN_STEP_FRACTION = 0.5
MAX_INNER = 120
# fixed point for B in the contraction chain: relative change at which it
# has converged, and its iteration budget
B_TOL = 1e-11
B_MAX_ITER = 400
# steps t of linearization_order's fit
LINEARIZATION_STEPS = (0.1, 0.05, 0.025)


class GaugeDivergence(RuntimeError):
    def __init__(self, message, contraction_estimate):
        super().__init__(f"{message} (estimated contraction {contraction_estimate:.3f})")
        self.contraction_estimate = contraction_estimate


class GaugeStall(RuntimeError):
    """The continuation stalled at t_reached; result is the partial gauge.
    rule names what stopped it: "two levels in a row rejected" or "step
    below DT_MIN".  residual, bound and jk_mean are the last failed level's
    oscillatory residual, its acceptance bound and its jk mean: the level
    failed because residual (plus jk_mean at t = 1) exceeds bound."""

    def __init__(self, t_reached, result, residual, bound, jk_mean, rule):
        # the continuation stalls right after a rejected level
        t_failed, dt_failed, _ = result.levels[-1]
        if t_failed >= 1.0 - 1e-12:
            reason = f"residual with jk mean {residual + jk_mean:.2e}"
        else:
            reason = f"oscillatory residual {residual:.2e}"
        super().__init__(
            f"continuation stalled at t = {t_reached:.4f}, {rule} "
            f"(last failed level t = {t_failed:.6g}, dt = {dt_failed:.3g}: "
            f"{reason} > bound {bound:.2e}, jk mean {jk_mean:.2e})"
        )
        self.rule = rule
        self.t_reached = t_reached
        self.result = result
        self.residual = residual
        self.bound = bound
        self.jk_mean = jk_mean


@dataclass
class GaugeConfig:
    eps0: float = 0.1
    tol: float = 1e-8
    dt: float = 1.0 / 16.0


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
    # one (t, dt, accepted) record per attempted level, in order; dt is the
    # step the level was tried with, t = min(previous t + dt, 1)
    levels: tuple
    # the solver's connection P^-1 grad P of p, as the pair (P^-1 d1 P,
    # P^-1 d2 P), for the caller's stream potential; four tables, so
    # p_gauge_structures and the (n, n, 4) adapter release it (None)
    connection: tuple

    @property
    def unitarity_defect(self):
        return _unitarity_defect(self.p)


def _unitarity_defect(p):
    """max |conj(P)^t P - I| over both parts of the pair."""
    x, y = qp_matmul(qp_conj_t(p), p)
    return max(
        float(np.max(np.abs(x - np.eye(x.shape[-1])))), float(np.max(np.abs(y)))
    )


def p_connection(plan, p):
    """P^-1 grad P as the pair (P^-1 d1 P, P^-1 d2 P): one forward transform
    of (X, Y), one inverse of the four derivatives and two products."""
    pct = qp_conj_t(p)
    g = plan.gradient(plan.forward(np.stack(p)))
    return qp_matmul(pct, (g[0], g[1])), qp_matmul(pct, (g[2], g[3]))


def _jk_of(x1, x2):
    # Y part of X1 - X2 * i; right-i sends (X, Y) to (iX, -iY)
    return x1[1] + 1j * x2[1]


def pn_apply(plan, p, check=True):
    """N(P) and the connection (X1, X2) = P^-1 grad P it was computed from.

    N(P) comes as (spectrum of the complex skew-Hermitian table V, complex
    symmetric table T): V, the divergence of the connection's 1i-line, is
    used only through its H^-1 norm and as the Newton right side, so it
    stays a spectrum."""
    if check:
        defect = _unitarity_defect(p)
        if defect > 1e-9:
            raise ValueError(f"field is not hyper-unitary (defect {defect:.3e})")
    x1, x2 = p_connection(plan, p)
    nv_hat = plan.divergence(plan.forward(np.stack((x1[0], x2[0]))))
    return (nv_hat, _jk_of(x1, x2)), (x1, x2)


def pl1_solve(plan, v_hat, t_hat):
    """Invert the base linearization on spectra, Lap X_u = V and
    2 d_zbar Y_u = T; the zero modes are dropped, which projects out the
    means.  Returns the spectra of X_u and Y_u stacked on a leading axis."""
    sym = plan.multipliers(v_hat)
    out = np.empty((2,) + v_hat.shape, dtype=complex)
    np.multiply(v_hat, sym.inv_lap, out=out[0])
    np.multiply(t_hat, sym.inv_dzbar, out=out[1])
    out[1] *= 0.5
    return out


def _stacked_rows(*ms):
    """Top block row [X | Y] of the complex embedding of the d x d
    quaternion matrices ms stacked on top of each other."""
    return np.concatenate(
        (np.concatenate([m[0] for m in ms], axis=-2),
         np.concatenate([m[1] for m in ms], axis=-2)),
        axis=-1,
    )


def _asd_commutators(a_rows, b):
    """Yields [A_l, B] = A_l B - (A_l B)^dagger for the matrices A_l whose
    stacked rows are a_rows (_stacked_rows), in order: one product for all
    of them, and exact when every A_l and B are anti-self-dual, since then
    (A_l B)^dagger = B A_l."""
    x, y = qp_row_matmul(a_rows, b)
    d = b[0].shape[-1]
    for k in range(0, x.shape[-2], d):
        xl, yl = x[..., k : k + d, :], y[..., k : k + d, :]
        yield xl - np.conj(np.swapaxes(xl, -1, -2)), yl + np.swapaxes(yl, -1, -2)


def _perturbation_spectra(plan, conn_rows, u, out):
    """Spectra of L_P(u) - L_I(u), the commutator terms of the frozen
    connection (x1, x2), given by its stacked rows; it is anti-self-dual like
    u, so both take one product.  out, three tables stacked on its leading
    axis, receives the 1i-parts of [x1, u] and [x2, u] and the jk-part of
    the pair and takes one batched forward transform; returns the spectra of
    the div term and of the jk term, the latter a view of out."""
    commutators = _asd_commutators(conn_rows, u)
    out[0], out[2] = next(commutators)
    c = next(commutators)
    out[1] = c[0]
    out[2] += 1j * c[1]
    del c, commutators
    plan.forward(out)
    return plan.divergence(out), out[2]


def _residual_norms(plan, v_hat, t):
    """(negative-Sobolev norm of the 1i-part, given as a spectrum, L2 of the
    oscillatory jk-part, L2 carried by the jk mean); the matrix axes are
    contracted."""
    t_mean = t.mean(axis=(0, 1))
    mean_l2 = float(np.sqrt(np.sum(np.abs(t_mean) ** 2)) * plan.grid.length)
    return spectral_neg_1_2(plan, v_hat), l2_norm(plan.grid, t - t_mean), mean_l2


def _projected_solve(plan, conn_rows, v_hat, t_hat, tol, max_iter):
    """Solve the mean-projected L_P(u) = (V, T), given as spectra, for the
    connection (x1, x2) of P, given as _stacked_rows(x1, x2), by the
    stationary iteration u <- L_I^-1(rhs - pert(u)), which converges
    geometrically while the connection is small.

    The iteration runs in Fourier space between its pointwise products:
    each step forms the commutator terms in one batched forward transform,
    the new iterate's spectrum as L_I^-1 of the right side minus their
    div/jk parts, and both parts of u in one batched inverse transform, for
    the next products and the sup-norm test against the right side's values.
    The jk-plane mean is a harmonic sector reachable only at second order
    in the connection, so the solve projects it out (the zero modes of
    L_I^-1).  The outer Newton flow moves the mean only through that second
    order: on chain data, which admit an exact gauge, it closes at t = 1,
    and on generic data it stays on a floor (a stall).  Returns (u, the
    spectra of u's two parts stacked on a leading axis, iterations); raises
    GaugeDivergence when the iteration stops contracting.
    """
    rhs = np.stack((v_hat, t_hat))
    scale = max(float(np.max(np.abs(plan.inverse(rhs, out=rhs)))), 1e-300)
    del rhs
    work = np.empty((3,) + v_hat.shape, dtype=complex)
    u = np.zeros((2,) + v_hat.shape, dtype=complex)
    # the perturbation of the zero start vanishes
    rv, rt = v_hat, t_hat
    prev = np.inf
    bad = 0
    for it in range(max_iter):
        if it:
            rv, rt = _perturbation_spectra(plan, conn_rows, (u[0], u[1]), work)
            np.subtract(v_hat, rv, out=rv)
            np.subtract(t_hat, rt, out=rt)
        u_hat = pl1_solve(plan, rv, rt)
        u_new = plan.inverse(u_hat)
        change = float(np.max(np.abs(u_new - u)))
        u = u_new
        if change < tol * max(scale, float(np.max(np.abs(u)))):
            return (u[0], u[1]), u_hat, it + 1
        ratio = change / max(prev, 1e-300)
        if change > prev * 1.0001:
            bad += 1
            if bad >= 4:
                raise GaugeDivergence("preconditioned iteration diverges", ratio)
        else:
            bad = 0
        prev = change
    raise GaugeDivergence("iteration budget exhausted", ratio)


def p_gauge_solve(plan, v_target, t_target, config=None):
    """Solve N(P) = (V, T) over hyper-unitary fields by damped Newton,
    directly or along the continuation levels t*(V, T).

    The 1i-line target must be mean-zero (structural on the torus).  The
    first level is t = 1, tried from P = I with dt = 1; when it is accepted
    the solve is done.  Otherwise the continuation runs from t = 0 and
    P = I, each level solved from the previous level's field.  Its first
    step is GaugeConfig.dt; the step doubles (up to 1) after each accepted
    level.  After a rejected level it halves until the next level lies
    below the failed one, so the retry lies below the failed t; t = 1 is
    tried again after each later accepted level whose doubled step reaches
    it.  Each Newton step's line search tries the fractions s = 1 and 1/2
    of the step.  GaugeStall (carrying the partial result at the last
    accepted t, the failed level's residual against its bound, and the
    rule that stopped the run) is raised at the second continuation level
    in a row that is rejected, or once the step drops below DT_MIN; the
    direct attempt counts toward neither.  Intermediate levels are
    accepted at an oscillatory residual of 0.02 min(dt, GaugeConfig.dt)
    |target|, whatever the step has grown to, so GaugeConfig.dt also caps
    the partial gauge's residual.  The result lists every attempted level,
    the direct attempt first, as (t, dt, accepted), and holds the
    connection P^-1 grad P of the returned gauge from its evaluation.

    From P = I, the start of both the direct attempt and the continuation,
    the connection vanishes: the first Newton step is pl1_solve of the
    residual, with no inner iteration, and its line search takes cay(s u)
    with no product.
    """
    cfg = config or GaugeConfig()
    v_target = np.asarray(v_target, dtype=complex)
    t_target = np.asarray(t_target, dtype=complex)
    v_mean = v_target.mean(axis=(0, 1))
    v_scale = max(float(np.max(np.abs(v_target))), 1e-300)
    if np.max(np.abs(v_mean)) > 1e-10 * v_scale:
        raise ValueError("the 1i-line target must be mean-zero on the torus")
    # the 1i-line enters the residual as a spectrum, as N's does
    v_hat = plan.spectrum(v_target)
    target_size = spectral_neg_1_2(plan, v_hat) + l2_norm(plan.grid, t_target)
    if target_size > cfg.eps0:
        raise ValueError(f"target norm {target_size:.3e} exceeds eps0 = {cfg.eps0}")

    eye = np.broadcast_to(np.eye(v_target.shape[-1], dtype=complex), v_target.shape)
    p = eye.copy(), np.zeros_like(eye)
    # the evaluation (N(P), P^-1 grad P) of the accepted field p, or None
    # once newton() has released it; N(I) and the connection of I vanish,
    # so both starts from P = I take p's zero Y part, with no FFT
    ev = ev_identity = (p[1], p[1]), ((p[1], p[1]), (p[1], p[1]))
    # the direct attempt: t = 1 in one step
    t = 0.0
    dt = 1.0
    direct = True
    last_rejected = False
    levels = []

    def level_residual(ev_now, t_now):
        """Residual tables (rv, rt) of an evaluation at level t_now, and the
        norms (oscillatory, 1i-part, jk-part, jk-mean)."""
        (nv_hat, nt), _ = ev_now
        rv_hat = t_now * v_hat
        rv_hat -= nv_hat
        rt = t_now * t_target
        rt -= nt
        ri, rjk, rmean = _residual_norms(plan, rv_hat, rt)
        return (rv_hat, rt), (ri + rjk, ri, rjk, rmean)

    def finish(t_now):
        ev_p = pn_apply(plan, p, check=False) if ev is None else ev
        _, (_, ri, rjk, rmean) = level_residual(ev_p, t_now)
        # P acts isometrically, so ||grad P||_2 = ||P^-1 grad P||_2
        x1, x2 = ev_p[1]
        grad_l2 = l2_norm(plan.grid, *x1, *x2)
        theta = grad_l2 / target_size if target_size > 0 else 0.0
        steps = sum(accepted for _, _, accepted in levels)
        return PGaugeResult(
            p, ri + rjk + rmean, ri, rjk, rmean, theta, steps, t_now,
            tuple(levels), ev_p[1],
        )

    tol_floor = max(cfg.tol, 1e-13 * max(target_size, 1.0))

    def level_bound(t_now, dt_now):
        # intermediate levels only need basin-tracking accuracy; the jk mean
        # follows quadratically and is enforced only at t = 1.  The bound is
        # capped at the continuation's first step, so a partial gauge stays
        # within 0.02 cfg.dt |target| however far the step has grown.
        if t_now >= 1.0 - 1e-12:
            return tol_floor
        return max(tol_floor, 0.02 * min(dt_now, cfg.dt) * target_size)

    def level_converged(res_osc, rmean, t_now, dt_now):
        if t_now >= 1.0 - 1e-12:
            res_osc += rmean
        return res_osc <= level_bound(t_now, dt_now)

    def newton(p, t_now, dt_now):
        """Damped Newton at level t_now from the accepted field p, whose
        evaluation is ev (evaluated here if released); returns the last field
        the line search accepted with its oscillatory and jk-mean residuals,
        and leaves that field's evaluation in ev.

        Memory: each Newton step releases N and the connection before its
        inner solve, which holds the connection as its stacked rows, and
        releases those before its line search, so while a trial is evaluated
        no table of the field the step started from is alive (N, the
        connection and the residual are eight (n, n, d, d) tables).  The
        residual's jk-part becomes the solve's right side in place, and the
        step is dealiased and transformed back in place.  A rejected level
        therefore leaves ev released, and its retry evaluates the start
        field again."""
        nonlocal ev
        if ev is None:
            ev = pn_apply(plan, p, check=False)
        r, (res, _, _, rmean) = level_residual(ev, t_now)
        for _ in range(MAX_NEWTON):
            if level_converged(res, rmean, t_now, dt_now):
                break
            at_eye = ev is ev_identity
            rv_hat, rt = r
            del r
            if at_eye:
                # the connection of I vanishes, so L_I is the linearization
                # and inverts in closed form
                ev = None
                u_hat = pl1_solve(plan, rv_hat, plan.forward(rt[None])[0])
            else:
                conn, ev = _stacked_rows(*ev[1]), None
                try:
                    _, u_hat, _ = _projected_solve(
                        plan, conn, rv_hat, plan.forward(rt[None])[0],
                        1e-3 * res / max(target_size, 1e-300), MAX_INNER,
                    )
                except GaugeDivergence:
                    break
                del conn
            del rv_hat, rt
            # dealias the step: product tails must not compound
            u_hat *= plan.multipliers(u_hat[0]).keep
            u = plan.inverse(u_hat, out=u_hat)
            u = u[0], u[1]
            del u_hat
            s = 1.0
            while s >= MIN_STEP_FRACTION:
                p_try = qp_cayley_asd((s * u[0], s * u[1]))
                if not at_eye:
                    p_try = qp_matmul(p, p_try)
                ev_try = pn_apply(plan, p_try, check=False)
                r, (res2, _, _, rmean2) = level_residual(ev_try, t_now)
                if res2 < res * (1.0 - 0.25 * s) or level_converged(
                    res2, rmean2, t_now, dt_now
                ):
                    p, ev, res, rmean = p_try, ev_try, res2, rmean2
                    break
                del r, ev_try
                s *= 0.5
            else:
                break
            del ev_try, u
        return p, res, rmean

    while t < 1.0 - 1e-12:
        t_next = min(t + dt, 1.0)
        p_next, res, rmean = newton(p, t_next, dt)
        accepted = level_converged(res, rmean, t_next, dt)
        levels.append((t_next, dt, accepted))
        if accepted:
            p = p_next
            t = t_next
            dt = min(2.0 * dt, 1.0)
            last_rejected = False
        elif direct:
            # fall back to the continuation from t = 0 and P = I
            ev = ev_identity
            dt = cfg.dt
            direct = False
        else:
            # ev belongs to p_next, or is released
            ev = None
            bound = level_bound(t_next, dt)
            if last_rejected:
                raise GaugeStall(
                    t, finish(t), res, bound, rmean, "two levels in a row rejected"
                )
            while t + dt >= t_next:
                dt *= 0.5
            if dt < DT_MIN:
                raise GaugeStall(t, finish(t), res, bound, rmean, "step below DT_MIN")
            last_rejected = True
    return finish(1.0)


def linearization_order(plan, u):
    """Measured order in t of || N(cay(t u)) - t L1(u) || (expected 2) for
    an anti-self-dual pair u, at the steps LINEARIZATION_STEPS; cay is the
    Newton step's retraction, L1(u) = (Lap X_u, 2 d_zbar Y_u) the
    linearization at P = I and the norm the continuation's residual norm.
    Returns (order, the norms)."""
    x, y = u
    lv_hat, lt = plan.spectrum(plan.laplacian(x)), 2.0 * plan.d_zbar(y)
    vals = []
    for t in LINEARIZATION_STEPS:
        (nv_hat, nt), _ = pn_apply(plan, qp_cayley_asd((t * x, t * y)), check=False)
        ri, rjk, rmean = _residual_norms(plan, nv_hat - t * lv_hat, nt - t * lt)
        vals.append(ri + rjk + rmean)
    fit = np.polyfit(np.log(LINEARIZATION_STEPS), np.log(vals), 1)
    return float(fit[0]), vals


def chi_potential(plan, p, precondition_tol=1e-6):
    """Stream potential chi of the 1i-line a of the connection of the gauge
    p, a = mean(a) + grad_perp(chi); see chi_from_connection."""
    return chi_from_connection(plan, p_connection(plan, p), precondition_tol)


def chi_from_connection(plan, connection, precondition_tol):
    """Stream potential chi of the 1i-line a of a connection (X1, X2) =
    P^-1 grad P, a = mean(a) + grad_perp(chi).

    Requires the first gauge equation (1i-line divergence zero); returns
    (chi, the L2 norm of that divergence), and raises PreconditionError
    when it exceeds precondition_tol * ||grad P||_2^2.
    """
    grid = plan.grid
    x1, x2 = connection
    # P acts isometrically, so ||grad P||_2 = ||P^-1 grad P||_2
    grad_p_l2 = l2_norm(grid, *x1, *x2)
    a1, a2 = x1[0], x2[0]
    dres = l2_norm(grid, plan.div(a1, a2))
    if dres > precondition_tol * max(grad_p_l2**2, 1e-300):
        raise PreconditionError("1i-line of the connection is not divergence free", dres)
    return plan.inv_laplacian(plan.curl(a1, a2)), dres


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


def p_contraction_chain(plan, p, chi, gamma1, g_pair):
    """Measured factor of the closure estimate chain for the doubled system.

    For a gauge P and G near-solving the absorbed equation, the transported
    field P G satisfies d1[P G] - d2[P i G] = 2 P (-i d_L chi + Gamma1) G.
    A is the mean-zero potential of that right side; B closes the
    divergence-free remainder through Lap B = -div(w (grad A + grad_perp B)),
    w = P i P^-1, solved by fixed point in Fourier space: per iteration one
    forward transform of w (grad A + grad_perp B) and one inverse of B with
    its gradient.  The returned factor is

        (||grad A||_{2,inf} + ||grad B||_{2,inf}) / ||P G||_{2,inf}

    which is below one exactly when the chain contracts at this scale; it
    is NaN (and the record degenerate) for zero data.
    """
    res, rhs, pg = absorbed_residual(plan, p, chi, gamma1, g_pair)
    if not (pg[0].any() or pg[1].any()):
        return {"degenerate": True, "factor": np.nan, "b_converged": False,
                "b_iterations": 0, "absorbed_residual": res}
    grid = plan.grid
    # P i = (i X, -i Y), the right-i rule of _jk_of; the top row [X | Y] of
    # w's complex embedding is built once for all its products
    w_row = np.concatenate(
        qp_matmul((1j * p[0], -1j * p[1]), qp_conj_t(p)), axis=-1
    )
    # grad A from the spectrum of A; a gradient of the pair (X, Y) is the
    # stack (d1 X, d1 Y, d2 X, d2 Y)
    a_hat = np.stack(rhs)
    plan.forward(a_hat)
    sym = plan.multipliers(a_hat[0])
    a_hat *= sym.inv_lap
    grad_a = plan.gradient(a_hat)
    del a_hat
    b = np.zeros_like(grad_a[:2])
    # the directions of grad A + grad_perp B, at the zero start B = 0
    g = grad_a[:2], grad_a[2:]
    converged = False
    for it in range(B_MAX_ITER):
        # w (grad A + grad_perp B) as one product with the two directions
        # as columns, then B = -inv_lap div of it: the four tables take one
        # forward transform, and B with its gradient one inverse
        columns = np.stack((g[0][0], g[1][0]), -1), np.stack((g[0][1], g[1][1]), -1)
        del g
        x, y = qp_row_matmul(w_row, columns)
        del columns
        wg = np.empty_like(grad_a)
        wg[0::2] = np.moveaxis(x, -1, 0)
        wg[1::2] = np.moveaxis(y, -1, 0)
        del x, y
        plan.forward(wg)
        bg = np.empty((6,) + b.shape[1:], dtype=complex)  # B, then its gradient
        b_hat = bg[:2]
        np.multiply(wg[:2], sym.d1, out=b_hat)
        b_hat += sym.d2 * wg[2:]
        del wg
        b_hat *= -sym.inv_lap
        np.multiply(b_hat, sym.d1, out=bg[2:4])
        np.multiply(b_hat, sym.d2, out=bg[4:])
        plan.inverse(bg, out=bg)
        change = float(np.max(np.abs(bg[:2] - b)))
        b, grad_b = bg[:2], bg[2:]
        if change < B_TOL * max(float(np.max(np.abs(b))), 1e-300):
            converged = True
            break
        # the next directions (d1 A - d2 B, d2 A + d1 B)
        g = grad_a[:2] - grad_b[2:], grad_a[2:] + grad_b[:2]
    weak_pg = lorentz_weak_l2(grid, pointwise_abs(*pg))
    weak_a = lorentz_weak_l2(grid, pointwise_abs(*grad_a))
    weak_b = lorentz_weak_l2(grid, pointwise_abs(*grad_b))
    return {
        "degenerate": False,
        "factor": float((weak_a + weak_b) / max(weak_pg, 1e-300)),
        "b_converged": converged,
        "b_iterations": it + 1,
        "absorbed_residual": res,
    }


def p_gauge_structures(plan, gamma, gamma1, g_pair, config=None, partial_ok=False):
    """Full matrix-gauge pipeline: solve N(P) = (0, -2 Gamma), build the
    stream potential chi, and report the absorbed-equation residual and
    contraction factor for the supplied doubled field.

    Chain-derived Gamma (from a rotation frame) admits an exact gauge;
    generic antisymmetric data can be obstructed in the torus harmonic
    sector near t = 1, in which case the continuation stalls.  With
    partial_ok the largest-t partial gauge is used and reported.

    chi comes from the connection that the solver's result holds (the
    result then releases it), so the returned gauge is not differentiated
    again.  When the gauge fails chi's precondition (a partial gauge can),
    the PreconditionError is returned as out["error"] next to "gauge" and
    "t_reached", with no measurement; input checks still raise.
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
    # chi from the solver's connection of the returned gauge, which the
    # result releases
    connection, result.connection = result.connection, None
    try:
        chi, _ = chi_from_connection(plan, connection, 1e-2)
    except PreconditionError as exc:
        # without its traceback, whose frames hold the connection
        return {"gauge": result, "t_reached": t_reached,
                "error": exc.with_traceback(None)}
    del connection
    contraction = p_contraction_chain(plan, result.p, chi, gamma1, g_pair)
    return {
        "gauge": result,
        "t_reached": t_reached,
        "chi": chi,
        "absorbed_residual": contraction["absorbed_residual"],
        "contraction": contraction,
    }
