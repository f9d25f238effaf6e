"""Gauge construction over quaternion-unitary matrix fields: the one gauge
solver of the package.

Fields P with conj(P)^t P = I act on the doubled 2n-component systems.
Matrices are carried in the complex-pair representation (X, Y) of
hyperunitary.py: the 1i-plane of a quaternion matrix is its X part, the
jk-plane its Y part.  Unit quaternions are the 1 x 1 case (Sp(1)), so the
quaternion gauge of gauge.py runs this code at d = 1 and converts its
tables at the boundary.

Layout.  Inside the solver every table has the matrix axes first and the
grid axes last, (d, d, n, n), and stacks add leading axes, so transforms
and products run over contiguous (n, n) planes.  The boundary keeps the
grid-first (n, n, d, d) tables that systems builds: p_gauge_solve,
p_gauge_structures and linearization_order take them, and PGaugeResult.p
and p_gauge_structures' chi come back so.  Each table is converted once,
with hyperunitary.grid_last on the way in (a copy, or the same memory at
d = 1) and grid_first on the way out (a view).  pn_apply, chi_potential,
chi_from_connection, absorbed_residual and p_contraction_chain take the
solver's layout.

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
connection, the stack (P^-1 d1 P, P^-1 d2 P) on a leading axis, takes one
product with u.  The evaluation of a field, N(P) with its connection, does
not depend on t: an accepted field's evaluation is handed to the next
level and to the result, and P = I, where both vanish, needs none, at the
direct attempt or at the continuation's start, where the Newton step is
L_I^-1 of the residual in closed form.

The Newton step stays in Fourier space between its pointwise products,
through the spectrum level of SpectralPlan (batched transforms over the
trailing grid axes of stacked tables, the multipliers, and the plan's
gradient and divergence of stacked spectra).  An evaluation takes grad P with one
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
tables reduce over the grid axes, the last two, and contract the matrix
axes.

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
    grid_first,
    grid_last,
    identity_field,
    plane_matmul,
    qp_cayley_asd,
    qp_conj_t,
    qp_dagger_defect,
    qp_matmul,
    qp_matvec,
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
    # the gauge as grid-first (n, n, d, d) tables, as systems builds them
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
    # the solver's connection P^-1 grad P of p, matrix axes first, as the
    # stack (P^-1 d1 P, P^-1 d2 P) on a leading axis, for the caller's
    # stream potential; four tables, so p_gauge_structures and the (n, n, 4)
    # adapter release it (None)
    connection: tuple

    @property
    def unitarity_defect(self):
        return _unitarity_defect(tuple(grid_last(part) for part in self.p))


def _at_boundary(result):
    """The solver's result with its gauge grid-first, as a view."""
    result.p = tuple(grid_first(part) for part in result.p)
    return result


def _l2(plan, *tables):
    """l2_norm of tables whose grid axes are last."""
    return l2_norm(plan.grid, *(grid_first(t) for t in tables))


def _abs(*tables):
    """pointwise_abs of tables whose grid axes are last, grid-first."""
    return pointwise_abs(*(grid_first(t) for t in tables))


def _unitarity_defect(p):
    """max |conj(P)^t P - I| over both parts of the pair."""
    x, y = qp_matmul(qp_conj_t(p), p)
    return max(
        float(np.max(np.abs(x - identity_field(x.shape[-3])))), float(np.max(np.abs(y)))
    )


def p_connection(plan, p):
    """P^-1 grad P as the stack (P^-1 d1 P, P^-1 d2 P) on a leading axis:
    one forward transform of (X, Y), one inverse of the four derivatives
    and one product."""
    g = plan.gradient(plan.forward(np.stack(p)))
    # (d1 X, d1 Y, d2 X, d2 Y) as the pair of the stacks (d1 X, d2 X) and
    # (d1 Y, d2 Y)
    g = g.reshape((2, 2) + g.shape[1:])
    return qp_matmul(qp_conj_t(p), (g[:, 0], g[:, 1]))


def _jk_of(conn):
    # Y part of X1 - X2 * i; right-i sends (X, Y) to (iX, -iY)
    return conn[1][0] + 1j * conn[1][1]


def pn_apply(plan, p, check=True):
    """N(P) and the connection P^-1 grad P it was computed from (see
    p_connection); matrix axes first.

    N(P) comes as (spectrum of the complex skew-Hermitian table V, complex
    symmetric table T): V, the divergence of the connection's 1i-line, is
    used only through its H^-1 norm and as the Newton right side, so it
    stays a spectrum."""
    if check:
        defect = _unitarity_defect(p)
        if defect > 1e-9:
            raise ValueError(f"field is not hyper-unitary (defect {defect:.3e})")
    conn = p_connection(plan, p)
    # the 1i-lines of P^-1 d1 P and P^-1 d2 P, a copy: forward is in place
    nv_hat = plan.divergence(plan.forward(conn[0].copy()))
    return (nv_hat, _jk_of(conn)), conn


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


def _asd_commutators(a, b):
    """[A_l, B] = A_l B - (A_l B)^dagger for the stack A of matrices A_l on
    leading axes, as a stack: one product for all of them, and exact when
    every A_l and B are anti-self-dual, since then (A_l B)^dagger = B A_l."""
    x, y = qp_matmul(a, b)
    x -= np.conj(np.swapaxes(x, -4, -3))
    y += np.swapaxes(y, -4, -3)
    return x, y


def _perturbation_spectra(plan, conn, u, out):
    """Spectra of L_P(u) - L_I(u), the commutator terms of the frozen
    connection, the stack (x1, x2); it is anti-self-dual like u, so both
    take one product.  out, three tables stacked on its leading axis,
    receives the 1i-parts of [x1, u] and [x2, u] and the jk-part of the
    pair and takes one batched forward transform; returns the spectra of
    the div term and of the jk term, the latter a view of out."""
    cx, cy = _asd_commutators(conn, u)
    out[:2] = cx
    np.add(cy[0], 1j * cy[1], out=out[2])
    del cx, cy
    plan.forward(out)
    return plan.divergence(out), out[2]


def _residual_norms(plan, v_hat, t):
    """(negative-Sobolev norm of the 1i-part, given as a spectrum, L2 of the
    oscillatory jk-part, L2 carried by the jk mean); the grid axes are the
    last two, and the matrix axes are contracted."""
    t_mean = t.mean(axis=(-2, -1))
    mean_l2 = float(np.sqrt(np.sum(np.abs(t_mean) ** 2)) * plan.grid.length)
    return (
        spectral_neg_1_2(plan, v_hat),
        _l2(plan, t - t_mean[..., None, None]),
        mean_l2,
    )


def _projected_solve(plan, conn, v_hat, t_hat, tol, max_iter):
    """Solve the mean-projected L_P(u) = (V, T), given as spectra, for the
    connection of P, the stack (x1, x2), by the stationary iteration
    u <- L_I^-1(rhs - pert(u)), which converges geometrically while the
    connection is small.

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
            rv, rt = _perturbation_spectra(plan, conn, (u[0], u[1]), work)
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

    The targets are grid-first (n, n, d, d) tables, and so is the result's
    gauge (a view); they are converted once here, and the solve runs with
    the matrix axes first (_solve).  A GaugeStall's partial gauge is
    converted the same way.

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
    targets = (grid_last(np.asarray(a, dtype=complex)) for a in (v_target, t_target))
    try:
        return _at_boundary(_solve(plan, *targets, config))
    except GaugeStall as stall:
        _at_boundary(stall.result)
        raise


def _solve(plan, v_target, t_target, config):
    """p_gauge_solve on (d, d, n, n) targets; the result's gauge is
    (d, d, n, n) too."""
    cfg = config or GaugeConfig()
    v_mean = v_target.mean(axis=(-2, -1))
    v_scale = max(float(np.max(np.abs(v_target))), 1e-300)
    if np.max(np.abs(v_mean)) > 1e-10 * v_scale:
        raise ValueError("the 1i-line target must be mean-zero on the torus")
    # the 1i-line enters the residual as a spectrum, as N's does
    v_hat = plan.spectrum(v_target)
    del v_target
    target_size = spectral_neg_1_2(plan, v_hat) + _l2(plan, t_target)
    if target_size > cfg.eps0:
        raise ValueError(f"target norm {target_size:.3e} exceeds eps0 = {cfg.eps0}")

    eye = identity_field(t_target.shape[-3])
    p = np.broadcast_to(eye, t_target.shape).astype(complex), np.zeros(t_target.shape, complex)
    # the evaluation (N(P), P^-1 grad P) of the accepted field p, or None
    # once newton() has released it; N(I) and the connection of I vanish,
    # so both starts from P = I take p's zero Y part, with no FFT
    zero_stack = np.broadcast_to(p[1], (2,) + p[1].shape)
    ev = ev_identity = (p[1], p[1]), (zero_stack, zero_stack)
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
        x, y = ev_p[1]
        grad_l2 = _l2(plan, x[0], y[0], x[1], y[1])
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

        Memory: each Newton step releases N before its inner solve, which
        holds the connection, and releases that before its line search, so
        while a trial is evaluated no table of the field the step started
        from is alive (N, the connection and the residual are eight
        (d, d, n, n) tables).  The residual's jk-part becomes the solve's
        right side in place, and the step is dealiased and transformed back
        in place.  A rejected level therefore leaves ev released, and its
        retry evaluates the start field again."""
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
                conn, ev = ev[1], None
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
    an anti-self-dual pair u of grid-first (n, n, d, d) tables, at the steps
    LINEARIZATION_STEPS; cay is the Newton step's retraction, L1(u) =
    (Lap X_u, 2 d_zbar Y_u) the linearization at P = I and the norm the
    continuation's residual norm.  Returns (order, the norms)."""
    x, y = u
    lv_hat = plan.spectrum(grid_last(plan.laplacian(x)))
    lt = grid_last(2.0 * plan.d_zbar(y))
    x, y = grid_last(x), grid_last(y)
    vals = []
    for t in LINEARIZATION_STEPS:
        (nv_hat, nt), _ = pn_apply(plan, qp_cayley_asd((t * x, t * y)), check=False)
        ri, rjk, rmean = _residual_norms(plan, nv_hat - t * lv_hat, nt - t * lt)
        vals.append(ri + rjk + rmean)
    fit = np.polyfit(np.log(LINEARIZATION_STEPS), np.log(vals), 1)
    return float(fit[0]), vals


# The stream potential and the contraction measurement take the solver's
# layout: matrix axes first, grid axes last.


def chi_potential(plan, p, precondition_tol=1e-6):
    """Stream potential chi of the 1i-line a of the connection of the gauge
    p, a = mean(a) + grad_perp(chi); see chi_from_connection."""
    return chi_from_connection(plan, p_connection(plan, p), precondition_tol)


def chi_from_connection(plan, connection, precondition_tol):
    """Stream potential chi of the 1i-line a of a connection P^-1 grad P,
    the stack (P^-1 d1 P, P^-1 d2 P), a = mean(a) + grad_perp(chi).

    Requires the first gauge equation (1i-line divergence zero); returns
    (chi, the L2 norm of that divergence), and raises PreconditionError
    when it exceeds precondition_tol * ||grad P||_2^2.
    """
    x, y = connection
    # P acts isometrically, so ||grad P||_2 = ||P^-1 grad P||_2
    grad_p_l2 = _l2(plan, x[0], y[0], x[1], y[1])
    # x is the stack (a1, a2) of the 1i-lines; forward transforms in place
    div = plan.inverse(plan.divergence(plan.forward(x.copy()))[None])[0]
    dres = _l2(plan, div)
    if dres > precondition_tol * max(grad_p_l2**2, 1e-300):
        raise PreconditionError("1i-line of the connection is not divergence free", dres)
    curl = plan.inverse(plan.curl_spectrum(plan.forward(x.copy()))[None])
    chi_hat = plan.forward(curl)
    chi_hat *= plan.multipliers(chi_hat).inv_lap
    return plan.inverse(chi_hat, out=chi_hat)[0], dres


def absorbed_residual(plan, p, chi, gamma1, g_pair):
    """Residual of d1(PG) - d2(P i G) = 2 P (-i d_L chi + Gamma1) G;
    returns (residual, right side, P G).

    For P = X + Y j and G = (g1, g2) the four products X g1, Y conj(g2),
    X g2 and Y conj(g1) give both P G = (X g1 - Y conj(g2), X g2 +
    Y conj(g1)) and P (i G) = (i (X g1 + Y conj(g2)), i (X g2 -
    Y conj(g1)))."""
    x, y = p
    g1, g2 = (g[..., :, None, :, :] for g in g_pair)
    xg1, yg2 = plane_matmul(x, g1), plane_matmul(y, np.conj(g2))
    xg2, yg1 = plane_matmul(x, g2), plane_matmul(y, np.conj(g1))
    pg = (xg1 - yg2)[..., 0, :, :], (xg2 + yg1)[..., 0, :, :]
    pig = (1j * (xg1 + yg2))[..., 0, :, :], (1j * (xg2 - yg1))[..., 0, :, :]
    del xg1, yg2, xg2, yg1
    # d1 of P G minus d2 of P i G, part by part
    lhs = [
        plan.inverse(plan.curl_spectrum(plan.forward(np.stack((c2, c1))))[None])[0]
        for c1, c2 in zip(pg, pig)
    ]
    chi_x, chi_y = plan.gradient(plan.spectrum(chi)[None])
    dchi = 0.5 * (chi_x - 1j * chi_y)
    m_tot = (-1j * dchi + gamma1[0], gamma1[1])
    rhs_inner = qp_matvec(m_tot, g_pair)
    rhs = qp_matvec(p, rhs_inner)
    rhs = (2.0 * rhs[0], 2.0 * rhs[1])
    return _l2(plan, lhs[0] - rhs[0], lhs[1] - rhs[1]), rhs, pg


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
    # P i = (i X, -i Y), the right-i rule of _jk_of
    w = qp_matmul((1j * p[0], -1j * p[1]), qp_conj_t(p))
    # grad A from the spectrum of A; a gradient of the pair (X, Y) is the
    # stack (d1 X, d1 Y, d2 X, d2 Y)
    a_hat = np.stack(rhs)
    plan.forward(a_hat)
    sym = plan.multipliers(a_hat)
    a_hat *= sym.inv_lap
    grad_a = plan.gradient(a_hat)
    del a_hat
    b = np.zeros_like(grad_a[:2])
    # the directions d1 A - d2 B and d2 A + d1 B of grad A + grad_perp B,
    # stacked as grad_a is; at the zero start B = 0 they are grad A
    g = grad_a
    converged = False
    for it in range(B_MAX_ITER):
        # w (grad A + grad_perp B): one product with the two directions as a
        # stack, then B = -inv_lap div of it: the four tables take one
        # forward transform, and B with its gradient one inverse
        directions = g.reshape((2, 2) + g.shape[1:])
        x, y = qp_matvec(w, (directions[:, 0], directions[:, 1]))
        del g, directions
        wg = np.stack((x, y), axis=1).reshape(grad_a.shape)
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
        g = np.empty_like(grad_a)
        np.subtract(grad_a[:2], grad_b[2:], out=g[:2])
        np.add(grad_a[2:], grad_b[:2], out=g[2:])
    weak_pg = lorentz_weak_l2(grid, _abs(*pg))
    weak_a = lorentz_weak_l2(grid, _abs(*grad_a))
    weak_b = lorentz_weak_l2(grid, _abs(*grad_b))
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

    The inputs are systems' grid-first tables, (n, n, d, d) matrices and
    (n, n, d) vectors, and the returned gauge and chi are grid-first views:
    each table is converted once, on the way in or out, and everything
    between runs with the matrix axes first.  The solve goes through
    p_gauge_solve on grid-first views of contiguous (d, d, n, n) tables,
    which it and this function move back without a copy.
    """
    gamma = tuple(grid_last(part) for part in gamma)
    asd = qp_dagger_defect(gamma)
    if asd > 1e-10:
        raise ValueError(f"Gamma is not anti-self-dual (defect {asd:.3e})")
    if np.max(np.abs(gamma[0])) > 0:
        raise ValueError("Gamma must lie in the jk-plane")
    t_target = -2.0 * gamma[1]
    del gamma
    t_reached = 1.0
    try:
        # grid-first views, which p_gauge_solve takes back without a copy
        result = p_gauge_solve(
            plan, grid_first(np.zeros_like(t_target)), grid_first(t_target), config
        )
    except GaugeStall as stall:
        if not partial_ok:
            raise
        result = stall.result
        t_reached = stall.t_reached
    del t_target
    # the solver's gauge again: its grid-first view moved back, no copy
    p = tuple(grid_last(part) for part in result.p)
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
    contraction = p_contraction_chain(
        plan, p, chi, tuple(grid_last(part) for part in gamma1),
        tuple(grid_last(part) for part in g_pair),
    )
    return {
        "gauge": result,
        "t_reached": t_reached,
        "chi": grid_first(chi),
        "absorbed_residual": contraction["absorbed_residual"],
        "contraction": contraction,
    }
