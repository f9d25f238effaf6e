"""Compensated-compactness machinery on the torus.

Three estimators live here:

* ``bb_reconstruct``: rebuild u from grad u = f + g where the rough part f
  is carried by potentials (f_j = sum_k d_k a^k_j) and g is the integrable
  part.  Pipeline, on spectra: the gradient parts alpha_k of the Hodge
  split of each a^k collapse to w1 = d1 alpha_1 + d2 alpha_2 (the curl
  parts are not needed), one d_zbar problem is solved for the g part, and
  u = w1 + Re(v).  One batched half-spectrum transform of the four
  potentials gives the spectra of w1 and of f, w1 takes one inverse, and
  the H^-1 norms of f are read from their spectra.  On the torus the
  leftover holomorphic correction is a constant and is absorbed into the
  mean.

* ``real_from_imag_bound``: given d_zbar h = g, the second antiderivative
  T of g is bounded by ||g||_L1 and satisfies Re int h^2 = -Re int g T,
  which controls ||Re h||_2 by ||Im h||_2 and ||g||_L1.  One batched
  transform of h and g gives the precondition's residual (by Parseval)
  and, with one inverse, T.

* ``wente_solve``: potential with Laplacian equal to a Jacobian, plus the
  sup-norm ratio that exhibits the compensation gain.

The Jacobian comparisons transform (a, b) once and each right side once;
grad phi comes from the right side's spectrum through the plan's gradient,
one inverse transform.  Transforms go through the spectrum level of
SpectralPlan, whose divergence of spectra also composes bb_reconstruct's
w1 and f.
"""

from dataclasses import dataclass

import numpy as np

from chirality_lab.norms import (
    _torus_distance_sq,
    l2_norm,
    linf_norm,
    lorentz_l21,
    lp_norm,
    pointwise_abs,
    spectral_neg_1_2,
)

__all__ = [
    "SplitGradientData",
    "BBDiagnostics",
    "bb_reconstruct",
    "split_from_vector_potential",
    "RealFromImagDiagnostics",
    "real_from_imag_bound",
    "WenteDiagnostics",
    "wente_solve",
    "jacobian_vs_shuffled",
    "jacobian_vs_concentrated",
]


# width of the concentrated bump of jacobian_vs_concentrated, in grid cells
BUMP_WIDTH_CELLS = 2.5
# real_from_imag_bound's relative L2 tolerance on d_zbar h = g
PRECONDITION_TOL = 1e-10


class PreconditionError(ValueError):
    """An estimator's stated hypothesis fails on the supplied data."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass
class SplitGradientData:
    """Split gradient data: a[k][j] are the potentials of the rough part
    (f_j = d_1 a^1_j + d_2 a^2_j), g is the integrable part."""

    grid: object
    a: np.ndarray  # shape (2, 2, n, n): a[k-1, j-1]
    g: np.ndarray  # shape (2, n, n)

    def __post_init__(self):
        n = self.grid.n
        self.a = np.asarray(self.a, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        if self.a.shape != (2, 2, n, n) or self.g.shape != (2, n, n):
            raise ValueError(
                f"bad shapes a{self.a.shape} g{self.g.shape} for n={n}"
            )

    def f(self, plan):
        """The rough part implied by the potentials (never stored)."""
        f1 = plan.dx(self.a[0, 0]) + plan.dy(self.a[1, 0])
        f2 = plan.dx(self.a[0, 1]) + plan.dy(self.a[1, 1])
        return f1, f2


def split_from_vector_potential(grid, v, g):
    """Data with rough part grad_perp(v); the potentials a^1=(0,v), a^2=(-v,0)."""
    z = np.zeros_like(v)
    a = np.array([[z, v], [-v, z]])
    return SplitGradientData(grid, a, np.asarray(g))


@dataclass
class BBDiagnostics:
    l2_u: float
    f_neg_sobolev: float
    g_l1: float
    ratio: float


def bb_reconstruct(plan, data):
    """Recover the mean-zero u with grad u = f + g (up to dropped means).

    Returns (u, diagnostics).  The reconstruction depends only on f + g,
    not on the particular split.
    """
    if data.grid != plan.grid:
        raise ValueError("data and plan grids differ")
    grid = plan.grid
    n = grid.n
    # the half spectra of the four potentials, a_hat[k, j] that of a^{k+1}_{j+1}
    a_hat = plan.real_forward(data.a.reshape(4, n, n)).reshape(2, 2, n, -1)
    inv_lap = plan.multipliers(a_hat[0, 0]).inv_lap
    # w1 = d1 alpha_1 + d2 alpha_2 for the Hodge potentials
    # alpha_k = inv_lap(d1 a^k_1 + d2 a^k_2)
    alpha_hat = np.stack([inv_lap * plan.divergence(a_hat[k]) for k in range(2)])
    w1 = plan.real_inverse(plan.divergence(alpha_hat)[None])[0]
    # f_j = d1 a^1_j + d2 a^2_j is a derivative, so mean-zero
    f_sob = np.sqrt(sum(
        spectral_neg_1_2(plan, plan.divergence(a_hat[:, j])) ** 2 for j in range(2)
    ))
    del a_hat, alpha_hat

    g_c = data.g[0] + 1j * data.g[1]
    u = w1 + plan.cauchy_solve(0.5 * g_c).real
    u -= u.mean()

    g_l1 = lp_norm(grid, np.moveaxis(data.g, 0, -1), 1)
    l2_u = l2_norm(grid, u)
    denom = f_sob + g_l1
    diag = BBDiagnostics(
        l2_u=l2_u,
        f_neg_sobolev=f_sob,
        g_l1=g_l1,
        ratio=l2_u / denom if denom > 0 else np.inf,
    )
    return u, diag


@dataclass
class RealFromImagDiagnostics:
    re_sq: float          # ||Re h0||_2^2 for the mean-zero part h0
    im_sq: float          # ||Im h0||_2^2
    g_l1: float
    t_linf: float
    identity_lhs: float   # Re int h0^2
    identity_rhs: float   # -Re int g T
    identity_residual: float


def real_from_imag_bound(plan, h, g):
    """Both sides of the real-part recovery bound, plus the pairing identity.

    Requires d_zbar h = g on the grid, to PRECONDITION_TOL relative to the
    larger of ||g||_2 and ||h||_2 (checked).  The identity
    Re int h0^2 = -Re int g T uses the mean-zero part h0 of h; a nonzero
    mean is reported through re_sq/im_sq of the full field elsewhere.
    """
    grid = plan.grid
    h = np.asarray(h, dtype=complex)
    g = np.asarray(g, dtype=complex)
    hg_hat = plan.forward(np.stack((h, g)))
    sym = plan.multipliers(hg_hat[0])
    # ||d_zbar h - g||_2 by Parseval, from the spectra
    r_hat = sym.dzbar * hg_hat[0]
    r_hat -= hg_hat[1]
    res = float(np.sqrt(np.vdot(r_hat, r_hat).real * grid.area) / grid.n**2)
    del r_hat
    scale = max(l2_norm(grid, g), l2_norm(grid, h), 1e-300)
    if res > PRECONDITION_TOL * scale:
        raise PreconditionError("d_zbar h != g", res)

    h0 = h - h.mean()
    t_hat = hg_hat[1:]
    t_hat *= sym.inv_dzbar_sq
    t = plan.inverse(t_hat, out=t_hat)[0]
    cell = grid.cell_measure
    lhs = float(np.real(np.sum(h0 * h0)) * cell)
    rhs = float(-np.real(np.sum(g * t)) * cell)

    re_sq = l2_norm(grid, h0.real) ** 2
    im_sq = l2_norm(grid, h0.imag) ** 2
    g_l1 = lp_norm(grid, g, 1)
    return RealFromImagDiagnostics(
        re_sq=re_sq,
        im_sq=im_sq,
        g_l1=g_l1,
        t_linf=linf_norm(grid, t),
        identity_lhs=lhs,
        identity_rhs=rhs,
        identity_residual=abs(lhs - rhs),
    )


@dataclass
class WenteDiagnostics:
    grad_a_l2: float
    grad_b_l2: float
    ratio_linf: float        # ||phi||_inf / (||grad a||_2 ||grad b||_2)


def wente_solve(plan, a, b):
    """phi = -inv_laplacian(grad a . grad_perp b), mean zero, with the
    compensation ratio ||phi||_inf / (||grad a||_2 ||grad b||_2)."""
    grid = plan.grid
    ax, ay = plan.grad(a)
    px, py = plan.grad_perp(b)
    phi = -plan.inv_laplacian(ax * px + ay * py)
    a2 = l2_norm(grid, pointwise_abs(ax, ay))
    b2 = l2_norm(grid, pointwise_abs(px, py))
    return phi, WenteDiagnostics(
        grad_a_l2=a2,
        grad_b_l2=b2,
        ratio_linf=linf_norm(grid, phi) / max(a2 * b2, 1e-300),
    )


def _jacobian_against(plan, a, b, control):
    """Solve -lap(phi) = rhs for the Jacobian of (a, b) and for the control
    right side control(jac); returns the two L^{2,1} gradient norms."""
    ax, ay = plan.grad(a)
    bx, by = plan.grad(b)
    jac = ax * by - ay * bx
    out = []
    for rhs in (jac, control(jac)):
        # grad phi from the spectrum of phi = -inv_lap(rhs)
        phi_hat = plan.spectrum(rhs)
        phi_hat *= -plan.multipliers(phi_hat).inv_lap
        grad_phi = pointwise_abs(*plan.gradient(phi_hat[None]))
        out.append(lorentz_l21(plan.grid, grad_phi))
    return out[0], out[1]


def jacobian_vs_shuffled(plan, a, b, rng):
    """Paired comparison: solve -lap(phi) = rhs for the Jacobian of (a, b)
    and for a phase-shuffled right side with the same spectrum magnitude,
    rescaled to equal L1 mass.  Returns the two L^{2,1} gradient norms."""
    grid = plan.grid

    def shuffle(jac):
        # |spectrum of jac| with the phases of a white-noise draw; both are
        # real tables, so the half spectra carry them
        w = plan.real_forward(np.stack((jac, rng.standard_normal(jac.shape))))
        w[0] = np.abs(w[0]) * np.exp(1j * np.angle(w[1]))
        shuffled = plan.real_inverse(w[:1])[0]
        shuffled -= shuffled.mean()
        mass = lp_norm(grid, shuffled, 1)
        if mass > 0:
            shuffled *= lp_norm(grid, jac, 1) / mass
        return shuffled

    return _jacobian_against(plan, a, b, shuffle)


def jacobian_vs_concentrated(plan, a, b, rng):
    """Paired comparison against a concentrating right side of equal L1 mass.

    A narrow mean-removed bump is the worst case for the L1 -> L^{2,1}
    potential estimate; the Jacobian right side beats it by a wide and
    refinement-growing margin.  (The same-spectrum phase shuffle in
    ``jacobian_vs_shuffled`` pins ||grad phi||_2 of both sides to the same
    value, so no such gap can appear there.)
    """
    grid = plan.grid

    def concentrate(jac):
        center = rng.random(2) * grid.length
        w = BUMP_WIDTH_CELLS * grid.spacing
        bump = np.exp(-_torus_distance_sq(grid, center) / (2 * w**2))
        bump -= bump.mean()
        bump *= lp_norm(grid, jac, 1) / lp_norm(grid, bump, 1)
        return bump

    return _jacobian_against(plan, a, b, concentrate)
