"""The explicit low-regularity counterexample for divergence-form equations
with a merely symmetric (non-involutive) coefficient matrix.

Everything here is planar and pointwise-analytic: the coefficient field

    A(x) = I + alpha(|x|) (I - x x^t / |x|^2),
    alpha(r) = -2 beta / log(r0/r) + beta (beta+1) / log(r0/r)^2

(the n-dimensional alpha at n = 2, the dimension of the solution, the weak
battery and the quadrature) is uniformly elliptic for alpha >= -1/2, and
u(x) = x1 / (r^2 log(r0/r)^beta) solves div(A grad u) = 0 away from the
origin while failing to be W^{1,p} for every p > 1.  No torus FFT is
involved; the singular, non-periodic structure is evaluated on sample points
and verified by finite differences, quadrature, and a compactly supported
weak-form battery.
"""

from dataclasses import dataclass

import numpy as np

# norms are taken on annuli delta < |x| < R_OUTER; N_THETA midpoints average
# over the angle, and the oracle sums ORACLE_PANELS radial panels
R_OUTER = 0.5
N_THETA = 256
ORACLE_PANELS = 20000
# the residual study's sample grids and excised disk |x| < EXCISION; the
# norm study's exponents p and annulus radii delta, largest first
STUDY_GRIDS = (128, 256, 512)
EXCISION = 0.1
NORM_P_VALUES = (1.0, 1.5)
NORM_DELTAS = tuple(10.0 ** (-k) for k in range(1, 6))

__all__ = [
    "JmsParams",
    "jms_alpha",
    "jms_alpha_prime",
    "jms_matrix",
    "jms_matrix_gradient",
    "jms_solution",
    "jms_solution_gradient",
    "jms_residual_study",
    "jms_norm_divergence",
]


@dataclass(frozen=True)
class JmsParams:
    """beta > 1 and r0 > 1 large enough that alpha >= -1/2 on (0, 1].

    r0 > 1 keeps log(r0/r) positive on (0, 1].  The alpha constraint is
    checked numerically at construction; the exact requirement is
    log(r0) >= 3 + sqrt(6)/2, so the default r0 = e^4.5 has margin (e^4
    does not).
    """

    beta: float = 1.5
    r0: float = float(np.exp(4.5))

    def __post_init__(self):
        if self.beta <= 1:
            raise ValueError("beta must exceed 1")
        if not self.r0 > 1:  # log(r0/r) must be positive on (0, 1]
            raise ValueError("r0 must exceed 1")
        r = np.geomspace(1e-12, 1.0, 4001)
        amin = float(np.min(jms_alpha(r, self)))
        if not amin >= -0.5:  # a NaN alpha fails too
            raise ValueError(
                f"alpha dips to {amin:.4f} < -1/2 on (0, 1]; increase r0"
            )


def _log_ratio(r, params):
    return np.log(params.r0 / r)


def jms_alpha(r, params):
    r = np.asarray(r, dtype=float)
    ell = _log_ratio(r, params)
    b = params.beta
    return -2 * b / ell + b * (b + 1) / ell**2


def jms_alpha_prime(r, params):
    r = np.asarray(r, dtype=float)
    ell = _log_ratio(r, params)
    b = params.beta
    return -2 * b / (r * ell**2) + 2 * b * (b + 1) / (r * ell**3)


def _radial_projector(x):
    """delta_ij - x_i x_j / |x|^2 for points in the trailing axis."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x**2, axis=-1, keepdims=True)
    eye = np.eye(x.shape[-1])
    return eye - x[..., :, None] * x[..., None, :] / r2[..., None]


def _check_nonzero(x):
    if np.any(np.sum(np.asarray(x) ** 2, axis=-1) == 0.0):
        raise ValueError("the coefficient field is singular at the origin")


def jms_matrix(x, params):
    """A(x): eigenvalue 1 along x/|x|, 1 + alpha(|x|) tangentially."""
    _check_nonzero(x)
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.sum(x**2, axis=-1))
    proj = _radial_projector(x)
    return np.eye(x.shape[-1]) + jms_alpha(r, params)[..., None, None] * proj


def jms_matrix_gradient(x, params):
    """d a_ij / d x_k as (..., i, j, k), from the closed form."""
    _check_nonzero(x)
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.sum(x**2, axis=-1))
    proj = _radial_projector(x)
    alpha = jms_alpha(r, params)
    aprime = jms_alpha_prime(r, params)
    dim = x.shape[-1]
    eye = np.eye(dim)
    xhat = x / r[..., None]
    term1 = aprime[..., None, None, None] * proj[..., :, :, None] * xhat[
        ..., None, None, :
    ]
    # (delta_ik x_j + delta_jk x_i) r^2 - 2 x_k x_i x_j, all over r^4
    xi = x[..., :, None, None]
    xj = x[..., None, :, None]
    xk = x[..., None, None, :]
    dik = eye[:, None, :]
    djk = eye[None, :, :]
    inner = (dik * xj + djk * xi) * r[..., None, None, None] ** 2 - 2 * xk * xi * xj
    term2 = alpha[..., None, None, None] * inner / r[..., None, None, None] ** 4
    return term1 - term2


def jms_solution(x, params):
    """u(x) = x1 / (r^2 log(r0/r)^beta)."""
    _check_nonzero(x)
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.sum(x**2, axis=-1))
    return x[..., 0] / (r**2 * _log_ratio(r, params) ** params.beta)


def jms_solution_gradient(x, params):
    """Analytic gradient of the solution: u = x1 rho(r) with
    rho = r^-2 L^-beta, rho' = r^-3 L^-beta (beta/L - 2)."""
    _check_nonzero(x)
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.sum(x**2, axis=-1))
    ell = _log_ratio(r, params)
    b = params.beta
    rho = r**-2.0 * ell**-b
    rho_prime = r**-3.0 * ell**-b * (b / ell - 2.0)
    grad = x * (x[..., 0] * rho_prime / r)[..., None]
    grad[..., 0] += rho
    return grad


# ---------------------------------------------------------------------------
# verification studies
# ---------------------------------------------------------------------------


def _flux(points, params):
    a = jms_matrix(points, params)
    g = jms_solution_gradient(points, params)
    return np.einsum("...ij,...j->...i", a, g)


_D4_OFFSETS = np.array([-2, -1, 1, 2])
_D4_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0


def strong_residual(points, params, h):
    """div(A grad u) by fourth-order central differences of the analytic
    flux, evaluated at arbitrary off-origin points."""
    points = np.asarray(points, dtype=float)
    out = np.zeros(points.shape[:-1])
    for axis in range(points.shape[-1]):
        for off, wgt in zip(_D4_OFFSETS, _D4_WEIGHTS):
            shifted = points.copy()
            shifted[..., axis] += off * h
            out += wgt * _flux(shifted, params)[..., axis] / h
    return out


def _bump(t):
    """Smooth bump supported on |t| < 1 with max value 1."""
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out


def _bump_prime(t):
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti**2)) * (-2.0 * ti / (1.0 - ti**2) ** 2)
    return out


def _test_battery():
    """Tensor bumps with analytic gradients, supported in the annulus
    EXCISION < |x| < 1."""
    cells = []
    lo, hi = EXCISION, 1.0
    mid = 0.5 * (lo + hi)
    for cx, cy, s in [
        (mid, 0.0, 0.4 * (hi - lo)),
        (-mid, 0.0, 0.4 * (hi - lo)),
        (0.0, mid, 0.4 * (hi - lo)),
        (mid / np.sqrt(2), mid / np.sqrt(2), 0.3 * (hi - lo)),
        (-mid / np.sqrt(2), -mid / np.sqrt(2), 0.3 * (hi - lo)),
    ]:
        r_support = np.hypot(cx, cy)
        s_eff = min(s, 0.9 * (r_support - EXCISION), 0.9 * (1.0 - r_support))
        cells.append((cx, cy, s_eff))
    return cells


def weak_residual(params, grid_n, mirrored=False):
    """int A grad u . grad phi over compactly supported tensor bumps,
    evaluated by midpoint quadrature on an (grid_n)^2 sample grid."""
    h = 2.0 / grid_n
    coords = -1.0 + h * (np.arange(grid_n) + 0.5)
    xg, yg = np.meshgrid(coords, coords, indexing="ij")
    pts = np.stack([xg, yg], axis=-1)
    r = np.hypot(xg, yg)
    valid = r > 0.5 * EXCISION
    flux = np.zeros_like(pts)
    flux[valid] = _flux(pts[valid], params)

    values = []
    for cx, cy, s in _test_battery():
        if mirrored:
            cx = -cx
        tx = (xg - cx) / s
        ty = (yg - cy) / s
        gx = _bump_prime(tx) * _bump(ty) / s
        gy = _bump(tx) * _bump_prime(ty) / s
        integrand = flux[..., 0] * gx + flux[..., 1] * gy
        values.append(float(np.sum(integrand) * h * h))
    return np.asarray(values)


def jms_residual_study(params):
    """Convergence of the strong and weak residuals under refinement on the
    STUDY_GRIDS, outside the disk of radius EXCISION.

    Returns per-grid tables and the observed orders (log2 of successive
    ratios).  The weak battery is fixed across grids so the quadrature
    error is the only moving part.
    """
    rng = np.random.default_rng(0)
    theta = rng.uniform(0, 2 * np.pi, 400)
    rad = np.exp(rng.uniform(np.log(EXCISION), 0.0, 400))
    sample = np.stack([rad * np.cos(theta), rad * np.sin(theta)], axis=-1)

    rows = []
    for n in STUDY_GRIDS:
        h = 2.0 / n
        strong = strong_residual(sample, params, h)
        weak = weak_residual(params, n)
        rows.append(
            {
                "grid_n": n,
                "excision": EXCISION,
                "strong_residual": float(np.max(np.abs(strong))),
                "weak_residual": float(np.max(np.abs(weak))),
            }
        )
    orders = {}
    for key in ("strong_residual", "weak_residual"):
        vals = [row[key] for row in rows]
        rates = [
            np.log2(vals[i] / vals[i + 1]) if vals[i + 1] > 0 else np.inf
            for i in range(len(vals) - 1)
        ]
        orders[key] = rates
    parity = weak_residual(params, STUDY_GRIDS[0]) + weak_residual(
        params, STUDY_GRIDS[0], mirrored=True
    )
    return {
        "rows": rows,
        "orders": orders,
        "parity_defect": float(np.max(np.abs(parity))),
    }


def _angular_factor(t, params, p):
    """Mean over theta of (1 + kappa(kappa+2) cos^2 theta)^(p/2), where
    kappa = r rho'/rho = beta/t - 2 and t = log(r0/r); t is a scalar or an
    array, with theta on a new last axis.

    The gradient magnitude factorizes as |grad u| = rho(r) sqrt(1 +
    kappa(kappa+2) cos^2 theta) with rho = r^-2 t^-beta, so the angular
    average never touches overflowing powers of r.
    """
    theta = np.pi * (np.arange(N_THETA) + 0.5) / N_THETA  # quarter-symmetry
    kappa = np.expand_dims(params.beta / t - 2.0, -1)
    inner = kappa * (kappa + 2.0) * np.cos(theta) ** 2
    inner += 1.0  # in place: one (t, theta) table at a time
    inner **= 0.5 * p
    return np.mean(inner, axis=-1)


def _lp_mass_integrand(t, params, p):
    """2 pi r^2 * (mean |grad u|^p over theta) as a function of t, scalar
    or array."""
    r2_power = (2.0 - 2.0 * p) * (np.log(params.r0) - t)  # log(r^(2-2p))
    return (
        2.0 * np.pi * np.exp(r2_power) * t ** (-params.beta * p)
        * _angular_factor(t, params, p)
    )


def gradient_lp_annulus(params, p, delta):
    """|| grad u ||_Lp on the annulus delta < |x| < R_OUTER, via the
    substitution t = log(r0/r) and the scaled integrand."""
    from scipy import integrate  # scipy's import cost only where quad runs

    t_lo = np.log(params.r0 / R_OUTER)
    t_hi = np.log(params.r0 / delta)
    val, _ = integrate.quad(
        lambda t: _lp_mass_integrand(t, params, p), t_lo, t_hi, limit=200
    )
    return val ** (1.0 / p)


def gradient_lp_annulus_oracle(params, p, delta):
    """Independent fixed-grid midpoint evaluation in the raw radial
    variable, for cross-checking the adaptive quadrature."""
    r = np.geomspace(delta, R_OUTER, ORACLE_PANELS + 1)
    mid = np.sqrt(r[:-1] * r[1:])
    t = np.log(params.r0 / mid)
    vals = _lp_mass_integrand(t, params, p)
    # d t = -dr / r: integrate in t over the panel widths
    widths = np.log(r[1:] / r[:-1])
    return float(np.sum(vals * widths)) ** (1.0 / p)


def gradient_l1_limit(params):
    """The delta -> 0 limit of the L1 norm (finite since beta > 1):
    adaptive quadrature on the unbounded log variable, where the
    integrand decays like t^-beta."""
    from scipy import integrate

    t_lo = np.log(params.r0 / R_OUTER)
    val, _ = integrate.quad(
        lambda t: _lp_mass_integrand(t, params, 1.0),
        t_lo,
        np.inf,
        limit=400,
    )
    return val


def jms_norm_divergence(params):
    """Gradient norms on the shrinking annuli NORM_DELTAS, for each p of
    NORM_P_VALUES: convergence for p = 1, divergence for p > 1 with the rate
    of the explicit asymptotic integrand r^(1-2p) log(r0/r)^(-p beta)."""
    table = []
    for p in NORM_P_VALUES:
        values = [gradient_lp_annulus(params, p, d) for d in NORM_DELTAS]
        entry = {"p": p, "deltas": list(NORM_DELTAS), "values": values}
        if p != 1.0:
            # fitted slope of the partial integrals vs delta, against the
            # asymptotic slope (2 - 2p) + p*beta / log(r0/delta)
            masses = np.asarray(values) ** p
            slopes = np.diff(np.log(masses)) / np.diff(np.log(NORM_DELTAS))
            deltas = np.asarray(NORM_DELTAS)
            mid = np.sqrt(deltas[:-1] * deltas[1:])
            predicted = (2 - 2 * p) + p * params.beta / np.log(params.r0 / mid)
            entry["fitted_slopes"] = slopes.tolist()
            entry["predicted_slopes"] = predicted.tolist()
        table.append(entry)
    return table

