"""Discrete norm estimators: L^p, Lorentz L^{2,inf} and L^{2,1}, the
homogeneous negative Sobolev norm, ball restrictions, and Morrey decay fits.

Level sets are counted by whole cells (each grid point contributes one
cell_measure); balls use the flat wrap-around torus metric and radii are
capped at L/2 - spacing.  The torus distance separates by axis, so a ball
is read on its bounding window: the rows and the columns whose own
wrap-around distance is within the radius.  |f| is taken on the window
only, and the ball's values keep the grid's row-major order, so every sum
and sort sees the values of a full-grid mask in the same order.

Fields with several components or several tables (quaternion tables,
gradient pairs, pairs of matrix tables) are combined into one magnitude or
one L2 norm here: ``pointwise_abs`` and ``l2_norm`` take a group of tables.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Ball",
    "lp_norm",
    "linf_norm",
    "l2_norm",
    "lorentz_weak_l2",
    "lorentz_l21",
    "sobolev_neg_1_2",
    "spectral_neg_1_2",
    "morrey_profile",
    "MorreyFit",
    "pointwise_abs",
]


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float


def _squared_modulus(f):
    f = np.asarray(f)
    if np.iscomplexobj(f):
        mag2 = (f.real**2 + f.imag**2)
    else:
        mag2 = f**2
    if mag2.ndim > 2:
        # the component count is spelled out: a ball's window can be empty
        comps = int(np.prod(mag2.shape[2:]))
        mag2 = mag2.reshape(mag2.shape[:2] + (comps,)).sum(axis=-1)
    return mag2


def pointwise_abs(*tables):
    """Pointwise magnitude of a group of tables: the root of the squared
    moduli summed over the trailing component axes of every table."""
    return np.sqrt(sum(_squared_modulus(f) for f in tables))


def _axis_distances(grid, center):
    """Wrap-around distances of the grid coordinates from center, one
    length-n array per axis."""
    out = []
    for coords, c in zip((grid.x1[:, 0], grid.x2[0]), center):
        d = np.abs(coords - c)
        out.append(np.minimum(d, grid.length - d))
    return out


def _torus_distance_sq(grid, center):
    """Squared wrap-around distance of every grid point from center."""
    d1, d2 = _axis_distances(grid, center)
    return d1[:, None] ** 2 + d2[None, :] ** 2


def _region_values(grid, f, region):
    """|f| at the grid points of the region (the whole grid for None), in
    the grid's row-major order."""
    if region is None:
        return np.ravel(pointwise_abs(f))
    rmax = grid.length / 2.0 - grid.spacing
    if region.radius > rmax:
        raise ValueError(f"ball radius {region.radius} exceeds cap {rmax}")
    # the ball's bounding window: the rows and columns within the radius on
    # their own axis, in ascending order, so row-major order is kept
    d1, d2 = _axis_distances(grid, region.center)
    r2 = region.radius**2
    rows = np.flatnonzero(d1**2 <= r2)
    cols = np.flatnonzero(d2**2 <= r2)
    inside = d1[rows, None] ** 2 + d2[None, cols] ** 2 <= r2
    return pointwise_abs(np.asarray(f)[np.ix_(rows, cols)])[inside]


def lp_norm(grid, f, p, region=None):
    if p < 1:
        raise ValueError("p must be >= 1")
    vals = _region_values(grid, f, region)
    return float((np.sum(vals**p) * grid.cell_measure) ** (1.0 / p))


def linf_norm(grid, f):
    return float(np.max(pointwise_abs(f)))


def l2_norm(grid, *tables):
    """L2 norm of a group of tables over the whole grid: the root of the
    summed squared L2 norms of the tables.  For one table sqrt(x**2) == x,
    so it is the table's lp_norm with p = 2."""
    return float(np.sqrt(sum(lp_norm(grid, f, 2) ** 2 for f in tables)))


def _decreasing_rearrangement(grid, f, region):
    vals = _region_values(grid, f, region)
    return np.sort(vals)[::-1]


def lorentz_weak_l2(grid, f, region=None):
    """sup over lambda of lambda * measure{|f| >= lambda}^(1/2), discretely
    max_k f*_k (k cell)^(1/2) over the decreasing rearrangement f*."""
    star = _decreasing_rearrangement(grid, f, region)
    if star.size == 0 or star[0] == 0.0:
        return 0.0
    k = np.arange(1, star.size + 1)
    return float(np.max(star * np.sqrt(k * grid.cell_measure)))


def lorentz_l21(grid, f, region=None):
    """Layer-cake integral of measure{|f| >= lambda}^(1/2), discretely
    sum_k f*_k (sqrt(k) - sqrt(k-1)) sqrt(cell)."""
    star = _decreasing_rearrangement(grid, f, region)
    if star.size == 0:
        return 0.0
    k = np.arange(1, star.size + 1)
    weights = np.sqrt(k) - np.sqrt(k - 1)
    return float(np.sum(star * weights) * np.sqrt(grid.cell_measure))


def sobolev_neg_1_2(plan, f):
    """Homogeneous negative-order norm || |k|^-1 f_hat ||, zero mode dropped.

    The zero mode is the torus proxy for homogeneity; inputs must be
    mean-zero, otherwise the value would silently depend on the dropped mode.
    Trailing component axes are contracted as in ``pointwise_abs``, all in one
    batched transform: the half spectrum of a real table, the full spectrum
    of a complex one (see ``spectral_neg_1_2``).  A complex table a + ib
    counts as the pair (a, b): for real a, b and the even weight |k|^-2 the
    cross terms at k and -k cancel, so ||a + ib||^2 = ||a||^2 + ||b||^2.
    """
    f = np.asarray(f)
    l2 = l2_norm(plan.grid, f)
    mean = float(np.max(np.abs(np.mean(f, axis=(0, 1)))))
    if mean > 1e-10 * max(l2, 1e-300):
        raise ValueError(
            f"sobolev_neg_1_2 needs a mean-zero field (|mean|={mean:.3e}); "
            "subtract the mean first"
        )
    return spectral_neg_1_2(plan, plan.spectrum(f))


def spectral_neg_1_2(plan, F):
    """|| |k|^-1 f_hat || of f from its spectrum F = plan.spectrum(f), zero
    mode dropped (so F needs no mean projection); trailing axes contract.

    F is a full spectrum, or the rfft2 half spectrum of a real table, whose
    columns 1..n//2 - 1 stand for two modes each, k and -k: the same sum
    with those columns counted twice.  The weight is the inverse
    Laplacian's symbol, which plan.multipliers cuts to F's columns.
    """
    n = plan.grid.n
    power = F.real**2 + F.imag**2
    if power.ndim > 2:
        power = power.reshape(power.shape[:2] + (-1,)).sum(axis=-1)
    weight = -plan.multipliers(power).inv_lap
    weight[:, 1 : n - F.shape[1] + 1] *= 2.0
    return float(np.sqrt(np.sum(weight * power) * plan.grid.area) / n**2)


@dataclass
class MorreyFit:
    alpha: float
    radii: list
    values: list
    degenerate: bool


def morrey_profile(grid, f, center, radii):
    """Least-squares slope of log ||f||_{L^{2,inf}(B(x,r))} against log r.
    A degenerate fit (some ball norm is zero) has NaN alpha, which fails
    any gate on it."""
    if len(radii) < 4:
        raise ValueError("need at least 4 radii for a decay fit")
    values = [lorentz_weak_l2(grid, f, Ball(center, r)) for r in radii]
    if any(v <= 0.0 for v in values):
        return MorreyFit(np.nan, list(radii), values, True)
    logs_r = np.log(np.asarray(radii, dtype=float))
    slope = np.polyfit(logs_r, np.log(np.asarray(values)), 1)[0]
    return MorreyFit(float(slope), list(radii), values, False)
