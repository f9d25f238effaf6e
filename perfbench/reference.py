"""Independent reference computations for the benchmark's output checks.

Nothing here imports chirality_lab: derivatives, products and norms are
rebuilt from numpy in a few lines each, so a check cannot pass because the
program agrees with itself.  Every aggregate uses numpy reductions, which
propagate NaN, and every comparison is written so that NaN fails it.
"""

import numpy as np


def wavenumbers(n, length):
    return 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)


def deriv(f, axis, length):
    """Spectral derivative along one grid axis, Nyquist mode dropped."""
    n = f.shape[axis]
    k = wavenumbers(n, length)
    k[n // 2] = 0.0
    shape = [1] * f.ndim
    shape[axis] = n
    out = np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(f, axis=axis), axis=axis)
    return out.real if np.isrealobj(f) else out


def d_z(f, length):
    return 0.5 * (deriv(f, 0, length) - 1j * deriv(f, 1, length))


def d_zbar(f, length):
    return 0.5 * (deriv(f, 0, length) + 1j * deriv(f, 1, length))


def _spectral(f, symbol):
    out = np.fft.ifft2(symbol * np.fft.fft2(f))
    return out.real if np.isrealobj(f) else out


def inv_laplacian(f, length):
    """Mean-zero g with Lap g = f - mean(f)."""
    n = f.shape[0]
    k = wavenumbers(n, length)
    k2 = k[:, None] ** 2 + k[None, :] ** 2
    sym = np.zeros_like(k2)
    sym[k2 > 0] = -1.0 / k2[k2 > 0]
    return _spectral(f, sym)


def inv_d_zbar(g, length):
    """Mean-zero h with d_zbar h = g for g free of mean and Nyquist modes."""
    n = g.shape[0]
    k = wavenumbers(n, length)
    sym = 0.5 * (1j * k[:, None] - k[None, :])
    inv = np.zeros_like(sym)
    inv[sym != 0] = 1.0 / sym[sym != 0]
    return _spectral(np.asarray(g, dtype=complex), inv)


def band_limited(rng, n, kmax, rms=1.0):
    """Real mean-zero random field with modes |index| <= kmax, given rms."""
    idx = np.fft.fftfreq(n, d=1.0 / n)
    keep = (np.abs(idx[:, None]) <= kmax) & (np.abs(idx[None, :]) <= kmax)
    spec = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * keep
    f = np.fft.ifft2(spec).real
    f -= f.mean()
    return f * (rms / np.sqrt(np.mean(f**2)))


def _left_matrix(a):
    """4x4 matrix of left multiplication by a, so that a * b = L(a) @ b."""
    w, x, y, z = (a[..., c] for c in range(4))
    rows = [
        [w, -x, -y, -z],
        [x, w, -z, y],
        [y, z, w, -x],
        [z, -y, x, w],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def hamilton(a, b):
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    return np.einsum("...ij,...j->...i", _left_matrix(a), b)


def quat_conj(a):
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def l2(f, length):
    n = f.shape[0]
    return float(np.sqrt(np.sum(np.abs(f) ** 2) * (length / n) ** 2))


def h_minus_one(f, length):
    """|| |k|^-1 f_hat || with the zero mode dropped (f must be mean-zero)."""
    n = f.shape[0]
    k = wavenumbers(n, length)
    k2 = k[:, None] ** 2 + k[None, :] ** 2
    c = np.fft.fft2(f) / n**2
    nz = k2 > 0
    return float(np.sqrt(np.sum(np.abs(c[nz]) ** 2 / k2[nz]) * length**2))


def quaternion_gauge_residual(q, alpha, length):
    """Residual of N(q) = (0, -2 d_z alpha) in the solver's norm.

    N(q) = (i-part of div X, jk-part of X1 - X2 i) with X_l = conj(q) d_l q.
    The norm is H^-1 on the mean-free i-line, L2 on the mean-free jk-plane,
    plus the L2 mass of the jk-plane mean.
    """
    qc = quat_conj(q)
    x1 = hamilton(qc, deriv(q, 0, length))
    x2 = hamilton(qc, deriv(q, 1, length))
    div_i = (deriv(x1, 0, length) + deriv(x2, 1, length))[..., 1]
    y = x1 - hamilton(x2, np.array([0.0, 1.0, 0.0, 0.0]))
    rw = -div_i
    rg = -2.0 * d_z(alpha, length) - (y[..., 2] + 1j * y[..., 3])
    g_mean = np.mean(rg)
    return (
        h_minus_one(rw - np.mean(rw), length)
        + l2(rg - g_mean, length)
        + float(np.abs(g_mean)) * length
    )


def unit_defect(q):
    return float(np.max(np.abs(np.sqrt(np.sum(q * q, axis=-1)) - 1.0)))


def hyperunitary_defect(p):
    """max |E^H E - I| for the complex embedding E = [[X, Y], [-conj Y, conj X]]."""
    x, y = p
    e = np.concatenate(
        [np.concatenate([x, y], axis=-1),
         np.concatenate([-np.conj(y), np.conj(x)], axis=-1)],
        axis=-2,
    )
    prod = np.matmul(np.conj(np.swapaxes(e, -1, -2)), e)
    return float(np.max(np.abs(prod - np.eye(e.shape[-1]))))


def ball_weak_l2(f, x1, x2, length, center, radius):
    """Weak-L2 norm of |f| on a wrap-around ball from a plain sort."""
    n = f.shape[0]
    d1 = np.abs(x1 - center[0])
    d1 = np.minimum(d1, length - d1)
    d2 = np.abs(x2 - center[1])
    d2 = np.minimum(d2, length - d2)
    star = np.sort(np.abs(f)[d1**2 + d2**2 <= radius**2])[::-1]
    k = np.arange(1, star.size + 1)
    return float(np.max(star * np.sqrt(k * (length / n) ** 2)))


def rel_err(a, b):
    """max |a - b| / max |b|, NaN-propagating."""
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
