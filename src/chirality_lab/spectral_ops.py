"""FFT calculus on the torus.

All operators act on plain (n, n, ...) value tables; the first two axes are
the grid.  Real input gives real output for the real-coefficient operators.
Band-limitedness is the caller's contract: operators are exact on resolved
trigonometric polynomials and silently alias otherwise.

Conventions, fixed once:
    d_z    = (d/dx1 - i d/dx2) / 2      plane-wave symbol (i k1 + k2) / 2
    d_zbar = (d/dx1 + i d/dx2) / 2      plane-wave symbol (i k1 - k2) / 2
    grad_perp f = (-d2 f, d1 f)
Odd symbols (single derivatives and the inverse of d_zbar) zero the Nyquist
row/column so real fields stay real through round trips.

Real tables go through the half spectrum: ``numpy.fft.rfft2`` over the grid
axes keeps wavenumber columns 0..n//2 of the second axis, the symbol table is
cut to the same columns, and ``irfft2`` with ``s=(n, n)`` returns a real
table.  This equals the real part of the full-spectrum product because every
symbol applied to real input (derivatives, Laplacian and its inverse) is
Hermitian, sym(-k) = conj(sym(k)), which the Nyquist policy above
guarantees for the odd ones.  Complex tables, and the complex
symbols d_z, d_zbar and their inverses, keep the full spectrum.  Operators
that need several multipliers of the same input (grad, div, curl,
hodge_decompose) transform each input once.

Solvers that stay in Fourier space between pointwise products use the
spectrum level.  ``forward`` and ``inverse`` take same-shape complex tables
stacked on a new leading axis, so their grid axes are 1 and 2, and
transform all of them in one batched call: ``forward`` always in place,
``inverse`` into ``out`` when given.  Each stacked table stays contiguous,
and a multiplier broadcast over it runs over whole grids even when its
trailing axes are single entries.  ``real_forward`` and ``real_inverse``
do the same for real tables through their half spectra, out of place.
``spectrum`` gives one table's spectrum for spectral sums: the half
spectrum of a real table.

``multipliers`` is the one symbol shaper of both levels: given a spectrum,
full or half, it hands out every symbol cut to the spectrum's columns and
shaped to broadcast over its trailing axes, built once per (columns, rank)
and cached on the plan.  The value-level operators apply their symbols by
name through it.

numpy.fft is used rather than scipy.fft: importing scipy.fft, which no
program module needs otherwise, took 0.34 s and raised the peak RSS by
25 MB (numpy 2.4, scipy 1.17, Python 3.11 on a 2-CPU Linux machine), more
than the whole set-up of the n = 16 gauge benchmark.

``random_band_limited`` keeps its full-spectrum draw: it takes the real part
of a spectrum that is not Hermitian, and a half-spectrum draw would change
every seeded input.
"""

from collections import namedtuple

import numpy as np

from chirality_lab.field_core import Grid2, left_i, right_i

__all__ = [
    "SpectralPlan",
    "random_band_limited",
    "random_band_limited_complex",
]


# the symbols of the operators: derivatives, d_z and d_zbar, the Laplacian,
# its inverse and the inverse of d_zbar and its square (zero mode dropped),
# and the two-thirds dealiasing mask
Multipliers = namedtuple(
    "Multipliers", "d1 d2 dz dzbar lap inv_lap inv_dzbar inv_dzbar_sq keep"
)


def _fft(f):
    return np.fft.fft2(f, axes=(0, 1))


def _ifft(F):
    return np.fft.ifft2(F, axes=(0, 1))


class SpectralPlan:
    """Fourier-multiplier machinery for one grid.

    The symbols are fixed at construction and only views of them are
    cached later, so a plan is safe to share.  Wavenumbers follow
    k = 2 pi * integer / L.
    """

    def __init__(self, grid: Grid2):
        self.grid = grid
        n = grid.n
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
        k1 = k[:, None] * np.ones((1, n))
        k2 = np.ones((n, 1)) * k[None, :]
        k2abs = k1**2 + k2**2

        nyq = n // 2
        odd_mask1 = np.ones((n, n))
        odd_mask1[nyq, :] = 0.0
        odd_mask2 = np.ones((n, n))
        odd_mask2[:, nyq] = 0.0
        d1 = 1j * k1 * odd_mask1
        d2 = 1j * k2 * odd_mask2
        dzbar = 0.5 * (d1 + 1j * d2)

        nonzero = k2abs > 0.0
        inv_lap = np.zeros((n, n))
        inv_lap[nonzero] = -1.0 / k2abs[nonzero]

        ok = (np.abs(dzbar) > 0.0) & (odd_mask1 > 0) & (odd_mask2 > 0)
        inv_dzbar = np.zeros((n, n), dtype=complex)
        inv_dzbar[ok] = 1.0 / dzbar[ok]

        kmax = np.pi * n / grid.length
        keep = (np.abs(k1) < 2.0 / 3.0 * kmax) & (np.abs(k2) < 2.0 / 3.0 * kmax)
        self._symbols = Multipliers(
            d1=d1, d2=d2, dz=0.5 * (d1 - 1j * d2), dzbar=dzbar, lap=-k2abs,
            inv_lap=inv_lap, inv_dzbar=inv_dzbar, inv_dzbar_sq=inv_dzbar**2,
            keep=keep,
        )
        # every caller shares these tables through the views handed out
        for sym in self._symbols:
            sym.flags.writeable = False
        # Multipliers by (spectrum columns, spectrum rank)
        self._shaped = {}

    # -- spectrum level -----------------------------------------------------

    def spectrum(self, f):
        """Spectrum of one table over the grid axes: the full spectrum of a
        complex table, the rfft2 half spectrum (columns 0..n//2) of a real
        one."""
        if np.isrealobj(f):
            return np.fft.rfft2(f, axes=(0, 1))
        return _fft(f)

    def forward(self, w):
        """Full spectra of the complex tables stacked on the leading axis of
        w, whose grid axes are 1 and 2: one batched transform, in place;
        returns w."""
        return np.fft.fft2(w, axes=(1, 2), out=w)

    def inverse(self, w_hat, out=None):
        """Complex tables of the full spectra stacked on the leading axis of
        w_hat: one batched transform, into out (which may be w_hat)."""
        # ifftn, not ifft2: numpy 2.4's ifft2 drops its out argument
        return np.fft.ifftn(w_hat, axes=(1, 2), out=out)

    def real_forward(self, w):
        """Half spectra (columns 0..n//2) of the real tables stacked on the
        leading axis of w, whose grid axes are 1 and 2: one batched
        transform."""
        return np.fft.rfft2(w, axes=(1, 2))

    def real_inverse(self, w_hat):
        """Real tables of the half spectra stacked on the leading axis of
        w_hat: one batched transform."""
        return np.fft.irfft2(w_hat, s=(self.grid.n, self.grid.n), axes=(1, 2))

    def multipliers(self, F):
        """The Multipliers cut to the columns of the spectrum F (the rfft2
        half spectrum keeps columns 0..n//2) and shaped to broadcast over its
        trailing axes, which become singletons; built once per (columns,
        rank).  For spectra stacked on a leading axis pass one of them."""
        key = F.shape[1], F.ndim
        sym = self._shaped.get(key)
        if sym is None:
            cols = F.shape[1]
            shape = (self.grid.n, cols) + (1,) * (F.ndim - 2)
            sym = self._shaped[key] = Multipliers(
                *(s[:, :cols].reshape(shape) for s in self._symbols)
            )
        return sym

    # -- multiplier application ------------------------------------------

    def _spectra(self, *fs):
        """Forward transforms of the tables fs and whether all are real;
        half spectra when they are, full spectra otherwise."""
        fs = [np.asarray(f) for f in fs]
        real = all(np.isrealobj(f) for f in fs)
        if real:
            return [np.fft.rfft2(f, axes=(0, 1)) for f in fs], real
        return [_fft(f) for f in fs], real

    def _inverse(self, F, real):
        if real:
            return np.fft.irfft2(F, s=(self.grid.n, self.grid.n), axes=(0, 1))
        return _ifft(F)

    # the spectra are fresh arrays, so multipliers are applied in place:
    # fewer full-size temporaries, the same products

    def _apply(self, name, f):
        """The multiplier of that name applied to f; real f needs a
        Hermitian one."""
        (F,), real = self._spectra(f)
        F *= getattr(self.multipliers(F), name)
        return self._inverse(F, real)

    # -- derivatives ------------------------------------------------------

    def dx(self, f):
        return self._apply("d1", f)

    def dy(self, f):
        return self._apply("d2", f)

    def grad(self, f):
        (F,), real = self._spectra(f)
        sym = self.multipliers(F)
        fx = self._inverse(sym.d1 * F, real)
        F *= sym.d2
        return fx, self._inverse(F, real)

    def grad_perp(self, f):
        fx, fy = self.grad(f)
        return -fy, fx

    def div(self, a1, a2):
        """d1 a1 + d2 a2 for component tables of one shape."""
        (F1, F2), real = self._spectra(a1, a2)
        sym = self.multipliers(F1)
        F1 *= sym.d1
        F2 *= sym.d2
        F1 += F2
        return self._inverse(F1, real)

    def curl(self, a1, a2):
        """d1 a2 - d2 a1 for component tables of one shape."""
        (F1, F2), real = self._spectra(a1, a2)
        sym = self.multipliers(F1)
        F2 *= sym.d1
        F1 *= sym.d2
        F2 -= F1
        return self._inverse(F2, real)

    def laplacian(self, f):
        return self._apply("lap", f)

    def d_z(self, f):
        """(d1 - i d2)/2 on complex tables."""
        return self._apply("dz", np.asarray(f, dtype=complex))

    def d_zbar(self, f):
        return self._apply("dzbar", np.asarray(f, dtype=complex))

    # quaternion Cauchy-Riemann-Fueter operators; i acts by component shuffle
    def d_left(self, q):
        qx, qy = self.grad(q)
        return 0.5 * (qx - left_i(qy))

    def d_right(self, q):
        qx, qy = self.grad(q)
        return 0.5 * (qx - right_i(qy))

    # -- inverses ---------------------------------------------------------

    def inv_laplacian(self, f):
        """Mean-zero g with Lap g = f - mean(f)."""
        return self._apply("inv_lap", f)

    def cauchy_solve(self, g):
        """Mean-zero h with d_zbar h = g - mean(g).

        Torus analogue of convolving with the plane Cauchy kernel normalized
        so that d_zbar of it is a delta; realized by symbol division.
        """
        return self._apply("inv_dzbar", np.asarray(g, dtype=complex))

    def inv_dzbar_sq(self, g):
        """Second antiderivative under d_zbar (zero mode and Nyquist dropped).

        The output T satisfies d_zbar(d_zbar T) = g - mean, so for
        d_zbar h = g one has d_zbar T = h - mean(h).
        """
        return self._apply("inv_dzbar_sq", np.asarray(g, dtype=complex))

    # -- decompositions and helpers ---------------------------------------

    def hodge_decompose(self, a1, a2):
        """Split a = grad(alpha) + grad_perp(beta) + constant mean vector."""
        (F1, F2), real = self._spectra(a1, a2)
        sym = self.multipliers(F1)
        d1, d2, inv = sym.d1, sym.d2, sym.inv_lap
        alpha = self._inverse(inv * (d1 * F1 + d2 * F2), real)
        beta = self._inverse(inv * (d1 * F2 - d2 * F1), real)
        mean = np.array([np.mean(a1), np.mean(a2)])
        return alpha, beta, mean

    def fourier_coefficients(self, f):
        """Coefficients c_k with f = sum c_k exp(i k.x)."""
        return _fft(np.asarray(f)) / self.grid.n**2


def random_band_limited(plan, rng, kmax=None, rms=1.0):
    """Real mean-zero random field with modes confined to max|k index| <= kmax."""
    n = plan.grid.n
    if kmax is None:
        kmax = n // 6
    idx = np.fft.fftfreq(n, d=1.0 / n)
    keep = (np.abs(idx[:, None]) <= kmax) & (np.abs(idx[None, :]) <= kmax)
    F = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    F *= keep
    f = _ifft(F).real
    f -= f.mean()
    scale = np.sqrt(np.mean(f**2))
    if scale > 0:
        f *= rms / scale
    return f


def random_band_limited_complex(plan, rng):
    """(re + i im) / sqrt(2) for two random_band_limited draws."""
    re = random_band_limited(plan, rng)
    im = random_band_limited(plan, rng)
    return (re + 1j * im) / np.sqrt(2.0)
