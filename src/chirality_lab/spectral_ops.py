"""FFT calculus on the torus: one set of transforms, two levels of operators.

Conventions, fixed once:
    d_z    = (d/dx1 - i d/dx2) / 2      plane-wave symbol (i k1 + k2) / 2
    d_zbar = (d/dx1 + i d/dx2) / 2      plane-wave symbol (i k1 - k2) / 2
    grad_perp f = (-d2 f, d1 f)
Odd symbols (single derivatives and the inverse of d_zbar) zero the Nyquist
row/column so real fields stay real through round trips.

Four private transforms (complex and real, forward and inverse) are the
module's only numpy.fft transforms.  Each takes same-shape tables stacked
on a leading axis, so their grid axes are 1 and 2, in one batched call;
pocketfft transforms each line on its own, so a table gets the same bits
in a stack as alone.  Each stacked table stays contiguous, and a
multiplier broadcast over it runs over whole grids even when its trailing
axes are single entries.

The spectrum level serves solvers that stay in Fourier space between
pointwise products: ``forward`` (in place) and ``inverse`` (into ``out``
when given) wrap the complex pair, ``real_forward`` and ``real_inverse``
the real pair; ``gradient`` gives the values of the d1 and d2 derivatives
of stacked spectra in one inverse transform, ``divergence`` the spectrum
of d1 a1 + d2 a2 from a stacked pair, and ``spectrum`` one table's
spectrum for spectral sums.

The value level acts on plain (n, n, ...) tables, the first two axes the
grid; real input gives real output for the real-coefficient operators.
Each operator is the spectrum level applied to its inputs stacked on a
new leading axis (one table as a view): one batched transform each way,
however many inputs and symbols it has.  Band-limitedness is the caller's
contract: operators are exact on resolved trigonometric polynomials and
silently alias otherwise.

Real tables go through the half spectrum, wavenumber columns 0..n//2 of
the second grid axis, with the symbols cut to the same columns.  This
equals the real part of the full-spectrum product because every symbol
applied to real input (derivatives, Laplacian and its inverse) is
Hermitian, sym(-k) = conj(sym(k)), which the Nyquist policy above
guarantees for the odd ones.  Complex tables, and the complex symbols d_z,
d_zbar and their inverses, keep the full spectrum.  The column count tells
the two apart.  ``multipliers`` is the one symbol shaper of both levels:
every symbol cut to a spectrum's columns and shaped to broadcast over its
trailing axes, built once per (columns, rank) and cached on the plan.

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


# the four transforms, over grid axes 1 and 2 of a stack on a leading axis


def _fft_stack(w, out):
    return np.fft.fftn(w, axes=(1, 2), out=out)


def _ifft_stack(w_hat, out):
    # ifftn, not ifft2: numpy 2.4's ifft2 drops its out argument
    return np.fft.ifftn(w_hat, axes=(1, 2), out=out)


def _rfft_stack(w):
    return np.fft.rfftn(w, axes=(1, 2))


def _irfft_stack(w_hat, n):
    return np.fft.irfftn(w_hat, s=(n, n), axes=(1, 2))


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
        complex table, the half spectrum (columns 0..n//2) of a real
        one."""
        return self._transform(f)[0]

    def forward(self, w):
        """Full spectra of the stacked complex tables w, in place; returns w."""
        return _fft_stack(w, out=w)

    def inverse(self, w_hat, out=None):
        """Complex tables of the stacked full spectra w_hat, into out (which
        may be w_hat)."""
        return _ifft_stack(w_hat, out=out)

    def real_forward(self, w):
        """Half spectra (columns 0..n//2) of the stacked real tables w."""
        return _rfft_stack(w)

    def real_inverse(self, w_hat):
        """Real tables of the stacked half spectra w_hat."""
        return _irfft_stack(w_hat, self.grid.n)

    def multipliers(self, F):
        """The Multipliers cut to the columns of the spectrum F (the
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

    def gradient(self, f_hat):
        """Values of the d1 and then the d2 derivatives of the k tables whose
        spectra, full or half, are stacked in f_hat, as 2k stacked tables:
        one inverse transform."""
        sym = self.multipliers(f_hat[0])
        k = len(f_hat)
        g = np.empty((2 * k,) + f_hat.shape[1:], dtype=complex)
        np.multiply(f_hat, sym.d1, out=g[:k])
        np.multiply(f_hat, sym.d2, out=g[k:])
        return self._tables(g)

    def divergence(self, a_hat):
        """Spectrum of d1 a1 + d2 a2 from the spectra of a1 and a2, the first
        two stacked in a_hat."""
        sym = self.multipliers(a_hat[0])
        div = sym.d1 * a_hat[0]
        div += sym.d2 * a_hat[1]
        return div

    # -- value level: the spectrum level on a stack of the inputs --------

    def _transform(self, *fs):
        """Stacked spectra of the same-shape tables fs, half ones when all
        are real; several tables are stacked as a copy, transformed in
        place."""
        w = np.asarray(fs[0])[None] if len(fs) == 1 else np.stack(fs)
        if np.isrealobj(w):
            return _rfft_stack(w)
        return _fft_stack(w, out=None if len(fs) == 1 else w)

    def _tables(self, w_hat):
        """Stacked tables of the stacked spectra w_hat: real ones of half
        spectra, complex ones of full spectra, transformed in place."""
        n = self.grid.n
        if w_hat.shape[2] < n:
            return _irfft_stack(w_hat, n)
        return _ifft_stack(w_hat, out=w_hat)

    def _curl_spectrum(self, a_hat):
        """Spectrum of d1 a2 - d2 a1, as divergence reads a_hat."""
        sym = self.multipliers(a_hat[0])
        curl = sym.d1 * a_hat[1]
        curl -= sym.d2 * a_hat[0]
        return curl

    # the spectra are fresh arrays, so multipliers are applied in place:
    # fewer full-size temporaries, the same products

    def _apply(self, name, f):
        """The multiplier of that name applied to f; real f needs a
        Hermitian one."""
        F = self._transform(f)
        F *= getattr(self.multipliers(F[0]), name)
        return self._tables(F)[0]

    # -- derivatives ------------------------------------------------------

    def dx(self, f):
        return self._apply("d1", f)

    def dy(self, f):
        return self._apply("d2", f)

    def grad(self, f):
        return tuple(self.gradient(self._transform(f)))

    def grad_perp(self, f):
        fx, fy = self.grad(f)
        return -fy, fx

    def div(self, a1, a2):
        """d1 a1 + d2 a2 for component tables of one shape."""
        return self._tables(self.divergence(self._transform(a1, a2))[None])[0]

    def curl(self, a1, a2):
        """d1 a2 - d2 a1 for component tables of one shape."""
        return self._tables(self._curl_spectrum(self._transform(a1, a2))[None])[0]

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
        F = self._transform(a1, a2)
        inv = self.multipliers(F[0]).inv_lap
        div, curl = self.divergence(F), self._curl_spectrum(F)
        # the potentials' spectra take the place of the inputs'
        np.multiply(inv, div, out=F[0])
        np.multiply(inv, curl, out=F[1])
        alpha, beta = self._tables(F)
        mean = np.array([np.mean(a1), np.mean(a2)])
        return alpha, beta, mean

    def fourier_coefficients(self, f):
        """Coefficients c_k with f = sum c_k exp(i k.x)."""
        return _fft_stack(np.asarray(f)[None], None)[0] / self.grid.n**2


def random_band_limited(plan, rng, kmax=None, rms=1.0):
    """Real mean-zero random field with modes confined to max|k index| <= kmax."""
    n = plan.grid.n
    if kmax is None:
        kmax = n // 6
    idx = np.fft.fftfreq(n, d=1.0 / n)
    keep = (np.abs(idx[:, None]) <= kmax) & (np.abs(idx[None, :]) <= kmax)
    F = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    F *= keep
    f = _ifft_stack(F[None], None)[0].real
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
