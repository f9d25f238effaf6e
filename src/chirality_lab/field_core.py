"""The torus grid and the packed quaternion table.

The torus [0, L)^2 is discretized by an even n x n grid.  The one
quaternion algebra is the complex-pair algebra of hyperunitary.py; here a
quaternion field frak_f = phi + psi j is only packed, as an (..., 4) float
table with layout (re, i, j, k) = (Re phi, Im phi, Re psi, Im psi), the
standard identification of H with C^2.  The packing lets FFTs act per real
component, so the quaternion Cauchy-Riemann operators of spectral_ops.py
and the packed residual of the quaternion form multiply by the units i and
j as component shuffles.
"""

import numpy as np

__all__ = [
    "Grid2",
    "left_i",
    "right_i",
    "left_j",
    "complex_left",
    "quat_to_complex_pair",
    "complex_pair_to_quat",
    "HAVE_COMPILED_KERNELS",
]


class Grid2:
    """Periodic square grid: n points per side on [0, L)^2.

    n must be even and at least 8 so the FFT layer can apply one uniform
    Nyquist policy.  The first sample sits at the origin; a singularity
    placed at the half-cell point (h/2, h/2) is hit by no sample.
    """

    def __init__(self, n, length=2.0 * np.pi):
        if n < 8 or n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got {n}")
        if length <= 0:
            raise ValueError("length must be positive")
        self.n = int(n)
        self.length = float(length)
        self.spacing = self.length / self.n
        self.cell_measure = self.spacing**2
        coords = self.spacing * np.arange(self.n)
        self.x1, self.x2 = np.meshgrid(coords, coords, indexing="ij")

    @property
    def area(self):
        return self.length**2

    def __eq__(self, other):
        return (
            isinstance(other, Grid2)
            and self.n == other.n
            and self.length == other.length
        )

    def __hash__(self):
        return hash((self.n, self.length))

    def __repr__(self):
        return f"Grid2(n={self.n}, length={self.length:.6g})"


# ---------------------------------------------------------------------------
# the packed (..., 4) table: unit shuffles and the pair packing
# ---------------------------------------------------------------------------

# perfbench reports this setting; the kernels are numpy only
HAVE_COMPILED_KERNELS = False


def left_i(a):
    """i * q as a component shuffle: (w, x, y, z) -> (-x, w, -z, y)."""
    a = np.asarray(a)
    return np.stack([-a[..., 1], a[..., 0], -a[..., 3], a[..., 2]], axis=-1)


def right_i(a):
    """q * i: (w, x, y, z) -> (-x, w, z, -y)."""
    a = np.asarray(a)
    return np.stack([-a[..., 1], a[..., 0], a[..., 3], -a[..., 2]], axis=-1)


def left_j(a):
    """j * q: (w, x, y, z) -> (-y, z, w, -x)."""
    a = np.asarray(a)
    return np.stack([-a[..., 2], a[..., 3], a[..., 0], -a[..., 1]], axis=-1)


def complex_left(c, a):
    """(x + iy) * q with the complex scalar acting by left multiplication."""
    c = np.asarray(c)
    return c.real[..., None] * np.asarray(a) + c.imag[..., None] * left_i(a)


def quat_to_complex_pair(a):
    """Split q = z1 + z2 j into the complex pair (z1, z2)."""
    a = np.asarray(a)
    return a[..., 0] + 1j * a[..., 1], a[..., 2] + 1j * a[..., 3]


def complex_pair_to_quat(z1, z2):
    z1 = np.asarray(z1)
    z2 = np.asarray(z2)
    return np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=-1)

