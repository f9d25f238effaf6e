"""Value algebras and grid-indexed fields.

The torus [0, L)^2 is discretized by an even n x n grid.  Quaternion fields
are stored component-wise as (..., 4) float tables with layout
(re, i, j, k), so FFTs and pointwise kernels act per real component and
left/right multiplication by the units become component shuffles.
"""

import numpy as np

__all__ = [
    "Grid2",
    "Quaternion",
    "qmul",
    "qconj",
    "qnorm",
    "qexp_pure",
    "left_i",
    "right_i",
    "left_j",
    "right_j",
    "complex_left",
    "quat_to_complex_pair",
    "complex_pair_to_quat",
    "HAVE_COMPILED_KERNELS",
]


class Grid2:
    """Periodic square grid: n points per side on [0, L)^2.

    n must be even and at least 8 so the FFT layer can apply one uniform
    Nyquist policy.  With ``origin_singular=True`` the coordinates are
    shifted by half a cell so no sample hits the torus origin.
    """

    def __init__(self, n, length=2.0 * np.pi, origin_singular=False):
        if n < 8 or n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got {n}")
        if length <= 0:
            raise ValueError("length must be positive")
        self.n = int(n)
        self.length = float(length)
        self.spacing = self.length / self.n
        self.cell_measure = self.spacing**2
        self.offset = 0.5 * self.spacing if origin_singular else 0.0
        coords = self.offset + self.spacing * np.arange(self.n)
        self.x1, self.x2 = np.meshgrid(coords, coords, indexing="ij")

    @property
    def area(self):
        return self.length**2

    def __eq__(self, other):
        return (
            isinstance(other, Grid2)
            and self.n == other.n
            and self.length == other.length
            and self.offset == other.offset
        )

    def __hash__(self):
        return hash((self.n, self.length, self.offset))

    def __repr__(self):
        return f"Grid2(n={self.n}, length={self.length:.6g}, offset={self.offset:.6g})"


# ---------------------------------------------------------------------------
# pointwise quaternion kernels on (..., 4) component tables
# ---------------------------------------------------------------------------

# perfbench reports this setting; the kernels are numpy only
HAVE_COMPILED_KERNELS = False


def qmul(a, b):
    """Quaternion product on (..., 4) tables (non-commutative)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(a.shape, dtype=np.float64)
    out[..., 0] = a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
    out[..., 1] = a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
    out[..., 2] = a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
    out[..., 3] = a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
    return out


def qconj(a):
    a = np.asarray(a, dtype=np.float64)
    out = np.empty_like(a)
    out[..., 0] = a[..., 0]
    out[..., 1:] = -a[..., 1:]
    return out


def qnorm(a):
    a = np.asarray(a, dtype=np.float64)
    return np.sqrt(np.sum(a * a, axis=-1))


def qexp_pure(u):
    """exp of a pure quaternion table: cos|u| + (u/|u|) sin|u|."""
    u = np.asarray(u, dtype=np.float64)
    out = np.empty_like(u)
    theta = np.sqrt(np.sum(u[..., 1:] ** 2, axis=-1))
    s = np.sinc(theta / np.pi)
    out[..., 0] = np.cos(theta)
    out[..., 1:] = s[..., None] * u[..., 1:]
    return out


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


def right_j(a):
    """q * j: (w, x, y, z) -> (-y, -z, w, x)."""
    a = np.asarray(a)
    return np.stack([-a[..., 2], -a[..., 3], a[..., 0], a[..., 1]], axis=-1)


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


# ---------------------------------------------------------------------------
# scalar quaternions
# ---------------------------------------------------------------------------


class Quaternion:
    """Scalar quaternion re + i_part*i + j_part*j + k_part*k."""

    __slots__ = ("re", "i_part", "j_part", "k_part")

    def __init__(self, re=0.0, i_part=0.0, j_part=0.0, k_part=0.0):
        self.re = float(re)
        self.i_part = float(i_part)
        self.j_part = float(j_part)
        self.k_part = float(k_part)

    @classmethod
    def from_array(cls, a):
        return cls(*np.asarray(a, dtype=float))

    def to_array(self):
        return np.array([self.re, self.i_part, self.j_part, self.k_part])

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion.from_array(qmul(self.to_array(), other.to_array()))
        return Quaternion(
            self.re * other, self.i_part * other, self.j_part * other, self.k_part * other
        )

    def __rmul__(self, other):
        return Quaternion(
            self.re * other, self.i_part * other, self.j_part * other, self.k_part * other
        )

    def __add__(self, other):
        return Quaternion.from_array(self.to_array() + other.to_array())

    def __sub__(self, other):
        return Quaternion.from_array(self.to_array() - other.to_array())

    def __neg__(self):
        return Quaternion.from_array(-self.to_array())

    def conjugate(self):
        return Quaternion(self.re, -self.i_part, -self.j_part, -self.k_part)

    def __abs__(self):
        return float(np.sqrt(np.sum(self.to_array() ** 2)))

    def inverse(self):
        n2 = np.sum(self.to_array() ** 2)
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quaternion.from_array(qconj(self.to_array()[None])[0] / n2)

    def __eq__(self, other):
        return isinstance(other, Quaternion) and np.array_equal(
            self.to_array(), other.to_array()
        )

    def __repr__(self):
        return (
            f"Quaternion({self.re:.6g}, {self.i_part:.6g}, "
            f"{self.j_part:.6g}, {self.k_part:.6g})"
        )
