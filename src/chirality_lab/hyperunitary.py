"""Quaternion matrix fields in the complex-pair representation.

A quaternion matrix M = X + Y j is stored as the pair (X, Y) of complex
tables with the matrix axes first and the grid axes last: a field of r x c
matrices on an (n, n) grid is a pair of (r, c, n, n) tables, a vector
field a pair of (r, n, n) tables, and a stack of fields adds leading axes,
which broadcast.  The grid axes are always the last two, so every matrix
entry is a contiguous (n, n) plane and a stack of tables transforms over
contiguous planes.  Programs that keep their tables grid-first, (n, n, r,
c), convert at their boundary: grid_last makes the contiguous table and
grid_first views it back.

Products follow from j z = conj(z) j:

    (X1 + Y1 j)(X2 + Y2 j) = (X1 X2 - Y1 conj(Y2)) + (X1 Y2 + Y1 conj(X2)) j

so a product is four complex products of plane fields, X = sum_k X1[:, k]
X2[k] - Y1[:, k] conj(Y2[k]) and likewise for Y (plane_matmul, the second
and fourth added in place).  With an inner dimension m >= 2 each is m
broadcast multiply-adds over whole planes, its terms formed in one
workspace; with m = 1, the quaternion case d = 1, one einsum.  M may have
any number of rows and columns; a vector is a one-column matrix
(qp_matvec).

M is anti-self-dual (conj-transpose plus itself vanishes) exactly when X is
skew-Hermitian and Y is complex symmetric; these form the Lie algebra of
the group of quaternion matrices with conj(P)^t P = I.

The group's one retraction is the Cayley transform (I - u/2)^-1 (I + u/2)
of an anti-self-dual u, the group-preserving map of Lie-group integrators
(Iserles, Munthe-Kaas, Norsett & Zanna, Acta Numerica 2000), which agrees
with exp to second order in u.  At d >= 2 it inverts A = I - u/2 by
Gauss-Jordan elimination on its quaternion entries, every step a
broadcast over planes, without pivoting: A + A^dagger = 2 I, a Schur
complement of a matrix with Hermitian part >= I has Hermitian part >= I
again, so every pivot, a diagonal entry of such a complement, has real part
>= 1 (Golub & Van Loan, Linear Algebra Appl. 28, 1979, on elimination
without pivoting for matrices with positive definite symmetric part;
Higham, Accuracy and Stability of Numerical Algorithms, 10.4).  At d = 1
the matrices are quaternions and it has a closed form.
"""

import numpy as np

__all__ = [
    "grid_last",
    "grid_first",
    "identity_field",
    "plane_matmul",
    "qp_matmul",
    "qp_matvec",
    "qp_conj_t",
    "qp_dagger_defect",
    "qp_cayley_asd",
    "qp_commutator",
    "project_asd",
    "random_asd",
]


def grid_last(a):
    """A grid-first table (n, n, ...) as the contiguous (..., n, n): a copy,
    or the same memory when that is already contiguous (single trailing
    entries, d = 1, or a grid_first view of a contiguous table)."""
    return np.ascontiguousarray(np.moveaxis(a, (0, 1), (-2, -1)))


def grid_first(a):
    """A table (..., n, n) seen grid-first, (n, n, ...): a view."""
    return np.moveaxis(a, (-2, -1), (0, 1))


def identity_field(dim):
    """The identity matrix, broadcasting over any grid."""
    return np.eye(dim)[:, :, None, None]


def plane_matmul(a, b):
    """sum_k a[:, k] b[k] for complex matrix fields a (r x m) and b (m x c):
    the module's one product (_products); a quaternion product is four."""
    return _products(None, a, b, np.add, False)


def _products(out, a, b, update, conjugate):
    """update(out, sum_k a[:, k] b[k]) in place, with b conjugated when
    asked, or the sum as a new table when out is None: one einsum when m = 1,
    otherwise m broadcast multiply-adds over the planes, each term formed
    in one workspace."""
    if a.shape[-3] == 1:
        term = np.einsum("...ijab,...jkab->...ikab", a, np.conj(b) if conjugate else b)
        return term if out is None else update(out, term, out=out)
    work = None
    for k in range(a.shape[-3]):
        # column k of a against row k of b, broadcast to r x c planes
        ak, bk = a[..., :, k, None, :, :], b[..., None, k, :, :, :]
        if conjugate:
            bk = np.conj(bk)
        if out is None:
            out = ak * bk
        else:
            if work is None:
                work = np.empty_like(out)
            update(out, np.multiply(ak, bk, out=work), out=out)
    return out


def qp_matmul(m1, m2):
    """M1 M2 for an r x m field M1 and an m x c field M2."""
    (x1, y1), (x2, y2) = m1, m2
    x = plane_matmul(x1, x2)
    _products(x, y1, y2, np.subtract, True)
    y = plane_matmul(x1, y2)
    _products(y, y1, x2, np.add, True)
    return x, y


def qp_matvec(m, v):
    """M v for a quaternion vector v = (v1, v2): the one-column product."""
    x, y = qp_matmul(m, (v[0][..., :, None, :, :], v[1][..., :, None, :, :]))
    return x[..., :, 0, :, :], y[..., :, 0, :, :]


def qp_conj_t(m):
    x, y = m
    return np.conj(np.swapaxes(x, -4, -3)), -np.swapaxes(y, -4, -3)


def qp_dagger_defect(m):
    """max |conj(M)^t + M|: zero exactly on the anti-self-dual algebra."""
    ct = qp_conj_t(m)
    return max(
        float(np.max(np.abs(ct[0] + m[0]))), float(np.max(np.abs(ct[1] + m[1])))
    )


def qp_commutator(m1, m2):
    a = qp_matmul(m1, m2)
    b = qp_matmul(m2, m1)
    return a[0] - b[0], a[1] - b[1]


def project_asd(m):
    """Nearest anti-self-dual matrix: skew-Hermitian X, symmetric Y."""
    x, y = m
    xs = 0.5 * (x - np.conj(np.swapaxes(x, -4, -3)))
    ys = 0.5 * (y + np.swapaxes(y, -4, -3))
    return xs, ys


def random_asd(rng, shape, dim):
    """Random anti-self-dual matrix field on a grid of the given shape."""
    x, y = (
        rng.standard_normal((dim, dim) + shape) + 1j * rng.standard_normal((dim, dim) + shape)
        for _ in range(2)
    )
    return project_asd((x, y))


def qp_cayley_asd(u):
    """Cayley transform (I - u/2)^-1 (I + u/2) = 2 (I - u/2)^-1 - I of an
    anti-self-dual matrix field: the result satisfies conj(P)^t P = I, and
    it agrees with exp to second order in u.  At d = 1, where u is the pure
    quaternion a i + Y j, the closed form ((1 - q) + u) / (1 + q) with
    q = |u|^2 / 4; otherwise the elimination inverse of I - u/2.  Only the
    anti-self-dual part of u enters, so rounding in u does not leave the
    group."""
    if u[0].shape[-3] == 1:
        return _cayley_asd_d1(u)
    x, y = project_asd(u)
    eye = identity_field(x.shape[-3])
    xi, yi = _elimination_inverse((eye - 0.5 * x, -0.5 * y))
    xi *= 2.0
    xi -= eye
    yi *= 2.0
    return xi, yi


def _cayley_asd_d1(u):
    # only the skew-Hermitian part i a of X enters
    a = u[0].imag
    y = u[1]
    q = 0.25 * (a * a + y.real * y.real + y.imag * y.imag)
    return ((1.0 - q) + 1j * a) / (1.0 + q), y / (1.0 + q)


def _elimination_inverse(m):
    """M^-1 of a field of d x d quaternion matrices by Gauss-Jordan
    elimination without pivoting.

    In place on a copy of M: the step at pivot p = M[k, k] scales row k by
    p^-1 from the left, subtracts M[i, k] times that row from every other
    row i, and stores the new column k, -M[i, k] p^-1 and p^-1, where the
    eliminated column was: one broadcast outer product over the planes,
    M <- M0 - c r for M0 with row and column k cleared, the column c of M
    with c[k] = -1 and the scaled row r with r[k] = p^-1.  Every pivot must
    be away from zero, which I - u/2 for anti-self-dual u guarantees."""
    x, y = (np.array(part, dtype=complex) for part in m)
    work = np.empty_like(x)
    for k in range(x.shape[-3]):
        px, py = x[..., k, k, :, :], y[..., k, k, :, :]
        norm = px.real**2 + px.imag**2 + py.real**2 + py.imag**2
        # p^-1 = conj(p) / |p|^2, and conj(X + Y j) = conj(X) - Y j
        ix, iy = np.conj(px) / norm, -py / norm
        row_x, row_y = x[..., k, :, :, :], y[..., k, :, :, :]
        ix, iy = ix[..., None, :, :], iy[..., None, :, :]
        rx = ix * row_x - iy * np.conj(row_y)
        ry = ix * row_y + iy * np.conj(row_x)
        rx[..., k, :, :], ry[..., k, :, :] = ix[..., 0, :, :], iy[..., 0, :, :]
        cx, cy = x[..., :, k, None, :, :].copy(), y[..., :, k, None, :, :].copy()
        cx[..., k, :, :, :], cy[..., k, :, :, :] = -1.0, 0.0
        for part in (x, y):
            part[..., k, :, :, :] = 0.0
            part[..., :, k, :, :] = 0.0
        rx, ry = rx[..., None, :, :, :], ry[..., None, :, :, :]
        x -= np.multiply(cx, rx, out=work)
        x += np.multiply(cy, np.conj(ry), out=work)
        y -= np.multiply(cx, ry, out=work)
        y -= np.multiply(cy, np.conj(rx), out=work)
    return x, y
