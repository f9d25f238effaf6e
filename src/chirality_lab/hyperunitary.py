"""Quaternion matrix fields in the complex-pair representation.

A quaternion matrix M = X + Y j is stored as the pair (X, Y) of complex
tables with trailing matrix axes.  Products follow from j z = conj(z) j:

    (X1 + Y1 j)(X2 + Y2 j) = (X1 X2 - Y1 conj(Y2)) + (X1 Y2 + Y1 conj(X2)) j

M is anti-self-dual (conj-transpose plus itself vanishes) exactly when X is
skew-Hermitian and Y is complex symmetric; these form the Lie algebra of
the group of quaternion matrices with conj(P)^t P = I.  The complex
embedding [[X, Y], [-conj(Y), conj(X)]] is multiplication-compatible, so
at d >= 2 a product is one batched matmul, [X1, Y1] times the embedding
of M2, whose result is [X, Y] side by side; at d = 1 the formula above
stays, as four einsums.  Products that reuse one left factor build its row
[X1, Y1] once (qp_row_matmul); a vector is a one-column matrix
(qp_matvec).

The group's one retraction is the Cayley transform (I - u/2)^-1 (I + u/2)
of an anti-self-dual u, the group-preserving map of Lie-group integrators
(Iserles, Munthe-Kaas, Norsett & Zanna, Acta Numerica 2000), which agrees
with exp to second order in u.  At d >= 2 it is one batched solve of the
complex embedding; at d = 1 the matrices are quaternions and it has a
closed form.
"""

import numpy as np

__all__ = [
    "qp_matmul",
    "qp_row_matmul",
    "qp_matvec",
    "qp_conj_t",
    "qp_dagger_defect",
    "qp_cayley_asd",
    "qp_commutator",
    "project_asd",
    "random_asd",
]


def qp_matmul(m1, m2):
    x1, y1 = m1
    if x1.shape[-1] > 1:
        return qp_row_matmul(np.concatenate((x1, y1), axis=-1), m2)
    return _einsum_matmul(m1, m2)


def qp_row_matmul(row, m2):
    """M1 M2 for M1 given by the top block row [X1 | Y1] of its complex
    embedding, so that products that reuse one M1 build its row once.  M1
    may have any number of rows and M2 any number of columns.  When M2 has
    d >= 2 rows, one batched matmul with the embedding of M2, whose result
    is the top block row of the product; at d = 1 the einsum formula on the
    two halves of the row."""
    if m2[0].shape[-2] == 1:
        return _einsum_matmul((row[..., :1], row[..., 1:]), m2)
    cols = m2[0].shape[-1]
    xy = row @ _embed(m2)
    return xy[..., :cols], xy[..., cols:]


def _einsum_matmul(m1, m2):
    (x1, y1), (x2, y2) = m1, m2
    x = np.einsum("...ij,...jk->...ik", x1, x2) - np.einsum(
        "...ij,...jk->...ik", y1, np.conj(y2)
    )
    y = np.einsum("...ij,...jk->...ik", x1, y2) + np.einsum(
        "...ij,...jk->...ik", y1, np.conj(x2)
    )
    return x, y


def qp_matvec(m, v):
    """M v for a quaternion vector v = (v1, v2): the one-column product."""
    x, y = qp_matmul(m, (v[0][..., None], v[1][..., None]))
    return x[..., 0], y[..., 0]


def qp_conj_t(m):
    x, y = m
    return np.conj(np.swapaxes(x, -1, -2)), -np.swapaxes(y, -1, -2)


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
    xs = 0.5 * (x - np.conj(np.swapaxes(x, -1, -2)))
    ys = 0.5 * (y + np.swapaxes(y, -1, -2))
    return xs, ys


def random_asd(rng, shape, dim):
    """Random anti-self-dual matrix field of the given grid shape."""
    x = rng.standard_normal(shape + (dim, dim)) + 1j * rng.standard_normal(
        shape + (dim, dim)
    )
    y = rng.standard_normal(shape + (dim, dim)) + 1j * rng.standard_normal(
        shape + (dim, dim)
    )
    return project_asd((x, y))


def _embed(m):
    x, y = m
    rows, cols = x.shape[-2:]
    out = np.empty(x.shape[:-2] + (2 * rows, 2 * cols), dtype=complex)
    out[..., :rows, :cols] = x
    out[..., :rows, cols:] = y
    out[..., rows:, :cols] = -np.conj(y)
    out[..., rows:, cols:] = np.conj(x)
    return out


def qp_cayley_asd(u):
    """Cayley transform (I - u/2)^-1 (I + u/2) = 2 (I - u/2)^-1 - I of an
    anti-self-dual matrix field: the result satisfies conj(P)^t P = I, and
    it agrees with exp to second order in u.  At d = 1, where u is the pure
    quaternion a i + Y j, the closed form ((1 - q) + u) / (1 + q) with
    q = |u|^2 / 4; otherwise one batched solve of the complex embedding.
    Only the anti-self-dual part of u enters."""
    if u[0].shape[-1] == 1:
        return _cayley_asd_d1(u)
    return _cayley_asd_solve(u)


def _cayley_asd_d1(u):
    # only the skew-Hermitian part i a of X enters
    a = u[0].imag
    y = u[1]
    q = 0.25 * (a * a + y.real * y.real + y.imag * y.imag)
    return ((1.0 - q) + 1j * a) / (1.0 + q), y / (1.0 + q)


def _cayley_asd_solve(u):
    # only the anti-self-dual part of u enters, so rounding in u does not
    # leave the group; the left d columns of 2 (I - u/2)^-1 in the
    # embedding are [2 X_inv; -2 conj(Y_inv)] for the inverse X_inv + Y_inv j
    x, y = project_asd(u)
    dim = x.shape[-1]
    e = _embed((np.eye(dim) - 0.5 * x, -0.5 * y))
    rhs = np.broadcast_to(2.0 * np.eye(2 * dim, dim), e.shape[:-1] + (dim,))
    z = np.linalg.solve(e, rhs)
    return z[..., :dim, :] - np.eye(dim), -np.conj(z[..., dim:, :])
