import numpy as np
import pytest
from hypothesis import given, strategies as st

from chirality_lab.field_core import (
    Grid2,
    complex_left,
    complex_pair_to_quat,
    left_i,
    left_j,
    quat_to_complex_pair,
    right_i,
)
from chirality_lab.hyperunitary import (
    qp_cayley_asd,
    qp_conj_t,
    qp_matmul,
    random_asd,
)
from chirality_lab.norms import pointwise_abs

# The quaternion algebra is the pair algebra of hyperunitary.py: a packed
# (..., 4) table q = z1 + z2 j is the pair of 1 x 1 matrix tables (z1, z2).


def as_pair(q):
    """A quaternion table as a table of 1 x 1 quaternion matrices."""
    z1, z2 = quat_to_complex_pair(q)
    return z1[..., None, None], z2[..., None, None]


def as_quat(pair):
    """A table of 1 x 1 quaternion matrices as a packed quaternion table."""
    return complex_pair_to_quat(pair[0][..., 0, 0], pair[1][..., 0, 0])


def unit(z1, z2):
    return np.array([[z1]], dtype=complex), np.array([[z2]], dtype=complex)


ONE, I, J, K = unit(1, 0), unit(1j, 0), unit(0, 1), unit(0, 1j)


def pair_equal(m1, m2):
    return all(np.array_equal(a, b) for a, b in zip(m1, m2))


def neg(m):
    return -m[0], -m[1]


def random_pairs(rng, dim, count, scale=1.0, shape=(16, 16)):
    def one():
        x, y = (
            rng.standard_normal(shape + (dim, dim))
            + 1j * rng.standard_normal(shape + (dim, dim))
            for _ in range(2)
        )
        return scale * x, scale * y

    return [one() for _ in range(count)]


def size(m):
    """Pointwise Frobenius norm of a quaternion matrix table."""
    return pointwise_abs(*m)


def test_unit_table():
    assert pair_equal(qp_matmul(I, J), K)
    assert pair_equal(qp_matmul(J, K), I)
    assert pair_equal(qp_matmul(K, I), J)
    assert pair_equal(qp_matmul(J, I), neg(K))
    for u in (I, J, K):
        assert pair_equal(qp_matmul(u, u), neg(ONE))


def test_mul_identity_and_expansion():
    q = unit(0.3 - 1.2j, 0.7 + 2.0j)
    assert pair_equal(qp_matmul(q, ONE), q)
    assert pair_equal(qp_matmul(ONE, q), q)
    # (1+i)(1+j) = 1 + i + j + k
    one_i, one_j = unit(1 + 1j, 0), unit(1, 1)
    assert pair_equal(qp_matmul(one_i, one_j), unit(1 + 1j, 1 + 1j))


def test_associativity_and_norm_multiplicativity():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 4):
        a, b, c = random_pairs(rng, dim, 3, shape=(64, 64))
        lhs = qp_matmul(qp_matmul(a, b), c)
        rhs = qp_matmul(a, qp_matmul(b, c))
        scale = np.max(size(lhs))
        assert np.max(size((lhs[0] - rhs[0], lhs[1] - rhs[1]))) < 1e-14 * scale
    # the norm is multiplicative on the quaternions, d = 1
    a, b = random_pairs(rng, 1, 2, shape=(64, 64))
    nab = size(qp_matmul(a, b))
    assert np.max(np.abs(nab - size(a) * size(b))) < 1e-14 * np.max(nab)


def test_conjugation_antihomomorphism():
    rng = np.random.default_rng(1)
    for dim in (1, 2, 4):
        a, b = random_pairs(rng, dim, 2, shape=(64, 64))
        lhs = qp_conj_t(qp_matmul(a, b))
        rhs = qp_matmul(qp_conj_t(b), qp_conj_t(a))
        err = size((lhs[0] - rhs[0], lhs[1] - rhs[1]))
        assert np.max(err) < 1e-13 * np.max(size(lhs))


@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3),
    dim=st.sampled_from([1, 2, 4]),
)
def test_quaternion_algebra_laws(seed, scale, dim):
    # each side's error is relative to |a||b|(|c|), the size of the product
    rng = np.random.default_rng(seed)
    a, b, c = random_pairs(rng, dim, 3, scale)
    ab = qp_matmul(a, b)
    bound = 1e-13 * size(a) * size(b)
    lhs, rhs = qp_matmul(ab, c), qp_matmul(a, qp_matmul(b, c))
    assert np.all(size((lhs[0] - rhs[0], lhs[1] - rhs[1])) <= bound * size(c))
    lhs, rhs = qp_conj_t(ab), qp_matmul(qp_conj_t(b), qp_conj_t(a))
    assert np.all(size((lhs[0] - rhs[0], lhs[1] - rhs[1])) <= bound)
    if dim == 1:
        assert np.all(np.abs(size(ab) - size(a) * size(b)) <= bound)


def test_norm_via_conjugate_and_inverse():
    rng = np.random.default_rng(2)
    (a,) = random_pairs(rng, 1, 1)
    x, y = qp_matmul(a, qp_conj_t(a))
    sq = size(a) ** 2
    assert np.max(np.abs(x[..., 0, 0] - sq)) < 1e-13 * np.max(sq)
    assert np.max(np.abs(y)) == pytest.approx(0.0, abs=1e-13)


def test_exp_inverse_pairing():
    # cay(u) cay(-u) = I, as exp(u) exp(-u) = I: the closed form at d = 1,
    # a solve of the complex embedding above
    rng = np.random.default_rng(3)
    for dim in (1, 2, 4):
        u = random_asd(rng, (32, 32), dim)
        stretch = 10.0 * rng.random((32, 32)) / np.maximum(size(u), 1e-12)
        u = (stretch[..., None, None] * u[0], stretch[..., None, None] * u[1])
        x, y = qp_matmul(qp_cayley_asd(u), qp_cayley_asd((-u[0], -u[1])))
        assert np.max(size((x - np.eye(dim), y))) < 1e-13


def test_unit_shuffles_match_full_products():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((512, 4))
    i_unit, j_unit = as_quat(I), as_quat(J)
    assert np.allclose(left_i(a), as_quat(qp_matmul(as_pair(i_unit), as_pair(a))))
    assert np.allclose(right_i(a), as_quat(qp_matmul(as_pair(a), as_pair(i_unit))))
    assert np.allclose(left_j(a), as_quat(qp_matmul(as_pair(j_unit), as_pair(a))))
    c = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    direct = c.real[:, None] * a + c.imag[:, None] * left_i(a)
    assert np.allclose(complex_left(c, a), direct)
    c_pair = (c[:, None, None], np.zeros((512, 1, 1)))
    assert np.allclose(complex_left(c, a), as_quat(qp_matmul(c_pair, as_pair(a))))


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid2(7)
    with pytest.raises(ValueError):
        Grid2(6)
    g = Grid2(16, length=2.0)
    assert g.spacing == pytest.approx(0.125)
    assert g.cell_measure == pytest.approx(0.125**2)
    assert g.x1[0, 0] == g.x2[0, 0] == 0.0
