import numpy as np
import pytest
from hypothesis import given, strategies as st

from chirality_lab.field_core import (
    Grid2,
    Quaternion,
    complex_left,
    left_i,
    left_j,
    qconj,
    qexp_pure,
    qmul,
    qnorm,
    right_i,
    right_j,
)

ONE = Quaternion(1)
I = Quaternion(0, 1)
J = Quaternion(0, 0, 1)
K = Quaternion(0, 0, 0, 1)


def random_quats(rng, m):
    return rng.standard_normal((m, 4))


def test_unit_table():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert I * I == -ONE
    assert J * J == -ONE
    assert K * K == -ONE


def test_mul_identity_and_expansion():
    q = Quaternion(0.3, -1.2, 0.7, 2.0)
    assert q * ONE == q
    assert ONE * q == q
    # (1+i)(1+j) = 1 + i + j + k
    assert (ONE + I) * (ONE + J) == Quaternion(1, 1, 1, 1)


def test_associativity_and_norm_multiplicativity():
    rng = np.random.default_rng(0)
    a, b, c = (random_quats(rng, 10_000) for _ in range(3))
    lhs = qmul(qmul(a, b), c)
    rhs = qmul(a, qmul(b, c))
    scale = np.max(qnorm(lhs))
    assert np.max(qnorm(lhs - rhs)) < 1e-14 * scale
    nab = qnorm(qmul(a, b))
    assert np.max(np.abs(nab - qnorm(a) * qnorm(b))) < 1e-14 * np.max(nab)


def test_conjugation_antihomomorphism():
    rng = np.random.default_rng(1)
    a, b = random_quats(rng, 5000), random_quats(rng, 5000)
    lhs = qconj(qmul(a, b))
    rhs = qmul(qconj(b), qconj(a))
    assert np.max(qnorm(lhs - rhs)) < 1e-13 * np.max(qnorm(lhs))


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
def test_quaternion_algebra_laws(seed, scale):
    # each side's error is relative to |a||b|(|c|), the size of the product
    rng = np.random.default_rng(seed)
    a, b, c = (scale * random_quats(rng, 256) for _ in range(3))
    ab = qmul(a, b)
    size = qnorm(a) * qnorm(b)
    assert np.all(
        qnorm(qmul(ab, c) - qmul(a, qmul(b, c))) <= 1e-13 * size * qnorm(c)
    )
    assert np.all(qnorm(qconj(ab) - qmul(qconj(b), qconj(a))) <= 1e-13 * size)
    assert np.all(np.abs(qnorm(ab) - size) <= 1e-13 * size)


def test_norm_via_conjugate_and_inverse():
    rng = np.random.default_rng(2)
    a = random_quats(rng, 1000)
    qq = qmul(a, qconj(a))
    assert np.max(np.abs(qq[:, 0] - qnorm(a) ** 2)) < 1e-13 * np.max(qq[:, 0])
    assert np.max(qnorm(qq[:, 1:])) == pytest.approx(0.0, abs=1e-13)


def test_exp_inverse_pairing():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((2000, 4))
    u[:, 0] = 0.0
    u *= (10.0 * rng.random((2000, 1))) / np.maximum(qnorm(u)[:, None], 1e-12)
    prod = qmul(qexp_pure(u), qexp_pure(-u))
    prod[:, 0] -= 1.0
    assert np.max(qnorm(prod)) < 1e-13


def test_unit_shuffles_match_full_products():
    rng = np.random.default_rng(4)
    a = random_quats(rng, 512)
    i_row = np.array([0.0, 1.0, 0.0, 0.0])
    j_row = np.array([0.0, 0.0, 1.0, 0.0])
    assert np.allclose(left_i(a), qmul(np.broadcast_to(i_row, a.shape), a))
    assert np.allclose(right_i(a), qmul(a, np.broadcast_to(i_row, a.shape)))
    assert np.allclose(left_j(a), qmul(np.broadcast_to(j_row, a.shape), a))
    assert np.allclose(right_j(a), qmul(a, np.broadcast_to(j_row, a.shape)))
    c = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    direct = c.real[:, None] * a + c.imag[:, None] * left_i(a)
    assert np.allclose(complex_left(c, a), direct)


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid2(7)
    with pytest.raises(ValueError):
        Grid2(6)
    g = Grid2(16, length=2.0)
    assert g.spacing == pytest.approx(0.125)
    assert g.cell_measure == pytest.approx(0.125**2)
    assert g.offset == 0.0
    gs = Grid2(16, length=2.0, origin_singular=True)
    assert gs.offset == pytest.approx(g.spacing / 2)
    assert np.min(gs.x1**2 + gs.x2**2) > 0.0
