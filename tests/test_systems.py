import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from chirality_lab.field_core import Grid2, complex_pair_to_quat
from chirality_lab.hyperunitary import (
    qp_commutator,
    qp_dagger_defect,
    random_asd,
)
from chirality_lab.norms import l2_norm
from chirality_lab.spectral_ops import (
    SpectralPlan,
    random_band_limited,
    random_band_limited_complex,
)
from chirality_lab.systems import (
    VectorField,
    complex_pair_residual,
    conjugate_potential,
    dirac_residual,
    double_system,
    energy_identity,
    holo_split_residual,
    manufacture_doubled,
    manufacture_solution,
    n2_transform,
    omega_pm,
    quaternion_residual,
    rewrite_identity_residual,
)
from chirality_lab.chirality import rotation2, validate_chirality


@pytest.fixture(scope="module")
def plan():
    return SpectralPlan(Grid2(64))


def test_constant_s_harmonic_conjugates(plan):
    sys = manufacture_solution(plan, "constant_S", np.random.default_rng(0))
    v, diag = conjugate_potential(plan, sys.chirality, sys.u)
    assert diag["div_residual"] < 1e-12
    assert diag["lsq_relative"] < 1e-12
    # recovered affine coefficients match the manufactured conjugate
    assert np.allclose(v.affine, sys.v.affine, atol=1e-12)
    r_l, r_r = holo_split_residual(plan, sys)
    assert r_l < 1e-10 and r_r < 1e-10


def test_conjugate_potential_constant_u(plan):
    sys = manufacture_solution(plan, "constant_S", np.random.default_rng(1))
    u_const = VectorField(np.zeros((64, 64, 2)), None)
    v, diag = conjugate_potential(plan, sys.chirality, u_const)
    assert l2_norm(plan.grid, v.periodic) < 1e-14
    assert v.affine is None


def test_conjugate_potential_degraded_mode(plan):
    rng = np.random.default_rng(2)
    sys = manufacture_solution(plan, "adapted_frame", rng, grad_alpha=0.3)
    u_bad = VectorField(
        np.stack(
            [random_band_limited(plan, rng), random_band_limited(plan, rng)], axis=-1
        )
    )
    v, diag = conjugate_potential(plan, sys.chirality, u_bad)
    assert not diag["div_ok"]
    assert diag["lsq_residual"] > 0  # least-squares potential plus report


def test_constant_s_rotated_frame(plan):
    # constant S = Q(t0)^t S0 Q(t0) with affine data: nontrivial gradients
    sys = manufacture_solution(
        plan, "constant_S", np.random.default_rng(21), theta0=0.4
    )
    validate_chirality(sys.chirality)
    v, diag = conjugate_potential(plan, sys.chirality, sys.u)
    assert diag["div_residual"] < 1e-12
    assert diag["lsq_relative"] < 1e-12
    assert np.allclose(v.affine, sys.v.affine, atol=1e-12)
    r_l, r_r = holo_split_residual(plan, sys)
    assert r_l < 1e-10 and r_r < 1e-10
    f, res = n2_transform(plan, sys.alpha, sys.u, sys.v)
    assert res < 1e-10


@pytest.mark.parametrize("mode", ["conjugated_harmonic", "adapted_frame"])
def test_frame_instances_are_exact(plan, mode):
    # pushed constants: u, v are constant but the frame field is not
    rng = np.random.default_rng(3)
    sys = manufacture_solution(plan, mode, rng, grad_alpha=0.05)
    validate_chirality(sys.chirality, tol=1e-10)
    v, diag = conjugate_potential(plan, sys.chirality, sys.u)
    assert diag["div_residual"] < 1e-12
    assert diag["lsq_residual"] < 1e-12
    r_l, r_r = holo_split_residual(plan, sys)
    assert r_l < 1e-10 and r_r < 1e-10
    frak = sys.frak_f()
    assert np.ptp(frak[..., 0]) > 0.001  # frame field genuinely varies


def test_frame_instance_larger_angle_still_exact(plan):
    sys = manufacture_solution(
        plan, "adapted_frame", np.random.default_rng(4), grad_alpha=0.5
    )
    f, residual = n2_transform(plan, sys.alpha, sys.u, sys.v)
    assert residual < 1e-9


def test_holo_split_projector_degeneracy(plan):
    # S = I has P_R = 0, so the antiholomorphic residual vanishes identically
    from chirality_lab.chirality import ChiralityField

    n = plan.grid.n
    rng = np.random.default_rng(5)
    s = np.broadcast_to(np.eye(2), (n, n, 2, 2)).copy()
    chir = ChiralityField(plan.grid, s, 2)
    f = np.stack(
        [random_band_limited_complex(plan, rng) for _ in range(2)], axis=-1
    )
    sys_like = manufacture_solution(plan, "constant_S", rng)
    sys_like.chirality = chir
    sys_like.u = VectorField(f.real)
    sys_like.v = VectorField(f.imag)
    r_l, r_r = holo_split_residual(plan, sys_like)
    assert r_r == 0.0
    assert r_l > 0


def test_n2_transform_alpha_zero_reduces_to_split(plan):
    sys = manufacture_solution(plan, "constant_S", np.random.default_rng(6))
    f, residual = n2_transform(plan, sys.alpha, sys.u, sys.v)
    assert residual < 1e-10
    zero = VectorField(np.zeros((64, 64, 2)))
    _, res0 = n2_transform(plan, sys.alpha, zero, zero)
    assert res0 == 0.0


def test_manufactured_n2_residual(plan):
    sys = manufacture_solution(
        plan, "adapted_frame", np.random.default_rng(7), grad_alpha=0.05
    )
    f, residual = n2_transform(plan, sys.alpha, sys.u, sys.v)
    assert residual < 1e-9


@given(
    n=st.integers(4, 32).map(lambda k: 2 * k),
    length=st.one_of(st.just(2.0 * np.pi), st.floats(0.5, 50.0)),
    sign=st.sampled_from([-1, 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_quaternion_equals_complex_residual(n, length, sign, seed):
    # the quaternion packing of f carries the split complex system exactly
    plan = SpectralPlan(Grid2(n, length=length))
    rng = np.random.default_rng(seed)
    alpha = random_band_limited(plan, rng)
    f = np.stack(
        [random_band_limited_complex(plan, rng) for _ in range(2)], axis=-1
    )
    frak = complex_pair_to_quat(f[..., 0], f[..., 1])
    omega = sign * plan.d_z(alpha)
    rq = quaternion_residual(plan, frak, omega)
    rc = complex_pair_residual(plan, f, omega)
    assert rq == pytest.approx(rc, rel=1e-13)
    assert rq > 0


def test_quaternion_residual_zero_cases(plan):
    rng = np.random.default_rng(9)
    alpha = random_band_limited(plan, rng, kmax=4)
    assert quaternion_residual(plan, np.zeros((64, 64, 4)), -plan.d_z(alpha)) == 0.0
    # alpha constant and f componentwise holomorphic (constants on the torus)
    const = np.broadcast_to(np.array([0.3, -1.0, 0.7, 0.2]), (64, 64, 4)).copy()
    assert quaternion_residual(plan, const, -plan.d_z(np.zeros((64, 64)))) < 1e-13


@given(
    n=st.sampled_from([32, 64]),
    mode=st.sampled_from(["conjugated_harmonic", "adapted_frame"]),
    sign=st.sampled_from([-1, 1]),
    grad_alpha=st.floats(0.01, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=64, mode="adapted_frame", sign=-1, grad_alpha=0.05, seed=10)
@example(n=64, mode="adapted_frame", sign=1, grad_alpha=0.05, seed=10)
def test_manufactured_quaternion_residual_both_signs(n, mode, sign, grad_alpha, seed):
    # frame instances solve the 2d frame form and both quaternion forms
    plan = SpectralPlan(Grid2(n))
    sys = manufacture_solution(
        plan, mode, np.random.default_rng(seed), grad_alpha=grad_alpha,
        equation_sign=sign,
    )
    assert n2_transform(plan, sys.alpha, sys.u, sys.v)[1] < 1e-9
    frak = sys.frak_f()
    omega = sign * plan.d_z(sys.diagnostics["equation_alpha"])
    assert quaternion_residual(plan, frak, omega) < 1e-9
    # and the chain form always solves the minus equation in beta
    assert quaternion_residual(plan, frak, -plan.d_z(sys.alpha)) < 1e-9


def test_dirac_residual(plan):
    rng = np.random.default_rng(11)
    n = plan.grid.n
    # kernel elements: psi1 holomorphic, psi2 antiholomorphic (constants)
    psi = np.broadcast_to(np.array([1.2 + 0.5j, -0.3 + 0.1j]), (n, n, 2)).copy()
    res, hyp = dirac_residual(plan, psi, np.zeros((n, n), dtype=complex))
    assert res < 1e-10
    assert dirac_residual(plan, np.zeros((n, n, 2)), np.zeros((n, n)))[0] == 0.0
    u_pot = random_band_limited_complex(plan, rng)
    psi = np.stack(
        [random_band_limited_complex(plan, rng) for _ in range(2)], axis=-1
    )
    res, hyp = dirac_residual(plan, psi, u_pot)
    assert res > 0 and hyp > 0


def test_omega_pm_identity_frame(plan):
    n = plan.grid.n
    q = np.broadcast_to(np.eye(2), (n, n, 2, 2)).copy()
    pair = omega_pm(plan, q, 1)
    assert np.max(np.abs(pair.plus)) == 0.0
    assert np.max(np.abs(pair.minus)) == 0.0


def test_omega_pm_n2_reduces_to_rotation_coefficient(plan):
    rng = np.random.default_rng(12)
    alpha = 0.3 * random_band_limited(plan, rng, kmax=3)
    q = rotation2(alpha)
    pair = omega_pm(plan, q, 1)
    # for n=2, m=1 the diagonal blocks vanish and
    # minus/2 recovers the rotation generator times d_z(alpha)
    dza = plan.d_z(alpha)
    expected = np.einsum("ij,...->...ij", np.array([[0.0, 1.0], [-1.0, 0.0]]), dza)
    assert np.max(np.abs(pair.plus)) < 1e-12
    assert np.max(np.abs(0.5 * pair.minus - expected)) < 1e-10
    assert pair.certificate["antisymmetry"] < 1e-12
    assert pair.certificate["jacobian_identity"] < 1e-9


def test_omega_pm_certificates_n3(plan):
    from test_chirality import smooth_so3_field

    rng = np.random.default_rng(13)
    q = smooth_so3_field(plan, rng, 0.05)
    pair = omega_pm(plan, q, 1)
    assert pair.certificate["antisymmetry"] < 1e-12
    assert pair.certificate["block_structure"] < 1e-13
    assert pair.certificate["jacobian_identity"] < 1e-9


def test_double_system_structure(plan):
    rng = np.random.default_rng(14)
    m = 3
    g, a, b = manufacture_doubled(plan, m, rng, b_norm=0.05)
    doubled = double_system(plan, g, a, b)
    assert doubled.certificate["anti_self_duality"] < 1e-13
    assert doubled.certificate["doubled_residual"] < 1e-10
    assert doubled.certificate["componentwise_match"] < 1e-10
    with pytest.raises(ValueError, match="antisymmetric"):
        double_system(plan, g, a, np.ones_like(b))


def test_double_system_b_zero_decouples(plan):
    rng = np.random.default_rng(15)
    m = 2
    g, a, _ = manufacture_doubled(plan, m, rng, b_norm=0.0)
    doubled = double_system(plan, g, a, np.zeros((64, 64, m, m), dtype=complex))
    assert np.max(np.abs(doubled.gamma[1])) == 0.0
    assert doubled.certificate["doubled_residual"] < 1e-10


def test_hyperunitary_commutator_closure():
    rng = np.random.default_rng(16)
    for _ in range(10):
        m1 = random_asd(rng, (4, 4), 4)
        m2 = random_asd(rng, (4, 4), 4)
        assert qp_dagger_defect(qp_commutator(m1, m2)) < 1e-12


def test_hyperunitary_commutator_closure_can_fail():
    # the general commutator leaves the algebra when m1 does; a shortcut
    # A B - (A B)^dagger, exact only on the algebra, would read 0 here and
    # make the hyper_unitary_closure gate of reformulate blind
    rng = np.random.default_rng(16)
    m2 = random_asd(rng, (4, 4), 4)
    for m1 in (
        (rng.standard_normal((4, 4, 4, 4)) + 0j, np.zeros((4, 4, 4, 4), dtype=complex)),
        (np.zeros((4, 4, 4, 4), dtype=complex), rng.standard_normal((4, 4, 4, 4)) + 0j),
    ):
        assert qp_dagger_defect(m1) > 0.1
        assert qp_dagger_defect(qp_commutator(m1, m2)) > 0.1


def test_energy_identity(plan):
    sys = manufacture_solution(
        plan, "adapted_frame", np.random.default_rng(17), grad_alpha=0.2
    )
    e_proj, e_s = energy_identity(plan, sys.chirality, sys.u)
    scale = abs(e_proj) + abs(e_s) + 1e-30
    assert abs(e_proj - e_s) < 1e-12 * scale


def test_rewrite_identity(plan):
    sys = manufacture_solution(
        plan, "adapted_frame", np.random.default_rng(18), grad_alpha=0.1
    )
    assert rewrite_identity_residual(plan, sys) < 1e-10
    bad = manufacture_solution(plan, "constant_S", np.random.default_rng(19))
    with pytest.raises(ValueError):
        rewrite_identity_residual(plan, bad)
