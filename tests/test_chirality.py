import numpy as np
import pytest

from chirality_lab import chirality
from chirality_lab.chirality import (
    AlignmentError,
    _align_blocks,
    dirichlet_energy,
    extract_frame,
    make_chirality,
    projections,
    rotation2,
    s0_matrix,
    validate_chirality,
)
from chirality_lab.field_core import Grid2
from chirality_lab.spectral_ops import SpectralPlan, random_band_limited


@pytest.fixture(scope="module")
def plan():
    return SpectralPlan(Grid2(64))


def smooth_so3_field(plan, rng, scale, target_energy=None):
    """Cayley transform of a small smooth antisymmetric field: SO(3)-valued.

    With target_energy set, the generator is rescaled (twice, the map is
    near-linear for small fields) so the resulting S has that grad norm.
    """
    n = plan.grid.n
    w = np.zeros((n, n, 3, 3))
    pairs = [(0, 1), (0, 2), (1, 2)]
    for a, b in pairs:
        f = scale * random_band_limited(plan, rng, kmax=3, rms=1.0)
        w[..., a, b] = f
        w[..., b, a] = -f
    eye = np.eye(3)

    def cayley(w):
        return np.linalg.solve(eye + w, np.broadcast_to(eye, w.shape) - w)

    if target_energy is None:
        return cayley(w)
    for _ in range(2):
        field = make_chirality(plan.grid, cayley(w), 1, tol=1e-8)
        w = w * (target_energy / dirichlet_energy(plan, field.s))
    return cayley(w)


def test_s0_matrix():
    assert np.array_equal(s0_matrix(2, 1), np.diag([1.0, -1.0]))
    assert np.array_equal(s0_matrix(3, 3), np.eye(3))
    assert np.array_equal(s0_matrix(3, 0), -np.eye(3))
    with pytest.raises(ValueError):
        s0_matrix(2, 3)


def test_make_chirality_identity(plan):
    n = plan.grid.n
    q = np.broadcast_to(np.eye(2), (n, n, 2, 2)).copy()
    field = make_chirality(plan.grid, q, 1)
    assert np.allclose(field.s, s0_matrix(2, 1))
    validate_chirality(field)


def test_make_chirality_rotation_closed_form(plan):
    g = plan.grid
    alpha = 0.3 * np.sin(2 * np.pi * g.x1 / g.length)
    field = make_chirality(g, rotation2(alpha), 1)
    expected = np.empty_like(field.s)
    expected[..., 0, 0] = np.cos(2 * alpha)
    expected[..., 0, 1] = np.sin(2 * alpha)
    expected[..., 1, 0] = np.sin(2 * alpha)
    expected[..., 1, 1] = -np.cos(2 * alpha)
    assert np.max(np.abs(field.s - expected)) < 1e-13
    validate_chirality(field)


def test_make_chirality_random_so3(plan):
    rng = np.random.default_rng(0)
    q = smooth_so3_field(plan, rng, 0.1)
    field = make_chirality(plan.grid, q, 1)
    defects = validate_chirality(field)
    assert defects["involution"] < 1e-12
    with pytest.raises(ValueError):
        make_chirality(plan.grid, 1.1 * q, 1)


def test_projections(plan):
    n = plan.grid.n
    field = make_chirality(
        plan.grid, np.broadcast_to(np.eye(2), (n, n, 2, 2)).copy(), 1
    )
    pl, pr = projections(field)
    assert np.allclose(pl[0, 0], np.diag([1.0, 0.0]))
    assert np.allclose(pr[0, 0], np.diag([0.0, 1.0]))

    rng = np.random.default_rng(1)
    q = smooth_so3_field(plan, rng, 0.1)
    field = make_chirality(plan.grid, q, 2)
    pl, pr = projections(field)
    eye = np.eye(3)
    assert np.max(np.abs(pl + pr - eye)) < 1e-14
    assert np.max(np.abs(np.einsum("...ij,...jk->...ik", pl, pl) - pl)) < 1e-12
    assert np.max(np.abs(np.einsum("...ij,...jk->...ik", pr, pr) - pr)) < 1e-12
    assert np.max(np.abs(np.einsum("...ij,...jk->...ik", pl, pr))) < 1e-12
    ranks = np.einsum("...ii", pl)
    assert np.max(np.abs(ranks - 2.0)) < 1e-12


def test_extract_frame_constant(plan):
    n = plan.grid.n
    s = np.broadcast_to(s0_matrix(2, 1), (n, n, 2, 2)).copy()
    q, info = extract_frame(plan, s, 1)
    assert info["residual"] < 1e-12
    # gauge ambiguity: Q need only be block diagonal, not the identity
    assert np.max(np.abs(np.abs(q[0, 0]) - np.eye(2))) < 1e-12


def angle_with_energy(plan, rng, target):
    """Angle alpha with ||grad S(alpha)||_2 = target; |grad S|_F = 2 sqrt2 |grad alpha|."""
    from chirality_lab.norms import l2_norm

    alpha = random_band_limited(plan, rng, kmax=3)
    gx, gy = plan.grad(alpha)
    grad_s = 2.0 * np.sqrt(2.0) * np.sqrt(
        l2_norm(plan.grid, gx) ** 2 + l2_norm(plan.grid, gy) ** 2
    )
    return alpha * (target / grad_s)


def test_extract_frame_round_trip_n2(plan):
    g = plan.grid
    rng = np.random.default_rng(2)
    alpha = angle_with_energy(plan, rng, 0.4)
    field = make_chirality(g, rotation2(alpha), 1)
    q, info = extract_frame(plan, field.s, 1)
    assert info["residual"] < 1e-8
    assert info["energy_ratio"] > 0


def test_extract_frame_round_trip_n3(plan):
    rng = np.random.default_rng(3)
    q0 = smooth_so3_field(plan, rng, 0.03, target_energy=0.4)
    field = make_chirality(plan.grid, q0, 1)
    q, info = extract_frame(plan, field.s, 1)
    assert info["residual"] < 1e-8


def test_extract_frame_energy_comparability(plan):
    rng = np.random.default_rng(4)
    ratios = []
    for seed in range(20):
        r = np.random.default_rng(50 + seed)
        alpha = angle_with_energy(plan, r, 0.4)
        field = make_chirality(plan.grid, rotation2(alpha), 1)
        assert dirichlet_energy(plan, field.s) <= 0.5
        _, info = extract_frame(plan, field.s, 1)
        ratios.append(info["energy_ratio"])
    assert max(ratios) < 2.0  # single reported constant


def test_extract_frame_energy_precondition(plan):
    g = plan.grid
    alpha = 3.0 * np.sin(2 * np.pi * g.x1 / g.length)
    field = make_chirality(g, rotation2(alpha), 1)
    with pytest.raises(ValueError, match="threshold"):
        extract_frame(plan, field.s, 1)


def test_extract_frame_odd_winding_fails(plan):
    # S smooth with eigenline winding pi: no continuous frame exists
    g = plan.grid
    alpha = np.pi * g.x1 / g.length
    field_s = np.empty((g.n, g.n, 2, 2))
    field_s[..., 0, 0] = np.cos(2 * alpha)
    field_s[..., 0, 1] = np.sin(2 * alpha)
    field_s[..., 1, 0] = np.sin(2 * alpha)
    field_s[..., 1, 1] = -np.cos(2 * alpha)
    with pytest.raises(AlignmentError):
        extract_frame(plan, field_s, 1, energy_limit=None)


def test_extract_frame_even_winding_succeeds(plan):
    # full 2 pi eigenline winding lifts to a continuous frame
    g = plan.grid
    alpha = 2 * np.pi * g.x1 / g.length
    field = make_chirality(g, rotation2(alpha), 1)
    q, info = extract_frame(plan, field.s, 1, energy_limit=None)
    assert info["residual"] < 1e-8


def test_extract_frame_is_the_rotation_up_to_one_global_sign(plan, monkeypatch):
    # d = 2, m_plus = 1: the stabilizer of S0 in SO(2) is {I, -I}, so the
    # frame of S(alpha) is +-rotation2(alpha) with one sign on the whole grid
    g = plan.grid
    calls = []
    monkeypatch.setattr(chirality, "_align_blocks",
                        lambda *args: calls.append(1) or _align_blocks(*args))
    for seed in range(3):
        alpha = angle_with_energy(plan, np.random.default_rng(60 + seed), 0.4)
        alpha = alpha + 2 * np.pi * (seed - 1) * g.x1 / g.length  # winding -1, 0, 1
        r = rotation2(alpha)
        q, _ = extract_frame(plan, make_chirality(g, r, 1).s, 1, energy_limit=None)
        sign = np.sign(np.trace(q[0, 0].T @ r[0, 0]))
        assert np.max(np.abs(q - sign * r)) < 1e-12, seed
    # the sweep batches: at most 2n alignments per grid, not one per point
    assert len(calls) <= 3 * 2 * g.n


def align_one(q_cur, q_ref, m_plus):
    """The alignment rule for one frame pair, written out point by point;
    returns the right factor and whether a block was flipped."""
    n = q_cur.shape[0]
    slices = [slice(0, m_plus), slice(m_plus, n)]
    factors, rots = [], []
    for sl in slices:
        u, _, vt = np.linalg.svd(q_cur[:, sl].T @ q_ref[:, sl])
        factors.append((u, vt))
        rots.append(u @ vt)
    flipped = np.linalg.det(rots[0]) * np.linalg.det(rots[1]) < 0
    if flipped:
        best = None
        for k, (u, vt) in enumerate(factors):
            flip = np.eye(u.shape[1])
            flip[-1, -1] = -1.0
            cand = u @ flip @ vt
            cost = np.linalg.norm(q_cur[:, slices[k]] @ cand - q_ref[:, slices[k]])
            if best is None or cost < best[0]:
                best = (cost, k, cand)
        rots[best[1]] = best[2]
    out = np.zeros((n, n))
    out[:m_plus, :m_plus] = rots[0]
    out[m_plus:, m_plus:] = rots[1]
    return out, flipped


def test_align_blocks_batched_equals_the_pointwise_rule():
    rng = np.random.default_rng(7)
    for n, m_plus in ((2, 1), (3, 1), (3, 2)):
        q_ref = np.linalg.qr(rng.standard_normal((8, 8, n, n)))[0]
        # perturbed O(n) frames of either determinant: the block
        # determinants multiply to -1 at about half the points, and the
        # perturbation keeps the two flip costs apart (for orthogonal 2 x 2
        # pairs they tie exactly)
        q_cur = np.linalg.qr(rng.standard_normal((8, 8, n, n)))[0]
        q_cur[..., -1] *= rng.choice([-1.0, 1.0], (8, 8, 1))
        q_cur += 0.2 * rng.standard_normal(q_cur.shape)
        batched = _align_blocks(q_cur, q_ref, m_plus)
        flipped = 0
        for idx in np.ndindex(8, 8):
            expected, was_flipped = align_one(q_cur[idx], q_ref[idx], m_plus)
            assert np.max(np.abs(batched[idx] - expected)) < 1e-12, (n, m_plus, idx)
            flipped += was_flipped
        assert 8 <= flipped <= 56, (n, m_plus, flipped)
    # an exact tie flips the first block
    q_cur = np.diag([1.0, -1.0])
    assert np.array_equal(_align_blocks(q_cur, np.eye(2), 1), -np.eye(2))
    assert np.array_equal(align_one(q_cur, np.eye(2), 1)[0], -np.eye(2))
