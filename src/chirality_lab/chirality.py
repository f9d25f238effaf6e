"""Pointwise symmetric orthogonal involutions S (S^2 = I) and their frames.

S fields are (n, n, m, m) tables of m x m real matrices.  make_chirality
conjugates the reference involution diag(+1 x m_plus, -1 x ...) by a given
rotation field; extract_frame inverts that numerically: per-point
eigendecomposition followed by a comb sweep of gauge alignments that
minimizes nearest-neighbor frame jumps.
"""

from dataclasses import dataclass

import numpy as np

from chirality_lab.norms import l2_norm

__all__ = [
    "s0_matrix",
    "make_chirality",
    "validate_chirality",
    "projections",
    "extract_frame",
    "ChiralityField",
    "AlignmentError",
    "rotation2",
    "dirichlet_energy",
]


# largest neighbour frame jump (radians) extract_frame accepts after alignment
JUMP_THRESHOLD = np.pi / 2


class AlignmentError(RuntimeError):
    """Frame alignment hit a jump above the threshold (topological
    obstruction or under-resolved grid)."""


def s0_matrix(n, m):
    """diag(+1 repeated m, -1 repeated n - m)."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    return np.diag(np.concatenate([np.ones(m), -np.ones(n - m)]))


def rotation2(alpha):
    """SO(2) rotation field from an angle table."""
    alpha = np.asarray(alpha)
    c, s = np.cos(alpha), np.sin(alpha)
    q = np.empty(alpha.shape + (2, 2))
    q[..., 0, 0] = c
    q[..., 0, 1] = -s
    q[..., 1, 0] = s
    q[..., 1, 1] = c
    return q


@dataclass
class ChiralityField:
    grid: object
    s: np.ndarray          # (n, n, m, m)
    m_plus: int            # count of +1 eigenvalues

    @property
    def dim(self):
        return self.s.shape[-1]


def _pointwise_max(a):
    return float(np.max(np.abs(a)))


def make_chirality(grid, q, m_plus, tol=1e-10):
    """S = Q S0 Q^T for a pointwise-orthogonal Q field with det 1."""
    q = np.asarray(q, dtype=float)
    n = q.shape[-1]
    eye = np.eye(n)
    orth = _pointwise_max(np.einsum("...ji,...jk->...ik", q, q) - eye)
    if orth > tol:
        raise ValueError(f"Q is not orthogonal to {tol:.0e} (defect {orth:.3e})")
    det = np.linalg.det(q)
    if _pointwise_max(det - 1.0) > tol:
        raise ValueError("Q must have determinant 1 pointwise")
    # S0 is diagonal, so Q S0 Q^T is one batched product
    s = (q * np.diag(s0_matrix(n, m_plus))) @ np.swapaxes(q, -1, -2)
    return ChiralityField(grid, s, m_plus)


def validate_chirality(field, tol=1e-12):
    """Check symmetry, orthogonality, involution, and the constancy of
    trace and determinant.  Returns the worst defect found."""
    s = field.s
    n = field.dim
    eye = np.eye(n)
    defects = {
        "symmetry": _pointwise_max(s - np.swapaxes(s, -1, -2)),
        "involution": _pointwise_max(np.einsum("...ij,...jk->...ik", s, s) - eye),
    }
    tr = np.einsum("...ii", s)
    det = np.linalg.det(s)
    defects["trace_const"] = _pointwise_max(tr - (2 * field.m_plus - n))
    defects["det_const"] = _pointwise_max(det - (-1.0) ** (n - field.m_plus))
    worst = max(defects.values())
    if worst > tol:
        raise ValueError(f"chirality invariants violated: {defects}")
    return defects


def projections(field):
    """P_L = (I + S)/2 onto the +1 eigenspace, P_R = (I - S)/2 onto -1."""
    s = field.s
    eye = np.eye(s.shape[-1])
    return 0.5 * (eye + s), 0.5 * (eye - s)


def dirichlet_energy(plan, s):
    """|| grad S ||_2 with spectral derivatives, all entries aggregated."""
    return l2_norm(plan.grid, *plan.grad(s))


def _align_blocks(q_cur, q_ref, m_plus):
    """Best right multiplication by block O(m) x O(n-m) with total det +1,
    for stacks (..., n, n) of frames.

    Each block is a Procrustes fit (polar factor of the overlap); where the
    determinants multiply to -1, the block whose last singular direction is
    cheaper to flip (the first block on a tie) is flipped to restore SO(n).
    """
    n = q_cur.shape[-1]
    blocks = [sl for sl in (slice(0, m_plus), slice(m_plus, n)) if sl.start < sl.stop]
    rots, flips, costs = [], [], []
    for sl in blocks:
        a, b = q_cur[..., sl], q_ref[..., sl]
        u, _, vt = np.linalg.svd(np.swapaxes(a, -1, -2) @ b)
        rots.append(u @ vt)
        u[..., -1] *= -1.0
        flips.append(u @ vt)
        costs.append(np.linalg.norm(a @ flips[-1] - b, axis=(-2, -1)))
    flip = np.prod([np.linalg.det(r) for r in rots], axis=0) < 0
    pick = np.argmin(costs, axis=0)
    out = np.zeros(q_cur.shape)
    for k, sl in enumerate(blocks):
        out[..., sl, sl] = np.where((flip & (pick == k))[..., None, None], flips[k], rots[k])
    return out


def extract_frame(plan, s, m_plus, energy_limit=0.5):
    """Recover a rotation field Q with Q S0 Q^T = S.

    Per-point eigenvectors are gauge-aligned by a comb sweep from the grid
    origin: along the x1-line through it, then column by column in x2.  Q
    is only determined up to the block stabilizer of S0; anchoring at the
    origin makes the output deterministic.  Raises AlignmentError when some
    neighbor jump exceeds ``JUMP_THRESHOLD`` after alignment.  Pass
    ``energy_limit=None`` to skip the smallness precondition.

    Returns (q, info) with info carrying the conjugation residual and the
    measured energy ratio ||grad Q|| / ||grad S||.
    """
    s = np.asarray(s, dtype=float)
    nx, ny, n, _ = s.shape
    grid = plan.grid
    energy_s = dirichlet_energy(plan, s)
    if energy_limit is not None and energy_s > energy_limit:
        raise ValueError(
            f"||grad S||_2 = {energy_s:.3f} exceeds the threshold {energy_limit}; "
            "pass energy_limit=None to force extraction"
        )

    w, v = np.linalg.eigh(s)  # ascending: -1 block first
    q = np.concatenate([v[..., :, n - m_plus:], v[..., :, : n - m_plus]], axis=-1)
    neg = np.linalg.det(q) < 0
    q[neg, :, -1] *= -1.0

    # 2n - 2 alignments: point by point along x1, then a whole column at a time
    for i in range(1, nx):
        q[i, 0] = q[i, 0] @ _align_blocks(q[i, 0], q[i - 1, 0], m_plus)
    for j in range(1, ny):
        q[:, j] = q[:, j] @ _align_blocks(q[:, j], q[:, j - 1], m_plus)

    # after the sweep every edge (tree and seam) must be a small rotation
    max_jump = 0.0
    for axis in (0, 1):
        qs = np.roll(q, -1, axis=axis)
        rel = np.einsum("...ji,...jk->...ik", q, qs)
        tr = np.einsum("...ii", rel)
        ang = np.arccos(np.clip((tr - (n - 2)) / 2.0, -1.0, 1.0))
        max_jump = max(max_jump, float(ang.max()))
    if max_jump > JUMP_THRESHOLD:
        raise AlignmentError(
            f"frame jump {max_jump:.3f} rad exceeds {JUMP_THRESHOLD:.3f}; "
            "no continuous frame on this grid"
        )

    residual = _pointwise_max(make_chirality(grid, q, m_plus).s - s)
    energy_q = dirichlet_energy(plan, q)
    info = {
        "residual": residual,
        "max_jump": max_jump,
        "energy_s": energy_s,
        "energy_q": energy_q,
        "energy_ratio": energy_q / energy_s if energy_s > 0 else 0.0,
    }
    return q, info
