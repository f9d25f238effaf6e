"""Coulomb-type gauge construction over the unit quaternions.

The nonlinear operator sends a unit-quaternion field q to

    N(q) = ( i-part of div(q^-1 grad q),
             jk-part of q^-1 d1 q - (q^-1 d2 q) i )

with the i-line component a real table w and the jk-plane component a
complex table g = g_j + i g_k.

Unit quaternions are the 1 x 1 hyper-unitary matrices (Sp(1)), so this is
the gauge of pgauge.py at d = 1, and there is one solver.  The functions
here are format adapters at its boundary: an (n, n, 4) table
q = z1 + z2 j becomes the pair (z1, z2) of 1 x 1 matrix tables, the
i-line target w the 1i-line target V = i w, the jk table g the T table,
and the stream potential zeta is chi / i.  gauge_solve hands p_gauge_solve
grid-first (n, n, 1, 1) targets; p_connection, chi_from_connection and
p_contraction_chain take the solver's layout, (1, 1, n, n), the same
memory.  Results come back as (n, n, 4) tables.

The experiments run p_gauge_structures on systems.chain_quaternion.  This
module is the boundary of the benchmark's quat-chain workload and keeps
only what that workload calls: GaugeResult, gauge_solve, zeta_potential
and contraction_chain, and the solver's GaugeConfig and GaugeStall, which
gauge_solve takes and raises.
"""

from dataclasses import dataclass

import numpy as np

from chirality_lab.compensation import PreconditionError
from chirality_lab.field_core import complex_pair_to_quat, quat_to_complex_pair
from chirality_lab.norms import l2_norm
from chirality_lab.pgauge import (
    GaugeConfig,
    GaugeStall,
    PGaugeResult,
    chi_from_connection,
    p_connection,
    p_contraction_chain,
    p_gauge_solve,
)
from chirality_lab.systems import quaternion_residual

__all__ = [
    "GaugeConfig",
    "GaugeResult",
    "GaugeStall",
    "gauge_solve",
    "zeta_potential",
    "contraction_chain",
]


@dataclass
class GaugeResult(PGaugeResult):
    """The solver's result at d = 1 with the gauge packed as an (n, n, 4) q."""

    q: np.ndarray


def _matrices(q):
    """An (n, n, 4) table as the pair of (1, 1, n, n) tables."""
    z1, z2 = quat_to_complex_pair(q)
    return z1[None, None], z2[None, None]


def _quaternion_result(res):
    """A PGaugeResult at d = 1 as a GaugeResult with an (n, n, 4) q; the
    solver's connection is released (zeta_potential takes q)."""
    x, y = res.p
    return GaugeResult(
        **{**vars(res), "connection": None},
        q=complex_pair_to_quat(x[..., 0, 0], y[..., 0, 0]),
    )


def gauge_solve(plan, w_target, g_target, config=None):
    """Solve N(q) = (w, g) over unit quaternions: Newton at t = 1, with
    numerical continuation as its fallback (pgauge.p_gauge_solve).

    Targets must have a mean-zero i-line part (structural on the torus).
    Raises GaugeStall, whose result carries the partial gauge as an
    (n, n, 4) table, when the continuation stalls.
    """
    v = 1j * np.asarray(w_target, dtype=float)[..., None, None]
    t = np.asarray(g_target, dtype=complex)[..., None, None]
    try:
        return _quaternion_result(p_gauge_solve(plan, v, t, config))
    except GaugeStall as stall:
        stall.result = _quaternion_result(stall.result)
        raise


def zeta_potential(plan, q, precondition_tol=1e-6):
    """Stream potential of the i-line of the connection.

    Requires the first gauge equation (i-line divergence zero); returns
    (zeta, the L2 norm of that divergence), as pgauge.chi_from_connection
    does for the connection of q.
    """
    chi, dres = chi_from_connection(
        plan, p_connection(plan, _matrices(q)), precondition_tol
    )
    return chi[0, 0].imag, dres


def contraction_chain(plan, frak_f, omega, q, zeta, pre_tol=1e-6):
    """Measured factor of the closure estimate chain.

    For frak_f near-solving d_L f = omega j f (omega complex; d_z(alpha)
    in the chirality chain) and a gauge q with N(q) = (0, -2 omega), the
    transported field satisfies d1[q f] - d2[q i f] = q (2 d_z zeta) f,
    the absorbed equation of pgauge.p_contraction_chain with chi = i zeta
    and Gamma1 = 0; its residual is the transport residual.  The factor

        (||grad A||_{2,inf} + ||grad B||_{2,inf}) / ||q f||_{2,inf}

    is below one exactly when the chain contracts at this scale.
    """
    eq_res = quaternion_residual(plan, frak_f, omega)
    f_l2 = l2_norm(plan.grid, frak_f)
    if eq_res > pre_tol * max(f_l2, 1e-300):
        raise PreconditionError("frak_f does not near-solve the equation", eq_res)

    # (P, chi, Gamma1, G) of the absorbed equation at d = 1
    p = _matrices(q)
    zero = np.zeros_like(p[0])
    f1, f2 = quat_to_complex_pair(frak_f)
    out = p_contraction_chain(
        plan, p, 1j * zeta[None, None], (zero, zero), (f1[None], f2[None])
    )
    transport_res = out.pop("absorbed_residual")
    return {**out, "transport_residual": transport_res, "equation_residual": eq_res}
