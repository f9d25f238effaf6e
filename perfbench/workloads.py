"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (the SpectralPlan
and a list of instances, one per operation of a round), runs one operation
on one instance in ``run``, and checks that operation's output in ``check``
against the independent computations of ``reference``.  A round is one
operation per instance, in order; every run attempts whole rounds.

Why these four: the layers trade places between paths.  quat-chain is FFT
and quaternion pointwise algebra; matrix-chain is small-matrix products and
the eigh retraction; estimators is compensation and the norm estimators,
with no gauge solve; obstructed drives the continuation into rejected
levels and step halving until it stalls.
"""

import numpy as np

from chirality_lab import compensation, gauge, norms, pgauge, systems
from chirality_lab.field_core import Grid2
from chirality_lab.spectral_ops import SpectralPlan

import reference as ref

GAUGE_TOL = 1e-8
# the program's own hyper-unitarity gate (pgauge.pn_apply)
HYPERUNITARY_TOL = 1e-9


def _doubled_from_chain(plan, rng, grad_alpha):
    """Doubled system of the 2d frame chain, as the matrix contraction run
    builds it: A = 0 and B = R d_z(alpha) for the rotation generator R."""
    chain = systems.manufacture_solution(
        plan, "adapted_frame", rng, grad_alpha=grad_alpha
    )
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    b_coef = np.einsum("ij,...->...ij", rot, plan.d_z(chain.alpha))
    return systems.double_system(
        plan, chain.f_frame(), np.zeros_like(b_coef), b_coef
    )


def _run_p_gauge(plan, inst):
    doubled = inst["doubled"]
    return pgauge.p_gauge_structures(
        plan, doubled.gamma, doubled.gamma1, (doubled.g1, doubled.g2),
        inst["config"], partial_ok=True,
    )


def _factor_ok(factor):
    return bool(np.isfinite(factor) and factor < 1.0)


class QuatChain:
    """Quaternion contraction measurement at n = 128 over the grad-alpha
    ladder: gauge_solve, zeta_potential, contraction_chain."""

    name = "quat-chain"
    grid_n = 128
    ladder = (0.01, 0.05, 0.1)

    def setup(self, seed):
        plan = SpectralPlan(Grid2(self.grid_n))
        n = self.grid_n
        instances = []
        for k, grad_alpha in enumerate(self.ladder):
            rng = np.random.default_rng([seed, k])
            chain = systems.manufacture_solution(
                plan, "adapted_frame", rng, grad_alpha=grad_alpha, equation_sign=+1
            )
            alpha = chain.diagnostics["equation_alpha"]
            omega = plan.d_z(alpha)
            instances.append({
                "alpha": alpha,
                "omega": omega,
                "frak": chain.frak_f(),
                "w_target": np.zeros((n, n)),
                "g_target": -2.0 * omega,
                "config": gauge.GaugeConfig(
                    eps0=max(0.1, 1.5 * grad_alpha), tol=GAUGE_TOL
                ),
            })
        return plan, instances

    def run(self, plan, inst):
        res = gauge.gauge_solve(plan, inst["w_target"], inst["g_target"], inst["config"])
        zeta, _ = gauge.zeta_potential(plan, res.q, precondition_tol=1e-2)
        chain = gauge.contraction_chain(
            plan, inst["frak"], inst["omega"], res.q, zeta, pre_tol=1e-5
        )
        return res, chain

    def check(self, plan, inst, out):
        res, chain = out
        residual = ref.quaternion_gauge_residual(res.q, inst["alpha"], plan.grid.length)
        defect = ref.unit_defect(res.q)
        return [
            ("gauge_residual", residual, residual <= GAUGE_TOL),
            ("unit_defect", defect, defect <= 1e-10),
            ("levels", res.continuation_steps, res.continuation_steps <= 64),
            ("factor", chain["factor"], _factor_ok(chain["factor"])),
        ]


class MatrixChain:
    """p_gauge_structures on a chain-derived doubled system at n = 64."""

    name = "matrix-chain"
    grid_n = 64
    grad_alpha = 0.05

    def setup(self, seed):
        plan = SpectralPlan(Grid2(self.grid_n))
        rng = np.random.default_rng([seed, 0])
        inst = {
            "doubled": _doubled_from_chain(plan, rng, self.grad_alpha),
            "config": gauge.GaugeConfig(
                eps0=max(0.15, 2.5 * self.grad_alpha), tol=GAUGE_TOL
            ),
        }
        return plan, [inst]

    def run(self, plan, inst):
        return _run_p_gauge(plan, inst)

    def check(self, plan, inst, out):
        defect = ref.hyperunitary_defect(out["gauge"].p)
        absorbed = out["absorbed_residual"]
        factor = out["contraction"]["factor"]
        return [
            ("unitarity_defect", defect, defect <= HYPERUNITARY_TOL),
            ("t_reached", out["t_reached"], out["t_reached"] == 1.0),
            ("absorbed_residual", absorbed, absorbed <= 1e-7),
            ("factor", factor, _factor_ok(factor)),
        ]


class Obstructed:
    """p_gauge_structures(partial_ok=True) at n = 16 on generic
    manufacture_doubled data, which stalls near t = 1.

    A partial gauge is accepted at an intermediate level, where the solver
    converges only the oscillatory residual, to 0.02 dt |target| with
    dt <= GaugeConfig.dt; that is the bound checked here.  The jk mean is
    closed only at t = 1, so it is not part of the bound.
    """

    name = "obstructed"
    grid_n = 16
    instances = 6
    b_norm = 0.04

    def setup(self, seed):
        plan = SpectralPlan(Grid2(self.grid_n))
        instances = []
        for k in range(self.instances):
            rng = np.random.default_rng([seed, k])
            g, a, b = systems.manufacture_doubled(plan, 2, rng, b_norm=self.b_norm)
            doubled = systems.double_system(plan, g, a, b)
            # the solver's target is (0, -2 Gamma_Y); its size in L2
            size = 2.0 * ref.l2(doubled.gamma[1], plan.grid.length)
            config = gauge.GaugeConfig(eps0=0.2, tol=GAUGE_TOL)
            instances.append({
                "doubled": doubled,
                "config": config,
                "level_bound": 0.02 * config.dt * size,
            })
        return plan, instances

    def run(self, plan, inst):
        return _run_p_gauge(plan, inst)

    def check(self, plan, inst, out):
        result = out["gauge"]
        oscillatory = result.residual_1i + result.residual_jk
        defect = ref.hyperunitary_defect(result.p)
        factor = out["contraction"]["factor"]
        return [
            ("t_reached", out["t_reached"], out["t_reached"] > 0.95),
            ("oscillatory_residual", oscillatory, oscillatory <= inst["level_bound"]),
            ("unitarity_defect", defect, defect <= HYPERUNITARY_TOL),
            ("factor", factor, _factor_ok(factor)),
        ]


class Estimators:
    """One seeded batch of the compensation and norm estimators at n = 256,
    with no gauge solve."""

    name = "estimators"
    grid_n = 256
    instances = 2
    centres = 16

    def setup(self, seed):
        plan = SpectralPlan(Grid2(self.grid_n))
        grid = plan.grid
        n, length = grid.n, grid.length
        instances = []
        for k in range(self.instances):
            rng = np.random.default_rng([seed, k])
            # split gradient data for a known u0: f = (1 - m) grad u0 carried
            # by potentials a^k_j = inv_lap(d_k f_j), g the remainder
            u0 = ref.band_limited(rng, n, n // 6)
            m = 0.5 + 0.2 * ref.band_limited(rng, n, 4)
            grad_u0 = [ref.deriv(u0, ax, length) for ax in (0, 1)]
            f = [(1.0 - m) * gu for gu in grad_u0]
            pots = np.array([
                [ref.inv_laplacian(ref.deriv(fj, ax, length), length) for fj in f]
                for ax in (0, 1)
            ])
            g = np.array([gu - (fj - fj.mean()) for gu, fj in zip(grad_u0, f)])
            theta = rng.random(2) * 2.0 * np.pi
            h = ref.band_limited(rng, n, n // 6) + 1j * ref.band_limited(rng, n, n // 6)
            h = h + (rng.standard_normal() + 1j * rng.standard_normal())
            hodge = [ref.band_limited(rng, n, n // 6) + rng.standard_normal()
                     for _ in range(2)]
            bump = np.exp(-((grid.x1 - np.pi) ** 2 + (grid.x2 - np.pi) ** 2) / 0.05)
            instances.append({
                "bb": compensation.SplitGradientData(grid, pots, g),
                "u0": u0,
                "wente": (np.sin(grid.x1 + theta[0]), np.sin(grid.x2 + theta[1])),
                "wente_expected": -0.5 * np.cos(grid.x1 + theta[0]) * np.cos(grid.x2 + theta[1]),
                "h": h,
                "g": ref.d_zbar(h, length),
                "jac": (ref.band_limited(rng, n, n // 6), ref.band_limited(rng, n, n // 6)),
                "jac_seed": int(rng.integers(2**31)),
                "hodge": hodge,
                "morrey_field": np.abs(ref.band_limited(rng, n, n // 6)) + 4.0 * bump,
                "centres": [tuple(c) for c in rng.random((self.centres, 2)) * length],
                "radii": (length / 32, length / 16, length / 8, length / 4),
            })
        return plan, instances

    def run(self, plan, inst):
        grid = plan.grid
        u, _ = compensation.bb_reconstruct(plan, inst["bb"])
        phi, _ = compensation.wente_solve(plan, *inst["wente"])
        pairing = compensation.real_from_imag_bound(plan, inst["h"], inst["g"])
        jac = compensation.jacobian_vs_concentrated(
            plan, *inst["jac"], np.random.default_rng(inst["jac_seed"])
        )
        hodge = plan.hodge_decompose(*inst["hodge"])
        ladder = [
            [(norms.lorentz_weak_l2(grid, inst["morrey_field"], norms.Ball(c, r)),
              norms.lorentz_l21(grid, inst["morrey_field"], norms.Ball(c, r)))
             for r in inst["radii"]]
            for c in inst["centres"]
        ]
        return u, phi, pairing, jac, hodge, np.array(ladder)

    def check(self, plan, inst, out):
        u, phi, pairing, jac, (alpha, beta, mean), ladder = out
        grid = plan.grid
        length = grid.length
        u0 = inst["u0"]
        bb_err = ref.l2(u - u0, length) / ref.l2(u0, length)
        wente_err = float(np.max(np.abs(phi - inst["wente_expected"])))
        h0 = inst["h"] - np.mean(inst["h"])
        h0_sq = ref.l2(h0, length) ** 2
        own_lhs = float(np.real(np.sum(h0 * h0))) * (length / grid.n) ** 2
        pairing_err = abs(pairing.identity_lhs - pairing.identity_rhs) / h0_sq
        lhs_err = abs(pairing.identity_lhs - own_lhs) / h0_sq
        a1, a2 = inst["hodge"]
        recon1 = ref.deriv(alpha, 0, length) - ref.deriv(beta, 1, length) + mean[0]
        recon2 = ref.deriv(alpha, 1, length) + ref.deriv(beta, 0, length) + mean[1]
        hodge_err = float(np.max([ref.rel_err(recon1, a1), ref.rel_err(recon2, a2)]))
        own_weak = ref.ball_weak_l2(
            inst["morrey_field"], grid.x1, grid.x2, length,
            inst["centres"][0], inst["radii"][-1],
        )
        weak_err = abs(ladder[0, -1, 0] - own_weak) / own_weak
        # a ball contains every smaller concentric ball: the weak norm grows
        weak_monotone = bool(np.all(np.diff(ladder[..., 0], axis=1) >= 0.0))
        jn, cn = jac
        return [
            ("bb_recovery", bb_err, bb_err <= 1e-10),
            ("wente_two_mode", wente_err, wente_err <= 1e-12),
            ("pairing_identity", pairing_err, pairing_err <= 1e-8),
            ("pairing_lhs", lhs_err, lhs_err <= 1e-10),
            ("hodge_round_trip", hodge_err, hodge_err <= 1e-12),
            ("ball_weak_l2", weak_err, weak_err <= 1e-12),
            ("morrey_monotone", float(weak_monotone), weak_monotone),
            ("jacobian_beats_concentrated", jn / cn, bool(jn / cn < 1.0)),
        ]


WORKLOADS = {w.name: w for w in (QuatChain(), MatrixChain(), Estimators(), Obstructed())}
