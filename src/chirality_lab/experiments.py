"""Experiment drivers behind the command line: each returns a RunReport
and writes its CSV/SVG artifacts next to the report."""

import os

import numpy as np

from chirality_lab import compensation, jms, norms, pgauge, systems
from chirality_lab.chirality import extract_frame, rotation2, validate_chirality
from chirality_lab.field_core import Grid2, complex_pair_to_quat
from chirality_lab.hyperunitary import qp_commutator, qp_dagger_defect, random_asd
from chirality_lab.norms import Ball, l2_norm, lorentz_weak_l2, pointwise_abs
from chirality_lab.reporting import (
    ANCHORS,
    RunReport,
    Stopwatch,
    run_parallel,
    worst_of,
    write_csv,
    write_svg_chart,
)
from chirality_lab.spectral_ops import (
    SpectralPlan,
    random_band_limited,
    random_band_limited_complex,
)

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "contraction_run",
    "matrix_contraction_run",
]

DATA_TOL = 1e-5  # largest doubled_residual / ||G||_2 of a trial's data


def make_plan(config, grid_n=None):
    return SpectralPlan(Grid2(grid_n or config.grid_n, length=config.length))


def _chain_trial(plan, record, doubled, cfg):
    """Fill record from one run of the chain pipeline, p_gauge_structures,
    on a doubled system (chain_quaternion at d = 1, chain_doubled at d = 4).
    A stall keeps the partial gauge.  Data that do not near-solve their
    equation, or a gauge that fails chi's precondition, leave the record an
    error, a NaN factor and absorbed residual and an unclosed B; the record
    keeps its gauge."""
    g_pair = doubled.g1, doubled.g2
    out = pgauge.p_gauge_structures(
        plan, doubled.gamma, doubled.gamma1, g_pair, cfg, partial_ok=True
    )
    res = out["gauge"]
    record.update(
        residual=res.residual, theta=res.theta, steps=res.continuation_steps,
        t_reached=res.t_reached, stalled=res.t_reached < 1.0,
    )
    data_res = doubled.certificate["doubled_residual"]
    if data_res > DATA_TOL * l2_norm(plan.grid, *g_pair):
        out["error"] = compensation.PreconditionError(
            "G does not near-solve its doubled equation", data_res
        )
    if "error" in out:
        record.update(factor=np.nan, b_converged=False, absorbed_residual=np.nan,
                      error=str(out["error"]))
    else:
        record.update(factor=out["contraction"]["factor"],
                      b_converged=out["contraction"]["b_converged"],
                      absorbed_residual=out["absorbed_residual"])


def _quaternion_trial(plan, rng, seed, grad_alpha, tol):
    """One quaternion chain trial on chain_quaternion data drawn from rng;
    returns (record, doubled system)."""
    doubled = systems.chain_quaternion(plan, rng, grad_alpha)
    record = {"seed": seed, "grad_alpha": grad_alpha, "grid_n": plan.grid.n}
    cfg = pgauge.GaugeConfig(eps0=max(0.1, 1.5 * grad_alpha), tol=tol)
    _chain_trial(plan, record, doubled, cfg)
    return record, doubled


def contraction_run(plan, seed, grad_alpha, tol):
    """One quaternion-path contraction measurement; returns a record dict.
    Gauge stalls (expected at large data) are recorded, not raised."""
    return _quaternion_trial(plan, np.random.default_rng(seed), seed, grad_alpha, tol)[0]


def matrix_contraction_run(plan, seed, grad_alpha, tol):
    """One doubled-path measurement from the 2d chain; returns the record
    of contraction_run with gamma_l2."""
    doubled = systems.chain_doubled(plan, np.random.default_rng(seed), grad_alpha)
    record = {"seed": seed, "grad_alpha": grad_alpha, "grid_n": plan.grid.n,
              "gamma_l2": l2_norm(plan.grid, doubled.gamma[1])}
    cfg = pgauge.GaugeConfig(eps0=max(0.15, 2.5 * grad_alpha), tol=tol)
    _chain_trial(plan, record, doubled, cfg)
    return record


def _write_trials_csv(path, recs):
    write_csv(
        path,
        ["eps", "seed", "grid_n", "residual", "theta", "contraction_factor", "steps"],
        [[float(r["grad_alpha"]), r["seed"], r["grid_n"], float(r["residual"]),
          float(r["theta"]), float(r["factor"]), r["steps"]] for r in recs],
    )


def _add_trial_gates(report, path, recs):
    """A stalled, errored or B-unconverged trial of a path fails its gate."""
    report.add(f"{path}_stalled_trials", float(sum(r["stalled"] for r in recs)), 0.0)
    report.add(f"{path}_errored_trials", float(sum("error" in r for r in recs)), 0.0)
    report.add(
        f"{path}_b_unconverged_trials",
        float(sum(not r["b_converged"] for r in recs)), 0.0,
    )


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _hodge_errors(plan, a1, a2):
    """Relative reconstruction error and orthogonality of Hodge(a1, a2)."""
    grid = plan.grid
    alpha, beta, mean = plan.hodge_decompose(a1, a2)
    g1x, g1y = plan.grad(alpha)
    g2x, g2y = plan.grad_perp(beta)
    scale = l2_norm(grid, a1, a2)
    resid = l2_norm(grid, a1 - mean[0] - g1x - g2x, a2 - mean[1] - g1y - g2y)
    inner = abs(np.sum(g1x * g2x + g1y * g2y)) * grid.cell_measure
    return resid / scale, inner / scale**2


def _wente_two_mode_err(plan):
    """Sup error of the Wente solve for (sin kx, sin ky): -cos kx cos ky / 2."""
    g = plan.grid
    kappa = 2 * np.pi / g.length
    phi, _ = compensation.wente_solve(
        plan, np.sin(kappa * g.x1), np.sin(kappa * g.x2)
    )
    expected = -0.5 * np.cos(kappa * g.x1) * np.cos(kappa * g.x2)
    return norms.linf_norm(g, phi - expected)


def _real_from_imag(plan, h):
    """Real-part bound of mean-zero h from d_zbar h, and the relative error
    of its pairing identity."""
    diag = compensation.real_from_imag_bound(plan, h, plan.d_zbar(h))
    scale = diag.re_sq + diag.im_sq + diag.g_l1 * diag.t_linf
    return diag, diag.identity_residual / scale


def _linearization_order(plan, seed):
    """Linearization order of the gauge operator at a random pure quaternion
    u_i i + u_j j + u_k k, the 1 x 1 anti-self-dual pair (i u_i, u_j + i u_k)."""
    rng = np.random.default_rng(seed)
    u_i, u_j, u_k = (random_band_limited(plan, rng, kmax=3, rms=1.0) for _ in range(3))
    x = (1j * u_i)[..., None, None]
    y = (u_j + 1j * u_k)[..., None, None]
    return pgauge.linearization_order(plan, (x, y))[0]


def ops_verify(config):
    plan = make_plan(config)
    grid = plan.grid
    rng = np.random.default_rng(config.seed)
    report = RunReport(
        "ops-verify", config.echo(), ["hodge-symbols", "cauchy-solve"]
    )

    w = np.exp(1j * 2 * np.pi * (3 * grid.x1 - 2 * grid.x2) / grid.length)
    k1 = 2 * np.pi * 3 / grid.length
    k2 = -2 * np.pi * 2 / grid.length
    err = np.max(np.abs(plan.d_z(w) - 0.5 * (1j * k1 + k2) * w)) / np.max(np.abs(w))
    report.add("plane_wave_dz_rel_err", err, 1e-12)
    err = np.max(np.abs(plan.d_zbar(w) - 0.5 * (1j * k1 - k2) * w)) / np.max(np.abs(w))
    report.add("plane_wave_dzbar_rel_err", err, 1e-12)

    f = random_band_limited(plan, rng)
    # the plan's own transforms: the complex pair and the real (half spectrum) pair
    backs = (
        plan.inverse(plan.forward(f[None].astype(complex))).real,
        plan.real_inverse(plan.real_forward(f[None])),
    )
    err = max(np.max(np.abs(back[0] - f)) for back in backs) / np.max(np.abs(f))
    report.add("fft_round_trip_rel_err", err, 1e-13)

    fc = random_band_limited_complex(plan, rng)
    lhs = plan.d_zbar(plan.d_z(fc))
    rhs = 0.25 * plan.laplacian(fc)
    report.add(
        "dzbar_dz_quarter_laplacian_rel_err",
        np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)),
        1e-12,
    )

    gx, gy = plan.grad(f)
    report.add(
        "curl_grad_rel_err",
        np.max(np.abs(plan.curl(gx, gy))) / max(np.max(np.abs(gx)), 1e-300),
        1e-13,
    )
    px, py = plan.grad_perp(f)
    report.add(
        "div_grad_perp_rel_err",
        np.max(np.abs(plan.div(px, py))) / max(np.max(np.abs(px)), 1e-300),
        1e-13,
    )

    a1 = random_band_limited(plan, rng) + 0.3
    a2 = random_band_limited(plan, rng) - 0.1
    recon, orth = _hodge_errors(plan, a1, a2)
    report.add("hodge_reconstruction_rel_err", recon, 1e-12)
    report.add("hodge_orthogonality", orth, 1e-12)

    g = random_band_limited_complex(plan, rng)
    h = plan.cauchy_solve(g)
    resid = l2_norm(grid, plan.d_zbar(h) - (g - g.mean()))
    report.add("cauchy_right_inverse_rel_err", resid / l2_norm(grid, g), 1e-12)

    c = plan.fourier_coefficients(f)
    parseval = np.sqrt(np.sum(np.abs(c) ** 2) * grid.area)
    report.add(
        "parseval_rel_err",
        abs(norms.lp_norm(grid, f, 2) - parseval) / parseval,
        1e-12,
    )
    report.add(
        "lorentz_scaling_rel_err",
        abs(
            norms.lorentz_weak_l2(grid, -2.0 * f)
            - 2.0 * norms.lorentz_weak_l2(grid, f)
        )
        / norms.lorentz_weak_l2(grid, f),
        1e-14,
    )
    return report


def hodge_check(config):
    plan = make_plan(config, grid_n=max(config.grid_n, 128))
    trials = config.trials or 100
    report = RunReport("hodge-check", config.echo(), ["hodge-symbols"])

    def one(seed):
        rng = np.random.default_rng(seed)
        a1 = random_band_limited(plan, rng) + rng.standard_normal()
        a2 = random_band_limited(plan, rng) + rng.standard_normal()
        return _hodge_errors(plan, a1, a2)

    seeds = [int(s) for s in
             np.random.SeedSequence(config.seed).generate_state(trials)]
    out = run_parallel(one, seeds)
    report.add("max_reconstruction_rel_err", worst_of(r for r, _ in out), 1e-12)
    report.add("max_orthogonality", worst_of(o for _, o in out), 1e-12)
    return report


def bb_check(config):
    plan = make_plan(config, grid_n=max(config.grid_n, 128))
    grid = plan.grid
    trials = config.trials or 100
    report = RunReport(
        "bb-check", config.echo(), ["bb-weak-l2", "bb-l2", "real-from-imag"]
    )
    rng0 = np.random.default_rng(config.seed)
    u0 = random_band_limited(plan, rng0)
    u0 -= u0.mean()
    u0_l2 = l2_norm(grid, u0)

    def one(seed):
        rng = np.random.default_rng(seed)
        m = 0.5 + 0.2 * random_band_limited(plan, rng, kmax=4, rms=1.0)
        ux, uy = plan.grad(u0)
        f1 = (1 - m) * ux
        f2 = (1 - m) * uy
        (f1x, f1y), (f2x, f2y) = plan.grad(f1), plan.grad(f2)
        a = np.array(
            [
                [plan.inv_laplacian(f1x), plan.inv_laplacian(f2x)],
                [plan.inv_laplacian(f1y), plan.inv_laplacian(f2y)],
            ]
        )
        g1 = ux - (f1 - f1.mean())
        g2 = uy - (f2 - f2.mean())
        data = compensation.SplitGradientData(grid, a, np.array([g1, g2]))
        u, diag = compensation.bb_reconstruct(plan, data)
        return l2_norm(grid, u - u0) / u0_l2, diag.ratio

    seeds = [int(s) for s in
             np.random.SeedSequence(config.seed + 1).generate_state(trials)]
    out = run_parallel(one, seeds)
    errs = [e for e, _ in out]
    ratios = np.array([r for _, r in out])
    report.add("max_recovery_rel_err", worst_of(errs), 1e-10)
    report.add(
        "ratio_spread", (ratios.max() - ratios.min()) / ratios.mean(), 0.25
    )

    # rotated-potential data: the quadratic bound carries constant one
    calibration = []
    slacks = []
    for phase, count in (("calibrate", 20), ("measure", 20)):
        for k in range(count):
            rng = np.random.default_rng(10_000 + config.seed + k + (phase == "measure") * 500)
            phi = random_band_limited(plan, rng, rms=1.0)
            psi = random_band_limited(plan, rng, rms=0.3)
            (phix, phiy), (psix, psiy) = plan.grad(phi), plan.grad(psi)
            gx = -phiy + psix
            gy = phix + psiy
            v = phi.mean() - phi
            data = compensation.split_from_vector_potential(
                grid, v - v.mean(), np.array([gx, gy])
            )
            u, diag = compensation.bb_reconstruct(plan, data)
            if phase == "calibrate":
                calibration.append((l2_norm(grid, u) / max(diag.g_l1, 1e-300)) ** 2)
            else:
                c_pure = worst_of(calibration)
                bound = l2_norm(grid, v) ** 2 + c_pure * diag.g_l1**2
                slacks.append(l2_norm(grid, u) ** 2 / bound)
    report.add("rotated_data_constant", worst_of(slacks), 1.05)

    # real-part recovery: pairing identity and refinement-stable constant
    def c_at(n, seed):
        plan_n = make_plan(config, grid_n=n)
        r = np.random.default_rng(seed)
        g2 = plan_n.grid
        h = np.zeros((n, n), dtype=complex)
        for _ in range(6):
            m1, m2 = r.integers(-5, 6, size=2)
            cc = r.standard_normal() + 1j * r.standard_normal()
            h += cc * np.exp(
                1j * 2 * np.pi * (m1 * g2.x1 + m2 * g2.x2) / g2.length
            )
        h -= h.mean()
        diag, ident = _real_from_imag(plan_n, h)
        return diag.re_sq / max(diag.im_sq + diag.g_l1**2, 1e-300), ident

    base_n = grid.n
    idents = []
    drifts = []
    for k in range(3):
        c1, i1 = c_at(base_n, config.seed + 77 + k)
        c2, i2 = c_at(2 * base_n, config.seed + 77 + k)
        idents += [i1, i2]
        drifts.append(abs(c1 - c2) / max(c1, c2))
    report.add("pairing_identity_rel_err", worst_of(idents), 1e-8)
    report.add("real_part_constant_refinement_drift", worst_of(drifts), 0.10)
    return report


def wente_check(config):
    report = RunReport("wente-check", config.echo(), ["zeta-wente"])
    plan = make_plan(config, grid_n=max(config.grid_n, 128))

    report.add("two_mode_solution_err", _wente_two_mode_err(plan), 1e-12)

    ratios = []
    for n in (64, 128, 256):
        plan_n = make_plan(config, grid_n=n)
        gn = plan_n.grid
        r = np.random.default_rng(config.seed + 5)
        aa = np.zeros((n, n))
        bb = np.zeros((n, n))
        for _ in range(8):
            m1, m2 = r.integers(-6, 7, size=2)
            aa += r.standard_normal() * np.cos(
                2 * np.pi * (m1 * gn.x1 + m2 * gn.x2) / gn.length + r.random()
            )
            m1, m2 = r.integers(-6, 7, size=2)
            bb += r.standard_normal() * np.cos(
                2 * np.pi * (m1 * gn.x1 + m2 * gn.x2) / gn.length + r.random()
            )
        _, dd = compensation.wente_solve(plan_n, aa, bb)
        ratios.append(dd.ratio_linf)
    drift = worst_of(abs(r - ratios[-1]) / ratios[-1] for r in ratios)
    report.add("linf_ratio_refinement_drift", drift, 0.10)

    trials = config.trials or 100
    rng = np.random.default_rng(config.seed + 9)
    wins = 0
    for _ in range(trials):
        aa = random_band_limited(plan, rng)
        bb = random_band_limited(plan, rng)
        jn, cn = compensation.jacobian_vs_concentrated(plan, aa, bb, rng)
        wins += jn < cn
    # the control is an equal-mass concentrated right side: a same-spectrum
    # phase shuffle pins the solution's L2 and shows no gap (the strict xfail
    # test_criterion_5_jacobian_vs_shuffled_as_stated records that)
    report.add(
        "jacobian_vs_concentrated_winrate", wins / trials, 0.95,
        higher_is_better=True,
    )
    return report


def gauge_sweep(config):
    plan = make_plan(config)
    report = RunReport(
        "gauge-solve", config.echo(),
        ["gauge-operator", "gauge-linearization", "zeta-wente", "contraction-chain"],
    )
    eps_values = (0.01, 0.05, 0.1)
    recs = [
        contraction_run(plan, config.seed + int(eps * 1000), eps, tol=config.tol)
        for eps in eps_values
    ]
    report.add("max_residual", worst_of(r["residual"] for r in recs), 1e-8)
    report.add("max_continuation_steps", worst_of(r["steps"] for r in recs), 64.0)
    _add_trial_gates(report, "quaternion", recs)
    report.add(
        "linearization_order", _linearization_order(plan, config.seed + 3), 1.9,
        higher_is_better=True,
    )

    _write_trials_csv(os.path.join(config.out, "gauge_sweep.csv"), recs)
    write_svg_chart(
        os.path.join(config.out, "gauge_sweep.svg"),
        [
            ("residual", list(eps_values), [float(r["residual"]) for r in recs]),
            ("theta", list(eps_values), [float(r["theta"]) for r in recs]),
        ],
        title="gauge sweep",
        logx=True,
        logy=True,
    )
    return report


def reformulate(config):
    plan = make_plan(config)
    grid = plan.grid
    rng = np.random.default_rng(config.seed)
    anchors = [
        "chirality-system-residual", "conjugate-potential", "holo-split",
        "n2-conjugate-form", "quaternion-form", "dirac-form",
        "pseudo-energy-identity", "frame-conjugation", "omega-pair",
        "block-sign-rule", "doubled-system", "gamma-structure",
        "anti-self-duality", "hyper-unitary-algebra",
    ]
    report = RunReport("reformulate", config.echo(), anchors)

    const_sys = systems.manufacture_solution(
        plan, "constant_S", rng, theta0=0.4
    )
    v, diag = systems.conjugate_potential(plan, const_sys.chirality, const_sys.u)
    report.add("constant_s_div_residual", diag["div_residual"], 1e-10)
    report.add("constant_s_potential_residual", diag["lsq_residual"], 1e-10)
    r_l, r_r = systems.holo_split_residual(plan, const_sys)
    report.add("constant_s_holo_split", worst_of([r_l, r_r]), 1e-8)

    ledger = {"div": [], "holo": [], "n2": [], "quat": [], "equiv": []}
    for mode in ("conjugated_harmonic", "adapted_frame"):
        sys = systems.manufacture_solution(
            plan, mode, rng, grad_alpha=min(config.eps0, 0.1)
        )
        validate_chirality(sys.chirality, tol=1e-9)
        _, diag = systems.conjugate_potential(plan, sys.chirality, sys.u)
        ledger["div"].append(diag["div_residual"])
        r_l, r_r = systems.holo_split_residual(plan, sys)
        ledger["holo"] += [r_l, r_r]
        f, res_n2 = systems.n2_transform(plan, sys.alpha, sys.u, sys.v)
        ledger["n2"].append(res_n2)
        frak = complex_pair_to_quat(f[..., 0], f[..., 1])
        omega = -plan.d_z(sys.alpha)  # the chain form
        rq = systems.quaternion_residual(plan, frak, omega)
        ledger["quat"].append(rq)
        rc = systems.complex_pair_residual(plan, f, omega)
        ledger["equiv"].append(abs(rq - rc))
    worst = {key: worst_of(vals) for key, vals in ledger.items()}
    report.add("frame_div_residual", worst["div"], 1e-8)
    report.add("holo_split_residual", worst["holo"], 1e-8)
    report.add("n2_equation_residual", worst["n2"], 1e-8)
    report.add("quaternion_equation_residual", worst["quat"], 1e-8)
    report.add("quaternion_vs_complex_equality", worst["equiv"], 1e-10)

    sys = systems.manufacture_solution(plan, "adapted_frame", rng, grad_alpha=0.1)
    e1, e2 = systems.energy_identity(plan, sys.chirality, sys.u)
    report.add(
        "pseudo_energy_identity", abs(e1 - e2) / (abs(e1) + abs(e2) + 1e-30), 1e-12
    )
    report.add(
        "rewrite_identity_residual",
        systems.rewrite_identity_residual(plan, sys),
        1e-10,
    )
    q_rec, info = extract_frame(plan, sys.chirality.s, 1, energy_limit=1.0)
    report.add("frame_extraction_residual", info["residual"], 1e-8)

    n = grid.n
    psi = np.broadcast_to(np.array([0.7 - 0.2j, 1.1 + 0.4j]), (n, n, 2)).copy()
    dres, hyp = systems.dirac_residual(plan, psi, np.zeros((n, n), dtype=complex))
    report.add("dirac_kernel_residual", dres, 1e-10)

    alpha = systems.chain_alpha(plan, rng, 0.3)
    pair = systems.omega_pm(plan, rotation2(alpha), 1)
    report.add("omega_antisymmetry", pair.certificate["antisymmetry"], 1e-12)
    report.add("omega_block_structure", pair.certificate["block_structure"], 1e-13)
    report.add("omega_jacobian_identity", pair.certificate["jacobian_identity"], 1e-9)

    g3, a3, b3 = systems.manufacture_doubled(plan, 3, rng, b_norm=0.05)
    doubled = systems.double_system(plan, g3, a3, b3)
    report.add(
        "gamma_anti_self_duality", doubled.certificate["anti_self_duality"], 1e-13
    )
    report.add("doubled_residual", doubled.certificate["doubled_residual"], 1e-8)
    report.add(
        "doubled_componentwise_match",
        doubled.certificate["componentwise_match"],
        1e-10,
    )
    defects = []
    for _ in range(5):
        m1 = random_asd(rng, (4, 4), 4)
        m2 = random_asd(rng, (4, 4), 4)
        defects.append(qp_dagger_defect(qp_commutator(m1, m2)))
    report.add("hyper_unitary_closure", worst_of(defects), 1e-12)
    return report


def contraction(config):
    plan = make_plan(config)
    seeds = config.trials or 20
    report = RunReport(
        "contraction", config.echo(),
        ["contraction-chain", "contraction-chain-matrix", "zeta-wente",
         "chi-potential", "gauge-operator"],
    )
    level = min(config.eps0, 0.1)

    recs = run_parallel(
        lambda s: contraction_run(plan, s, level, tol=config.tol),
        [config.seed + k for k in range(seeds)],
    )
    report.add("quaternion_factor_max", worst_of(r["factor"] for r in recs), 1.0)
    report.add("quaternion_residual_max", worst_of(r["residual"] for r in recs), 1e-8)
    _add_trial_gates(report, "quaternion", recs)

    m_recs = run_parallel(
        lambda s: matrix_contraction_run(plan, s, level, tol=config.tol),
        [config.seed + 100 + k for k in range(max(2, seeds // 4))],
    )
    report.add("matrix_factor_max", worst_of(r["factor"] for r in m_recs), 1.0)
    report.add(
        "matrix_absorbed_residual_max",
        worst_of(r["absorbed_residual"] for r in m_recs),
        1e-7,
    )
    _add_trial_gates(report, "matrix", m_recs)

    _write_trials_csv(os.path.join(config.out, "contraction_trials.csv"), recs + m_recs)
    return report


def _harmonic_control(grid, center, radius, delta):
    """L2 ratio of a degree-one harmonic gradient over B(delta r) vs
    B(3r/4): equals (4 delta / 3) exactly in the continuum."""
    gx = np.ones((grid.n, grid.n))  # grad of Re(z - z0): constant
    gy = np.zeros_like(gx)
    mag = pointwise_abs(gx, gy)
    inner = norms.lp_norm(grid, mag, 2, Ball(center, delta * radius))
    outer = norms.lp_norm(grid, mag, 2, Ball(center, 0.75 * radius))
    return inner / outer


def morrey_decay(config):
    plan = make_plan(config)
    grid = plan.grid
    seeds = config.trials or 10
    report = RunReport(
        "morrey-decay", config.echo(),
        ["morrey-decay", "contraction-chain", "zeta-wente"],
    )
    delta = 0.5
    ladder = [grid.length / 4 / 2**k for k in range(4)]

    def one(seed):
        rng = np.random.default_rng(seed)
        rec, doubled = _quaternion_trial(plan, rng, seed, config.eps0, config.tol)
        frak = complex_pair_to_quat(doubled.g1[..., 0], doubled.g2[..., 0])
        # a perturbed near-solution from the same seeded family: four
        # independent noise components from the seed's stream
        noise = np.stack(
            [random_band_limited(plan, rng, kmax=4, rms=1.0) for _ in range(4)],
            axis=-1,
        )
        mag = pointwise_abs(frak + 0.1 * noise * float(np.max(pointwise_abs(frak))))
        centers = [
            tuple(grid.length * (0.25 + 0.5 * np.random.default_rng(seed + 7 + c).random(2)))
            for c in range(3)
        ]
        gammas = []
        for cx, cy in centers:
            for r in ladder:
                num = lorentz_weak_l2(grid, mag, Ball((cx, cy), delta * r))
                den = lorentz_weak_l2(grid, mag, Ball((cx, cy), r))
                if den != 0.0:  # a NaN norm must reach the gate
                    gammas.append(num / den)
        fit = norms.morrey_profile(grid, mag, centers[0], ladder[::-1])
        return rec, worst_of(gammas), fit.alpha

    results = [one(config.seed + k) for k in range(seeds)]
    gamma_max = worst_of(g for _, g, _ in results)
    report.add("one_step_gamma_max", gamma_max, 1.0)
    # a degenerate fit has a NaN exponent and fails the gate
    report.add(
        "fitted_decay_exponent_min",
        worst_of((a for _, _, a in results), higher_is_better=True), 0.0,
        higher_is_better=True,
    )
    _add_trial_gates(report, "quaternion", [rec for rec, _, _ in results])

    center = (grid.length / 2, grid.length / 2)
    harm = _harmonic_control(grid, center, ladder[0], delta)
    predicted = 4.0 * delta / 3.0
    report.add(
        "harmonic_control_rel_err", abs(harm - predicted) / predicted, 0.20
    )

    rows = [
        [float(config.eps0), config.seed + k, grid.n, float(rec["residual"]),
         float(rec["theta"]), float(g), float(a)]
        for k, (rec, g, a) in enumerate(results)
    ]
    write_csv(
        os.path.join(config.out, "morrey_decay.csv"),
        ["eps", "seed", "grid_n", "residual", "theta", "gamma", "alpha_fit"],
        rows,
    )
    write_svg_chart(
        os.path.join(config.out, "morrey_decay.svg"),
        [("gamma", list(range(len(results))), [g for _, g, _ in results])],
        title="one-step decay ratios",
    )
    return report


def bootstrap_demo(config):
    plan = make_plan(config)
    grid = plan.grid
    report = RunReport(
        "bootstrap-demo", config.echo(),
        ["bootstrap-exponent-ledger", "chirality-system-residual"],
    )

    def star(p):
        return 2 * p / (2 - p)

    defects = []
    for p in (1.2, 1.5, 1.8):
        ps = star(p)
        back = 2 * ps / (ps + 2)
        defects.append(abs(back - p))
    report.add("exponent_fixed_point_defect", worst_of(defects), 1e-14)

    sys = systems.manufacture_solution(
        plan, "adapted_frame", np.random.default_rng(config.seed), grad_alpha=0.2
    )
    s = sys.chirality.s
    u_vals = sys.u.values(grid)
    w = np.einsum("...jl,...l->...j", s, u_vals)
    sx, sy = plan.grad(s)
    grad_s_l2 = l2_norm(grid, sx, sy)
    grad_w = pointwise_abs(*plan.grad(w))
    coupling = pointwise_abs(
        np.einsum("...jl,...lm,...m->...j", sx, s, w),
        np.einsum("...jl,...lm,...m->...j", sy, s, w),
    )
    rows = []
    hoelder = []
    for p in (1.2, 1.5, 1.8):
        ps = star(p)
        grad_w_p = norms.lp_norm(grid, grad_w, p)
        w_ps = norms.lp_norm(grid, w, ps)
        term_p = norms.lp_norm(grid, coupling, p)
        hoelder.append(term_p / (grad_s_l2 * w_ps))
        rows.append([float(p), float(ps), float(grad_w_p), float(w_ps), float(term_p)])
    report.add("hoelder_ratio_max", worst_of(hoelder), 1.0)
    write_csv(
        os.path.join(config.out, "bootstrap_demo.csv"),
        ["p", "p_star", "grad_w_lp", "w_lpstar", "coupling_lp"],
        rows,
    )
    return report


def jms_experiment(config):
    params = jms.JmsParams(beta=config.beta, r0=config.r0)
    report = RunReport("jms", config.echo(), ["jms-counterexample"])

    study = jms.jms_residual_study(params)
    report.add(
        "weak_residual_order_min",
        worst_of(study["orders"]["weak_residual"], higher_is_better=True), 2.0,
        higher_is_better=True,
    )
    report.add("parity_defect", study["parity_defect"], 1e-12)

    rng = np.random.default_rng(config.seed)
    x = rng.uniform(-0.9, 0.9, size=(120, 2))
    x = x[np.hypot(x[:, 0], x[:, 1]) > 0.05][:100]
    grad = jms.jms_solution_gradient(x, params)
    agrad = jms.jms_matrix_gradient(x, params)
    h = 1e-6
    errs_u = []
    errs_a = []
    for k in range(2):
        xp = x.copy()
        xp[:, k] += h
        xm = x.copy()
        xm[:, k] -= h
        fd = (jms.jms_solution(xp, params) - jms.jms_solution(xm, params)) / (2 * h)
        errs_u.append(np.max(np.abs(fd - grad[:, k])) / np.max(np.abs(fd)))
        fda = (jms.jms_matrix(xp, params) - jms.jms_matrix(xm, params)) / (2 * h)
        errs_a.append(np.max(np.abs(fda - agrad[..., k])) / np.max(np.abs(fda)))
    report.add("solution_gradient_fd_rel_err", worst_of(errs_u), 1e-6)
    report.add("matrix_gradient_fd_rel_err", worst_of(errs_a), 1e-6)

    table = jms.jms_norm_divergence(params)
    rows = []
    for entry in table:
        for i, (d, v) in enumerate(zip(entry["deltas"], entry["values"])):
            slope = ""
            if "fitted_slopes" in entry and i > 0:
                slope = float(entry["fitted_slopes"][i - 1])
            rows.append(
                [float(entry["p"]), float(config.beta), float(config.r0),
                 float(d), float(v), slope]
            )
    write_csv(
        os.path.join(config.out, "jms_norms.csv"),
        ["p", "beta", "r0", "delta", "norm_value", "fitted_slope"],
        rows,
    )
    write_csv(
        os.path.join(config.out, "jms_residuals.csv"),
        ["grid_n", "excision", "strong_residual", "weak_residual"],
        [
            [row["grid_n"], float(row["excision"]), float(row["strong_residual"]),
             float(row["weak_residual"])]
            for row in study["rows"]
        ],
    )

    entry_p1 = table[0]
    oracle = jms.gradient_lp_annulus_oracle(params, 1.0, entry_p1["deltas"][-1])
    report.add(
        "l1_quadrature_oracle_rel_err",
        abs(entry_p1["values"][-1] - oracle) / oracle,
        1e-6,
    )
    entry_p15 = table[1]
    fitted = np.asarray(entry_p15["fitted_slopes"][1:])
    predicted = np.asarray(entry_p15["predicted_slopes"][1:])
    report.add(
        "p15_slope_asymptotic_rel_err",
        float(np.max(np.abs(fitted - predicted) / np.abs(predicted))),
        0.05,
    )
    svg_series = [
        (
            f"p={entry['p']}",
            entry["deltas"],
            entry["values"],
        )
        for entry in table
    ]
    write_svg_chart(
        os.path.join(config.out, "jms_norms.svg"),
        svg_series,
        title="gradient norms vs excision",
        logx=True,
        logy=True,
    )
    return report


def full_chain(config):
    plan = make_plan(config)
    report = RunReport("full-chain", config.echo(), sorted(ANCHORS))
    sub_reports = [
        ops_verify(config),
        reformulate(config),
        bootstrap_demo(config),
    ]
    level = min(config.eps0, 0.05)
    rec = contraction_run(plan, config.seed, level, tol=config.tol)
    report.add("gauge_residual", rec["residual"], 1e-7)
    report.add("contraction_factor", rec["factor"], 1.0)
    _add_trial_gates(report, "quaternion", [rec])
    report.add(
        "linearization_order", _linearization_order(plan, config.seed + 13), 1.9,
        higher_is_better=True,
    )
    m_rec = matrix_contraction_run(plan, config.seed, level, tol=config.tol)
    report.add("matrix_gauge_residual", m_rec["residual"], 1e-7)
    report.add("matrix_absorbed_residual", m_rec["absorbed_residual"], 1e-7)
    report.add("matrix_contraction_factor", m_rec["factor"], 1.0)
    _add_trial_gates(report, "matrix", [m_rec])

    rng = np.random.default_rng(config.seed)
    grid = plan.grid
    u0 = random_band_limited(plan, rng)
    u0 -= u0.mean()
    data = compensation.SplitGradientData(
        grid,
        np.array([[u0, np.zeros_like(u0)], [np.zeros_like(u0), u0]]),
        np.zeros((2, grid.n, grid.n)),
    )
    u, diag = compensation.bb_reconstruct(plan, data)
    report.add(
        "bb_recovery_rel_err",
        l2_norm(grid, u - u0) / l2_norm(grid, u0),
        1e-10,
    )

    report.add("wente_two_mode_err", _wente_two_mode_err(plan), 1e-12)

    h = random_band_limited_complex(plan, rng)
    h -= h.mean()
    report.add("pairing_identity_rel_err", _real_from_imag(plan, h)[1], 1e-8)

    mag = pointwise_abs(
        systems.manufacture_solution(
            plan, "adapted_frame", rng, grad_alpha=level, equation_sign=+1,
        ).frak_f()
    )
    ladder = [grid.length / 4 / 2**k for k in range(4)]
    center = (grid.length / 2, grid.length / 2)
    fit = norms.morrey_profile(grid, mag + 0.1, center, ladder[::-1])
    report.add("morrey_exponent", fit.alpha, 0.0, higher_is_better=True)

    params = jms.JmsParams(beta=config.beta, r0=config.r0)
    pts = np.array([[0.3, 0.1], [-0.2, 0.4]])
    res = np.max(np.abs(jms.strong_residual(pts, params, 5e-3)))
    report.add("jms_pointwise_residual", res, 1e-4)

    for sub in sub_reports:
        for metric in sub.metrics:
            report.metrics.append(metric)
    return report


EXPERIMENTS = {
    "ops-verify": ops_verify,
    "hodge-check": hodge_check,
    "bb-check": bb_check,
    "wente-check": wente_check,
    "gauge-solve": gauge_sweep,
    "reformulate": reformulate,
    "contraction": contraction,
    "morrey-decay": morrey_decay,
    "bootstrap-demo": bootstrap_demo,
    "jms": jms_experiment,
    "full-chain": full_chain,
}


def run_experiment(config):
    fn = EXPERIMENTS[config.experiment]
    with Stopwatch() as timer:
        report = fn(config)
    report.wall_ms = timer.ms
    return report
