"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy problem setups are shared through session fixtures; every test fetches
what it needs lazily so its reported wall time covers the work it triggered.
"""

import time

import numpy as np
import pytest

from sdwave.assembly import DiscreteForms, h1_norms
from sdwave.evolution import (aux_fine_solve, aux_gfem_solve, discrete_energy,
                              fine_fem_solve, localized_gfem_solve, rel_l2h1)
from sdwave.harness import ExperimentConfig, random_field, run_exp_H, \
    run_exp_k, run_exp_rb
from sdwave.lod import (CorrectorConfig, build_corrector_set,
                        compute_transient_correctors, decay_profile,
                        transients_for_all_nodes, Patch)
from sdwave.mesh import Mesh, NestedMeshPair, saturating_k
from sdwave.rb import snapshot_singular_values

TAU = 0.02
SEED = 1


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print("[criterion %d] %s: %s (%s; %.1fs of %.0fs budget)"
          % (num, name, status, detail, elapsed, budget))
    assert ok, "%s: %s" % (name, detail)
    assert elapsed < budget, "%s exceeded runtime budget" % name


class _Problem:
    def __init__(self, q_exp, p_exp):
        coarse = Mesh(2 ** q_exp)
        self.pair = NestedMeshPair(coarse, 2 ** (p_exp - q_exp))
        self.field_a = random_field(self.pair.fine, 1e-1, 1e3, SEED)
        self.field_b = random_field(self.pair.fine, 1e-1, 1e3, SEED + 1)
        self.forms = DiscreteForms(self.pair, self.field_a, self.field_b, TAU)
        self.zeros_c = np.zeros(self.pair.coarse.n_dofs)
        self.zeros_f = np.zeros(self.pair.fine.n_dofs)


@pytest.fixture(scope="session")
def prob_q4():
    # H = 2^-4, h = 2^-6
    return _Problem(4, 6)


@pytest.fixture(scope="session")
def sat_q4(prob_q4):
    cfg = CorrectorConfig(k=saturating_k(prob_q4.pair.coarse))
    return build_corrector_set(prob_q4.forms, cfg)


@pytest.fixture(scope="session")
def transient_center_q4(prob_q4):
    cfg = CorrectorConfig(k=4)
    cs = build_corrector_set(prob_q4.forms, cfg)
    coarse = prob_q4.pair.coarse
    center = (coarse.n // 2) * (coarse.n + 1) + coarse.n // 2
    x_dof = int(coarse.dof_index[center])
    tc = compute_transient_correctors(cs, x_dof, 100)
    return x_dof, tc


@pytest.fixture(scope="session")
def exph_rows():
    cfg = ExperimentConfig(p=6, q=5, tau=TAU, T=1.0, seed=SEED)
    rows, _ = run_exp_H(cfg)
    return rows


def test_criterion_1_oracle_collapse():
    tic = time.perf_counter()
    pair = NestedMeshPair(Mesh(8), 1)
    field_a = random_field(pair.fine, 1e-1, 1e3, SEED)
    field_b = random_field(pair.fine, 1e-1, 1e3, SEED + 1)
    forms = DiscreteForms(pair, field_a, field_b, TAU)
    cs = build_corrector_set(forms, CorrectorConfig(k=2))
    seq = transients_for_all_nodes(cs, horizon=25)
    zc = np.zeros(pair.coarse.n_dofs)
    lod = localized_gfem_solve(cs, seq, 1.0, 25, zc, zc)
    ref = fine_fem_solve(forms, 1.0, np.zeros(pair.fine.n_dofs),
                         np.zeros(pair.fine.n_dofs), 25)
    gap = rel_l2h1(forms, lod, ref)
    _report(1, "oracle collapse at r=1", gap <= 1e-8,
            "rel L2(H1) gap %.2e <= 1e-8" % gap, time.perf_counter() - tic, 10.0)


def test_criterion_2_auxiliary_exactness(request):
    tic = time.perf_counter()
    prob = request.getfixturevalue("prob_q4")
    sat = request.getfixturevalue("sat_q4")
    rng = np.random.default_rng(SEED)
    alpha0 = rng.standard_normal(prob.pair.coarse.n_dofs)
    z0 = sat.Q @ alpha0
    n_steps = 25
    fine = aux_fine_solve(prob.forms, 0.0, z0, n_steps)
    gfem = aux_gfem_solve(prob.forms, 0.0, alpha0, n_steps)
    worst = max(h1_norms(prob.forms, [fine.states[n] - gfem.states[n]])[0]
                / h1_norms(prob.forms, [fine.states[n]])[0]
                for n in range(1, n_steps + 1))
    _report(2, "auxiliary problem reproduced exactly", worst <= 1e-9,
            "max per-step rel err %.2e <= 1e-9" % worst,
            time.perf_counter() - tic, 10.0)


def test_criterion_3_superposition_identity():
    tic = time.perf_counter()
    pair = NestedMeshPair(Mesh(8), 4)
    field_a = random_field(pair.fine, 1e-1, 1e3, SEED)
    field_b = random_field(pair.fine, 1e-1, 1e3, SEED + 1)
    forms = DiscreteForms(pair, field_a, field_b, TAU)
    cfg = CorrectorConfig(k=2)
    cs = build_corrector_set(forms, cfg)
    n_steps = 20
    rng = np.random.default_rng(7)
    alpha = rng.uniform(-1.0, 1.0, (n_steps + 1, pair.coarse.n_dofs))

    worst = 0.0
    for x_dof in range(pair.coarse.n_dofs):
        tc = compute_transient_correctors(cs, x_dof, n_steps)
        solver = Patch(forms, tc.dofs, cfg.form_choice)
        K_A_patch = forms.K_A[tc.dofs][:, tc.dofs]
        H1p = (forms.K_1 + forms.M)[tc.dofs][:, tc.dofs]
        q_x = np.asarray(cs.Q[:, x_dof].todense()).ravel()
        r1 = (forms.K_A @ q_x)[tc.dofs]
        w_direct = np.zeros(tc.dofs.size)
        for n in range(1, n_steps + 1):
            w_direct = solver.solve(K_A_patch @ w_direct + alpha[n - 1, x_dof] * r1)
            lmax = min(n, tc.xi.shape[0])
            coeff = alpha[n - np.arange(1, lmax + 1), x_dof]
            w_super = tc.xi[:lmax].T @ coeff
            diff = w_direct - w_super
            ref = np.sqrt(max(w_direct @ (H1p @ w_direct), 0.0))
            if ref > 0.0:
                worst = max(worst, np.sqrt(max(diff @ (H1p @ diff), 0.0)) / ref)
    _report(3, "superposition identity", worst <= 1e-9,
            "max rel deviation %.2e <= 1e-9" % worst,
            time.perf_counter() - tic, 30.0)


@pytest.mark.acceptance
def test_criterion_4_localization_decay():
    tic = time.perf_counter()
    cfg = ExperimentConfig(p=6, q=4, kmax=6, tau=TAU, T=1.0, seed=SEED)
    rows, _ = run_exp_k(cfg)
    errs = np.array([r["rel_h1_final"] for r in sorted(rows, key=lambda r: r["param"])])
    ks = np.array([r["param"] for r in sorted(rows, key=lambda r: r["param"])])
    decreasing = bool(np.all(np.diff(errs) < 0.0))
    slope = float(np.polyfit(ks, np.log10(errs), 1)[0])
    _report(4, "localization error decay in k", decreasing and slope <= -0.3,
            "strictly decreasing=%s, log10 slope %.2f <= -0.3" % (decreasing, slope),
            time.perf_counter() - tic, 600.0)


@pytest.mark.acceptance
def test_criterion_5_h_convergence(request):
    tic = time.perf_counter()
    rows = request.getfixturevalue("exph_rows")
    by_method = {}
    for r in rows:
        by_method.setdefault(r["method"], []).append(r)
    gfem = sorted(by_method["gfem"], key=lambda r: r["param"])
    x = np.log2([r["param"] for r in gfem])
    rate_h1 = float(-np.polyfit(x, np.log2([r["rel_h1_final"] for r in gfem]), 1)[0])
    rate_l2h1 = float(-np.polyfit(x, np.log2([r["rel_l2h1"] for r in gfem]), 1)[0])
    rate_ok = rate_h1 >= 1.0 or rate_l2h1 >= 1.0

    ratios = {}
    for method in ("fem", "lod_a", "lod_b"):
        errs = [r["rel_h1_final"] for r in by_method[method]]
        ratios[method] = max(errs) / min(errs)
    plateau_ok = all(v <= 3.0 for v in ratios.values())

    detail = ("gfem rate: h1_T %.3f, l2h1 %.3f (>= 1.0 in at least one norm); "
              "plateau ratios fem %.2f lod_a %.2f lod_b %.2f <= 3"
              % (rate_h1, rate_l2h1, ratios["fem"], ratios["lod_a"], ratios["lod_b"]))
    _report(5, "H-convergence against fine reference", rate_ok and plateau_ok,
            detail, time.perf_counter() - tic, 1200.0)


@pytest.mark.acceptance
def test_criterion_6_rb_compression(request):
    tic = time.perf_counter()
    exph = request.getfixturevalue("exph_rows")
    threshold = next(r["rel_h1_final"] for r in exph
                     if r["method"] == "gfem" and r["param"] == 32)
    cfg = ExperimentConfig(p=6, q=5, tau=TAU, T=1.0, seed=SEED,
                           M=(1, 5, 10, 15, 50))
    rows, _ = run_exp_rb(cfg)
    gaps = {r["param"]: r["rel_h1_final"] for r in rows}
    ok = (gaps[50] <= 1e-12 and gaps[10] < gaps[1] and gaps[10] < threshold)
    detail = ("gap(M=N)=%.1e <= 1e-12, gap(10)=%.2e < gap(1)=%.2e, "
              "gap(10) < GFEM error %.2e at H=2^-5"
              % (gaps[50], gaps[10], gaps[1], threshold))
    _report(6, "reduced-basis compression", ok, detail,
            time.perf_counter() - tic, 900.0)


def test_criterion_7_snapshot_spectrum(request):
    tic = time.perf_counter()
    prob = request.getfixturevalue("prob_q4")
    _, tc = request.getfixturevalue("transient_center_q4")
    sv = snapshot_singular_values(tc.xi, Patch(prob.forms, tc.dofs))
    rel = sv / sv[0]
    worst_tail = float(rel[29:].max())
    _report(7, "snapshot singular value decay", worst_tail <= 1e-10,
            "max sigma_j/sigma_1 for j>=30 is %.2e <= 1e-10" % worst_tail,
            time.perf_counter() - tic, 120.0)


def test_criterion_8_energy_dissipation(request):
    tic = time.perf_counter()
    prob = request.getfixturevalue("prob_q4")
    rng = np.random.default_rng(SEED)
    u0 = rng.standard_normal(prob.pair.fine.n_dofs)
    u1 = u0 + 0.01 * rng.standard_normal(prob.pair.fine.n_dofs)
    traj = fine_fem_solve(prob.forms, 0.0, u0, u1, 100)
    E = discrete_energy(prob.forms, traj)
    ok = bool(np.all(np.diff(E) <= 1e-12 * E[0]))
    _report(8, "energy dissipation without source", ok,
            "E^n non-increasing over %d steps (E^1=%.2e, E^N=%.2e)"
            % (E.size, E[0], E[-1]), time.perf_counter() - tic, 60.0)


def test_criterion_9_decay_profiles(request):
    tic = time.perf_counter()
    prob = request.getfixturevalue("prob_q4")
    sat = request.getfixturevalue("sat_q4")
    x_dof, tc = request.getfixturevalue("transient_center_q4")

    phi = np.asarray(sat.phi[:, x_dof].todense()).ravel()
    xi1 = np.zeros(prob.pair.fine.n_dofs)
    xi1[tc.dofs] = tc.xi[0]

    slopes = {}
    for name, vec in (("phi", phi), ("xi1", xi1)):
        prof = decay_profile(vec, prob.pair, x_dof)
        mask = prof[:, 1] > 1e-12
        slopes[name] = float(np.polyfit(prof[mask, 0], np.log(prof[mask, 1]), 1)[0])
    ok = slopes["phi"] < 0.0 and slopes["xi1"] < 0.0
    _report(9, "corrector decay profiles", ok,
            "log-linear slopes: phi %.2f, xi1 %.2f (both < 0)"
            % (slopes["phi"], slopes["xi1"]), time.perf_counter() - tic, 120.0)
