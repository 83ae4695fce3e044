"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
Tolerances and runtime budgets are pinned here; nothing is deferred to
later calibration.
"""

import time

import numpy as np
import pytest

from u1bethe import amplitudes as A
from u1bethe import bethe as B
from u1bethe import chain as C
from u1bethe import verify as V
from u1bethe import weights as W
from u1bethe.amplitudes import worst_residual
from u1bethe.errors import NoConvergence

from conftest import points, rng_for


def report(num, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_r_matrix_gates(six, spin1):
    t0 = time.perf_counter()
    res = []
    for model in (six, spin1):
        rng = rng_for("acc1", model.N)
        for _ in range(100):
            l1, l2, l3 = points(model, rng, 3)
            res.append(W.check_yang_baxter(model, l1, l2, l3))
            res.append(W.check_unitarity(model, l1, l2))
    worst = worst_residual(res)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    report(1, ok, f"YBE/unitarity gates, 100 samples each for N=2 and N=3: "
                  f"max residual {worst:.3e} (tol 1e-10), {elapsed:.1f}s (< 5s)")


def test_criterion_2_identity_suite(six, spin1, spin32):
    t0 = time.perf_counter()
    res = []
    failed = []
    # N in {2, 3} per the criterion; the identities whose indices are
    # gated off below N = 4 additionally run there, non-vacuously
    gated = {"d2_ratio_swap_charge3_mid", "d2_ratio_swap_charge3_top",
             "d3_over_d2_factorization", "block_det_exchange",
             "wanted_term_assembly"}
    runs = [(six, None), (spin1, None), (spin32, gated)]
    for model, names in runs:
        for rep in V.identity_suite(model, samples=50, tol=1e-9, names=names):
            res.append(rep.max_residual)
            if not rep.passed:
                failed.append((model.N, rep.identity_id))
    count, worst = len(res), worst_residual(res)
    elapsed = time.perf_counter() - t0
    ok = not failed and worst < 1e-9 and elapsed < 30.0
    report(2, ok, f"weight-identity suite, {count} identity runs at 50 "
                  f"samples: max residual {worst:.3e} (tol 1e-9), "
                  f"failures {failed}, {elapsed:.1f}s (< 30s)")


def test_criterion_3_commutation_rules(six, spin1):
    t0 = time.perf_counter()
    res = []
    for model in (six, spin1):
        ctx = C.ChainContext(model, 2)
        rng = rng_for("acc3", model.N)
        for family, indices in V.enumerate_rules(model.N):
            for _pair in range(3):
                lam, mu = points(model, rng, 2)
                rule = V.generate_rule(model, family, indices, lam, mu)
                res.append(V.check_rule_on_lattice(ctx, rule, trials=2))
    checked, worst = len(res), worst_residual(res)
    counts_ok = all(V.creation_rule_counts(n) == V.table3_counts(n)
                    for n in (2, 3, 4, 5, 6))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and counts_ok and elapsed < 120.0
    report(3, ok, f"{checked} rule instances on L=2 lattices: max residual "
                  f"{worst:.3e} (tol 1e-10), counts match: {counts_ok}, "
                  f"{elapsed:.1f}s (< 2min)")


def test_criterion_4_on_shell_spectrum(six, spin1):
    t0 = time.perf_counter()
    lam0 = 0.313 + 0.141j
    matches, vecs = [], []
    for model, lengths, seeds in [(six, (2, 4), 40), (spin1, (2, 3), 30)]:
        rng = rng_for("acc4", model.N)
        for L in lengths:
            ctx = C.ChainContext(model, L)
            spectrum = dict(V.exact_spectrum(ctx, lam0))
            for n in (1, 2):
                try:
                    sets = B.solve_bae(ctx, n, n_seeds=seeds, tol=1e-12)
                except NoConvergence:
                    continue
                for rs in sets:
                    pred = B.eigenvalue(ctx, lam0, rs)
                    dist = min(abs(pred - ev) for ev in spectrum[n])
                    matches.append(dist / max(abs(pred), 1e-30))
                    state = B.build_bethe_vector(ctx, rs)
                    for _ in range(5):
                        lam = points(model, rng, 1)[0]
                        vecs.append(B.eigenvector_residual(ctx, lam, state))
    found = len(matches)
    worst_match, worst_vec = worst_residual(matches), worst_residual(vecs)
    elapsed = time.perf_counter() - t0
    ok = (found >= 10 and worst_match < 1e-8 and worst_vec < 1e-8
          and elapsed < 120.0)
    report(4, ok, f"{found} converged root sets: worst ED match "
                  f"{worst_match:.3e}, worst eigenstate residual "
                  f"{worst_vec:.3e} (tol 1e-8), {elapsed:.1f}s (< 2min)")


def test_criterion_5_offshell_expansion(spin1):
    ctx = C.ChainContext(spin1, 3)
    rng = rng_for("acc5")
    cache = {}
    res = []
    for n in (1, 2, 3):
        roots = points(spin1, rng, n)
        st = B.build_bethe_vector(ctx, roots, cache)
        for a in (1, 2, 3):
            wanted, terms = B.expansion_for_diagonal(ctx, 0.29 + 0.17j, roots,
                                                     a, cache)
            pred = wanted.amplitudes.copy()
            for t in terms:
                pred += t.contribution.amplitudes
            direct = C.monodromy_element(ctx, 0.29 + 0.17j, a, a).apply(
                st.vector.amplitudes)
            scale = max(np.max(np.abs(direct)), 1e-30)
            res.append(float(np.max(np.abs(direct - pred)) / scale))
    worst = worst_residual(res)
    # at solved roots the summed unwanted part cancels
    sets = B.solve_bae(ctx, 2, n_seeds=30, tol=1e-12)
    wanted, terms = B.offshell_expansion(ctx, 0.29 + 0.17j, sets[0].roots)
    unwanted = np.zeros(ctx.dim, dtype=complex)
    for t in terms:
        unwanted += t.contribution.amplitudes
    rel = float(np.max(np.abs(unwanted)) / np.max(np.abs(wanted.amplitudes)))
    ok = worst < 1e-8 and rel < 1e-8
    report(5, ok, f"per-diagonal decomposition (N=3, L=3, n<=3): max residual "
                  f"{worst:.3e} (tol 1e-8); on-shell unwanted/wanted "
                  f"{rel:.3e} (tol 1e-8)")


def test_criterion_6_exchange_symmetry(six, spin1):
    thetas = []
    for model in (six, spin1):
        rng = rng_for("acc6t", model.N)
        for _ in range(100):
            lam, mu = points(model, rng, 2)
            thetas.append(abs(A.theta(model, lam, mu)
                              * A.theta(model, mu, lam) - 1.0))
    worst_theta = worst_residual(thetas)
    ctx = C.ChainContext(spin1, 3)
    cache = {}
    rng = rng_for("acc6v")
    vecs = []
    for n in (2, 3):
        roots = points(spin1, rng, n)
        base = B.build_bethe_vector(ctx, roots, cache).vector.amplitudes
        for j in range(n - 1):
            swapped = list(roots)
            swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
            vs = B.build_bethe_vector(ctx, tuple(swapped),
                                      cache).vector.amplitudes
            th = A.theta(spin1, roots[j], roots[j + 1])
            vecs.append(float(np.max(np.abs(base - th * vs))
                              / np.max(np.abs(base))))
    worst_vec = worst_residual(vecs)
    vecs4 = []
    for _ in range(5):
        roots = points(spin1, rng, 4)
        base = B.build_bethe_vector(ctx, roots, cache).vector.amplitudes
        for j in range(3):
            swapped = list(roots)
            swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
            vs = B.build_bethe_vector(ctx, tuple(swapped),
                                      cache).vector.amplitudes
            th = A.theta(spin1, roots[j], roots[j + 1])
            vecs4.append(float(np.max(np.abs(base - th * vs))
                               / np.max(np.abs(base))))
    worst4 = worst_residual(vecs4)
    ok = worst_theta < 1e-12 and worst_vec < 1e-10 and worst4 < 1e-10
    report(6, ok, f"exchange symmetry: theta inverse {worst_theta:.3e} "
                  f"(tol 1e-12), vectors n<=3 {worst_vec:.3e} and n=4 "
                  f"{worst4:.3e} (tol 1e-10)")


def test_criterion_7_appendix_operator_identities(spin1, spin32):
    ops = []
    kill_exact = True
    for model in (spin1, spin32):
        ctx = C.ChainContext(model, 2)
        for rep in V.appendix_operator_checks(ctx, 0.31 + 0.12j,
                                              0.43 - 0.21j, -0.17 + 0.38j,
                                              tol=1e-9):
            if rep.identity_id == "high_annihilator_kills_phi2":
                kill_exact = kill_exact and rep.max_residual == 0.0
            else:
                ops.append(rep.max_residual)
    worst_ops = worst_residual(ops)
    pbars = []
    for model in (spin1, spin32):
        rng = rng_for("acc7", model.N)
        for _ in range(50):
            lam, l1, l2 = points(model, rng, 3)
            for a in range(1, model.N + 1):
                pb = A.Pbar_a(model, a, lam, l1, l2)
                p = A.P_a(model, a, lam, l2)
                pbars.append(abs(pb - p) / max(abs(p), 1e-30))
    worst_pbar = worst_residual(pbars)
    ok = kill_exact and worst_ops < 1e-9 and worst_pbar < 1e-10
    report(7, ok, f"annihilator action: spin-drop>=3 kill exact: "
                  f"{kill_exact}; closed forms {worst_ops:.3e} (tol 1e-9); "
                  f"Pbar=P {worst_pbar:.3e} (tol 1e-10) at 50 samples")


def test_criterion_8_f2_cross_form(spin1, spin32):
    res = []
    for model in (spin1, spin32):
        rng = rng_for("acc8", model.N)
        cache = {}
        for _ in range(50):
            lam, l1, l2 = points(model, rng, 3)
            for a in range(1, model.N - 1):
                for c in (0, 2):
                    rec = A.F_offshell(model, c, 2, a, lam, (l1, l2), cache)
                    clo = A.F2_closed(model, c, a, lam, l1, l2)
                    res.append(abs(rec - clo) / max(abs(clo), 1e-30))
    worst = worst_residual(res)
    ok = worst < 1e-10
    report(8, ok, f"recursive vs closed two-root amplitudes, 50 samples "
                  f"(N=3 and N=4), all branches: max relative {worst:.3e} "
                  f"(tol 1e-10)")
