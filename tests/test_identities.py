import numpy as np
import pytest

from u1bethe import amplitudes as A
from u1bethe import chain as C
from u1bethe import verify as V
from u1bethe import weights as W
from u1bethe.errors import DegenerateParameters, Singularity

from conftest import nan_every, rng_for


@pytest.mark.parametrize("fixture,expected_min", [("six", 2), ("spin1", 12),
                                                  ("spin32", 15)])
def test_identity_suite_passes(fixture, expected_min, request):
    model = request.getfixturevalue(fixture)
    reports = V.identity_suite(model, samples=15, tol=1e-9)
    assert len(reports) >= expected_min
    for rep in reports:
        assert rep.passed, repr(rep)
        assert len(rep.samples) == len(rep.residuals)


def test_identity_suite_gates_by_n(six, spin32):
    ids2 = {r.identity_id for r in V.identity_suite(six, samples=3)}
    ids4 = {r.identity_id for r in V.identity_suite(spin32, samples=3)}
    assert "d2_product_inversion" not in ids2
    assert {"d2_ratio_swap_charge3_mid", "d3_over_d2_factorization"} <= ids4
    assert ids2 <= ids4


@pytest.mark.parametrize("fixture", ["six", "spin1", "spin32"])
def test_amplitude_properties(fixture, request):
    model = request.getfixturevalue(fixture)
    for rep in V.amplitude_property_suite(model, samples=15, tol=1e-9):
        assert rep.passed, repr(rep)


def _charge3_row(model, seed):
    rep, = V.identity_suite(model, samples=6, tol=1e-10, seed=seed,
                            names={"charge3_unitarity_row"})
    return rep


def test_charge3_row_is_relative_to_its_terms(spin32):
    # `identities --samples 6 --seed 62` on an N=4 chain draws a pair at
    # which the product R_31^31(l, m) R_31^31(m, l) is 5.7e-7 while the
    # row's largest term is 7.6e-4; divided by that product alone, the
    # 7e-16 rounding of the sum read 1.2e-9
    rep = _charge3_row(spin32, 62)
    assert rep.passed, repr(rep)
    assert min(abs(W.eval_r(spin32, l, m).entry(3, 1, 3, 1)
                   * W.eval_r(spin32, m, l).entry(3, 1, 3, 1))
               for l, m in rep.samples) < 1e-6


def test_charge3_row_detects_a_perturbed_entry(spin32):
    def perturbed(lam, mu):
        got = {(a, b, c, d): v
               for a, b, c, d, v in spin32.eval_r(lam, mu).items()}
        got[(3, 1, 2, 2)] *= 1 + 1e-6
        return got

    assert not _charge3_row(W.custom_model(4, perturbed), 62).passed


def test_nan_residual_never_passes():
    rep = V.IdentityReport("x", [], [1e-12, float("nan")], 0, 1e-9)
    assert np.isnan(rep.max_residual) and not rep.passed


def test_nan_in_a_looped_identity_fails(spin32, monkeypatch):
    # each of these identities takes several residuals per sample; every
    # second one is nan, never the first of a sample
    names = {"block_det_exchange", "d2_ratio_to_d5d4", "wanted_term_assembly"}
    nan_every(monkeypatch, V, "relative_residual", 2)
    reports = V.identity_suite(spin32, samples=1, names=names)
    assert {rep.identity_id for rep in reports} == names
    for rep in reports:
        assert np.isnan(rep.max_residual) and not rep.passed, repr(rep)


def test_nan_in_an_amplitude_property_fails(spin32, monkeypatch):
    nan_every(monkeypatch, V, "relative_residual", 2)
    failed = {rep.identity_id for rep in
              V.amplitude_property_suite(spin32, samples=1) if not rep.passed}
    # every property built on relative_residual; the other two take abs
    assert failed == {"f2_exchange_symmetry", "f2_closed_vs_recursive",
                      "pbar_equals_p", "h_exchange_consistency",
                      "h_equals_f_identification"}


def test_degenerate_parameters_policy(six):
    def always_singular(model, pts):
        raise Singularity("forced")

    rng = rng_for("degen")
    with pytest.raises(DegenerateParameters):
        V._run_identity(six, "stub", 1, always_singular, 5, 1e-9, rng)


def test_resampling_counts_skips(six):
    calls = {"k": 0}

    def flaky(model, pts):
        calls["k"] += 1
        if calls["k"] % 4:
            raise Singularity("forced")
        return 0.0

    rng = rng_for("flaky")
    rep = V._run_identity(six, "stub", 1, flaky, 10, 1e-9, rng)
    assert rep.passed and rep.skipped <= 2


@pytest.mark.parametrize("fixture,L", [("spin1", 2), ("spin32", 2)])
def test_appendix_operator_checks(fixture, L, request):
    model = request.getfixturevalue(fixture)
    ctx = C.ChainContext(model, L)
    reports = V.appendix_operator_checks(ctx, 0.31 + 0.12j, 0.43 - 0.21j,
                                         -0.17 + 0.38j)
    names = {r.identity_id for r in reports}
    assert {"t_aplus2_on_phi2", "t_aplus1_on_phi2", "tagged_f22_identity",
            "mixed_wanted_factorization_up",
            "mixed_wanted_factorization_down"} <= names
    if model.N >= 4:
        assert "high_annihilator_kills_phi2" in names
    for rep in reports:
        assert rep.passed, repr(rep)
        if rep.identity_id == "high_annihilator_kills_phi2":
            assert rep.max_residual == 0.0   # structural zeros, exactly


def test_identity_reports_deterministic(spin1):
    r1 = V.identity_suite(spin1, samples=5, seed=7)
    r2 = V.identity_suite(spin1, samples=5, seed=7)
    assert [(a.identity_id, a.residuals) for a in r1] == \
        [(b.identity_id, b.residuals) for b in r2]


def test_relative_residual_scalars_and_arrays():
    rng = np.random.default_rng(5)
    for _ in range(200):
        lhs, rhs = (complex(*rng.standard_normal(2))
                    * 10.0 ** rng.integers(-8, 8) for _ in range(2))
        old = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
        assert V.relative_residual(lhs, rhs) == old      # bit for bit
    assert V.relative_residual(0j, 0j) == 0.0
    assert V.relative_residual is A.relative_residual  # one implementation
    lhs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    rhs = lhs + 1e-9 * rng.standard_normal(7)
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-30)
    assert V.relative_residual(lhs, rhs) == \
        float(np.max(np.abs(lhs - rhs)) / scale)
