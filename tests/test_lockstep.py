"""The batched Bethe residual and the lockstep Newton against their scalar
oracles: `bae_residual` row by row, and a Newton loop run one seed at a
time, each to the bit."""

import cmath
import tracemalloc

import numpy as np
import pytest

from u1bethe import bethe as B
from u1bethe import chain as C
from u1bethe import weights as W
from u1bethe.errors import (InvalidOption, ParameterDomain, Singularity,
                            UnknownGridPoint)

from conftest import ETA, rng_for

_EVAL_ERRORS = (Singularity, ParameterDomain, UnknownGridPoint)
MUS3 = (0.0, 0.05 + 0.02j, -0.1)


def _ladder(L):
    return [0.05 * k + 0.02j * k for k in range(1, L + 1)]


def _scalar_rows(ctx, rows):
    """bae_residual at every equation of each row; None where it raises."""
    out = []
    for row in rows:
        try:
            out.append([B.bae_residual(ctx, tuple(row), j)
                        for j in range(1, len(row) + 1)])
        except _EVAL_ERRORS:
            out.append(None)
    return out


def _root_sets(ctx, n, rng, count=200):
    """Random root sets in the root window, with near-coincident, exactly
    coincident and near-pole roots mixed in.  Every model here has a pole
    of R(lam, mu) at lam - mu = -eta."""
    (re0, re1), (im0, im1) = ctx.model.root_window
    x = (rng.uniform(re0, re1, (count, n))
         + 1j * rng.uniform(im0, im1, (count, n)))
    pole = ctx.inhomogeneities[0] - ETA
    x[5::9, 0] = pole + 1e-13 * rng.standard_normal(len(x[5::9]))
    x[6::9, 0] = pole + 1e-7 * rng.standard_normal(len(x[6::9]))
    if n > 1:
        x[0::9, 1] = x[0::9, 0] + 1e-9 * rng.standard_normal(len(x[0::9]))
        x[1::9, 1] = x[1::9, 0]
        x[2::9, 1] = x[2::9, 0] - ETA + 1e-13j
        x[3::9, 1] = x[3::9, 0] + ETA * (1 + 1e-8)
    return x


def _assert_rows_match(ctx, n, salt):
    x = _root_sets(ctx, n, rng_for(f"rows-{ctx.model.name}", salt))
    got, singular = B.bae_residuals(ctx, x)
    want = _scalar_rows(ctx, x)
    assert singular.tolist() == [w is None for w in want]
    assert 0 < singular.sum() < len(x)
    kept = ~singular
    assert got[kept].tobytes() == np.array(
        [w for w in want if w is not None]).tobytes()
    assert np.isnan(got[singular]).all()


@pytest.mark.parametrize("L", [6, 10, 14])
def test_batched_residual_is_bitwise_scalar_six_vertex(six, L):
    ctx = C.ChainContext(six, L, _ladder(L))
    for n in (1, 2, 3):
        _assert_rows_match(ctx, n, L * 10 + n)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_batched_residual_is_bitwise_scalar_higher_spin(N):
    # theta goes through det_guarded's 2 x 2 branch for N >= 3
    ctx = C.ChainContext(W.higher_spin_xxz(N, ETA), 3, MUS3)
    for n in (1, 2, 3):
        _assert_rows_match(ctx, n, N * 10 + n)


def test_batched_residual_is_bitwise_scalar_custom_model(spin1):
    # not of difference form: every weight picks up exp(0.1i lam mu), and
    # the array evaluation calls eval_r point by point
    def weights(lam, mu):
        return {(a, b, c, d): v * cmath.exp(0.3 * (lam - mu) * (a - c)
                                            + 0.1j * lam * mu)
                for a, b, c, d, v in spin1.eval_r(lam, mu).items()}

    ctx = C.ChainContext(W.custom_model(3, weights), 3, MUS3)
    for n in (1, 2, 3):
        _assert_rows_match(ctx, n, n)


def test_batched_residual_flags_non_finite_rows(six):
    ctx = C.ChainContext(six, 4)
    x = np.array([[0.1 + 0.2j, complex("nan")], [0.1 + 0.2j, -0.3 + 0.1j],
                  [complex("inf"), 0.2]])
    got, singular = B.bae_residuals(ctx, x)
    assert singular.tolist() == [True, False, True]
    assert got[1].tolist() == [B.bae_residual(ctx, tuple(x[1]), j)
                               for j in (1, 2)]
    with pytest.raises(ParameterDomain):
        B.bae_residual(ctx, tuple(x[0]), 1)


# ----------------------------------------------------------------------
# the lockstep Newton against a Newton loop of one seed at a time
# ----------------------------------------------------------------------

def _scalar_newton(ctx, x0, tol, max_iter):
    """The one-seed damped Newton that `_lockstep_newton` replaced, on the
    scalar residuals: (outcome, roots if converged, best residual)."""
    n = len(x0)
    x = np.array(x0, dtype=complex)
    best = np.inf

    def residuals(roots):
        return np.array([B.bae_residual(ctx, roots, j)
                         for j in range(1, n + 1)])

    for _ in range(max_iter):
        try:
            r = residuals(tuple(x))
        except _EVAL_ERRORS:
            return "singular_residual", None, best
        rn = float(np.max(np.abs(r)))
        best = min(best, rn)
        if rn < tol:
            return "converged", tuple(x), best
        jac = np.zeros((n, n), dtype=complex)
        for k in range(n):
            h = 1e-7 * (1.0 + abs(x[k]))
            xp = x.copy()
            xp[k] += h
            try:
                rp = residuals(tuple(xp))
            except _EVAL_ERRORS:
                return "singular_residual", None, best
            jac[:, k] = (rp - r) / h
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return "singular_jacobian", None, best
        smax = float(np.max(np.abs(step)))
        if not np.isfinite(smax):
            return "singular_jacobian", None, best
        if smax > 1.0:
            step *= 1.0 / smax
        x = x + step
        if np.max(np.abs(x)) > 8.0:
            return "left_region", None, best
    return "max_iter", None, best


_NEWTON_CASES = {
    "six-L6-n1": ("six", 6, 1), "six-L6-n2": ("six", 6, 2),
    "six-L6-n3": ("six", 6, 3), "six-L10-n2": ("six", 10, 2),
    "six-L14-n2": ("six", 14, 2), "spin1-L3-n1": (3, 3, 1),
    "spin1-L3-n2": (3, 3, 2), "spin32-L3-n2": (4, 3, 2),
}


@pytest.mark.parametrize("case", list(_NEWTON_CASES))
def test_lockstep_newton_is_bitwise_one_seed_newton(case):
    family, L, n = _NEWTON_CASES[case]
    if family == "six":
        ctx = C.ChainContext(W.six_vertex(ETA), L, _ladder(L))
    else:
        ctx = C.ChainContext(W.higher_spin_xxz(family, ETA), L, MUS3)
    seeds = B._default_seeds(ctx, n, 50, 42)
    outcomes, iterates, best = B._lockstep_newton(ctx, seeds, 1e-12, 60)
    for s, seed in enumerate(seeds):
        outcome, roots, reached = _scalar_newton(ctx, seed, 1e-12, 60)
        assert outcomes[s] == outcome, s
        if roots is not None:
            assert iterates[s].tobytes() == np.array(roots).tobytes(), s
        if outcome != "singular_jacobian":
            assert best[s] == reached, s
    assert "converged" in outcomes


# ----------------------------------------------------------------------
# solver options and seed outcomes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n, kwargs", [
    (2, {"seeds": [(0.3 - 1.4j,), (0.1 + 0.2j, 0.4 - 0.3j, -0.5 + 0.1j)]}),
    (1, {"seeds": [(0.3 - 1.4j, 0.2)]}),
    (2, {"seeds": []}),
    (2, {"n_seeds": 0}),
    (2, {"max_iter": 0}),
], ids=["short-and-long-seeds", "long-seed", "no-seeds", "n-seeds",
        "max-iter"])
def test_solver_rejects_bad_seeds_and_counts(six, n, kwargs, monkeypatch):
    def never(*args):
        raise AssertionError("a Newton step ran")

    monkeypatch.setattr(B, "_lockstep_newton", never, raising=False)
    with pytest.raises(InvalidOption):
        B.solve_bae(C.ChainContext(six, 4), n, **kwargs)


def test_seed_outcomes_account_for_every_seed(six):
    ctx = C.ChainContext(six, 6, _ladder(6))
    got = B.solve_sector(ctx, 2, n_seeds=50)
    assert tuple(got.outcomes) == B.SEED_OUTCOMES
    assert sum(got.outcomes.values()) == 50
    assert got.outcomes["converged"] == len(got.states) > 0
    assert got.states == B.solve_bae(ctx, 2, n_seeds=50)
    assert got.outcomes["duplicate"] > 0
    none = B.solve_sector(ctx, 1, seeds=[(2.9 + 1.4j,)], max_iter=3)
    assert none.states == [] and none.outcomes["max_iter"] == 1
    assert 0 < none.best_residual < np.inf


# ----------------------------------------------------------------------
# seed batches
# ----------------------------------------------------------------------

def _solved(got):
    roots = np.array([rs.roots for rs in got.states], dtype=complex)
    return roots.tobytes(), got.outcomes, got.best_residual


@pytest.mark.parametrize("family, L", [("six", 10), (3, 3)],
                         ids=["six-L10", "spin1-L3"])
def test_seed_batches_do_not_change_the_solve(family, L, monkeypatch):
    if family == "six":
        ctx = C.ChainContext(W.six_vertex(ETA), L, _ladder(L))
    else:
        ctx = C.ChainContext(W.higher_spin_xxz(family, ETA), L, MUS3)
    sizes = []
    newton = B._lockstep_newton

    def counted(ctx, seeds, tol, max_iter):
        sizes.append(len(seeds))
        return newton(ctx, seeds, tol, max_iter)

    monkeypatch.setattr(B, "_lockstep_newton", counted)
    whole = B.solve_sector(ctx, 2, n_seeds=60)
    assert sizes == [60]  # the default budget: one batch
    monkeypatch.setattr(B, "_NEWTON_CELLS", 10_000)
    sizes.clear()
    batched = B.solve_sector(ctx, 2, n_seeds=60)
    assert len(sizes) > 6 and sum(sizes) == 60
    assert _solved(batched) == _solved(whole)
    assert whole.states and whole.outcomes["max_iter"] < 60


def test_solver_memory_is_bounded_whatever_the_seed_count(six):
    ctx = C.ChainContext(six, 14, _ladder(14))
    tracemalloc.start()
    try:
        got = B.solve_sector(ctx, 2, n_seeds=2000, max_iter=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(got.outcomes.values()) == 2000
    # one iterate over all 2000 seeds at once peaked at 36.3 MiB, about
    # 18 KiB a seed; batches of 582 seeds read 11.6 MiB
    assert peak < 16 * 2 ** 20
