import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from u1bethe import weights as W
from u1bethe.errors import ParameterDomain, UnknownGridPoint

from conftest import ETA, count_builds, points, rng_for, solve_intertwiner


def test_ice_rule_structural(six):
    w = six.eval_r(0.3, 0.1)
    assert w.entry(1, 2, 2, 1) != 0          # ice-allowed entry present
    assert w.entry(1, 1, 1, 2) == 0          # a+b != c+d reads as exact zero
    assert W.check_ice_rule(w.dense()) == []


def test_ice_rule_full_enumeration(spin1):
    # oracle: walk all N^4 index combinations on the dense array
    rng = rng_for("ice")
    lam, mu = points(spin1, rng, 2)
    dense = spin1.eval_r(lam, mu).dense()
    N = spin1.N
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            for c in range(1, N + 1):
                for d in range(1, N + 1):
                    v = dense[(a - 1) * N + b - 1, (c - 1) * N + d - 1]
                    if a + b != c + d:
                        assert v == 0


def test_ice_rule_injected_violation(six):
    arr = six.eval_r(0.3, 0.1).dense().copy()
    arr[0, 1] = 0.25                         # (1,1)->(1,2)
    assert W.check_ice_rule(arr) == [(1, 1, 1, 2, 0.25)]
    with pytest.raises(ParameterDomain, match="non-ice"):
        W.WeightMatrix.from_dense(2, arr)


def test_permutation_model_checks():
    perm = W.permutation_model(3)
    assert W.check_yang_baxter(perm, 0.1, 0.5, -0.3) == 0.0
    assert W.check_unitarity(perm, 0.1, 0.5) == 0.0
    assert W.check_regularity(perm, 0.1) == 0.0
    assert perm.eval_r(0.0, 0.0).entry(1, 1, 1, 1) == 1.0


@pytest.mark.parametrize("fixture", ["six", "spin1", "spin32"])
def test_builtin_gates(fixture, request):
    # acceptance gate for every built-in family: YBE and unitarity < 1e-10
    model = request.getfixturevalue(fixture)
    rng = rng_for("gates", model.N)
    for _ in range(15):
        l1, l2, l3 = points(model, rng, 3)
        assert W.check_yang_baxter(model, l1, l2, l3) < 1e-10
        assert W.check_unitarity(model, l1, l2) < 1e-10


def test_regularity(six, spin1):
    assert W.check_regularity(six, 0.21 - 0.13j) < 1e-12
    assert W.check_regularity(spin1, 0.21 - 0.13j) < 1e-12


def test_six_vertex_at_coincident_is_permutation(six):
    w = six.eval_r(0.37 + 0.11j, 0.37 + 0.11j)
    perm = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            perm[a * 2 + b, b * 2 + a] = 1.0
    assert np.max(np.abs(w.dense() - perm)) < 1e-12


def _refusal(evaluate, *args):
    with pytest.raises(ParameterDomain) as err:
        evaluate(*args)
    return str(err.value)


def _mask_is_eval_r(model, lams, mus):
    """array_fn's mask is where eval_r raises, its refused rows are nan and
    its other rows eval_r's values, to the bit; returns the mask."""
    values, refused = model.array_fn(lams, mus)
    for s, (lam, mu) in enumerate(zip(lams, mus)):
        try:
            want = model.eval_r(lam, mu).values
        except (ParameterDomain, UnknownGridPoint):
            assert refused[s] and np.isnan(values[s]).all(), s
        else:
            assert not refused[s] and values[s].tobytes() == want.tobytes(), s
    return refused


def _refused_alike(model, u):
    """Between two good points, the array evaluator marks u = lam - mu and
    nothing else; returns the ParameterDomain that eval_r raises at u."""
    us = np.array([0.11 + 0.07j, u, 0.23 - 0.31j])
    assert _mask_is_eval_r(model, us, np.zeros(3)).tolist() == [
        False, True, False]
    return _refusal(model.eval_r, u, 0.0)


def test_six_vertex_pole_raises(six):
    # the pole u = -eta (mod i pi), and sinh overflowing at Re u = 800
    for u in (-ETA, -ETA + 1j * np.pi):
        assert "pole" in _refused_alike(six, u)
    for u in (800.0 + 0.3j, -800.0):
        assert "overflow" in _refused_alike(six, u)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_array_evaluator_is_bitwise_eval_r(N):
    # the array evaluator behind the Newton residual against eval_r, to
    # the bit, on both signs of Re u, out to |Re u| = 8
    rng = rng_for("array", N)
    re = rng.uniform(0, 8, 200) * np.where(np.arange(200) % 2, 1, -1)
    us = re + 1j * rng.uniform(-np.pi, np.pi, 200)
    for eta in (ETA, 1.5, 0.3 + 0.2j):
        model = W.higher_spin_xxz(N, eta)
        want = np.array([model.eval_r(complex(u), 0.0).values for u in us])
        values, refused = model.array_fn(us)
        assert values.tobytes() == want.tobytes()
        assert not refused.any()


def test_array_mask_of_a_refusing_callback(six):
    # a custom model evaluates point by point; its callback's refusals
    # are marked, and its other points keep their bits
    def weights(lam, mu):
        if lam.real > 0.5:
            raise ParameterDomain(f"no weights at lam = {lam}")
        return six.eval_r(lam, mu)

    model = W.custom_model(2, weights)
    lams = np.array([0.1, 0.7 + 0.2j, -0.3j, 0.9])
    refused = _mask_is_eval_r(model, lams, np.full(4, 0.05 + 0.02j))
    assert refused.tolist() == [False, True, False, True]


def test_array_mask_of_a_table_model(six):
    grid = [(0.1 + 0.2j, 0j), (-0.3 + 0j, 0.05 + 0.02j)]
    model = W.table_model([(lam, mu, six.eval_r(lam, mu)) for lam, mu in grid])
    lams = np.array([0.1 + 0.2j, 0.2, -0.3])
    mus = np.array([0, 0, 0.05 + 0.02j])
    assert _mask_is_eval_r(model, lams, mus).tolist() == [False, True, False]
    with pytest.raises(UnknownGridPoint):
        model.eval_r(0.2, 0)


def test_array_mask_of_non_finite_points(six, spin1):
    # a lam or mu that is not finite is refused on every route, with no
    # warning (the suite turns those into errors)
    nan, inf = complex("nan"), float("inf")
    lams = np.array([0.1, nan, inf, 0.2, inf, complex(0.3, inf), -inf])
    mus = np.array([0, 0, 0, nan, inf, 0, 0.05 + 0.02j])
    table = W.table_model([(0.1 + 0j, 0j, six.eval_r(0.1, 0))])
    custom = W.custom_model(3, spin1.eval_r)
    for model in (six, spin1, table, custom):
        assert _mask_is_eval_r(model, lams, mus).tolist() == [False] + [
            True] * 6, model
        assert "finite" in _refusal(model.eval_r, nan, 0)


def test_higher_spin_reduces_to_six_vertex(six):
    m2 = W.higher_spin_xxz(2, ETA)
    got = m2.eval_r(0.31, -0.12)
    want = six.eval_r(0.31, -0.12)
    assert np.max(np.abs(got.dense() - want.dense())) == 0.0


def test_perturbed_weights_break_ybe(six):
    def broken(lam, mu):
        arr = six.eval_r(lam, mu).dense().copy()
        arr[1, 2] += 1e-3                    # (1,2)->(2,1)
        return W.WeightMatrix.from_dense(2, arr)

    model = W.custom_model(2, broken)
    assert W.check_yang_baxter(model, 0.3, -0.2, 0.45) > 1e-6


def test_unnormalized_unitarity_residual(six):
    # scaling the weights by rho(lam, mu) makes the unitarity residual
    # exactly |rho(l,m) rho(m,l) - 1|, read off the (1,1;1,1) entry
    def rho(lam, mu):
        return np.sinh(lam - mu + ETA)

    def unnorm(lam, mu):
        w = six.eval_r(lam, mu)
        return {key: rho(lam, mu) * val
                for *key, val in w.items() for key in [tuple(key)]}

    model = W.custom_model(2, unnorm)
    lam, mu = 0.4 + 0.2j, -0.3 + 0.1j
    got = W.check_unitarity(model, lam, mu)
    want = abs(rho(lam, mu) * rho(mu, lam) - 1.0)
    assert abs(got - want) < 1e-12 * max(1.0, want)


def test_table_model_round_trip(six, tmp_path):
    lam, mu = 0.3, 0.1
    rec = [(complex(lam), complex(mu), six.eval_r(lam, mu)),
           (complex(mu), complex(lam), six.eval_r(mu, lam)),
           (complex(lam), complex(lam), six.eval_r(lam, lam))]
    model = W.table_model(rec)
    got = model.eval_r(complex(lam), complex(mu))
    assert got is rec[0][2]
    with pytest.raises(UnknownGridPoint):
        model.eval_r(0.9, 0.1)
    # regularity needs a stored coincident point
    with pytest.raises(UnknownGridPoint):
        W.check_regularity(W.table_model(rec[:2]), complex(lam))
    # file round trip preserves every entry bit-for-bit in 17 digits
    path = tmp_path / "weights.tab"
    W.write_table_file(path, rec)
    loaded = W.load_table_file(path)
    for lam_, mu_, w in rec:
        w2 = loaded.eval_r(lam_, mu_)
        for a, b, c, d, v in w.items():
            assert abs(w2.entry(a, b, c, d) - v) < 1e-15 * max(1.0, abs(v))


def test_charge_block_reads(spin1):
    rng = rng_for("blocks")
    lam, mu = points(spin1, rng, 2)
    w = spin1.eval_r(lam, mu)
    blk1 = W.charge_block(w, 1, 1)
    assert blk1.shape == (1, 1) and blk1[0, 0] == w.entry(1, 1, 1, 1)
    blk2 = W.charge_block(w, 1, 2)
    assert blk2[0, 0] == w.entry(2, 1, 1, 2)
    assert blk2[0, 1] == w.entry(2, 1, 2, 1)
    assert blk2[1, 0] == w.entry(1, 2, 1, 2)
    # j = 2 at q1 = N coincides with the j = 1 reading of the same block
    assert np.max(np.abs(W.charge_block(w, 2, spin1.N)
                         - W.charge_block(w, 1, spin1.N))) == 0.0


def test_block_round_trip(spin32):
    rng = rng_for("roundtrip")
    lam, mu = points(spin32, rng, 2)
    w = spin32.eval_r(lam, mu)
    N = spin32.N
    entries = {}
    for q1 in range(1, N + 1):
        blk = W.charge_block(w, 1, q1)
        for b in range(1, q1 + 1):
            for c in range(1, q1 + 1):
                entries[q1 + 1 - b, b, c, q1 + 1 - c] = blk[b - 1, c - 1]
    for q1 in range(1, N):
        blk = W.charge_block(w, 2, q1)
        for b in range(1, q1 + 1):
            for c in range(1, q1 + 1):
                entries[N + 1 - b, N - q1 + b,
                        N - q1 + c, N + 1 - c] = blk[b - 1, c - 1]
    rebuilt = W.WeightMatrix.from_entries(N, entries)
    assert np.max(np.abs(rebuilt.dense() - w.dense())) == 0.0


def test_eval_cache_is_exact(spin1):
    w1 = spin1.eval_r(0.37 + 0.21j, -0.11)
    w2 = spin1.eval_r(0.37 + 0.21j, -0.11)
    assert w1 is w2


# ----------------------------------------------------------------------
# the fused rational kernel of higher_spin_xxz
# ----------------------------------------------------------------------

# both signs of a zero real part: -0.0 == 0.0, so the kernel is built
# directly here, not taken from the models' shared one
GRID_ETAS = (ETA, -ETA, 0.3 + 0.2j, 0.9, 1.5, 1.3j, -1.3j,
             complex(-0.0, 1.3), complex(-0.0, -1.3), 2.5j, -0.3 + 1.1j)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_fit_agrees_with_solve(N):
    # the fused weights against the independent intertwiner solve, at
    # fresh points out to the |Re u| = 8 that Newton iterates reach; every
    # point the weights evaluate at, those where the solve refuses too,
    # satisfies the relation
    rng = rng_for("fit", N)
    checked = 0
    for eta in GRID_ETAS:
        kernel = W.RationalKernel(N, eta)
        for _ in range(12):
            u = complex(rng.uniform(-8, 8), rng.uniform(-np.pi, np.pi))
            try:
                residual, = kernel.relation_residuals([u])
            except ParameterDomain:  # evaluate's pole guard
                continue
            assert residual <= 1e-13, (eta, u)
            solved = solve_intertwiner(N, eta, u)
            if solved is None:
                continue
            assert W.relative_residual(kernel.evaluate(u).values,
                                       solved) <= 1e-12, (eta, u)
            checked += 1
    assert checked >= 6 * len(GRID_ETAS)


def _relation_residuals_per_point(kernel, us):
    """`relation_residuals` one u at a time, with np.kron embeddings."""
    N, dim = kernel.N, 2 * kernel.N * kernel.N
    eye_n = np.eye(N)
    out = []
    for u in us:
        x = W._RELATION_OFFSET - u.real / 2
        lax12, lax13 = W._fundamental_lax(N, kernel.eta, np.array([x, x + u]))
        l12 = np.kron(lax12, eye_n)
        l13 = np.einsum("ajbq,ip->aijbpq", lax13.reshape(2, N, 2, N),
                        eye_n).reshape(dim, dim)
        r = np.kron(np.eye(2), kernel.evaluate(u).dense())
        out.append(W.relative_residual(l12 @ l13 @ r, r @ l13 @ l12))
    return out


@pytest.mark.parametrize("eta", [ETA, 1.5, 0.3 + 0.2j])
@pytest.mark.parametrize("N", range(3, 10))
def test_relation_residuals_are_bitwise_per_point(N, eta):
    rng = rng_for(f"relation {eta}", N)
    kernel = W.RationalKernel(N, eta)
    us = [0j] + [complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
                 for _ in range(49)]
    assert kernel.relation_residuals(us) == _relation_residuals_per_point(
        kernel, us)
    assert kernel.relation_residuals([]) == []


@pytest.mark.parametrize("u", [complex("inf"), 1e308, complex("nan"),
                               720.0, -720.0 + 0.3j],
                         ids=["inf", "1e308", "nan", "720", "-720"])
def test_relation_refuses_u_out_of_range(u):
    # refused before any warning: a u that is not finite, as eval_r
    # refuses it, and one where the Lax factors or their products overflow
    kernel = W.RationalKernel(3, ETA)
    with pytest.raises(ParameterDomain, match="finite" if not np.isfinite(u)
                       else "overflow"):
        kernel.relation_residuals([0.3 + 0.1j, u])
    assert kernel.relation_residuals([700.0])[0] <= 1e-13


@pytest.mark.parametrize("u", [1e308j, 3 + 1e17j, 3 + 2.0 ** 51 * 1j,
                               -2.0 ** 51 * 1j],
                         ids=["1e308j", "3+1e17j", "2^51", "-2^51"])
def test_relation_refuses_arguments_that_cannot_carry_eta(u):
    # at N = 3, eta = 0.4375 the largest Lax argument reaches 2^51, where
    # doubles are 0.5 > eta apart; the relation read 0.15 at 1e308j and
    # 0.012 at 3 + 1e17j
    kernel = W.RationalKernel(3, ETA)
    with pytest.raises(ParameterDomain, match="carry eta"):
        kernel.relation_residuals([0.3 + 0.1j, u])


@pytest.mark.parametrize("u", [3 + (2.0 ** 51 - 2) * 1j, 3 + 2.0 ** 50 * 1j,
                               3 + 1e8j])
def test_relation_evaluates_where_arguments_carry_eta(u):
    # doubles 0.25 apart or closer: the residual comes back, finite
    residual, = W.RationalKernel(3, ETA).relation_residuals([u])
    assert np.isfinite(residual)


def test_relation_holds_where_the_solve_refuses():
    # a pair that check-r samples on N = 6, eta = 1.5 (default options),
    # where the intertwiner solve finds no one-dimensional nullspace
    u = 2.1964474502957363 + 1.3904338376944716j
    assert solve_intertwiner(6, 1.5, u) is None
    residual, = W.RationalKernel(6, 1.5).relation_residuals([u])
    assert residual <= 1e-13


@pytest.mark.parametrize("N, eta, u", [
    (5, 1.5, -5.378502199058394 - 2.6397182504092553j),
    (5, 1.5, -6.100646531977139 + 1.5514051451462931j),
    (6, 0.9, -5.568234536156673 - 2.388162494079045j),
    (6, 0.9, -7.387643887933141 + 1.3765184207768j),
    (6, 0.9, -6.330985516553946 - 1.3947266055059098j),
    (6, 1.5, -5.710169012873939 - 2.5218810477744484j),
    (6, 1.5, -6.3020345893925835 + 2.0908490321531357j),
    (6, 1.5, -3.287331340279408 - 0.4303296639559693j),
])
def test_large_weights_are_not_poles(N, eta, u):
    # grid points of test_fit_agrees_with_solve 0.5-3.2 away from every
    # zero of Q, where the weights span more than 1e9 (and the solve
    # refuses): they evaluate, and satisfy the relation
    residual, = W.RationalKernel(N, eta).relation_residuals([u])
    assert residual <= 1e-13


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_fused_q_is_the_closed_form(N):
    # up to a constant, Q = prod_{j=1}^{N-1} 2 sinh(u + j eta), whose zeros
    # u = -j eta (mod i pi) are the fusion poles of the spin-s weights
    for eta in (ETA, 0.3 + 0.2j, 1.5, -1.3j):
        q = np.ones(1)
        for j in range(1, N):  # 2 sinh(u + j eta) = e^{j eta} z - e^{-j eta} / z
            q = np.convolve(q, [-np.exp(-j * eta), 0, np.exp(j * eta)])
        fused = W.RationalKernel(N, eta)._coef[0]
        top = np.argmax(np.abs(q))
        assert W.relative_residual(fused / fused[top], q / q[top]) <= 1e-13


@pytest.mark.parametrize("N", [4, 5])
def test_yang_baxter_at_large_real_eta(N):
    # a large real eta, where the intertwiner solve refuses points far
    # from the origin and so cannot vouch for every weight
    model = W.higher_spin_xxz(N, 1.5)
    rng = rng_for("ybe-eta-1.5", N)
    assert max(W.check_yang_baxter(model, *points(model, rng, 3))
               for _ in range(30)) <= 1e-10


def test_fused_coefficients_do_not_depend_on_blas_threads():
    code = ("import hashlib; from u1bethe import weights as W; print("
            "hashlib.sha256(b''.join(W._fused_coefficients(N, 0.4375)"
            ".tobytes() for N in (4, 5, 6))).hexdigest())")
    src = str(Path(W.__file__).parents[1])
    digests = [subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                             PYTHONPATH=src)).stdout
        for threads in ("1", "2")]
    assert digests[0] == digests[1] != ""


def test_large_n_refused_before_any_allocation(monkeypatch):
    builds = count_builds(monkeypatch)
    W.higher_spin_xxz(9, ETA)        # accepted: fused
    assert builds == [(9, ETA)]
    tracemalloc.start()
    try:
        for N in (10, 20):
            with pytest.raises(ParameterDomain, match=r"N = 2\.\.9"):
                W.higher_spin_xxz(N, ETA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert builds == [(9, ETA)]


def test_models_of_one_n_and_eta_share_one_fit(monkeypatch):
    builds = count_builds(monkeypatch)
    a, b = W.higher_spin_xxz(4, ETA), W.higher_spin_xxz(4, ETA)
    assert a.kernel is b.kernel
    a.eval_r(0.2, 0.1)
    b.eval_r(0.7, -0.4j)
    assert builds == [(4, ETA)]
    others = [W.higher_spin_xxz(4, ETA + 0.1), W.higher_spin_xxz(3, ETA)]
    assert all(m.kernel is not a.kernel for m in others)
    assert builds == [(4, ETA), (4, ETA + 0.1), (3, ETA)]


def test_weights_depend_on_the_value_of_eta_only():
    # -0.0 == 0.0: a zero part of eta of either sign gives the same
    # weights, though it picks the branch of a root of a negative product
    etas = complex(0.0, -1.3), complex(-0.0, -1.3)
    for N in (3, 4, 5):
        kernels = [W.higher_spin_xxz(N, eta).kernel for eta in etas]
        assert kernels[0] is kernels[1]
        a, b = (W.RationalKernel(N, eta)._coef for eta in etas)
        assert a.tobytes() == b.tobytes()


def test_shared_kernels_are_bounded():
    size = W._shared_kernel.cache_info().maxsize
    for k in range(size + 5):
        W.higher_spin_xxz(3, ETA + 0.01 * k)
    assert W._shared_kernel.cache_info().currsize == size
    first = W.higher_spin_xxz(3, ETA).kernel          # evicted: a new one
    assert W._shared_kernel.cache_info().misses == size + 6
    assert first is W.higher_spin_xxz(3, ETA).kernel


def test_pole_of_q_raises():
    # Q = prod_j 2 sinh(u + j eta) vanishes at the fusion poles
    # u = -j eta and -j eta + i pi, j = 1..N-1; at eta = -ETA they lie at
    # Re u > 0, where the kernel evaluates in powers of e^-u
    for N in (3, 4, 5, 6):
        for eta in (ETA, -ETA, 0.3 + 0.2j, 0.9, 1.5):
            model = W.higher_spin_xxz(N, eta)
            for j in range(1, N):
                for u in (-j * eta, -j * eta + 1j * np.pi):
                    assert "pole" in _refused_alike(model, u)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_array_of_two_poles_marks_both(N):
    # the poles u = ETA and 2 ETA of eta = -ETA (Re u > 0), between good
    # points: the array evaluator marks both and nothing else
    model = W.higher_spin_xxz(N, -ETA)
    us = np.array([0.11 + 0.07j, ETA, 0.23 - 0.31j, 2 * ETA, -0.4])
    refused = _mask_is_eval_r(model, us, np.zeros(5))
    assert refused.tolist() == [False, True, False, True, False]
    assert "pole" in _refusal(model.eval_r, 2 * ETA, 0.0)


def _spectral_frame(r_dense, N, u):
    """M(u) = P (I (x) D(u)) R(u) (I (x) D(u))^-1, D(u) = diag(e^{u h}),
    h = state - 1, P the swap: these commute at different u."""
    h = np.arange(N)
    conj = np.exp(u * (h[:, None] - h[None, :]))     # D(u)_b / D(u)_d
    r = r_dense.reshape(N, N, N, N) * conj[None, :, None, :]
    return W._dense_permutation(N) @ r.reshape(N * N, N * N)


@pytest.mark.parametrize("N", [3, 4])
def test_spectral_decomposition_oracle(N):
    # M(u) = sum_j rho_j(u) Pi_j, with rho_j(u) = prod_{k=j+1}^{N-1}
    # sinh(k eta - u) / sinh(k eta + u) and constant projectors Pi_j of
    # rank 2j + 1, built from one solve at u0 as Lagrange products; the
    # fused weights are checked against it, with no fusion code involved.
    # At N >= 5 the sum cancels (4e-10 at N = 5), so N stops at 4.
    model = W.higher_spin_xxz(N, ETA)
    eta = model.params["eta"]

    def rho(u):
        return [np.prod([np.sinh(k * eta - u) / np.sinh(k * eta + u)
                         for k in range(j + 1, N)]) for j in range(N)]

    u0 = 0.9 - 0.4j
    solved = W.WeightMatrix(N, solve_intertwiner(N, eta, u0))
    m0, r0, eye = _spectral_frame(solved.dense(), N, u0), rho(u0), np.eye(N * N)
    projs = []
    for j in range(N):
        proj = eye
        for i in range(N):
            if i != j:
                proj = proj @ (m0 - r0[i] * eye) / (r0[j] - r0[i])
        assert abs(np.trace(proj) - (2 * j + 1)) < 1e-10
        projs.append(proj)
    for u in (2.5 + 1.0j, 0.3 + 0.2j, -0.6 + 0.5j, -1.3 + 0.2j, 0.05 + 0.01j):
        want = _spectral_frame(model.eval_r(u, 0.0).dense(), N, u)
        got = sum(c * proj for c, proj in zip(rho(u), projs))
        assert W.relative_residual(got, want) <= 1e-12


@pytest.mark.parametrize("family, eta", [
    (family, eta)
    for family in (W.six_vertex, lambda eta: W.higher_spin_xxz(3, eta))
    for eta in (0.0, 1j * np.pi, -2j * np.pi, 3e-13)] + [
    (lambda eta: W.higher_spin_xxz(3, eta), 1j * np.pi / 2),
    (lambda eta: W.higher_spin_xxz(4, eta), 1j * np.pi / 3),
    (lambda eta: W.higher_spin_xxz(5, eta), 1j * np.pi / 4)])
def test_degenerate_anisotropy_rejected(family, eta):
    # sinh(eta) = 0 zeroes the q-brackets and the six-vertex c weight;
    # sinh(k eta) = 0 for some k = 2..N-1 zeroes a root of S^+
    with pytest.raises(ParameterDomain, match="anisotropy"):
        family(eta)


def test_anisotropy_with_an_overflowing_multiple_rejected():
    # sinh(eta) is finite, but 2 eta is not, so [2]_q cannot be formed
    # (a config eta that the front-end fuzz test found)
    with pytest.raises(ParameterDomain, match="too large"):
        W.higher_spin_xxz(3, 1 + 8.98846567431158e307j)


def test_cache_stays_within_byte_budget():
    N = 4
    model = W.custom_model(N, lambda lam, mu: {(1, 1, 1, 1): lam - mu})
    cap = model._memo.cache_parameters()["maxsize"]
    assert cap == min(4096, 2 ** 21 // W.ice_entry_count(N))
    for k in range(cap + 25):
        model.eval_r(k * 1e-3, 0.0).dense()
        if k == cap - 1:  # full: the most the memo ever holds
            assert model._memo.cache_info().currsize == cap
            assert cap * 16 * W.ice_entry_count(N) <= 32 * 2 ** 20
    # an LRU evicts one point per miss once full; it is never cleared
    assert model._memo.cache_info().currsize == cap
    assert model._memo.cache_info().misses == cap + 25


def _full_memo_bytes(model):
    """Traced bytes held by `model`'s memo once it is full."""
    cap = model._memo.cache_parameters()["maxsize"]
    model.eval_r(0.5, 0.25).dense()
    model._memo.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for k in range(cap):
            model.eval_r(complex(k * 1e-4, 0.3), 0.1).dense()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert model._memo.cache_info().currsize == cap
    return cap, held


def test_full_cache_memory_stays_within_byte_budget():
    # measured, not charged: 32 MiB of entry values, plus at most 512 B per
    # entry for the object and array headers, the key and the LRU link
    cap, held = _full_memo_bytes(W.six_vertex(ETA))
    assert cap > 1461  # above the largest reuse distance of a benchmark unit
    assert held <= 32 * 2 ** 20 + 512 * cap
    # at N = 16, 2^21 // K binds below 4096 entries: values fill the budget
    cap, held = _full_memo_bytes(
        W.custom_model(16, lambda lam, mu: {(1, 1, 1, 1): lam - mu}))
    assert cap < 4096
    assert held <= 32 * 2 ** 20 + 512 * cap


def test_weight_memo_is_bounded_and_exact_after_eviction():
    # an LRU of at most 4096 evaluations and 32 MiB of entry values
    for N in range(2, 31):
        model = W.custom_model(N, lambda lam, mu: {(1, 1, 1, 1): lam - mu})
        size = model._memo.cache_parameters()["maxsize"]
        assert 0 < size <= 4096
        assert size * 16 * W.ice_entry_count(N) <= 32 * 2 ** 20
    calls = []

    def weights(lam, mu):
        calls.append(lam)
        return {(1, 1, 1, 1): np.exp(lam) * np.sin(mu)}

    model = W.custom_model(30, weights)  # the loop's last N: `size` points
    first = model.eval_r(0.1 + 0.2j, 0.3).entry(1, 1, 1, 1)
    for k in range(size - 1):
        model.eval_r(complex(k, 1.0), 0.3)
    model.eval_r(0.1 + 0.2j, 0.3)  # a hit makes it the newest point
    model.eval_r(-1.0, 0.3)        # evicts the oldest, complex(0, 1)
    assert len(calls) == size + 1
    model.eval_r(0.1 + 0.2j, 0.3)
    for k in range(size):
        model.eval_r(complex(k, 2.0), 0.3)
    again = model.eval_r(0.1 + 0.2j, 0.3).entry(1, 1, 1, 1)
    assert len(calls) == 2 * size + 2  # evicted and evaluated again
    assert (again.real, again.imag) == (first.real, first.imag)


DATA = Path(__file__).parent / "data"


def test_table_file_text_is_stable(tmp_path):
    six = W.six_vertex(ETA)
    pts = [(0.3 + 0j, 0.1 + 0j), (0.25 - 0.4j, -0.6 + 0.15j), (0.7j, 0.7j)]
    path = tmp_path / "six.tab"
    W.write_table_file(path, [(l, m, six.eval_r(l, m)) for l, m in pts])
    assert path.read_text() == (DATA / "six_vertex.tab").read_text()
    # values that encode their own keys pin the N = 3 entry order
    coded = W.custom_model(3, lambda l, m: {
        (a, b, c, d): complex(1000 * a + 100 * b + 10 * c + d, -(l - m).real)
        for a in range(1, 4) for b in range(1, 4) for c in range(1, 4)
        for d in range(1, 4) if a + b == c + d})
    path = tmp_path / "coded.tab"
    W.write_table_file(path, [(0.5 + 0j, 0.25 + 0j, coded.eval_r(0.5, 0.25))])
    assert path.read_text() == (DATA / "key_coded_n3.tab").read_text()
