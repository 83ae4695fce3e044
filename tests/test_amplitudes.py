import numpy as np
import pytest

from u1bethe import amplitudes as A
from u1bethe import weights as W
from u1bethe.errors import IndexOutOfRange, Singularity

from conftest import points, rng_for


# ----------------------------------------------------------------------
# exchange function and projector
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fixture", ["six", "spin1"])
def test_theta_inverse_property(fixture, request):
    model = request.getfixturevalue(fixture)
    rng = rng_for("theta", model.N)
    for _ in range(100):
        lam, mu = points(model, rng, 2)
        assert abs(A.theta(model, lam, mu) * A.theta(model, mu, lam) - 1) < 1e-12


def test_theta_coincident(six, spin1):
    # N = 2: the limit form is exact at coincident points
    assert abs(A.theta(six, 0.31, 0.31) - 1.0) < 1e-14
    # N >= 3: 0/0 at exact coincidence (guarded), limit 1 nearby
    with pytest.raises(Singularity):
        A.theta(spin1, 0.31, 0.31)
    assert abs(A.theta(spin1, 0.31, 0.31 + 1e-7) - 1.0) < 1e-5


def test_theta_n2_limit_form(six):
    lam, mu = 0.45 + 0.2j, -0.3 + 0.1j
    w = six.eval_r(lam, mu)
    assert A.theta(six, lam, mu) == w.entry(2, 2, 2, 2) / w.entry(1, 1, 1, 1)


def test_theta_less_branches(spin1):
    rng = rng_for("thl")
    li, lj = points(spin1, rng, 2)
    assert A.theta_less(spin1, li, lj, 2, 2) == 1.0
    assert A.theta_less(spin1, li, lj, 3, 1) == 1.0
    assert A.theta_less(spin1, li, lj, 1, 2) == A.theta(spin1, li, lj)
    lhs = A.theta_less(spin1, li, lj, 1, 2) * A.theta_less(spin1, lj, li, 2, 1)
    assert abs(lhs - A.theta(spin1, li, lj)) < 1e-14 * abs(lhs)


# ----------------------------------------------------------------------
# guarded determinants and the determinant families
# ----------------------------------------------------------------------

def test_det_guarded_matches_numpy():
    rng = rng_for("det")
    for n in (1, 2, 3, 4):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert abs(A.det_guarded(m) - np.linalg.det(m)) < 1e-12 * max(
            1.0, abs(np.linalg.det(m)))
    assert A.det_guarded(np.zeros((0, 0))) == 1.0


def test_det_guarded_singular_raises():
    m = np.array([[1.0, 2.0], [0.5, 1.0]])
    with pytest.raises(Singularity):
        A.det_guarded(m)


def test_d2_exchange_identities(spin1):
    rng = rng_for("d2")
    lam, mu = points(spin1, rng, 2)
    wlm, wml = spin1.eval_r(lam, mu), spin1.eval_r(mu, lam)
    lhs = A.det_D2(spin1, 2, 0, lam, mu) * A.det_D2(spin1, 2, 0, mu, lam)
    rhs = (wlm.entry(1, 1, 1, 1) / wlm.entry(2, 1, 2, 1)
           * wml.entry(1, 1, 1, 1) / wml.entry(2, 1, 2, 1))
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)
    lhs = A.det_D2(spin1, 2, 1, lam, mu)
    rhs = -wml.entry(3, 1, 2, 2) / wml.entry(3, 1, 3, 1) \
        * A.det_D2(spin1, 2, 0, lam, mu)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_d2_coincident_raises(spin1):
    with pytest.raises(Singularity):
        A.det_D2(spin1, 2, 0, 0.4, 0.4)


def test_d2_index_ranges(spin1):
    with pytest.raises(IndexOutOfRange):
        A.det_D2(spin1, 3, 0, 0.3, 0.1)     # a <= N - 1
    with pytest.raises(IndexOutOfRange):
        A.det_D2(spin1, 2, 2, 0.3, 0.1)     # e <= a - 1


def test_d4_degenerate_size(spin1):
    rng = rng_for("d4")
    lam, mu = points(spin1, rng, 2)
    w = spin1.eval_r(mu, lam)
    for i in (1, 2, 3):
        assert A.det_D4(spin1, i, i, lam, mu) == w.entry(i, 1, i, 1)


def test_d4_d5_ratio_identity(spin32):
    # D3/D2 equals the product of D4 ratios at every sampled pair
    rng = rng_for("d4d5")
    for _ in range(10):
        lam, mu = points(spin32, rng, 2)
        lhs = A.det_D3(spin32, 2, 0, lam, mu) / A.det_D2(spin32, 2, 0, lam, mu)
        rhs = (A.det_D4(spin32, 3, 2, lam, mu) / A.det_D4(spin32, 3, 3, lam, mu)
               * A.det_D4(spin32, 4, 4, lam, mu) / A.det_D4(spin32, 4, 3, lam, mu))
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)
        lhs = A.det_D2(spin32, 2, 1, lam, mu) / A.det_D2(spin32, 2, 0, lam, mu)
        rhs = -A.det_D5(spin32, 3, lam, mu) / A.det_D4(spin32, 3, 3, lam, mu)
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)


def test_d4_cont_corner_is_one(spin1):
    # the continuation at b = N + 1 is the empty determinant
    assert A.det_D4_cont(spin1, spin1.N + 1, 0.4, 0.1) == 1.0


def test_continuation_ratio(spin1, spin32):
    rng = rng_for("cont")
    for model in (spin1, spin32):
        N = model.N
        for _ in range(10):
            lam, l1 = points(model, rng, 2)
            w = model.eval_r(lam, l1)
            lhs = -A.det_D5_cont(model, lam, l1) / A.det_D4_cont(model, 3, lam, l1)
            rhs = w.entry(N - 1, 3, N, 2) / w.entry(N, 2, N, 2)
            assert abs(lhs - rhs) < 1e-10 * abs(rhs)


# ----------------------------------------------------------------------
# wanted-term factors
# ----------------------------------------------------------------------

def test_p_a_branches(spin1):
    rng = rng_for("pa")
    lam, mu = points(spin1, rng, 2)
    wlm, wml = spin1.eval_r(lam, mu), spin1.eval_r(mu, lam)
    assert A.P_a(spin1, 1, lam, mu) == \
        wml.entry(1, 1, 1, 1) / wml.entry(2, 1, 2, 1)
    assert A.P_a(spin1, 3, lam, mu) == \
        wlm.entry(3, 2, 3, 2) / wlm.entry(3, 1, 3, 1)
    assert A.P_a(spin1, 2, lam, mu) == A.det_D2(spin1, 2, 0, lam, mu)


def test_theta_from_d2_and_ratio(spin1):
    rng = rng_for("thd2")
    lam, mu = points(spin1, rng, 2)
    w = spin1.eval_r(lam, mu)
    lhs = A.theta(spin1, lam, mu)
    rhs = A.det_D2(spin1, 2, 0, lam, mu) \
        * w.entry(2, 1, 2, 1) / w.entry(1, 1, 1, 1)
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


@pytest.mark.parametrize("fixture", ["spin1", "spin32"])
def test_pbar_equals_p(fixture, request):
    model = request.getfixturevalue(fixture)
    rng = rng_for("pbar", model.N)
    for _ in range(25):
        lam, l1, l2 = points(model, rng, 3)
        for a in range(1, model.N + 1):
            pb = A.Pbar_a(model, a, lam, l1, l2)
            p = A.P_a(model, a, lam, l2)
            assert abs(pb - p) < 1e-10 * max(abs(p), 1e-30)


# ----------------------------------------------------------------------
# off-shell amplitudes
# ----------------------------------------------------------------------

def test_one_particle_amplitudes(spin1):
    rng = rng_for("f1")
    lam, mu = points(spin1, rng, 2)
    w = spin1.eval_r(lam, mu)
    for a in (1, 2):
        f0 = A.F_offshell(spin1, 0, 1, a, lam, (mu,))
        f1 = A.F_offshell(spin1, 1, 1, a, lam, (mu,))
        assert f0 == w.entry(a + 1, 1, a, 2) / w.entry(a + 1, 1, a + 1, 1)
        assert f0 + f1 == 0.0


@pytest.mark.parametrize("fixture", ["spin1", "spin32"])
def test_f2_closed_vs_recursive(fixture, request):
    model = request.getfixturevalue(fixture)
    rng = rng_for("f2c", model.N)
    cache = {}
    for _ in range(50):
        lam, l1, l2 = points(model, rng, 3)
        for a in range(1, model.N - 1):
            for c in (0, 2):
                rec = A.F_offshell(model, c, 2, a, lam, (l1, l2), cache)
                clo = A.F2_closed(model, c, a, lam, l1, l2)
                assert abs(rec - clo) < 1e-10 * max(abs(clo), 1e-30)


def test_f2_exchange_symmetry(spin1, spin32):
    rng = rng_for("f2x")
    for model in (spin1, spin32):
        for _ in range(10):
            lam, l1, l2 = points(model, rng, 3)
            th = A.theta(model, l1, l2)
            for a in range(1, model.N - 1):
                for c in (0, 2):
                    lhs = A.F_offshell(model, c, 2, a, lam, (l1, l2))
                    rhs = th * A.F_offshell(model, c, 2, a, lam, (l2, l1))
                    assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1e-30)


def test_f3_exchange_symmetry(spin32):
    # both adjacent swaps, for the boundary amplitude indices c in {0, 3}
    rng = rng_for("f3x")
    cache = {}
    for _ in range(5):
        lam, l1, l2, l3 = points(spin32, rng, 4)
        for c in (0, 3):
            base = A.F_offshell(spin32, c, 3, 1, lam, (l1, l2, l3), cache)
            sw12 = A.F_offshell(spin32, c, 3, 1, lam, (l2, l1, l3), cache)
            sw23 = A.F_offshell(spin32, c, 3, 1, lam, (l1, l3, l2), cache)
            assert abs(base - A.theta(spin32, l1, l2) * sw12) \
                < 1e-10 * max(abs(base), 1e-30)
            assert abs(base - A.theta(spin32, l2, l3) * sw23) \
                < 1e-10 * max(abs(base), 1e-30)


def test_f_index_validation(spin1):
    with pytest.raises(IndexOutOfRange):
        A.F_offshell(spin1, 0, 3, 1, 0.3, (0.1, 0.2, 0.5))   # b <= N - 1
    with pytest.raises(IndexOutOfRange):
        A.F_offshell(spin1, 3, 2, 1, 0.3, (0.1, 0.2))        # c <= b
    with pytest.raises(IndexOutOfRange):
        A.F_offshell(spin1, 0, 2, 2, 0.3, (0.1, 0.2))        # a <= N - b
    with pytest.raises(Singularity):
        A.F_offshell(spin1, 0, 2, 1, 0.3, (0.1, 0.1 + 1e-12))


def test_f_cache_bit_identical(spin1):
    cache = {}
    args = (0, 2, 1, 0.31 + 0.12j, (0.4 - 0.2j, -0.15 + 0.33j))
    v1 = A.F_offshell(spin1, *args, cache)
    v2 = A.F_offshell(spin1, *args, cache)
    assert v1 == v2 and len(cache) > 0
    fresh = A.F_offshell(spin1, *args, {})
    assert fresh == v1


@pytest.mark.parametrize("c", [0, 3])
def test_f_without_cache_computes_each_amplitude_once(spin32, c, monkeypatch):
    # the recurrences revisit sub-amplitudes: without a caller's dict a
    # fresh one still serves the whole recursion, so no (c, b, a, lam,
    # roots) is computed twice and the value keeps the shared dict's bits
    # (16 and 46 amplitudes; the unmemoized recursion ran 18 and 70)
    lam, *roots = points(spin32, rng_for("fonce", c), 4)
    args = (c, 3, 1, lam, tuple(roots))
    shared = {}
    want = A.F_offshell(spin32, *args, shared)
    calls = []
    compute = A._f_compute

    def counted(model, c, b, a, lam, roots, cache):
        calls.append((c, b, a, complex(lam), roots))
        return compute(model, c, b, a, lam, roots, cache)

    monkeypatch.setattr(A, "_f_compute", counted)
    got = A.F_offshell(spin32, *args)
    assert np.array_equal(np.array([got]).view(np.float64),
                          np.array([want]).view(np.float64))
    assert len(calls) == len(set(calls)) == len(shared)


# ----------------------------------------------------------------------
# H functions and g coefficients
# ----------------------------------------------------------------------

def test_h_structure_and_symmetry(spin1):
    rng = rng_for("h")
    lam, l1, l2 = points(spin1, rng, 3)
    w21 = spin1.eval_r(l2, l1)
    got = A.H_function(spin1, 1, 1, 1, lam, l1, l2, tag=1)
    want = w21.entry(1, 1, 1, 1) / w21.entry(2, 1, 2, 1) \
        * A.F_offshell(spin1, 1, 1, 1, lam, (l1,))
    assert got == want
    th = A.theta(spin1, l1, l2)
    for (c, b, amax) in [(0, 1, spin1.N - 1), (1, 1, spin1.N - 2)]:
        for a in range(1, amax + 1):
            h2 = A.H_function(spin1, c, b, a, lam, l1, l2, tag=2)
            h1 = A.H_function(spin1, c, b, a, lam, l2, l1, tag=1)
            assert abs(h2 - th * h1) < 1e-10 * max(abs(h2), 1e-30)


def test_h_equals_f(spin1, spin32):
    rng = rng_for("hf")
    for model in (spin1, spin32):
        for _ in range(10):
            lam, l1, l2 = points(model, rng, 3)
            for a in range(1, model.N - 1):
                h = A.H_function(model, 1, 2, a, lam, l1, l2, tag=1)
                f = A.F_offshell(model, 1, 2, a, lam, (l1, l2))
                assert abs(h - f) < 1e-10 * max(abs(f), 1e-30)


def test_h_tag2_unavailable_combination(spin1):
    with pytest.raises(IndexOutOfRange):
        A.H_function(spin1, 1, 2, 1, 0.3, 0.1, 0.2, tag=2)


def test_g_coefficient_forms(spin1):
    rng = rng_for("g")
    l1, l2, l3 = points(spin1, rng, 3)
    g2 = A.g_coefficient(spin1, 2, (2,), (l1, l2))
    assert g2 == A.F_offshell(spin1, 1, 1, 2, l1, (l2,))
    g23 = A.g_coefficient(spin1, 2, (2,), (l1, l2, l3))
    w32 = spin1.eval_r(l3, l2)
    want = w32.entry(1, 1, 1, 1) / w32.entry(2, 1, 2, 1) \
        * A.F_offshell(spin1, 1, 1, 2, l1, (l2,))
    assert abs(g23 - want) < 1e-13 * abs(want)


def test_g_permutation_recursion(spin1):
    # the coefficient of channel 2 obeys the adjacent-swap recursion
    rng = rng_for("gperm")
    l1, l2, l3 = points(spin1, rng, 3)
    lhs = A.g_coefficient(spin1, 2, (3,), (l1, l2, l3))
    rhs = A.theta(spin1, l2, l3) * A.g_coefficient(spin1, 2, (2,),
                                                   (l1, l3, l2))
    assert abs(lhs - rhs) < 1e-11 * max(abs(lhs), 1e-30)


def test_g_index_validation(spin1):
    with pytest.raises(IndexOutOfRange):
        A.g_coefficient(spin1, 3, (2, 3), (0.1, 0.2, 0.5))   # ebar <= N - 1
    with pytest.raises(IndexOutOfRange):
        A.g_coefficient(spin1, 2, (1,), (0.1, 0.2))          # j >= 2
