import cmath

import numpy as np
import pytest

from u1bethe import amplitudes as A
from u1bethe import bethe as B
from u1bethe import chain as C
from u1bethe import verify as V
from u1bethe import weights as W
from u1bethe.errors import (EmptySector, IndexOutOfRange, NoConvergence,
                            ParameterDomain, Singularity)

from conftest import ETA, points, rng_for


@pytest.fixture(scope="module")
def ctx6(six):
    return C.ChainContext(six, 4)


@pytest.fixture(scope="module")
def ctx3(spin1):
    return C.ChainContext(spin1, 2, [0.03 - 0.08j, -0.11 + 0.06j])


@pytest.fixture(scope="module")
def ctx3h(spin1):
    return C.ChainContext(spin1, 3)


ROOTS = (0.41 - 0.23j, -0.37 + 0.52j, 0.18 + 0.61j)


# ----------------------------------------------------------------------
# vector construction
# ----------------------------------------------------------------------

def test_zero_particles_is_reference(ctx3):
    st = B.build_bethe_vector(ctx3, ())
    assert np.array_equal(st.vector.amplitudes,
                          C.reference_state(3, 2).amplitudes)


def test_one_particle_vector(ctx3):
    lam1 = ROOTS[0]
    st = B.build_bethe_vector(ctx3, (lam1,))
    ref = C.reference_state(3, 2).amplitudes
    want = C.monodromy_element(ctx3, lam1, 1, 2).apply(ref)
    assert np.array_equal(st.vector.amplitudes, want)


def test_two_particle_vector_structure(ctx3, spin1):
    l1, l2 = ROOTS[:2]
    st = B.build_bethe_vector(ctx3, (l1, l2))
    ref = C.reference_state(3, 2).amplitudes
    t12 = lambda z: C.monodromy_element(ctx3, z, 1, 2)
    want = t12(l1).apply(t12(l2).apply(ref))
    want += (A.F_offshell(spin1, 1, 1, 2, l1, (l2,))
             * C.vacuum_weight(ctx3, l2, 1)
             * C.monodromy_element(ctx3, l1, 1, 3).apply(ref))
    assert np.max(np.abs(st.vector.amplitudes - want)) < 1e-13 * max(
        1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vector_sector_support_exact(ctx3h, n):
    st = B.build_bethe_vector(ctx3h, ROOTS[:n])
    assert st.vector.sector == n
    assert st.sector == n


def test_empty_sector_raises(six):
    ctx = C.ChainContext(six, 2)
    with pytest.raises(EmptySector):
        B.build_bethe_vector(ctx, (0.1, 0.2 + 0.1j, 0.4 - 0.2j))


def test_coincident_roots_rejected(ctx3):
    with pytest.raises(Singularity):
        B.build_bethe_vector(ctx3, (0.3, 0.3 + 1e-12))


# ----------------------------------------------------------------------
# exchange symmetry of the state
# ----------------------------------------------------------------------

def test_exchange_symmetry_two_and_three(ctx3h, spin1):
    cache = {}
    l1, l2, l3 = ROOTS
    v2 = B.build_bethe_vector(ctx3h, (l1, l2), cache).vector.amplitudes
    v2s = B.build_bethe_vector(ctx3h, (l2, l1), cache).vector.amplitudes
    th = A.theta(spin1, l1, l2)
    assert np.max(np.abs(v2 - th * v2s)) < 1e-10 * np.max(np.abs(v2))
    v3 = B.build_bethe_vector(ctx3h, (l1, l2, l3), cache).vector.amplitudes
    for swapped, factor in [((l2, l1, l3), A.theta(spin1, l1, l2)),
                            ((l1, l3, l2), A.theta(spin1, l2, l3))]:
        vs = B.build_bethe_vector(ctx3h, swapped, cache).vector.amplitudes
        assert np.max(np.abs(v3 - factor * vs)) < 1e-10 * np.max(np.abs(v3))


def test_exchange_symmetry_four_particles(ctx3h, spin1):
    rng = rng_for("phi4")
    cache = {}
    for _ in range(5):
        roots = points(spin1, rng, 4)
        base = B.build_bethe_vector(ctx3h, roots, cache).vector.amplitudes
        for j in range(3):
            swapped = list(roots)
            swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
            vs = B.build_bethe_vector(ctx3h, tuple(swapped),
                                      cache).vector.amplitudes
            th = A.theta(spin1, roots[j], roots[j + 1])
            assert np.max(np.abs(base - th * vs)) < 1e-10 * np.max(np.abs(base))


# ----------------------------------------------------------------------
# Bethe equations, solver, eigenvalues
# ----------------------------------------------------------------------

def test_one_particle_residual_formula(ctx3):
    lam1 = 0.52 - 0.31j
    got = B.bae_residual(ctx3, (lam1,), 1)
    want = C.vacuum_weight(ctx3, lam1, 1) / C.vacuum_weight(ctx3, lam1, 2) - 1
    assert got == want


def test_generic_point_off_shell(ctx6):
    assert abs(B.bae_residual(ctx6, (0.37 + 0.21j,), 1)) > 1e-6


def test_solver_reproduces_spectrum(ctx6):
    lam = 0.313 + 0.141j
    spectrum = dict(V.exact_spectrum(ctx6, lam))
    for n in (1, 2):
        sets = B.solve_bae(ctx6, n, n_seeds=40, tol=1e-12)
        assert sets
        for rs in sets:
            pred = B.eigenvalue(ctx6, lam, rs)
            dist = min(abs(pred - ev) for ev in spectrum[n])
            assert dist < 1e-8 * max(1.0, abs(pred))
            assert max(abs(B.bae_residual(ctx6, rs.roots, j))
                       for j in range(1, n + 1)) < 1e-12


def test_three_particle_sector_matches_spectrum(ctx3h):
    lam = 0.313 + 0.141j
    sets = B.solve_bae(ctx3h, 3, n_seeds=40, tol=1e-12)
    assert sets
    evs = dict(V.exact_spectrum(ctx3h, lam))[3]
    for rs in sets:
        pred = B.eigenvalue(ctx3h, lam, rs)
        assert min(abs(pred - ev) for ev in evs) < 1e-8 * max(1.0, abs(pred))


@pytest.mark.parametrize("L", [16, 20])
def test_long_chain_roots_match_sector_ed(six, L):
    # 2^16 and 2^20 states; sector 2 has 120 and 190
    ctx = C.ChainContext(six, L, [0.03 * k + 0.01j * k for k in range(1, L + 1)])
    lam = 0.313 + 0.141j
    sets = B.solve_bae(ctx, 2, n_seeds=20)
    assert sets
    (n, evs), = V.exact_spectrum(ctx, lam, sectors=(2,))
    assert n == 2 and len(evs) == C.sector_dimension(2, L, 2)
    matched = set()
    for rs in sets:
        pred = B.eigenvalue(ctx, lam, rs)
        k = int(np.argmin(np.abs(evs - pred)))
        assert abs(evs[k] - pred) <= 1e-8 * abs(pred)
        matched.add(k)
    assert len(matched) == len(sets)  # one distinct state per root set


def test_on_shell_weight_product(ctx6):
    # solved two-root sets satisfy prod_j w1(l_j)/w2(l_j) = 1
    for rs in B.solve_bae(ctx6, 2, n_seeds=40):
        prod = 1.0
        for z in rs.roots:
            prod *= C.vacuum_weight(ctx6, z, 1) / C.vacuum_weight(ctx6, z, 2)
        assert abs(prod - 1.0) < 1e-10


def test_solver_n0_trivial(ctx6):
    sets = B.solve_bae(ctx6, 0)
    assert len(sets) == 1 and sets[0].roots == ()


def test_bae_residual_index_out_of_range(ctx6):
    roots = (0.1 + 0.2j, -0.3 + 0.1j)
    for j in (0, 3):
        with pytest.raises(IndexOutOfRange):
            B.bae_residual(ctx6, roots, j)


@pytest.mark.parametrize("kind", ["six", "spin1", "custom"])
def test_batched_residual_takes_one_array_call(kind, monkeypatch):
    # refused points (a root at a pole of a site or of a pair), a nan root
    # and coincident roots in one batch: one array evaluation marks them
    # all, and every row is still bae_residual's, to the bit
    model = {"six": lambda: W.six_vertex(ETA),
             "spin1": lambda: W.higher_spin_xxz(3, ETA),
             "custom": lambda: W.custom_model(
                 3, W.higher_spin_xxz(3, ETA).eval_r)}[kind]()
    ctx = C.ChainContext(model, 3, [0.0, 0.05 + 0.02j, -0.1])
    calls = []
    real = model.array_fn

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(model, "array_fn", counted)
    x = np.array([[0.41 - 0.23j, -0.37 + 0.52j], [-ETA, 0.2],
                  [0.1 + 0.2j, complex("nan")], [0.25, 0.25 - ETA],
                  [0.1 + 0.2j, 0.1 + 0.2j], [-0.2 + 0.1j, 0.5 - 0.3j]])
    got, singular = B.bae_residuals(ctx, x)
    assert len(calls) == 1
    assert singular.tolist() == [False, True, True, True, True, False]
    assert np.isnan(got[singular]).all()
    for s in np.flatnonzero(~singular):
        assert got[s].tolist() == [B.bae_residual(ctx, tuple(x[s]), j)
                                   for j in (1, 2)]
    for s in np.flatnonzero(singular):
        with pytest.raises((Singularity, ParameterDomain)):
            B.bae_residual(ctx, tuple(x[s]), 1)


def test_solver_rejects_table_models(six):
    from u1bethe import weights as W
    from u1bethe.errors import InvalidOption
    lam, mu = 0.31 + 0.0j, -0.22 + 0.0j
    table = W.table_model([(lam, mu, six.eval_r(lam, mu))])
    ctx = C.ChainContext(table, 2)
    with pytest.raises(InvalidOption):
        B.solve_bae(ctx, 1)


def test_solver_dedup(ctx6):
    sets = B.solve_bae(ctx6, 1, n_seeds=40)
    seed_root = sets[0].roots[0]
    again = B.solve_bae(ctx6, 1, seeds=[(seed_root + 0.01,),
                                        (seed_root - 0.01,),
                                        (seed_root + 0.005j,)])
    assert len(again) == 1


def test_solver_dedup_ignores_root_order(ctx3h):
    # the two roots of this string share their real part only up to
    # rounding, so the two seeds converge to the same set in opposite
    # sorted orders
    seeds = [(-0.04472144937703394 - 0.019259957585867862j,
              -1.127274844765194 - 1.6322205151785962j),
             (-0.8626962940461538 + 0.02900866032931975j,
              -1.2159099063178584 + 0.5854064690307351j)]
    sets = B.solve_bae(ctx3h, 2, seeds=seeds)
    assert len(sets) == 1
    x, y = sets[0].roots
    period = ctx3h.model.rapidity_period
    sig = B.state_signature(ctx3h, (x, y))
    assert B.same_state(sig, B.state_signature(ctx3h, (y + period, x)))
    assert not B.same_state(sig, B.state_signature(ctx3h, (x, x + 0.1)))


def _admit_by_signature(ctx, x, found, signatures):
    """Admission by signature alone, the oracle of `_admit`: fold and sort,
    then `same_state` of the signatures, then `_is_physical`."""
    try:
        rs = B.RootSet(B._fold_period(x, ctx.model.rapidity_period)).sorted()
    except Singularity:
        return "unphysical"
    sig = B.state_signature(ctx, rs)
    if any(B.same_state(sig, other) for other in signatures):
        return "duplicate"
    if not B._is_physical(ctx, rs):
        return "unphysical"
    found.append(rs)
    signatures.append(sig)
    return "converged"


_ADMIT_CASES = {
    "six-L6-n1": ("six", 6, 1), "six-L6-n2": ("six", 6, 2),
    "six-L6-n3": ("six", 6, 3), "spin1-L3-n1": (3, 3, 1),
    "spin1-L3-n2": (3, 3, 2), "spin32-L3-n2": (4, 3, 2),
}


@pytest.mark.parametrize("case", list(_ADMIT_CASES))
def test_admission_by_root_set_keeps_every_outcome(case, monkeypatch):
    family, L, n = _ADMIT_CASES[case]
    if family == "six":
        ctx = C.ChainContext(W.six_vertex(ETA), L,
                             [0.05 * k + 0.02j * k for k in range(L)])
    else:
        ctx = C.ChainContext(W.higher_spin_xxz(family, ETA), L,
                             (0.0, 0.05 + 0.02j, -0.1))
    for seed in (1, 42):
        got = B.solve_sector(ctx, n, n_seeds=50, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(B, "_admit", _admit_by_signature)
            want = B.solve_sector(ctx, n, n_seeds=50, seed=seed)
        assert got.outcomes == want.outcomes, seed
        assert got.states == want.states, seed
        assert got.outcomes["duplicate"] > 0, seed


def test_duplicates_skip_the_signature(monkeypatch):
    ctx = C.ChainContext(W.six_vertex(ETA), 6,
                         [0.05 * k + 0.02j * k for k in range(6)])
    calls = []
    signature = B.state_signature

    def counted(*args):
        calls.append(args)
        return signature(*args)

    monkeypatch.setattr(B, "state_signature", counted)
    got = B.solve_sector(ctx, 1, n_seeds=50)
    converged = sum(got.outcomes[k]
                    for k in ("converged", "duplicate", "unphysical"))
    assert got.outcomes["duplicate"] > 0
    assert len(calls) < converged


def test_root_set_dedup_survives_a_nan_signature(ctx6, monkeypatch):
    # with the eigenvalue refused at one filter offset every signature
    # holds a nan, which `same_state` never matches: the three seeds of
    # test_solver_dedup still give one state, by their root sets
    seed_root = B.solve_bae(ctx6, 1, n_seeds=40)[0].roots[0]
    refused = ctx6.model.regular_point + B._FILTER_OFFSETS[1]
    eigenvalue = B.eigenvalue

    def patched(ctx, lam, roots):
        if lam == refused:
            raise Singularity("refused for the test")
        return eigenvalue(ctx, lam, roots)

    monkeypatch.setattr(B, "eigenvalue", patched)
    assert np.isnan(B.state_signature(ctx6, (seed_root,))).any()
    got = B.solve_sector(ctx6, 1, seeds=[(seed_root + 0.01,),
                                         (seed_root - 0.01,),
                                         (seed_root + 0.005j,)])
    assert len(got.states) == 1
    assert got.outcomes["duplicate"] == 2


def test_signature_nan_never_matches(ctx3h):
    sig = B.state_signature(ctx3h, (0.2 + 0.1j,))
    bad = sig.copy()
    bad[1] = complex("nan")
    assert B.same_state(sig, sig)
    assert not B.same_state(sig, bad) and not B.same_state(bad, bad)


def test_solver_counts_states_of_gauged_weights(spin1):
    # a spectral gauge, entry x exp(0.3 (lam - mu)(h_a - h_c)) with
    # h = state - 1, keeps the Yang-Baxter equation but not the rapidity
    # period: root sets that differ by i pi are one state, returned once
    def gauged(lam, mu):
        return {(a, b, c, d): v * cmath.exp(0.3 * (lam - mu) * (a - c))
                for a, b, c, d, v in spin1.eval_r(lam, mu).items()}

    ctx = C.ChainContext(W.custom_model(3, gauged), 3)
    lam = 0.313 + 0.141j
    spectrum = dict(V.exact_spectrum(ctx, lam))
    for n in (1, 2):
        sets = B.solve_bae(ctx, n, n_seeds=50)
        matched = set()
        for rs in sets:
            pred = B.eigenvalue(ctx, lam, rs)
            k = int(np.argmin(np.abs(spectrum[n] - pred)))
            assert B.same_state(pred, spectrum[n][k])
            matched.add(k)
        assert sets and len(matched) == len(sets)  # one state per set


def test_strip_edge_is_canonical(ctx3h):
    # a root on the strip edge Im = pi/2 is folded onto the lower edge from
    # either side, as exact arithmetic folds Im = pi/2 itself
    period = ctx3h.model.rapidity_period
    up, = B._fold_period((0.3 + 1j * (np.pi / 2 - 1e-12),), period)
    down, = B._fold_period((0.3 - 1j * (np.pi / 2 - 1e-12),), period)
    assert up.imag < 0 and down.imag < 0
    assert abs(up - down) < 2.5e-12    # their distance modulo the period
    # the default seeds reach this chain's edge roots from both sides
    edge = [z.imag for rs in B.solve_bae(ctx3h, 2, n_seeds=40)
            for z in rs.roots if abs(abs(z.imag) - np.pi / 2) < 1e-9]
    assert edge and all(y < 0 for y in edge)


def test_solver_reports_best_residual(six):
    ctx = C.ChainContext(six, 2)
    with pytest.raises(NoConvergence) as err:
        B.solve_bae(ctx, 1, seeds=[(2.9 + 1.4j,)], max_iter=3)
    assert err.value.best_residual is not None


def test_eigenvalue_zero_particles(ctx3):
    lam = 0.37 + 0.21j
    want = sum(C.vacuum_weight(ctx3, lam, a) for a in range(1, 4))
    assert B.eigenvalue(ctx3, lam, ()) == want


def test_eigenvalue_formula_one_particle(ctx3, spin1):
    lam, l1 = 0.37 + 0.21j, 0.52 - 0.31j
    want = sum(C.vacuum_weight(ctx3, lam, a) * A.P_a(spin1, a, lam, l1)
               for a in range(1, 4))
    assert B.eigenvalue(ctx3, lam, (l1,)) == want


def test_on_shell_rayleigh_quotient(ctx6):
    lam = -0.21 + 0.44j
    rs = B.solve_bae(ctx6, 2, n_seeds=40)[0]
    st = B.build_bethe_vector(ctx6, rs)
    v = st.vector.amplitudes
    tv = C.transfer_matrix(ctx6, lam).apply(v)
    rayleigh = np.vdot(v, tv) / np.vdot(v, v)
    assert abs(rayleigh - B.eigenvalue(ctx6, lam, rs)) < 1e-8


# ----------------------------------------------------------------------
# off-shell expansion
# ----------------------------------------------------------------------

def test_one_particle_expansion_structure(ctx3, spin1):
    # the n = 1 action carries exactly the two unwanted families
    lam, l1 = 0.29 + 0.17j, 0.41 - 0.23j
    for a in range(1, 4):
        wanted, terms = B.expansion_for_diagonal(ctx3, lam, (l1,), a)
        ops = {t.op_indices for t in terms}
        expect = set()
        if a != 3:
            expect.add((a, a + 1))
        if a != 1:
            expect.add((a - 1, a))
        assert ops == expect
        for t in terms:
            if t.op_indices == (a, a + 1):
                want = -C.vacuum_weight(ctx3, l1, 1) \
                    * A.F_offshell(spin1, 1, 1, a, lam, (l1,))
            else:
                want = -C.vacuum_weight(ctx3, l1, 2) \
                    * A.F_offshell(spin1, 0, 1, a - 1, lam, (l1,))
            assert abs(t.coefficient - want) < 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_per_diagonal_completeness(ctx3h, n):
    lam = 0.29 + 0.17j
    roots = ROOTS[:n]
    cache = {}
    st = B.build_bethe_vector(ctx3h, roots, cache)
    for a in range(1, 4):
        wanted, terms = B.expansion_for_diagonal(ctx3h, lam, roots, a, cache)
        pred = wanted.amplitudes.copy()
        for t in terms:
            pred += t.contribution.amplitudes
        direct = C.monodromy_element(ctx3h, lam, a, a).apply(
            st.vector.amplitudes)
        scale = max(np.max(np.abs(direct)), 1e-30)
        assert np.max(np.abs(direct - pred)) < 1e-10 * scale


def test_summed_expansion_matches_transfer(ctx3h):
    lam = -0.33 + 0.27j
    roots = ROOTS[:2]
    st = B.build_bethe_vector(ctx3h, roots)
    wanted, terms = B.offshell_expansion(ctx3h, lam, roots)
    pred = wanted.amplitudes.copy()
    for t in terms:
        pred += t.contribution.amplitudes
    direct = C.transfer_matrix(ctx3h, lam).apply(st.vector.amplitudes)
    assert np.max(np.abs(direct - pred)) < 1e-10 * np.max(np.abs(direct))


def test_on_shell_unwanted_terms_cancel(ctx6):
    lam = 0.37 + 0.21j
    rs = B.solve_bae(ctx6, 2, n_seeds=40)[0]
    wanted, terms = B.offshell_expansion(ctx6, lam, rs.roots)
    unwanted = np.zeros(ctx6.dim, dtype=complex)
    for t in terms:
        unwanted += t.contribution.amplitudes
    assert np.max(np.abs(unwanted)) < 1e-8 * np.max(np.abs(wanted.amplitudes))


def test_offshell_term_metadata(ctx3h):
    lam = 0.29 + 0.17j
    _w, terms = B.expansion_for_diagonal(ctx3h, lam, ROOTS[:2], 2)
    orders = [(t.t, t.p, t.w1_labels, t.w2_labels) for t in terms]
    assert orders == sorted(orders)
    for t in terms:
        assert t.op_indices == (2 - t.p, 2 + t.t - t.p)
        assert len(t.w1_labels) == t.t - t.p
        assert len(t.w2_labels) == t.p


def _per_a_completeness(model, L, roots, lam):
    ctx = C.ChainContext(model, L)
    cache = {}
    st = B.build_bethe_vector(ctx, roots, cache)
    worst = 0.0
    for a in range(1, model.N + 1):
        wanted, terms = B.expansion_for_diagonal(ctx, lam, roots, a, cache)
        pred = wanted.amplitudes.copy()
        for t in terms:
            pred += t.contribution.amplitudes
        direct = C.monodromy_element(ctx, lam, a, a).apply(
            st.vector.amplitudes)
        scale = max(np.max(np.abs(direct)), np.max(np.abs(pred)), 1e-30)
        worst = max(worst, float(np.max(np.abs(direct - pred)) / scale))
    return worst


DEEP_ROOTS = (0.41 - 0.23j, -0.67 + 0.52j, 0.18 + 0.61j, -0.29 - 0.47j)


def test_three_root_amplitude_tower(spin32):
    # n = 3 at N = 4 drives every b = 3 amplitude branch through the
    # dense oracle, which n <= 3 at N = 3 cannot reach
    assert _per_a_completeness(spin32, 2, DEEP_ROOTS[:3], 0.29 + 0.17j) < 1e-9


def test_four_root_amplitude_tower():
    # a single N = 5 site holds four particles, so the full b = 4
    # recurrence tower meets a 5-dimensional dense oracle
    from u1bethe import weights as W
    m5 = W.higher_spin_xxz(5, 0.4375)
    assert _per_a_completeness(m5, 1, DEEP_ROOTS, 0.29 + 0.17j) < 1e-7
    cache = {}
    lam = 0.31 + 0.21j
    for c in (0, 4):
        base = A.F_offshell(m5, c, 4, 1, lam, DEEP_ROOTS, cache)
        for j in range(3):
            sw = list(DEEP_ROOTS)
            sw[j], sw[j + 1] = sw[j + 1], sw[j]
            v = A.F_offshell(m5, c, 4, 1, lam, tuple(sw), cache)
            th = A.theta(m5, DEEP_ROOTS[j], DEEP_ROOTS[j + 1])
            assert abs(base - th * v) < 1e-8 * max(abs(base), 1e-30)


def _eigenstate_residual(ctx, lam, roots):
    return B.eigenvector_residual(ctx, lam, B.build_bethe_vector(ctx, roots))


def test_eigenstate_residual_behaviour(ctx6):
    rs = B.solve_bae(ctx6, 1, n_seeds=30)[0]
    assert _eigenstate_residual(ctx6, 0.4 - 0.3j, rs) < 1e-8
    assert _eigenstate_residual(ctx6, 0.4 - 0.3j, (0.9 + 0.2j,)) > 1e-4
    assert _eigenstate_residual(ctx6, 0.4 - 0.3j, ()) < 1e-12


def test_eigenstate_residual_is_relative_to_eigenvalue(ctx3h):
    # close to the weight pole at lam - mu = -2 eta, |Lambda| is about 1e6;
    # an error at machine precision relative to it must not read as a miss
    lam = -0.88 + 0.02j
    for rs in B.solve_bae(ctx3h, 1, n_seeds=30):
        assert abs(B.eigenvalue(ctx3h, lam, rs)) > 1e5
        assert _eigenstate_residual(ctx3h, lam, rs) < 1e-10


# ----------------------------------------------------------------------
# root sets
# ----------------------------------------------------------------------

def test_root_set_is_a_checked_tuple():
    rs = B.RootSet([0.3, 0.1 - 0.2j])
    assert isinstance(rs, tuple) and rs == (0.3 + 0j, 0.1 - 0.2j)
    assert type(rs.roots) is tuple and rs.roots == tuple(rs) and rs.n == 2
    assert all(type(z) is complex for z in rs)
    assert type(rs.sorted()) is B.RootSet
    assert rs.sorted() == (0.1 - 0.2j, 0.3 + 0j)
    with pytest.raises(Singularity):
        B.RootSet((0.2, 0.2 + 1e-14j))


def _bits(*parts):
    return np.concatenate([np.ravel(np.asarray(p, dtype=complex))
                           for p in parts]).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_root_set_and_tuple_give_the_same_bits(ctx3h, n):
    lam = 0.29 + 0.17j
    roots = ROOTS[:n]
    out = {}
    for kind in (tuple, B.RootSet):
        rs = kind(roots)
        vec = B.build_bethe_vector(ctx3h, rs).vector.amplitudes
        res = [B.bae_residual(ctx3h, rs, j) for j in range(1, n + 1)]
        ev = B.eigenvalue(ctx3h, lam, rs)
        diag = [B.expansion_for_diagonal(ctx3h, lam, rs, a)
                for a in range(1, ctx3h.N + 1)]
        full = B.offshell_expansion(ctx3h, lam, rs)
        out[kind] = [_bits(vec, res, ev)] + [
            _bits(w.amplitudes, [t.coefficient for t in terms],
                  *[t.vector.amplitudes for t in terms])
            for w, terms in diag + [full]]
    assert out[tuple] == out[B.RootSet]
