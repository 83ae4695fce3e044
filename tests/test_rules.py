import dataclasses
from pathlib import Path

import numpy as np
import pytest

from u1bethe import amplitudes as A
from u1bethe import chain as C
from u1bethe import verify as V
from u1bethe import weights as W
from u1bethe.errors import DimensionTooLarge

from conftest import (ETA, INTERTWINER_OFFSETS, intertwiner_system, nan_every,
                      points, rng_for)


@pytest.fixture(scope="module")
def lattice6(six):
    return C.ChainContext(six, 2)


@pytest.fixture(scope="module")
def lattice3(spin1):
    return C.ChainContext(spin1, 2)


def _check_all(model, ctx, tol, rng):
    worst = 0.0
    for k, (family, indices) in enumerate(V.enumerate_rules(model.N)):
        lam, mu = points(model, rng, 2)
        rule = V.generate_rule(model, family, indices, lam, mu)
        res = V.check_rule_on_lattice(ctx, rule, trials=2)
        assert res < tol, f"{family} {indices}: {res:.3e}"
        worst = max(worst, res)
    return worst


def test_all_rules_n2(six, lattice6):
    _check_all(six, lattice6, 1e-10, rng_for("rules2"))


def test_all_rules_n3(spin1, lattice3):
    _check_all(spin1, lattice3, 1e-10, rng_for("rules3"))


def test_rules_n4_subset(spin32):
    # exercises the square systems that are empty below N = 4: the
    # A1-family creation rule and the deepest two-stage annihilation ones
    ctx = C.ChainContext(spin32, 2)
    rng = rng_for("rules4")
    combos = [("creation_creation", {"a1": 3, "b1": 2, "d1": 0}),
              ("creation_creation", {"a1": 3, "b1": 4, "d1": 1}),
              ("creation_creation", {"a1": 4, "b1": 4, "d1": 0}),
              ("diag_creation", {"a": 2, "b": 3}),
              ("diag_creation", {"a": 3, "b": 4}),
              ("annihilation_creation", {"a1": 3, "d1": 0, "b": 4}),
              ("annihilation_creation", {"a1": 2, "d1": 1, "b": 4}),
              ("annihilation_creation", {"a1": 2, "d1": 2, "b": 3}),
              ("annihilation_creation", {"a1": 4, "d1": 0, "b": 3})]
    for family, indices in combos:
        lam, mu = points(spin32, rng, 2)
        rule = V.generate_rule(spin32, family, indices, lam, mu)
        res = V.check_rule_on_lattice(ctx, rule, trials=2)
        assert res < 5e-10, f"{family} {indices}: {res:.3e}"


def test_broken_rule_detected(spin1, lattice3):
    rule = V.generate_diag_creation_rule(spin1, 2, 2, 0.31 + 0.12j,
                                         -0.44 + 0.27j)
    assert V.check_rule_on_lattice(lattice3, rule) < 1e-10
    k = int(np.argmax([abs(t.coeff) for t in rule.terms]))
    terms = list(rule.terms)
    terms[k] = dataclasses.replace(terms[k], coeff=0.0)
    broken = dataclasses.replace(rule, terms=terms)
    assert V.check_rule_on_lattice(lattice3, broken) > 1e-4


def _per_product_residual(ctx, rule, trials=3):
    """check_rule_on_lattice as two monodromy applies per product."""
    rng = np.random.default_rng(0)
    args = {"lam": rule.lam, "mu": rule.mu}

    def product(left, right, vecs):
        (i, j, ltag), (k, m, rtag) = left, right
        inner = C.monodromy_element(ctx, args[rtag], k, m).apply(vecs)
        return C.monodromy_element(ctx, args[ltag], i, j).apply(inner)

    vecs = np.empty((ctx.dim, trials), dtype=complex)
    for k in range(trials):
        vecs[:, k] = (rng.standard_normal(ctx.dim)
                      + 1j * rng.standard_normal(ctx.dim))
    lv = product(*rule.lhs, vecs)
    rv = np.zeros_like(lv)
    for t in rule.terms:
        rv += t.coeff * product(t.left, t.right, vecs)
    return V.worst_residual([V.relative_residual(lv[:, k], rv[:, k])
                             for k in range(trials)])


@pytest.mark.parametrize("N", [3, 4])
def test_grouped_rule_check_is_bitwise_per_product(N):
    # the grouped contractions against two applies per product, to the
    # bit, for every rule of every family
    model = W.higher_spin_xxz(N, ETA)
    rng = rng_for("grouped", N)
    ctx = C.ChainContext(model, 2, points(model, rng, 2))
    for family, indices in V.enumerate_rules(N):
        rule = V.generate_rule(model, family, indices, *points(model, rng, 2))
        got = V.check_rule_on_lattice(ctx, rule)
        assert got == _per_product_residual(ctx, rule), (family, indices)


def test_table3_counts():
    for n in range(3, 8):
        assert V.creation_rule_counts(n) == V.table3_counts(n)
    assert V.table3_counts(3) == {"A1": 0, "A2": 1, "A4": 1}


# ----------------------------------------------------------------------
# generated coefficients against the printed closed forms
# ----------------------------------------------------------------------

def _coeff_map(rule):
    return {(t.left, t.right): t.coeff for t in rule.terms if abs(t.coeff) > 1e-12}


def test_diag_rule_b2_matches_d2_closed_form(spin32):
    model = spin32
    lam, mu = 0.37 + 0.21j, -0.44 + 0.08j
    w = model.eval_r(lam, mu)
    for a in (2, 3):
        rule = V.generate_diag_creation_rule(model, a, 2, lam, mu)
        got = _coeff_map(rule)
        exp = {((1, 2, "mu"), (a, a, "lam")): A.det_D2(model, a, 0, lam, mu)}
        for e in range(3, a + 2):
            exp[((1, e, "mu"), (a, a + 2 - e, "lam"))] = \
                A.det_D2(model, a, e - 2, lam, mu)
        for e in range(1, a + 1):
            exp[((e, a + 1, "lam"), (a - e + 1, 1, "mu"))] = (
                w.entry(a + 1, 1, a, 2) / w.entry(a + 1, 1, a + 1, 1)
                * w.entry(a, 1, e, a - e + 1) / w.entry(a, 1, a, 1))
        for e in range(1, a):
            exp[((e, a, "lam"), (a - e + 1, 2, "mu"))] = \
                -w.entry(a, 1, e, a - e + 1) / w.entry(a, 1, a, 1)
        for key in set(got) | set(exp):
            assert abs(got.get(key, 0) - exp.get(key, 0)) < 1e-12


def test_diag_rule_b3_matches_d3_closed_form(spin32):
    # the b = 3 diagonal rule reproduces the printed D3 coefficients
    model = spin32
    lam, mu = 0.29 - 0.31j, 0.52 + 0.17j
    rule = V.generate_diag_creation_rule(model, 2, 3, lam, mu)
    got = _coeff_map(rule)
    key0 = ((1, 3, "mu"), (2, 2, "lam"))
    assert abs(got[key0] - A.det_D3(model, 2, 0, lam, mu)) < 1e-12
    key1 = ((1, 4, "mu"), (2, 1, "lam"))
    assert abs(got[key1] - A.det_D3(model, 2, 1, lam, mu)) < 1e-12


def test_diag_rule_a1_matches_direct_form(spin1):
    lam, mu = 0.37 + 0.21j, -0.44 + 0.08j
    wr = spin1.eval_r(mu, lam)
    for b in (2, 3):
        rule = V.generate_diag_creation_rule(spin1, 1, b, lam, mu)
        assert rule.direct
        got = _coeff_map(rule)
        exp = {((1, b, "mu"), (1, 1, "lam")):
               wr.entry(1, 1, 1, 1) / wr.entry(b, 1, b, 1)}
        for e in range(2, b + 1):
            exp[((1, e, "lam"), (1, 1 + b - e, "mu"))] = \
                -wr.entry(1 + b - e, e, b, 1) / wr.entry(b, 1, b, 1)
        for key in set(got) | set(exp):
            assert abs(got.get(key, 0) - exp.get(key, 0)) < 1e-13


def test_basis_creation_direct_rule(spin1):
    # a1 = 2, b1 >= N: the single-projection rule
    lam, mu = 0.41 - 0.23j, -0.37 + 0.52j
    w = spin1.eval_r(lam, mu)
    rule = V.generate_creation_creation_rule(spin1, 2, 3, 1, lam, mu)
    assert rule.direct
    got = _coeff_map(rule)
    key = ((1, 3, "mu"), (1, 2, "lam"))
    want = w.entry(2, 3, 2, 3) / w.entry(1, 1, 1, 1)
    assert abs(got[key] - want) < 1e-13 * abs(want)


def test_annihilation_b2_direct_rule(spin1):
    # the b = 2 annihilator rule comes straight from one projection
    lam, mu = 0.41 - 0.23j, -0.37 + 0.52j
    w = spin1.eval_r(lam, mu)
    a1, d1 = 2, 1
    f1 = a1 + d1
    rule = V.generate_annihilation_creation_rule(spin1, a1, d1, 2, lam, mu)
    assert rule.direct
    got = _coeff_map(rule)
    key = ((1, 2, "mu"), (f1, a1 - 1, "lam"))
    want = w.entry(a1 - 1, 2, a1 - 1, 2) / w.entry(f1, 1, f1, 1)
    assert abs(got[key] - want) < 1e-13 * abs(want)


DATA = Path(__file__).parent / "data"


def _c(z):
    return f"{z.real:.17g} {z.imag:.17g}"


def _op(op):
    i, j, tag = op
    return f"T{i},{j}({tag})"


def _rules_text(model):
    """Every enumerated rule at seeded points: header line, then its terms."""
    rng = rng_for(f"golden{model.N}")
    lines = []
    for family, indices in V.enumerate_rules(model.N):
        lam, mu = points(model, rng, 2)
        rule = V.generate_rule(model, family, indices, lam, mu)
        idx = " ".join(f"{k}={v}" for k, v in indices.items())
        lines.append(f"{family} {idx} direct={rule.direct} "
                     f"lam={_c(lam)} mu={_c(mu)} "
                     f"lhs={_op(rule.lhs[0])}{_op(rule.lhs[1])}")
        lines += [f"  {_op(t.left)}{_op(t.right)} {_c(t.coeff)}"
                  for t in rule.terms]
    return "\n".join(lines) + "\n"


def _gram_intertwiner(N, eta, w):
    """Spin-s weights R(w) by the Gram-matrix nullspace solve the pinned
    rule files were written with: the eigenvector of the smallest
    eigenvalue of sum_x C_x^H C_x, C_x the system of the mixed
    Yang-Baxter relation at offset x, normalized to R_{1,1}^{1,1} = 1."""
    for offsets in INTERTWINER_OFFSETS:
        gram = 0.0
        for x in offsets:
            cols = intertwiner_system(N, eta, w, x)
            gram = gram + cols.conj().T @ cols
        evals, evecs = np.linalg.eigh(gram)
        if evals[0] > 1e-12 * evals[-1] or evals[1] < 1e-9 * evals[-1]:
            continue
        vec = evecs[:, 0]
        return W.WeightMatrix(N, vec / vec[0])  # (1,1;1,1) comes first
    raise AssertionError(f"no one-dimensional nullspace at u = {w}")


@pytest.mark.parametrize("N", [3, 4], ids=["spin1-3", "spin32-4"])
def test_generated_rules_are_pinned(N):
    # the rule files were written by the earlier per-family implementation
    # of rule generation, on weights from the Gram-matrix solve; every
    # coefficient must come out bit for bit.  Those weights are stored,
    # at every pair the rules evaluate, because the solve's last bits
    # depend on the BLAS thread count
    model = W.load_table_file(DATA / f"gram_weights_n{N}.tab")
    assert _rules_text(model) == (DATA / f"rules_n{N}.txt").read_text()


@pytest.mark.parametrize("N", [3, 4])
def test_stored_gram_weights_match_a_fresh_solve(N):
    for lam, mu, w in W.load_table_file(
            DATA / f"gram_weights_n{N}.tab").table_data:
        fresh = _gram_intertwiner(N, ETA, lam - mu)
        assert V.relative_residual(w.values, fresh.values) <= 1e-12


def test_rule_term_determinism(spin1):
    r1 = V.generate_creation_creation_rule(spin1, 3, 2, 0, 0.31, -0.27)
    r2 = V.generate_creation_creation_rule(spin1, 3, 2, 0, 0.31, -0.27)
    assert r1.terms == r2.terms


# ----------------------------------------------------------------------
# dense-oracle bookkeeping
# ----------------------------------------------------------------------

def test_exact_spectrum_small(six):
    ctx = C.ChainContext(six, 2)
    spectrum = V.exact_spectrum(ctx, 0.31 + 0.12j)
    dims = {n: len(ev) for n, ev in spectrum}
    assert dims == {0: 1, 1: 2, 2: 1}
    total = sum(dims.values())
    assert total == ctx.dim
    lam = 0.31 + 0.12j
    want = sum(C.vacuum_weight(ctx, lam, a) for a in (1, 2))
    assert abs(dict(spectrum)[0][0] - want) < 1e-12 * abs(want)


def assert_same_spectrum(got, want, tol=1e-12):
    # one to one: each wanted eigenvalue takes the nearest one not yet
    # taken, within tol of the sector's largest |Λ|
    assert len(got) == len(want)
    left = list(got)
    for z in want:
        k = int(np.argmin(np.abs(np.array(left) - z)))
        assert abs(left.pop(k) - z) <= tol * np.max(np.abs(want))


def count_blocks(monkeypatch):
    # the sectors whose dense blocks exact_spectrum builds, in order
    built = []

    def counting(ctx, lam, n):
        built.append(n)
        return C.transfer_block(ctx, lam, n)
    monkeypatch.setattr(V, "transfer_block", counting)
    return built


def flip_symmetrized_spin1(spin1):
    # (w + flipped w) / 2 is its own flip to the bit: the sum commutes
    flip = W.ice_flip_slots(3)

    def weights(lam, mu):
        w = spin1.eval_r(lam, mu).values
        return W.WeightMatrix(3, (w + w[flip]) / 2)
    return W.custom_model(3, weights)


@pytest.mark.parametrize("model, L", [
    ("six", 6), ("six", 7), ("six", 8),
    # middle sectors of dimension 3 and 7, each with a state its own mirror
    ("perm3", 2), ("spin1-symmetrized", 3)])
def test_flip_reduced_spectrum_matches_direct_eigvals(model, L, six, spin1,
                                                      monkeypatch):
    model = {"six": six, "perm3": W.permutation_model(3),
             "spin1-symmetrized": flip_symmetrized_spin1(spin1)}[model]
    ctx = C.ChainContext(model, L, [0.05 * k + 0.02j * k
                                    for k in range(1, L + 1)])
    top = (model.N - 1) * L
    for lam in (0.31 + 0.12j, -0.47 + 0.58j):
        built = count_blocks(monkeypatch)
        spectrum = V.exact_spectrum(ctx, lam)
        assert built == list(range(top // 2 + 1))
        assert [n for n, _ in spectrum] == list(range(top + 1))
        for n, evs in spectrum:
            want = np.linalg.eigvals(C.transfer_block(ctx, lam, n))
            assert_same_spectrum(evs, want)


def test_flip_asymmetric_weights_take_the_plain_path(six, monkeypatch):
    # six-vertex with the b weight of (2,1;2,1) off from its flip partner
    def weights(lam, mu):
        w = six.eval_r(lam, mu).values.copy()
        w[W.ice_slot(2, 2, 1, 2, 1)] *= 1.1
        return W.WeightMatrix(2, w)
    ctx = C.ChainContext(W.custom_model(2, weights), 6,
                         [0.05 * k + 0.02j * k for k in range(1, 7)])
    lam = 0.31 + 0.12j
    built = count_blocks(monkeypatch)
    spectrum = V.exact_spectrum(ctx, lam)
    assert built == list(range(7))
    for n, evs in spectrum:
        want = np.linalg.eigvals(C.transfer_block(ctx, lam, n))
        assert np.array_equal(
            evs, sorted(want, key=lambda z: (z.real, z.imag)))


def test_mirrored_sectors_are_separate_arrays(six):
    ctx = C.ChainContext(six, 4)
    spectrum = dict(V.exact_spectrum(ctx, 0.31 + 0.12j))
    for n in (1, 3):
        partner = spectrum[4 - n].copy()
        spectrum[n][:] = 0
        assert np.array_equal(spectrum[4 - n], partner)


def test_exact_spectrum_dimension_guard(six):
    # L=16: sector 8 has 12,870 states, over DENSE_LIMIT; refused before
    # any contraction plan is built
    ctx = C.ChainContext(six, 16)
    with pytest.raises(DimensionTooLarge):
        V.exact_spectrum(ctx, 0.3)
    assert ctx._plans == {}



def test_nan_trial_fails_the_lattice_check(spin1, lattice3, monkeypatch):
    rule = V.generate_rule(spin1, "diag_creation", {"a": 2, "b": 3},
                           0.31 + 0.12j, -0.17 + 0.38j)
    assert V.check_rule_on_lattice(lattice3, rule) <= 1e-10
    nan_every(monkeypatch, V, "relative_residual", 2)   # the second trial
    assert np.isnan(V.check_rule_on_lattice(lattice3, rule, trials=3))
