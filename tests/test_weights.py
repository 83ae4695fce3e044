import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from u1bethe import weights as W
from u1bethe.errors import ParameterDomain, UnknownGridPoint

from conftest import ETA, points, rng_for


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


def test_six_vertex_pole_raises(six):
    with pytest.raises(ParameterDomain):
        six.eval_r(-ETA, 0.0)


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
    rebuilt = W.WeightMatrix.zeros(N)
    for q1 in range(1, N + 1):
        blk = W.charge_block(w, 1, q1)
        for b in range(1, q1 + 1):
            for c in range(1, q1 + 1):
                rebuilt.set_entry(q1 + 1 - b, b, c, q1 + 1 - c, blk[b - 1, c - 1])
    for q1 in range(1, N):
        blk = W.charge_block(w, 2, q1)
        for b in range(1, q1 + 1):
            for c in range(1, q1 + 1):
                rebuilt.set_entry(N + 1 - b, N - q1 + b,
                                  N - q1 + c, N + 1 - c, blk[b - 1, c - 1])
    assert np.max(np.abs(rebuilt.dense() - w.dense())) == 0.0


def test_eval_cache_is_exact(spin1):
    w1 = spin1.eval_r(0.37 + 0.21j, -0.11)
    w2 = spin1.eval_r(0.37 + 0.21j, -0.11)
    assert w1 is w2


@pytest.mark.parametrize("eta", [0.0, 1j * np.pi, -2j * np.pi, 3e-13])
@pytest.mark.parametrize("family", [W.six_vertex,
                                    lambda eta: W.higher_spin_xxz(3, eta)])
def test_degenerate_anisotropy_rejected(family, eta):
    # sinh(eta) = 0 zeroes the q-brackets and the six-vertex c weight
    with pytest.raises(ParameterDomain, match="anisotropy"):
        family(eta)


def test_cache_stays_within_byte_budget():
    N = 4
    model = W.custom_model(N, lambda lam, mu: {(1, 1, 1, 1): lam - mu})
    cap = W.ModelSpec.CACHE_BYTES // W.cache_entry_bytes(N)
    assert cap < 65536
    for k in range(cap + 25):
        model.eval_r(k * 1e-3, 0.0).dense()
        if k == cap - 1:  # full: the most the cache ever holds
            assert len(model._cache) == cap
            held = sum(w._vals.nbytes + w._dense.nbytes
                       for w in model._cache.values())
            assert held <= W.ModelSpec.CACHE_BYTES
    assert len(model._cache) == 25  # cleared once on reaching the cap


def test_full_cache_memory_stays_within_byte_budget():
    # measured, not charged: headers, keys and dict slots count as well
    model = W.six_vertex(ETA)
    cap = model._cache_cap
    assert cap > 17888  # above the misses of one N = 2 benchmark unit
    model.eval_r(0.5, 0.25).dense()
    model._cache.clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for k in range(cap):
            model.eval_r(complex(k * 1e-4, 0.3), 0.1).dense()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(model._cache) == cap
    assert held <= W.ModelSpec.CACHE_BYTES


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
