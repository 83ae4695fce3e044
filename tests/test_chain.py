import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from u1bethe import chain as C
from u1bethe import verify as V
from u1bethe import weights as W
from u1bethe.errors import (DimensionTooLarge, EmptySector, IndexOutOfRange,
                            ParameterDomain)

from conftest import ETA, points, rng_for


@pytest.fixture(scope="module")
def ctx6(six):
    return C.ChainContext(six, 3, [0.03 - 0.08j, -0.11 + 0.06j, 0.21 + 0.13j])


@pytest.fixture(scope="module")
def ctx3(spin1):
    return C.ChainContext(spin1, 2, [0.03 - 0.08j, -0.11 + 0.06j])


def test_lax_is_dense_weights(six):
    # the dense Lax operator on C^N (x) C^N, auxiliary space first, is the
    # weights indexed [(a, b), (c, d)] row-major
    lam, mu = 0.31 + 0.12j, -0.2
    w = six.eval_r(lam, mu)
    N = six.N
    want = np.array([[w.entry(a, b, c, d) for c in range(1, N + 1)
                      for d in range(1, N + 1)]
                     for a in range(1, N + 1) for b in range(1, N + 1)])
    assert np.array_equal(w.dense(), want)


def test_dense_forms_are_not_shared():
    # a caller writing into its dense Lax operator leaves the weights that
    # every later evaluation reads untouched
    six = W.six_vertex(ETA)
    lam = 0.3 + 0.1j
    clean = W.check_unitarity(six, lam, 0)
    six.eval_r(lam, 0).dense()[1, 1] = 99
    assert W.check_unitarity(six, lam, 0) == clean
    w = six.eval_r(lam, 0)
    assert w.dense()[1, 1] == w.entry(1, 2, 1, 2)


def test_memoized_weights_are_read_only(spin1):
    # every caller gets the memoized matrix itself, so none may write it
    six = W.six_vertex(ETA)
    lam = 0.3 + 0.1j
    w = six.eval_r(lam, 0)
    with pytest.raises(ValueError):
        w.values[1] = 99
    assert W.check_unitarity(six, lam, 0) <= 1e-15
    custom = W.custom_model(3, lambda l, m: spin1.eval_r(l, m).dense())
    for model in (spin1, custom):
        assert not model.eval_r(lam, 0).values.flags.writeable


def test_lax_u1_invariance(spin1):
    # the ice rule makes [R, Sz x I + I x Sz] vanish entry by entry
    N = spin1.N
    s = (N - 1) / 2.0
    sz = np.diag([s - k for k in range(N)])
    big = np.kron(sz, np.eye(N)) + np.kron(np.eye(N), sz)
    r = spin1.eval_r(0.4 + 0.3j, -0.1).dense()
    assert np.max(np.abs(r @ big - big @ r)) == 0.0


def test_single_site_monodromy_pattern(spin1):
    lam, mu1 = 0.29 + 0.17j, 0.07 - 0.03j
    ctx = C.ChainContext(spin1, 1, [mu1])
    w = spin1.eval_r(lam, mu1)
    N = spin1.N
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            mat = C.monodromy_element(ctx, lam, a, b).to_matrix()
            want = np.array([[w.entry(a, i, b, j) for j in range(1, N + 1)]
                             for i in range(1, N + 1)])
            assert np.array_equal(mat, want)


@pytest.mark.parametrize("fixture", ["ctx6", "ctx3"])
def test_triangularity_exact(fixture, request):
    ctx = request.getfixturevalue(fixture)
    ref = C.reference_state(ctx.N, ctx.L).amplitudes
    for a in range(1, ctx.N + 1):
        for b in range(1, a):
            out = C.monodromy_element(ctx, 0.37 + 0.21j, a, b).apply(ref)
            assert np.all(out == 0)


@pytest.mark.parametrize("fixture", ["ctx6", "ctx3"])
def test_spin_commutation_rule(fixture, request):
    ctx = request.getfixturevalue(fixture)
    sz = C.spin_z_total(ctx.N, ctx.L).to_matrix()
    lam = 0.31 + 0.12j
    for a in range(1, ctx.N + 1):
        for b in range(1, ctx.N + 1):
            tab = C.monodromy_element(ctx, lam, a, b).to_matrix()
            comm = tab @ sz - sz @ tab
            assert np.max(np.abs(comm - (b - a) * tab)) < 1e-12


@pytest.mark.parametrize("fixture", ["ctx6", "ctx3"])
def test_sector_bookkeeping_exact(fixture, request):
    ctx = request.getfixturevalue(fixture)
    rng = rng_for("sector", ctx.N)
    lam = 0.23 - 0.31j
    for n in range(0, 3):
        idx = C.sector_indices(ctx.N, ctx.L, n)
        if len(idx) == 0:
            continue
        v = np.zeros(ctx.dim, dtype=complex)
        v[idx] = rng.standard_normal(len(idx))
        for a in range(1, ctx.N + 1):
            for b in range(1, ctx.N + 1):
                op = C.monodromy_element(ctx, lam, a, b)
                out = op.apply(v)
                target = n + b - a
                outside = np.ones(ctx.dim, dtype=bool)
                if 0 <= target <= (ctx.N - 1) * ctx.L:
                    outside[C.sector_indices(ctx.N, ctx.L, target)] = False
                assert np.all(out[outside] == 0)


def test_commuting_family(six, spin1):
    rng = rng_for("commute")
    for model, L in [(six, 4), (spin1, 3)]:
        ctx = C.ChainContext(model, L)
        for _ in range(20):
            lam, mu = points(model, rng, 2)
            t1 = C.transfer_matrix(ctx, lam).to_matrix()
            t2 = C.transfer_matrix(ctx, mu).to_matrix()
            bound = 1e-10 * np.max(np.abs(t1)) * np.max(np.abs(t2))
            assert np.max(np.abs(t1 @ t2 - t2 @ t1)) < bound


def test_transfer_commutes_with_spin(ctx3):
    t = C.transfer_matrix(ctx3, 0.41 - 0.09j).to_matrix()
    sz = C.spin_z_total(ctx3.N, ctx3.L).to_matrix()
    assert np.max(np.abs(t @ sz - sz @ t)) == 0.0


@pytest.mark.parametrize("N, L", [(2, 1), (2, 6), (3, 4), (4, 3)])
def test_sector_bookkeeping_matches_digit_loop(N, L):
    def digit_sum(i):
        n = 0
        for _ in range(L):
            n, i = n + i % N, i // N
        return n

    sums = [digit_sum(i) for i in range(N ** L)]
    s = (N - 1) / 2.0
    sz = C.spin_z_total(N, L).apply(np.ones(N ** L))
    assert np.array_equal(sz, [L * s - k for k in sums])
    for n in range((N - 1) * L + 1):
        idx = C.sector_indices(N, L, n)
        assert idx.tolist() == [i for i in range(N ** L) if sums[i] == n]
        vec = np.zeros(N ** L, dtype=complex)
        vec[idx] = 1.0
        assert C.StateVector(N, L, vec).sector == n
    vec[0] = 1.0
    assert C.StateVector(N, L, vec).sector is None
    assert C.StateVector(N, L, np.zeros(N ** L)).sector is None


def test_reference_state_and_vacuum(ctx3):
    ref = C.reference_state(ctx3.N, ctx3.L)
    assert ref.amplitudes[0] == 1.0 and np.count_nonzero(ref.amplitudes) == 1
    assert ref.sector == 0
    sz = C.spin_z_total(ctx3.N, ctx3.L)
    want = ctx3.L * (ctx3.N - 1) / 2.0
    assert abs((sz.to_matrix() @ ref.amplitudes)[0] - want) == 0.0
    lam = 0.37 + 0.21j
    # trace identity: T(lam)|0> = (sum_a w_a)|0>
    tv = C.transfer_matrix(ctx3, lam).apply(ref.amplitudes)
    total = sum(C.vacuum_weight(ctx3, lam, a) for a in range(1, ctx3.N + 1))
    assert abs(tv[0] - total) < 1e-12 * max(1.0, abs(total))
    assert np.max(np.abs(tv[1:])) == 0.0


def test_vacuum_weight_matches_diagonal_elements(ctx6, ctx3):
    # T_{a,a}(lam)|0> = w_a(lam)|0> exactly, as whole vectors: the state
    # recurrence replaces these fields by the scalar w_a
    for ctx in (ctx6, ctx3):
        ref = C.reference_state(ctx.N, ctx.L).amplitudes
        lam = -0.27 + 0.33j
        for a in range(1, ctx.N + 1):
            direct = C.monodromy_element(ctx, lam, a, a).apply(ref)
            assert np.array_equal(direct, C.vacuum_weight(ctx, lam, a) * ref)


def test_vacuum_weight_is_bitwise_site_product(ctx6, ctx3):
    # exactly the site-ordered product, also when every weight is read
    # again from the model's memo
    lams = [0.31 - 0.17j, -0.44 + 0.05j, 0.12 + 0.61j, 0.31 - 0.17j, 0.9]
    for ctx in (ctx6, ctx3):
        for _ in range(2):
            for lam in lams:
                for a in range(ctx.N, 0, -1):
                    want = 1.0 + 0.0j
                    for mu in ctx.inhomogeneities:
                        want *= ctx.model.eval_r(lam, mu).entry(a, 1, a, 1)
                    got = C.vacuum_weight(ctx, lam, a)
                    assert (got.real, got.imag) == (want.real, want.imag)


def _memoized_model_and_context(model):
    ctx = C.ChainContext(model, 3, [0.03 - 0.08j, -0.11 + 0.06j, 0.21])
    vec = C.reference_state(model.N, 3).amplitudes
    C.transfer_matrix(ctx, 0.4 + 0.1j).apply(vec)
    C.vacuum_weight(ctx, -0.2 + 0.3j, 1)
    assert model._memo.cache_info().currsize > 0
    return weakref.ref(model), weakref.ref(ctx)


def test_memos_hold_no_reference_to_their_owner():
    # with the cycle collector off, dropping the last reference frees a
    # model and a context along with everything they memoized
    gc.disable()
    try:
        for make in (lambda: W.six_vertex(ETA),
                     lambda: W.custom_model(2, W.six_vertex(ETA).eval_r)):
            model_ref, ctx_ref = _memoized_model_and_context(make())
            assert model_ref() is None and ctx_ref() is None
    finally:
        gc.enable()


def test_vacuum_weight_shares_the_weight_memo():
    # w_a(lam) reads the weights that an application of T(lam) reads:
    # after it, the application evaluates no weight, and the values are
    # the site-by-site products of a model without an array evaluator
    six = W.six_vertex(ETA)
    mus = [0.05 * k + 0.02j * k for k in range(1, 15)]
    ctx = C.ChainContext(six, 14, mus)
    scalar = W.custom_model(2, six.eval_r)
    lam = 0.31 - 0.17j
    got = [C.vacuum_weight(ctx, lam, a) for a in (1, 2)]
    misses = six._memo.cache_info().misses
    C.transfer_matrix(ctx, lam).apply(C.reference_state(2, 14).amplitudes)
    assert six._memo.cache_info().misses == misses
    for a, w in zip((1, 2), got):
        want = 1.0 + 0.0j
        for mu in mus:
            want *= complex(scalar.eval_r(lam, mu).entry(a, 1, a, 1))
        assert (w.real, w.imag) == (want.real, want.imag)
    with pytest.raises(ParameterDomain):
        C.vacuum_weight(ctx, float("nan"), 1)


def test_single_site_vacuum_at_regular_point(six):
    ctx = C.ChainContext(six, 1, [0.2])
    # normalized weights: rho(lam, lam) is the unit (1,1;1,1) entry
    assert C.vacuum_weight(ctx, 0.2, 1) == 1.0


def test_spin_z_values():
    op = C.spin_z_total(2, 1)
    assert np.array_equal(np.diag(op.to_matrix()), [0.5, -0.5])


def _brute_force_monodromy(ctx, lam):
    """Full monodromy on C^N (x) (C^N)^(x L) as a dense product of Lax factors.

    Auxiliary space first, then sites 1..L with site 1 slowest; the site-1
    factor is rightmost.
    """
    N, L = ctx.N, ctx.L
    full = np.eye(N ** (L + 1), dtype=complex)
    for k in range(1, L + 1):
        r = ctx.model.eval_r(lam, ctx.inhomogeneities[k - 1]).dense()
        factor = np.zeros_like(full)
        for c in range(N):
            for e in range(N):
                aux = np.zeros((N, N))
                aux[c, e] = 1.0
                site = r[c * N:(c + 1) * N, e * N:(e + 1) * N]
                factor += np.kron(aux, np.kron(
                    np.eye(N ** (k - 1)), np.kron(site, np.eye(N ** (L - k)))))
        full = factor @ full
    return full


def test_monodromy_matches_brute_force_product(spin1):
    ctx = C.ChainContext(spin1, 3, [0.03 - 0.08j, -0.11 + 0.06j, 0.21 + 0.13j])
    lam = 0.31 + 0.12j
    full = _brute_force_monodromy(ctx, lam)
    dim = ctx.dim
    scale = max(1.0, np.max(np.abs(full)))
    for a in range(1, 4):
        for b in range(1, 4):
            want = full[(a - 1) * dim:a * dim, (b - 1) * dim:b * dim]
            got = C.monodromy_element(ctx, lam, a, b).to_matrix()
            assert np.max(np.abs(got - want)) < 1e-13 * scale


@pytest.mark.parametrize("fixture", ["ctx6", "ctx3"])
def test_batched_apply_matches_single_applies(fixture, request):
    ctx = request.getfixturevalue(fixture)
    rng = rng_for("batch", ctx.N)
    batch = rng.standard_normal((ctx.dim, 4)) + 1j * rng.standard_normal((ctx.dim, 4))
    lam = 0.27 - 0.14j
    ops = [C.monodromy_element(ctx, lam, a, b)
           for a in range(1, ctx.N + 1) for b in range(1, ctx.N + 1)]
    ops += [C.transfer_matrix(ctx, lam), C.spin_z_total(ctx.N, ctx.L)]
    for op in ops:
        got = op.apply(batch)
        assert got.shape == batch.shape
        for k in range(batch.shape[1]):
            single = op.apply(batch[:, k])
            assert np.max(np.abs(got[:, k] - single)) < 1e-14 * max(
                1.0, np.max(np.abs(single)))


def _flip_asymmetric_six(six):
    # six-vertex with the b weight of (2,1;2,1) off from its flip partner
    def weights(lam, mu):
        w = six.eval_r(lam, mu).values.copy()
        w[W.ice_slot(2, 2, 1, 2, 1)] *= 1.1
        return W.WeightMatrix(2, w)
    return W.custom_model(2, weights)


def test_sector_blocks_match_dense_transfer(six, spin1, spin32):
    # L = 1 leaves the head of the split product without sites, and an
    # odd L makes its tail the longer half; the last model's weights are
    # not their own spin flip
    for model, L in [(six, 4), (spin1, 3), (spin32, 3), (six, 1), (spin1, 1),
                     (six, 7), (W.higher_spin_xxz(5, ETA), 3),
                     (_flip_asymmetric_six(six), 5)]:
        ctx = C.ChainContext(model, L)
        lam = 0.19 + 0.23j
        tmat = C.transfer_matrix(ctx, lam)
        dense = tmat.to_matrix()
        scale = max(1.0, np.max(np.abs(dense)))
        for n in range((ctx.N - 1) * ctx.L + 1):
            idx = C.sector_indices(ctx.N, ctx.L, n)
            block = C.transfer_block(ctx, lam, n)
            assert np.max(np.abs(block - dense[np.ix_(idx, idx)])) < 1e-14 * scale


def _slab_block(ctx, lam, n):
    """T(lam)'s sector-n block from one full-space apply to an N^L-row slab
    of that sector's identity columns."""
    idx = C.sector_indices(ctx.N, ctx.L, n)
    cols = np.zeros((ctx.dim, len(idx)), dtype=complex)
    cols[idx, np.arange(len(idx))] = 1.0
    return C.transfer_matrix(ctx, lam).apply(cols)[idx]


def _block_error(block, want):
    """Max-normalized distance of a sector block from its reference."""
    return np.max(np.abs(block - want)) / max(1.0, np.max(np.abs(want)))


def _random_chain(N, L):
    rng = rng_for("block", 10 * N + L)
    model = W.higher_spin_xxz(N, ETA)
    ctx = C.ChainContext(model, L, [W.random_point(rng, model.sample_window)
                                    for _ in range(L)])
    return ctx, W.random_point(rng, model.sample_window)


@pytest.mark.parametrize("cells", [None, 1])
@pytest.mark.parametrize("N, L", [(2, 1), (2, 6), (3, 4), (4, 3)])
def test_sector_blocks_match_the_slab_apply(N, L, cells, monkeypatch):
    # the split product rounds otherwise than the full contraction; one
    # cell (single-row chunks of a block, single-column chunks of the
    # halves) leaves its bits as they are
    ctx, lam = _random_chain(N, L)
    top = (N - 1) * L
    default = [C.transfer_block(ctx, lam, n) for n in range(top + 1)]
    if cells is not None:
        monkeypatch.setattr(C, "_BLOCK_CELLS", cells)
    for n, want in enumerate(default):
        block = C.transfer_block(ctx, lam, n)
        assert block.tobytes() == want.tobytes()
        assert _block_error(block, _slab_block(ctx, lam, n)) <= 1e-14
    for n in (-1, top + 1):
        with pytest.raises(EmptySector):
            C.transfer_block(ctx, lam, n)


@pytest.mark.parametrize("half", ["_head", "_tail"])
@pytest.mark.parametrize("N, L", [(2, 6), (3, 4)])
def test_a_perturbed_half_monodromy_fails_the_slab_check(N, L, half):
    # negative control: one entry of T_{1,1} of either half off by 1e-12
    ctx, lam = _random_chain(N, L)
    n = L // 2
    split = C.SplitMonodromy(ctx, lam, (n,))
    blocks = getattr(split, half)[1]
    blocks[0, 0, 0, 0] *= 1 + 1e-12
    assert _block_error(split.block(n), _slab_block(ctx, lam, n)) > 1e-14


@pytest.mark.parametrize("model, L", [("six", 10), ("six", 7), ("spin1", 4)])
def test_exact_spectrum_builds_each_half_once(model, L, six, spin1,
                                              monkeypatch):
    # six-vertex reads its upper sectors from their mirrors; spin-1 builds
    # every sector's block
    model = {"six": six, "spin1": spin1}[model]
    ctx = C.ChainContext(model, L, [0.05 * k + 0.02j * k
                                    for k in range(1, L + 1)])
    halves = []
    real = C._half_monodromy

    def counting(model, lam, mus, sums):
        halves.append(mus)
        return real(model, lam, mus, sums)
    monkeypatch.setattr(C, "_half_monodromy", counting)
    mus = ctx.inhomogeneities
    top = (ctx.N - 1) * L
    for sectors in (None, (0,), (top // 2,), (1, 2, top)):
        halves.clear()
        V.exact_spectrum(ctx, 0.31 + 0.12j, sectors)
        assert halves == [mus[:L // 2], mus[L // 2:]]


@pytest.mark.parametrize("cells", [None, 1])
@pytest.mark.parametrize("N, L", [(2, 6), (3, 4), (4, 3)])
def test_to_matrix_is_bitwise_the_identity_apply(N, L, cells, monkeypatch):
    if cells is not None:
        monkeypatch.setattr(C, "_BLOCK_CELLS", cells)
    model = W.higher_spin_xxz(N, ETA)
    ctx = C.ChainContext(model, L, [0.03 * k + 0.01j * k for k in range(L)])
    for op in (C.transfer_matrix(ctx, 0.31 + 0.12j),
               C.monodromy_element(ctx, -0.2 + 0.4j, 1, 2),
               C.monodromy_element(ctx, 0.1 - 0.3j, N, 1)):
        whole = op.apply(np.eye(ctx.dim, dtype=complex))
        assert op.to_matrix().tobytes() == whole.tobytes()


def test_to_matrix_memory_is_result_sized(six):
    ctx = C.ChainContext(six, 10)
    tracemalloc.start()
    try:
        dense = C.transfer_matrix(ctx, 0.19 + 0.23j).to_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 16 MB result, the contraction plans (3.4 MB) and the chunk work
    # arrays of about 1 MiB (1.24 x the result in all); a single identity
    # apply peaked at 193 MB
    assert peak < 1.35 * dense.nbytes


def test_exact_spectrum_memory_is_sector_sized(six):
    # L=11: the largest sector has 462 states; a slab of its identity
    # columns over all 2048 states is 15 MB, the block itself 3.4 MB
    ctx = C.ChainContext(six, 11, [0.05 * k + 0.02j * k for k in range(1, 12)])
    block = C.sector_dimension(2, 11, 5) ** 2 * 16
    tracemalloc.start()
    try:
        spectrum = V.exact_spectrum(ctx, 0.19 + 0.23j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(evs) for _, evs in spectrum) == ctx.dim
    # the block, a copy inside eigvals and chunk work arrays of about
    # 1 MiB: 1.72 x the block in all
    assert peak < 2 * block


def test_matrix_free_above_dense_limit(six):
    ctx = C.ChainContext(six, 13)           # dim 8192 > dense limit
    op = C.monodromy_element(ctx, 0.3, 2, 1)
    ref = C.reference_state(2, 13).amplitudes
    assert np.all(op.apply(ref) == 0)       # triangularity, matrix-free path
    with pytest.raises(DimensionTooLarge):
        op.to_matrix()


def test_transfer_block_refuses_a_sector_over_the_dense_limit(six,
                                                             monkeypatch):
    # L=10: sector 5 has 252 states, sector 4 has 210; the block over the
    # limit is refused before a plan or any work array is built
    ctx = C.ChainContext(six, 10)
    monkeypatch.setattr(C, "DENSE_LIMIT", 251)
    with pytest.raises(DimensionTooLarge):
        C.transfer_block(ctx, 0.3, 5)
    assert ctx._plans == {}
    assert C.transfer_block(ctx, 0.3, 4).shape == (210, 210)


def test_bad_auxiliary_indices_raise_index_out_of_range(ctx3):
    for a, b in ((0, 1), (1, 4), (4, 4)):
        with pytest.raises(IndexOutOfRange):
            C.monodromy_element(ctx3, 0.3, a, b)
    for a in (0, 4):
        with pytest.raises(IndexOutOfRange):
            C.vacuum_weight(ctx3, 0.3, a)


def test_chain_dimension_is_capped(six, spin1):
    # rejected before any per-site tuple or basis-sized array exists
    assert C.ChainContext(six, 14).dim == 2 ** 14 <= C.MAX_CHAIN_DIM
    for model, L in ((six, 40), (spin1, 40), (six, 21), (spin1, 13)):
        with pytest.raises(DimensionTooLarge):
            C.ChainContext(model, L)
    assert C.ChainContext(six, 20).dim == C.MAX_CHAIN_DIM


def _einsum_monodromy(ctx, lam, a, b, vec):
    """T_{a,b}(lam) vec by a full-space einsum over all N^(L+1) amplitudes.

    The auxiliary space is a leading axis; site k's Lax factor contracts
    the auxiliary axis with axis k, site 1 first.
    """
    N, L = ctx.N, ctx.L
    batch = vec.shape[1:]
    cur = np.zeros((N,) + (N,) * L + batch, dtype=complex)
    cur[b - 1] = vec.reshape((N,) * L + batch)
    for k in range(1, L + 1):
        r = ctx.model.eval_r(lam, ctx.inhomogeneities[k - 1]).dense()
        # blocks[c, e][i, j] = R_{c+1,i+1}^{e+1,j+1}
        blocks = r.reshape(N, N, N, N).transpose(0, 2, 1, 3)
        moved = np.moveaxis(cur, k, 1)
        new = np.einsum("baij,aj...->bi...", blocks, moved)
        cur = np.moveaxis(new, 1, k)
    return cur[a - 1].reshape(vec.shape)


def _random_in_sectors(rng, N, L, sectors, shape):
    vec = np.zeros(shape, dtype=complex)
    for n in sectors:
        idx = C.sector_indices(N, L, n)
        vec[idx] = (rng.standard_normal((len(idx),) + shape[1:])
                    + 1j * rng.standard_normal((len(idx),) + shape[1:]))
    return vec


@pytest.mark.parametrize("budget", [None, 0])
@pytest.mark.parametrize("N, L", [(2, 1), (2, 3), (2, 7), (3, 1), (3, 4),
                                  (4, 2), (4, 3)])
def test_sector_engine_matches_einsum_oracle(N, L, budget, monkeypatch):
    # budget 0 keeps no plan: every gate is built when it is reached
    if budget is not None:
        monkeypatch.setattr(C.ChainContext, "_PLAN_BYTES", budget)
    rng = rng_for("engine", 10 * N + L)
    model = W.higher_spin_xxz(N, ETA)
    ctx = C.ChainContext(model, L, [W.random_point(rng, model.sample_window)
                                    for _ in range(L)])
    lam = W.random_point(rng, model.sample_window)
    top = (N - 1) * L
    single = [(n,) for n in rng.choice(top + 1, size=min(3, top + 1),
                                        replace=False)]
    cases = [_random_in_sectors(rng, N, L, ns, (ctx.dim,)) for ns in single]
    mixed = rng.choice(top + 1, size=min(2, top + 1), replace=False)
    cases.append(_random_in_sectors(rng, N, L, mixed, (ctx.dim, 3)))
    cases.append(_random_in_sectors(rng, N, L, range(top + 1), (ctx.dim, 2)))
    cases.append(np.zeros(ctx.dim, dtype=complex))
    sums = C._digit_sums(N, L)
    for vec in cases:
        rows = np.flatnonzero(vec.reshape(ctx.dim, -1).any(axis=1))
        occupied = set(sums[rows].tolist())
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                got = C.monodromy_element(ctx, lam, a, b).apply(vec)
                want = _einsum_monodromy(ctx, lam, a, b, vec)
                assert got.shape == vec.shape
                scale = max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) <= 1e-14 * scale
                reach = np.isin(sums, [n + b - a for n in occupied])
                assert np.all(got[~reach] == 0)  # exact zeros off target
        got = C.transfer_matrix(ctx, lam).apply(vec)
        want = sum(_einsum_monodromy(ctx, lam, a, a, vec)
                   for a in range(1, N + 1))
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
    if budget == 0:
        assert ctx._plans == {} and ctx._plan_bytes == 0


@pytest.mark.parametrize("N, L", [(2, 6), (3, 3), (4, 3), (5, 2)])
def test_monodromy_columns_are_bitwise_applies(N, L):
    # one contraction from input b against T_{a,b} applied per a, each
    # column alone, to the bit: single-sector inputs, a batch whose
    # columns occupy different sectors, and the zero vector
    rng = rng_for("columns", 10 * N + L)
    model = W.higher_spin_xxz(N, ETA)
    ctx = C.ChainContext(model, L, [W.random_point(rng, model.sample_window)
                                    for _ in range(L)])
    lam = W.random_point(rng, model.sample_window)
    top = (N - 1) * L
    cases = [_random_in_sectors(rng, N, L, (n,), (ctx.dim, 1))
             for n in (0, top // 2, top)]
    cases.append(np.concatenate(
        [_random_in_sectors(rng, N, L, ns, (ctx.dim, 1))
         for ns in ((1,), (top - 1, top), range(top + 1))]
        + [np.zeros((ctx.dim, 1), dtype=complex)], axis=1))
    cases.append(np.zeros((ctx.dim, 2), dtype=complex))
    for vecs in cases:
        for b in range(1, N + 1):
            got = C.monodromy_columns(ctx, lam, b, vecs)
            assert got.shape == (N,) + vecs.shape
            for a in range(1, N + 1):
                op = C.monodromy_element(ctx, lam, a, b)
                for k in range(vecs.shape[1]):
                    want = op.apply(vecs[:, k])
                    assert got[a - 1, :, k].tobytes() == want.tobytes()


def test_plans_are_lazy_and_byte_bounded(six, monkeypatch):
    ctx = C.ChainContext(six, 8)
    assert ctx._plans == {}  # construction builds no plan
    vec = np.zeros(ctx.dim, dtype=complex)
    vec[C.sector_indices(2, 8, 2)] = 1.0
    C.transfer_matrix(ctx, 0.3 + 0.1j).apply(vec)
    assert set(ctx._plans) == {(2,), (3,)}  # total charges n + a - 1
    assert 0 < ctx._plan_bytes <= ctx._PLAN_BYTES
    # a budget for about one plan: the cache is cleared, never overrun
    monkeypatch.setattr(C.ChainContext, "_PLAN_BYTES", ctx._plan_bytes)
    ctx = C.ChainContext(six, 8)
    for n in range(9):
        vec = np.zeros(ctx.dim, dtype=complex)
        vec[C.sector_indices(2, 8, n)] = 1.0
        C.transfer_matrix(ctx, 0.3 + 0.1j).apply(vec)
        assert ctx._plan_bytes <= ctx._PLAN_BYTES


def test_sector_counts_and_shared_digit_sums():
    for N, L in [(2, 1), (2, 9), (3, 5), (4, 4), (5, 3)]:
        sums = C._digit_sums(N, L)
        assert sums is C._digit_sums(N, L) and not sums.flags.writeable
        for n in range(-1, (N - 1) * L + 2):
            assert C.sector_dimension(N, L, n) == len(C.sector_indices(N, L, n))


def test_vacuum_eigenvalue_on_two_to_the_twenty_states(six):
    ctx = C.ChainContext(six, 20)
    lam = 0.37 + 0.21j
    ref = C.reference_state(2, 20).amplitudes
    full = 2 ** 21 * 16  # one complex array over aux (x) chain
    tracemalloc.start()
    try:
        tv = C.transfer_matrix(ctx, lam).apply(ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    total = C.vacuum_weight(ctx, lam, 1) + C.vacuum_weight(ctx, lam, 2)
    assert abs(tv[0] - total) <= 1e-12 * abs(total)
    assert np.count_nonzero(tv) == 1
    # the output vector (half of `full`) plus sector-sized work arrays
    assert peak < 0.6 * full
