import functools
import zlib

import numpy as np
import pytest

from u1bethe import weights as W

ETA = 0.4375


@pytest.fixture(autouse=True)
def no_shared_kernels():
    # higher_spin_xxz models of one (N, eta) share a kernel for the whole
    # process; each test starts with none built
    W._shared_kernel.cache_clear()


@pytest.fixture(scope="session")
def six():
    return W.six_vertex(ETA)


@pytest.fixture(scope="session")
def spin1():
    return W.higher_spin_xxz(3, ETA)


@pytest.fixture(scope="session")
def spin32():
    return W.higher_spin_xxz(4, ETA)


def points(model, rng, k):
    return tuple(W.random_point(rng, model.sample_window) for _ in range(k))


def rng_for(name, salt=0):
    # crc32, not hash(): string hashing is salted per process and would
    # make the sampled test points differ from run to run
    return np.random.default_rng((zlib.crc32(name.encode()), salt))


def nan_every(monkeypatch, owner, attr, k, when=lambda *args: True):
    """Make owner.attr return nan on every k-th call for which
    `when(*args)` holds (the k-th, 2k-th, ... such call)."""
    real = getattr(owner, attr)
    count = [0]

    def patched(*args):
        if when(*args):
            count[0] += 1
            if count[0] % k == 0:
                return float("nan")
        return real(*args)

    monkeypatch.setattr(owner, attr, patched)


def nan_residual(monkeypatch, k):
    """Make `RationalKernel.relation_residuals` read nan at the k-th u it
    is given (from 0), counted over all its calls."""
    real = W.RationalKernel.relation_residuals
    seen = [0]

    def patched(kernel, us):
        out = real(kernel, us)
        if seen[0] <= k < seen[0] + len(us):
            out[k - seen[0]] = float("nan")
        seen[0] += len(us)
        return out

    monkeypatch.setattr(W.RationalKernel, "relation_residuals", patched)


def count_builds(monkeypatch):
    """A list that gains (N, eta) per fusion build `_fused_coefficients`."""
    builds = []
    fuse = W._fused_coefficients

    def counted(N, eta):
        builds.append((N, eta))
        return fuse(N, eta)

    monkeypatch.setattr(W, "_fused_coefficients", counted)
    return builds


# offsets x of the reference solve, tried in turn until one pair gives a
# one-dimensional nullspace
INTERTWINER_OFFSETS = (
    (0.4371 + 0.2913j, -0.5923 + 0.1647j),
    (0.7253 - 0.3381j, 0.1931 + 0.6117j),
    (-0.8419 + 0.4457j, 0.3343 - 0.7129j),
)


@functools.cache
def _equal_charge_terms(N):
    """Flat gathers of `intertwiner_system`: its rows are the pairs (p, q)
    of states (alpha, i, j) of C^2 (x) C^N (x) C^N of equal charge
    alpha + i + j, the only ones where an equation can be nonzero."""
    lay = W._layout(N)
    nn, dim = N * N, 2 * N * N
    state = np.arange(dim)
    charge = state // nn + state % nn // N + state % N
    p, q = np.nonzero(charge[:, None] == charge[None, :])
    (alpha, s), (beta, t) = divmod(p, nn), divmod(q, nn)
    # column k is X = E(rows_k, cols_k): (M1 (I (x) X))[p, (beta, t)] is
    # M1[p, (beta, rows_k)] if t = cols_k, and ((I (x) X) M2)[(alpha, s), q]
    # is M2[(alpha, cols_k), q] if s = rows_k
    rows, cols = lay.rows[None, :], lay.cols[None, :]
    return (p[:, None] * dim + (beta * nn)[:, None] + rows, t[:, None] == cols,
            ((alpha * nn)[:, None] + cols) * dim + q[:, None],
            s[:, None] == rows)


def intertwiner_system(N, eta, w, x):
    """M1 (I (x) X) - (I (x) X) M2 on C^2 (x) C^N (x) C^N, with
    M1 = L12(x) L13(x + w) and M2 = L13(x + w) L12(x), as a matrix acting
    on the ice entries of X in storage order, one row per pair of states
    of equal charge."""
    dim = 2 * N * N
    eye_n = np.eye(N)
    l12 = np.kron(W._fundamental_lax(N, eta, x), eye_n)
    lax13 = W._fundamental_lax(N, eta, x + w).reshape(2, N, 2, N)
    l13 = np.einsum("ajbq,ip->aijbpq", lax13, eye_n).reshape(dim, dim)
    src1, on1, src2, on2 = _equal_charge_terms(N)
    return ((l12 @ l13).ravel()[src1] * on1
            - on2 * (l13 @ l12).ravel()[src2])


def solve_intertwiner(N, eta, w):
    """The ice entries of R(w) by the intertwiner solve, independent of
    the fusion: the one-dimensional nullspace of the systems at
    x = offset - Re(w) / 2 for one pair of offsets, stacked, from an SVD
    of the R factor of their QR, normalized to R_{1,1}^{1,1} = 1.

    Returns None where the solve refuses: no pair of offsets gives a
    one-dimensional nullspace, the system is not finite, or the
    (1,1;1,1) entry vanishes.
    """
    for offsets in INTERTWINER_OFFSETS:
        with np.errstate(over="ignore", invalid="ignore"):
            system = np.concatenate([
                intertwiner_system(N, eta, w, x - w.real / 2)
                for x in offsets])
        if not np.isfinite(system).all():
            return None
        sv, vh = np.linalg.svd(np.linalg.qr(system, mode="r"))[1:]
        top = sv[0]
        # the smallest singular value vanishes, the next does not
        if (top <= 0 or sv[-1] > 1e-6 * top
                or sv[-2] < np.sqrt(1e-9) * top):
            continue
        vec = vh[-1].conj()
        pivot = vec[0]  # (1,1;1,1) comes first in storage order
        if abs(pivot) < 1e-9 * np.max(np.abs(vec)):
            return None
        return vec / pivot
    return None
