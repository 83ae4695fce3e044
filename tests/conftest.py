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


def nan_difference(monkeypatch, k):
    """Make `RationalKernel.differences` read nan at its k-th u (from 0)."""
    real = W.RationalKernel.differences

    def patched(kernel, us):
        out = real(kernel, us)
        out[k] = float("nan")
        return out

    monkeypatch.setattr(W.RationalKernel, "differences", patched)


def count_solves(monkeypatch):
    """A list that gains, per call of the batched weight solver
    `_solve_intertwiners`, the number of points the call solves."""
    calls = []
    solve = W._solve_intertwiners

    def counted(N, eta, ws):
        calls.append(len(ws))
        return solve(N, eta, ws)

    monkeypatch.setattr(W, "_solve_intertwiners", counted)
    return calls
