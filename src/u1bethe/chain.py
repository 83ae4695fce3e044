"""Finite-chain objects: Lax operators, monodromy blocks, transfer matrix.

The quantum space is (C^N)^(x L) with site 1 slowest in the basis index,
so index = sum_i d_i N^(L-i) with local digit d = (state - 1).  Monodromy
products are ordered right-to-left with site 1 rightmost, i.e. the site-1
Lax factor acts first.  The total-spin digit sum n labels the sectors:
S^z eigenvalue = L s - n with s = (N - 1)/2.
"""

import numpy as np

from .errors import DimensionTooLarge, EmptySector
from .weights import _finite, eval_r

__all__ = [
    "DENSE_LIMIT", "MAX_CHAIN_DIM", "ChainContext", "ChainOperator",
    "StateVector", "lax", "monodromy_element", "transfer_matrix",
    "reference_state", "vacuum_weight", "spin_z_total", "sector_indices",
]

DENSE_LIMIT = 4096  # largest N^L whose dense form may be requested

# Largest N^L a ChainContext accepts: an operator application holds a few
# arrays of N^(L+1) complex numbers, a few hundred MB at 2^20 states for
# N <= 5.  The tests and the benchmark go up to 2^14 states.
MAX_CHAIN_DIM = 2 ** 20


class ChainContext:
    """Model + chain length + inhomogeneities; immutable once built."""

    _VACUUM_CAP = 4096  # memoized spectral points before the memo is cleared

    def __init__(self, model, L, inhomogeneities=None):
        if L < 1:
            raise ValueError(f"chain length must be >= 1, got {L}")
        # N >= 2: an L above the cap's bit length exceeds it; no N^L needed
        if L > MAX_CHAIN_DIM.bit_length() or model.N ** L > MAX_CHAIN_DIM:
            raise DimensionTooLarge(
                f"a chain of {model.N}^{L} states exceeds the limit of "
                f"{MAX_CHAIN_DIM} states")
        self.model = model
        self.L = int(L)
        if inhomogeneities is None:
            inhomogeneities = (model.regular_point,) * L
        inhomogeneities = tuple(_finite(m, "inhomogeneity")
                                for m in inhomogeneities)
        if len(inhomogeneities) != L:
            raise ValueError(
                f"need {L} inhomogeneities, got {len(inhomogeneities)}")
        self.inhomogeneities = inhomogeneities
        self.N = model.N
        self.dim = model.N ** L
        self._vacuum = {}  # lam -> [w_1(lam), ..., w_N(lam)]

    def __repr__(self):
        return (f"ChainContext({self.model.name}, N={self.N}, L={self.L}, "
                f"mu={self.inhomogeneities})")


class ChainOperator:
    """Matrix-free linear operator on the chain space.

    `apply` takes a vector of length N^L or a (N^L, k) batch of columns.
    """

    def __init__(self, N, L, sector_shift, apply_fn):
        self.N = N
        self.L = L
        self.dim = N ** L
        self.sector_shift = sector_shift
        self._apply_fn = apply_fn

    def apply(self, vec):
        return self._apply_fn(np.asarray(vec, dtype=complex))

    def to_matrix(self):
        if self.dim > DENSE_LIMIT:
            raise DimensionTooLarge(
                f"dense form of a dim-{self.dim} operator was requested")
        return self.apply(np.eye(self.dim, dtype=complex))


class StateVector:
    """Vector on the chain space with lazy S^z-sector bookkeeping."""

    def __init__(self, N, L, amplitudes):
        self.N = N
        self.L = L
        self.amplitudes = np.asarray(amplitudes, dtype=complex)
        if self.amplitudes.shape != (N ** L,):
            raise ValueError("amplitude array has the wrong length")

    @property
    def sector(self):
        """Particle number n if supported in one sector, else None."""
        sectors = np.unique(_digit_sums(self.N, self.L)[self.amplitudes != 0])
        return int(sectors[0]) if len(sectors) == 1 else None

    def __add__(self, other):
        return StateVector(self.N, self.L, self.amplitudes + other.amplitudes)

    def __mul__(self, scalar):
        return StateVector(self.N, self.L, self.amplitudes * scalar)

    __rmul__ = __mul__


def _digit_sums(N, L):
    """Base-N digit sum of every basis index: each state's particle number."""
    idx = np.arange(N ** L)
    sums = np.zeros(N ** L, dtype=int)
    for _ in range(L):
        sums += idx % N
        idx //= N
    return sums


def sector_indices(N, L, n):
    """Basis indices spanning the n-particle sector."""
    return np.nonzero(_digit_sums(N, L) == n)[0]


def lax(model, lam, mu_i):
    """Dense Lax operator on C^N (x) C^N; auxiliary space first."""
    return eval_r(model, lam, mu_i).dense()


def _site_blocks(model, lam, mu_i):
    """R(lam, mu_i) arranged as site operators: blocks[c, e][i, j] = R_{c+1,i+1}^{e+1,j+1}."""
    N = model.N
    return lax(model, lam, mu_i).reshape(N, N, N, N).transpose(0, 2, 1, 3)


def monodromy_element(ctx, lam, a, b):
    """The (a, b) auxiliary block of the monodromy matrix at `lam`.

    The returned operator contracts the Lax chain site by site on each
    application; no dense form is built.
    """
    N = ctx.N
    if not (1 <= a <= N and 1 <= b <= N):
        raise IndexError(f"auxiliary indices ({a},{b}) outside 1..{N}")
    return ChainOperator(N, ctx.L, b - a,
                         lambda vec: _apply_monodromy(ctx, lam, a, b, vec))


def _apply_monodromy(ctx, lam, a, b, vec):
    """T_{a,b}(lam) on a vector or on each column of a (N^L, k) batch."""
    N, L = ctx.N, ctx.L
    batch = vec.shape[1:]
    cur = np.zeros((N,) + (N,) * L + batch, dtype=complex)
    cur[b - 1] = vec.reshape((N,) * L + batch)
    for k in range(1, L + 1):
        blocks = _site_blocks(ctx.model, lam, ctx.inhomogeneities[k - 1])
        moved = np.moveaxis(cur, k, 1)
        new = np.einsum("baij,aj...->bi...", blocks, moved)
        cur = np.moveaxis(new, 1, k)
    return cur[a - 1].reshape(vec.shape)


def transfer_matrix(ctx, lam):
    """T(lam) = sum_a T_{a,a}(lam); commutes with itself at other lam."""
    N = ctx.N

    def _apply(vec):
        out = np.zeros(vec.shape, dtype=complex)
        for a in range(1, N + 1):
            out += _apply_monodromy(ctx, lam, a, a, vec)
        return out

    return ChainOperator(N, ctx.L, 0, _apply)


def reference_state(N, L):
    """Ferromagnetic product state: every site in local state 1."""
    amps = np.zeros(N ** L, dtype=complex)
    amps[0] = 1.0
    return StateVector(N, L, amps)


def vacuum_weight(ctx, lam, a):
    """w_a(lam): the diagonal monodromy eigenvalue on the reference state."""
    if not 1 <= a <= ctx.N:
        raise IndexError(f"index {a} outside 1..{ctx.N}")
    key = complex(lam)
    got = ctx._vacuum.get(key)
    if got is None:
        # all N weights in one pass over the sites, each multiplied in
        # site order
        got = [1.0 + 0.0j] * ctx.N
        for mu in ctx.inhomogeneities:
            w = eval_r(ctx.model, lam, mu)
            for b in range(ctx.N):
                got[b] *= w.entry(b + 1, 1, b + 1, 1)
        if len(ctx._vacuum) >= ctx._VACUUM_CAP:
            ctx._vacuum.clear()  # pure values: recompute if evicted
        ctx._vacuum[key] = got
    return got[a - 1]


def spin_z_total(N, L):
    """Sum of local S^z = diag(s, s-1, ..., -s) over all sites."""
    s = (N - 1) / 2.0
    diag = (L * s - _digit_sums(N, L)).astype(complex)
    return ChainOperator(N, L, 0,
                         lambda v: np.einsum("i,i...->i...", diag, v))


def sector_dimension(N, L, n):
    return len(sector_indices(N, L, n))


def require_nonempty_sector(N, L, n):
    if n < 0 or sector_dimension(N, L, n) == 0:
        raise EmptySector(f"sector n={n} is empty for N={N}, L={L}")
