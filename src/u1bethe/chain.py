"""Finite-chain objects: Lax operators, monodromy blocks, transfer matrix.

The quantum space is (C^N)^(x L) with site 1 slowest in the basis index,
so index = sum_i d_i N^(L-i) with local digit d = (state - 1).  Monodromy
products are ordered right-to-left with site 1 rightmost, i.e. the site-1
Lax factor acts first.  The total-spin digit sum n labels the sectors:
S^z eigenvalue = L s - n with s = (N - 1)/2.
"""

import functools
import math

import numpy as np

from .errors import DimensionTooLarge, EmptySector, IndexOutOfRange
from .weights import _finite, eval_r, ice_entry_count, ice_row_slots, ice_slot

__all__ = [
    "DENSE_LIMIT", "MAX_CHAIN_DIM", "ChainContext", "ChainOperator",
    "StateVector", "lax", "monodromy_element", "transfer_matrix",
    "reference_state", "vacuum_weight", "spin_z_total", "sector_indices",
    "transfer_block", "dense_sector_dimension", "monodromy_columns",
    "SplitMonodromy",
]

# Largest dimension of a dense matrix that may be requested: the full N^L
# form of an operator, or one sector block of T(lam) (`transfer_block`).
DENSE_LIMIT = 4096

# Complex numbers (16 B each) per chunk of the work arrays of `to_matrix`,
# of the half-chain monodromies and of a sector block's rows: about 1 MiB,
# whatever the chain length.
_BLOCK_CELLS = 2 ** 16


def _chunk_width(N, size):
    """Columns per chunk through a plan of `size` states: a gate step on k
    columns holds the old and the new work array and the (size, N, k)
    gather of partner states, (N + 2) size k numbers in all."""
    return max(1, _BLOCK_CELLS // ((N + 2) * size))


# Largest N^L a ChainContext accepts: an operator application holds its
# input and output, N^L complex numbers each, plus work arrays sized by the
# charge sectors the input occupies -- up to a few hundred MB for an input
# spread over every sector of 2^20 states.  The tests go up to 2^20 states.
MAX_CHAIN_DIM = 2 ** 20


class ChainContext:
    """Model + chain length + inhomogeneities; immutable once built."""

    _PLAN_BYTES = 16 * 2 ** 20  # byte budget of the contraction plans

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
        self._plans = {}   # total charges -> _SectorPlan, built on first apply
        self._plan_bytes = 0

    def __repr__(self):
        return (f"ChainContext({self.model.name}, N={self.N}, L={self.L}, "
                f"mu={self.inhomogeneities})")

    def _plan(self, charges):
        """The contraction plan over a tuple of total charges, memoized
        within `_PLAN_BYTES`; a plan above the budget is used once."""
        plan = self._plans.get(charges)
        if plan is None:
            plan = _SectorPlan(self.N, self.L, charges, self._PLAN_BYTES)
            if plan.nbytes <= self._PLAN_BYTES:
                if self._plan_bytes + plan.nbytes > self._PLAN_BYTES:
                    self._plans.clear()  # index maps only: rebuilt on demand
                    self._plan_bytes = 0
                self._plans[charges] = plan
                self._plan_bytes += plan.nbytes
        return plan


class ChainOperator:
    """Matrix-free linear operator on the chain space.

    `apply` takes a vector of length N^L or a (N^L, k) batch of columns.
    """

    def __init__(self, N, L, apply_fn):
        self.N = N
        self.L = L
        self.dim = N ** L
        self._apply_fn = apply_fn

    def apply(self, vec):
        return self._apply_fn(np.asarray(vec, dtype=complex))

    def to_matrix(self):
        """The dense form, from chunks of identity columns: a plan holds
        at most N^(L+1) states (aux digit and chain)."""
        if self.dim > DENSE_LIMIT:
            raise DimensionTooLarge(
                f"dense form of a dim-{self.dim} operator was requested")
        out = np.empty((self.dim, self.dim), dtype=complex)
        width = _chunk_width(self.N, self.N * self.dim)
        for lo in range(0, self.dim, width):
            hi = min(lo + width, self.dim)
            out[:, lo:hi] = self.apply(np.eye(self.dim, hi - lo, -lo,
                                              dtype=complex))
        return out


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
        sectors = _sectors(self.N, self.L, self.amplitudes[:, None])
        return int(sectors[0]) if len(sectors) == 1 else None

    def __add__(self, other):
        return StateVector(self.N, self.L, self.amplitudes + other.amplitudes)

    def __mul__(self, scalar):
        return StateVector(self.N, self.L, self.amplitudes * scalar)

    __rmul__ = __mul__


@functools.lru_cache(maxsize=16)
def _digit_sums(N, L):
    """Base-N digit sum of every basis index: each state's particle number.

    Read-only and shared; the smallest unsigned dtype that holds (N-1) L.
    """
    digits = np.arange(N, dtype=np.min_scalar_type((N - 1) * L))
    sums = np.zeros(1, dtype=digits.dtype)
    for _ in range(L):  # site 1 slowest: each further site is the fastest digit
        sums = (sums[:, None] + digits).ravel()
    sums.setflags(write=False)
    return sums


def sector_indices(N, L, n):
    """Basis indices spanning the n-particle sector."""
    return np.flatnonzero(_digit_sums(N, L) == n)


def lax(model, lam, mu_i):
    """Dense Lax operator on C^N (x) C^N; auxiliary space first."""
    return eval_r(model, lam, mu_i).dense()


def monodromy_element(ctx, lam, a, b):
    """The (a, b) auxiliary block of the monodromy matrix at `lam`.

    The returned operator contracts the Lax chain site by site on each
    application, over the charge sectors its input occupies; no dense
    form is built.
    """
    N = ctx.N
    if not (1 <= a <= N and 1 <= b <= N):
        raise IndexOutOfRange(f"auxiliary indices ({a},{b}) outside 1..{N}")
    return ChainOperator(N, ctx.L,
                         lambda vec: _apply_monodromy_sum(ctx, lam, ((a, b),), vec))


def transfer_matrix(ctx, lam):
    """T(lam) = sum_a T_{a,a}(lam); commutes with itself at other lam."""
    pairs = tuple((a, a) for a in range(1, ctx.N + 1))
    return ChainOperator(ctx.N, ctx.L,
                         lambda vec: _apply_monodromy_sum(ctx, lam, pairs, vec))


class _SectorPlan:
    """Index maps of the monodromy contraction over a set of total charges.

    The auxiliary space is site 0 of an (L+1)-site chain: T_{a,b} is then
    L two-site gates (aux, site k), and the total charge, aux digit plus
    digit sum, is conserved.  The plan's basis holds the states whose total
    charge is in `charges`, ordered by extended index d0 N^L + index, with
    d0 the aux digit; `segments[d0]` is (start, stop, chain indices) of the
    states with aux digit d0.  A plan within `budget` bytes builds every
    gate at once; a larger one builds each gate when the contraction
    reaches it.
    """

    def __init__(self, N, L, charges, budget):
        self.N, self.L = N, L
        sums = _digit_sums(N, L)
        wanted = np.zeros(N + (N - 1) * L, dtype=bool)
        wanted[list(charges)] = True
        self.segments, ext, start = [], [], 0
        for d0 in range(N):
            idx = np.flatnonzero(wanted[d0:][sums])
            self.segments.append((start, start + len(idx), idx))
            ext.append(idx + d0 * N ** L)
            start += len(idx)
        self.size = start
        self._ext = np.concatenate(ext)
        # per state: one index in the segments and ext, 2N in each gate
        self.nbytes = (2 + 2 * N * L) * start * self._ext.itemsize
        self._built = None
        if self.nbytes <= budget:
            self._built = [self._gate(k) for k in range(1, L + 1)]

    def gates(self):
        """Site 1 first: the list if built, else one gate at a time."""
        if self._built is not None:
            return self._built
        return (self._gate(k) for k in range(1, self.L + 1))

    def _gate(self, k):
        """(partners, slots) of gate k, both (size, N).

        A state with aux digit d0 and site-k digit dk is row (d0+1, dk+1) of
        a charge block of R(lam, mu_k).  Column c of that row is the weight
        in storage slot slots[s, c] and acts on the state partners[s, c],
        which has aux digit lo + c, lo + 1 the block's first column, and
        the same total charge.  Columns past the block's width read the
        zero slot one past the stored entries, and point at the state itself.
        """
        N, ext = self.N, self._ext
        top, place = N ** self.L, N ** (self.L - k)
        d0 = ext // top
        dk = ext // place % N
        slots = ice_row_slots(N)[d0 * N + dk]
        aux = np.maximum(d0 + dk - (N - 1), 0)[:, None] + np.arange(N)
        members = ext[:, None] + (aux - d0[:, None]) * (top - place)
        partners = np.where(slots < ice_entry_count(N),
                            np.searchsorted(ext, members),
                            np.arange(len(ext))[:, None])
        return partners, slots


def _site_weights(ctx, lam):
    """Per site, the stored ice entries of R(lam, mu_k) plus the zero slot
    that `_SectorPlan._gate` points padded columns at."""
    return [np.append(eval_r(ctx.model, lam, mu).values, 0)
            for mu in ctx.inhomogeneities]


def _contract(plan, weights, b, seg):
    """T_{a,b} for every a in plan coordinates: `seg` holds the rows of
    segment b - 1 (aux digit b - 1) times k columns; segment a - 1 of the
    returned rows holds T_{a,b} seg."""
    cur = np.zeros((plan.size, seg.shape[1]), dtype=complex)
    start, stop, _ = plan.segments[b - 1]
    cur[start:stop] = seg
    for vals, (partners, slots) in zip(weights, plan.gates()):
        cur = np.einsum("sc,sck->sk", vals[slots], cur[partners])
    return cur


def _sectors(N, L, cols):
    """The charge sectors that the rows of the (N^L, k) `cols` occupy."""
    rows = np.flatnonzero(cols.any(axis=1))
    return np.flatnonzero(np.bincount(_digit_sums(N, L)[rows]))


def _apply_monodromy_sum(ctx, lam, pairs, vec):
    """sum of T_{a,b}(lam) vec over `pairs`, on a vector or a (N^L, k) batch.

    Each term is contracted over the charge sectors the input occupies:
    entries outside them are exact zeros and stay out of the work arrays.
    """
    cols = vec.reshape(ctx.dim, -1)
    out = np.zeros(cols.shape, dtype=complex)
    sectors = _sectors(ctx.N, ctx.L, cols)
    if len(sectors) == 0:
        return out.reshape(vec.shape)
    weights = _site_weights(ctx, lam)
    for a, b in pairs:
        plan = ctx._plan(tuple((sectors + (b - 1)).tolist()))
        start, stop, idx = plan.segments[a - 1]
        out[idx] += _contract(plan, weights, b,
                              cols[plan.segments[b - 1][2]])[start:stop]
    return out.reshape(vec.shape)


def monodromy_columns(ctx, lam, b, vecs):
    """T_{a,b}(lam) vecs for every a = 1..N from one contraction of the
    (N^L, k) batch `vecs`: an (N, N^L, k) array, entry a - 1 the
    application of T_{a,b}(lam), each column bit for bit
    `monodromy_element(ctx, lam, a, b).apply` of that column alone."""
    out = np.zeros((ctx.N,) + vecs.shape, dtype=complex)
    sectors = _sectors(ctx.N, ctx.L, vecs)
    if len(sectors) == 0:
        return out
    plan = ctx._plan(tuple((sectors + (b - 1)).tolist()))
    cur = _contract(plan, _site_weights(ctx, lam), b,
                    vecs[plan.segments[b - 1][2]])
    for a, (start, stop, idx) in enumerate(plan.segments):
        out[a, idx] = cur[start:stop]
    return out


def _half_monodromy(model, lam, mus, sums):
    """The monodromy of the chain over the sites of `mus` (possibly none),
    restricted to its configurations whose digit sum is in `sums`:
    (configs, blocks), with configs those configurations' indices in
    ascending order and blocks[a - 1, b - 1] the (m, m) matrix of T_{a,b}
    on them.  The columns go through `monodromy_columns` in chunks of
    about `_BLOCK_CELLS` work cells, as in `to_matrix`."""
    N = model.N
    configs = np.flatnonzero(np.isin(_digit_sums(N, len(mus)), sums))
    if not mus:  # no sites: T_{a,b} = delta_ab on the one empty configuration
        return configs, np.eye(N, dtype=complex)[:, :, None, None]
    sub = ChainContext(model, len(mus), mus)
    m = len(configs)
    blocks = np.empty((N, N, m, m), dtype=complex)
    width = _chunk_width(N, N * sub.dim)
    for lo in range(0, m, width):
        hi = min(lo + width, m)
        cols = np.zeros((sub.dim, hi - lo), dtype=complex)
        cols[configs[lo:hi], np.arange(hi - lo)] = 1.0
        for b in range(1, N + 1):
            blocks[:, b - 1, :, lo:hi] = monodromy_columns(
                sub, lam, b, cols)[:, configs]
    return configs, blocks


class SplitMonodromy:
    """T(lam)'s dense sector blocks from the monodromies of two half chains.

    The head is sites 1..h, h = floor(L/2), the slow digits of the basis
    index, and the tail the other L - h sites.  Site 1 acts first, so the
    monodromy is the auxiliary-space product T = T_tail T_head, and

        <r| T(lam) |s> = sum_{c,b} T^head_{b,c}[hr, hs] T^tail_{c,b}[tr, ts]

    for chain states r = (hr, tr) and s = (hs, ts).  Both halves are built
    once, over the configurations that `sectors` use, and every `block` of
    those sectors reads them.
    """

    def __init__(self, ctx, lam, sectors):
        N, L, h = ctx.N, ctx.L, ctx.L // 2
        self.N, self.L = N, L
        self._tail_dim = N ** (L - h)
        # the head digit sums p and tail sums n - p of sector n's states
        head, tail = set(), set()
        for n in sectors:
            ps = range(max(0, n - (N - 1) * (L - h)), min(n, (N - 1) * h) + 1)
            head.update(ps)
            tail.update(n - p for p in ps)
        mus = ctx.inhomogeneities
        self._head = _half_monodromy(ctx.model, lam, mus[:h], list(head))
        self._tail = _half_monodromy(ctx.model, lam, mus[h:], list(tail))

    def block(self, n):
        """The block of sector n, rows and columns in the order of
        `sector_indices`, assembled in chunks of rows of about
        `_BLOCK_CELLS` entries; no array has N^L rows."""
        idx = sector_indices(self.N, self.L, n)
        dim = len(idx)
        # each state's head and tail among the halves' configurations
        (hconf, H), (tconf, T) = self._head, self._tail
        hpos = np.searchsorted(hconf, idx // self._tail_dim)
        tpos = np.searchsorted(tconf, idx % self._tail_dim)
        H = H.reshape(self.N, self.N, -1)
        T = T.reshape(self.N, self.N, -1)
        out = np.zeros((dim, dim), dtype=complex)
        # a chunk holds two index arrays and two gathered factors
        rows = max(1, _BLOCK_CELLS // (4 * dim))
        for lo in range(0, dim, rows):
            hflat = hpos[lo:lo + rows, None] * len(hconf) + hpos
            tflat = tpos[lo:lo + rows, None] * len(tconf) + tpos
            for c in range(self.N):
                for b in range(self.N):
                    term = H[b, c][hflat]
                    term *= T[c, b][tflat]
                    out[lo:lo + rows] += term
        return out


def transfer_block(ctx, lam, n):
    """The dense block of T(lam) on sector n, rows and columns in the order
    of `sector_indices`: `SplitMonodromy` over that one sector.  A sector
    over `DENSE_LIMIT` states raises DimensionTooLarge before anything is
    allocated."""
    dense_sector_dimension(ctx.N, ctx.L, n)
    return SplitMonodromy(ctx, lam, (n,)).block(n)


def reference_state(N, L):
    """Ferromagnetic product state: every site in local state 1."""
    amps = np.zeros(N ** L, dtype=complex)
    amps[0] = 1.0
    return StateVector(N, L, amps)


def vacuum_weight(ctx, lam, a):
    """w_a(lam): the diagonal monodromy eigenvalue on the reference state,
    the product over sites k of R_{a,1}^{a,1}(lam, mu_k).

    The entries come from the model's weight memo, which every
    application of T(lam) reads too, and are multiplied in site order as
    Python scalars: an array multiply would round differently.
    """
    if not 1 <= a <= ctx.N:
        raise IndexOutOfRange(f"index {a} outside 1..{ctx.N}")
    slot = ice_slot(ctx.N, a, 1, a, 1)
    return np.complex128(math.prod(
        [eval_r(ctx.model, lam, mu).values.item(slot)
         for mu in ctx.inhomogeneities], start=1.0 + 0.0j))


def spin_z_total(N, L):
    """Sum of local S^z = diag(s, s-1, ..., -s) over all sites."""
    s = (N - 1) / 2.0
    diag = (L * s - _digit_sums(N, L)).astype(complex)
    return ChainOperator(N, L, lambda v: np.einsum("i,i...->i...", diag, v))


def sector_dimension(N, L, n):
    """Number of states with digit sum n, counted without listing them:
    the x^n coefficient of (1 + x + ... + x^(N-1))^L."""
    if n < 0:
        return 0
    return sum((-1) ** j * math.comb(L, j) * math.comb(n - j * N + L - 1, L - 1)
               for j in range(min(L, n // N) + 1))


def require_nonempty_sector(N, L, n):
    if n < 0 or sector_dimension(N, L, n) == 0:
        raise EmptySector(f"sector n={n} is empty for N={N}, L={L}")


def dense_sector_dimension(N, L, n):
    """The dimension of sector n, which must be nonempty and within
    `DENSE_LIMIT`: the side of its dense block."""
    require_nonempty_sector(N, L, n)
    dim = sector_dimension(N, L, n)
    if dim > DENSE_LIMIT:
        raise DimensionTooLarge(
            f"sector n={n} has {dim} states, over the dense limit "
            f"{DENSE_LIMIT}")
    return dim
