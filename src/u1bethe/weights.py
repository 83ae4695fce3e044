"""R-matrix models for vertex systems with a single U(1) charge.

A weight matrix R(lambda, mu) stores only its ice entries: the ice rule
a + b = c + d forces every other entry to vanish structurally.  They lie
in the charge blocks q = a + b - 1 (q = 1..2N-1), with a, c running over
max(1, q+1-N)..min(q, N), and are kept in one flat array, block by block.
Evaluations are cached per model within a fixed byte budget.

Built-in families:

* ``six_vertex`` -- N = 2 trigonometric weights in the symmetric gauge,
  normalized so that R21(l, m) R12(m, l) = I exactly.
* ``higher_spin_xxz`` -- N >= 3 spin-s weights obtained numerically as the
  (unique up to scale) intertwiner solving the mixed Yang-Baxter relation
  with the standard U_q(sl2) spin-s Lax operator.  No closed-form weights
  are transcribed; the Yang-Baxter and unitarity checkers below gate every
  built-in family.
"""

import cmath
import functools
import math

import numpy as np

from .errors import IndexOutOfRange, ParameterDomain, UnknownGridPoint

__all__ = [
    "ModelSpec", "WeightMatrix",
    "six_vertex", "higher_spin_xxz", "table_model", "custom_model",
    "permutation_model", "eval_r", "check_ice_rule", "check_yang_baxter",
    "check_unitarity", "check_regularity", "charge_block",
    "load_table_file", "write_table_file", "random_point",
]


def _finite(z, what="spectral parameter"):
    z = complex(z)
    if not cmath.isfinite(z):
        raise ParameterDomain(f"{what} must be finite, got {z!r}")
    return z


def _anisotropy(eta):
    """`eta` as a complex number, with sinh(eta) nonzero and finite."""
    eta = _finite(eta, "eta")
    nearest = 1j * np.pi * round(eta.imag / np.pi)
    if abs(eta - nearest) < 1e-12:
        raise ParameterDomain(
            f"anisotropy eta = {eta!r} is degenerate: sinh(eta) = 0")
    try:
        cmath.sinh(eta)
    except OverflowError:
        raise ParameterDomain(
            f"anisotropy eta = {eta!r} is too large: sinh(eta) overflows"
        ) from None
    return eta


def block_range(N, q):
    """Row/column range (lo, hi) inclusive of charge block q = a + b - 1."""
    return max(1, q + 1 - N), min(q, N)


class _Layout:
    """Flat storage order of the ice entries of an N-state weight matrix.

    Entries run block by block (q = a + b - 1), then over a, then over c:
    the order `WeightMatrix.items` yields them in.
    """

    def __init__(self, N):
        self.keys = []
        for q in range(1, 2 * N):
            lo, hi = block_range(N, q)
            self.keys += [(a, q + 1 - a, c, q + 1 - c)
                          for a in range(lo, hi + 1) for c in range(lo, hi + 1)]
        self.index = {key: k for k, key in enumerate(self.keys)}
        # row_slots[(a-1) N + (b-1), c - lo] = slot of R_{a,b}^{c,d}, over the
        # block's columns c = lo..hi, padded with the slot past the last entry
        self.row_slots = np.full((N * N, N), len(self.keys))
        for k, (a, b, c, d) in enumerate(self.keys):
            self.row_slots[(a - 1) * N + b - 1, c - block_range(N, a + b - 1)[0]] = k
        arr = np.array(self.keys) - 1
        self.rows = arr[:, 0] * N + arr[:, 1]
        self.cols = arr[:, 2] * N + arr[:, 3]
        # position of each lexicographic 0-based ice key (the intertwiner
        # solver's unknown order) in the flat storage
        self.solver_keys = sorted(tuple(i - 1 for i in key) for key in self.keys)
        self.solver_slots = np.array(
            [self.index[tuple(i + 1 for i in key)] for key in self.solver_keys])


_layout = functools.cache(_Layout)  # one layout per N, built on first use


def ice_row_slots(N):
    """(N^2, N) storage slots of each weight row (a, b) over its charge
    block's columns, padded with `ice_entry_count(N)`; row (a-1) N + (b-1)."""
    return _layout(N).row_slots


def ice_entry_count(N):
    """Number of entries a + b = c + d of an N-state weight matrix."""
    return (2 * N ** 3 + N) // 3


class WeightMatrix:
    """One evaluated R(lambda, mu), stored as a flat array of ice entries.

    Entries are addressed 1-based as R_{a,b}^{c,d} with lower indices the
    output (row) pair and upper indices the input (column) pair.  Entries
    off the ice rule are structurally zero and cannot be stored.
    """

    __slots__ = ("N", "_lay", "_vals", "_dense")

    def __init__(self, N, values):
        self.N = int(N)
        self._lay = _layout(self.N)
        self._vals = values
        self._dense = None

    @classmethod
    def zeros(cls, N):
        return cls(N, np.zeros(ice_entry_count(N), dtype=complex))

    @classmethod
    def from_entries(cls, N, entries):
        """Build from a dict {(a,b,c,d): value}; rejects non-ice keys."""
        w = cls.zeros(N)
        for (a, b, c, d), val in entries.items():
            w.set_entry(a, b, c, d, val)
        return w

    @classmethod
    def from_dense(cls, N, arr):
        """Build from an N^2 x N^2 array indexed [(a,b), (c,d)] row-major.

        Raises ParameterDomain if any entry off the ice blocks is nonzero.
        """
        arr = np.asarray(arr, dtype=complex)
        if arr.shape != (N * N, N * N):
            raise ParameterDomain(
                f"dense weights of N = {N} need shape {(N * N, N * N)}, "
                f"got {arr.shape}")
        stray = check_ice_rule(arr)
        if stray:
            raise ParameterDomain(
                "non-ice entry ({},{})->({},{}) = {}".format(*stray[0]))
        lay = _layout(N)
        return cls(N, arr[lay.rows, lay.cols])

    def _check_range(self, *idx):
        for i in idx:
            if not 1 <= i <= self.N:
                raise IndexOutOfRange(f"index {i} outside 1..{self.N}")

    def entry(self, a, b, c, d):
        """R_{a,b}^{c,d}; structurally absent entries read as exact 0."""
        k = self._lay.index.get((a, b, c, d))
        if k is not None:  # ice keys are in range
            return self._vals[k]
        self._check_range(a, b, c, d)
        return 0.0 + 0.0j

    def set_entry(self, a, b, c, d, value):
        self._check_range(a, b, c, d)
        k = self._lay.index.get((a, b, c, d))
        if k is None:
            raise ParameterDomain(f"({a},{b})->({c},{d}) violates the ice rule")
        self._vals[k] = complex(value)
        self._dense = None

    def items(self):
        """Yield every ice entry (a, b, c, d, value) in storage order."""
        for key, v in zip(self._lay.keys, self._vals):
            yield (*key, v)

    @property
    def values(self):
        """The flat ice entries in storage order (see `ice_row_slots`)."""
        return self._vals

    def dense(self):
        """N^2 x N^2 array with rows (a,b) and columns (c,d), row-major."""
        if self._dense is None:
            N = self.N
            out = np.zeros((N * N, N * N), dtype=complex)
            out[self._lay.rows, self._lay.cols] = self._vals
            self._dense = out
        return self._dense


def cache_entry_bytes(N):
    """Bytes one cached evaluation can hold: its flat entries and dense()
    arrays, plus 512 B for the object and array headers, the (lam, mu) key
    and the dict slot (tracemalloc measures 436-450 B at N = 2..5)."""
    return 16 * (ice_entry_count(N) + N ** 4) + 512


class ModelSpec:
    """A weight model: N, parameters and an evaluation rule for R(l, m).

    Instances are immutable after construction; evaluations are cached by
    the exact (lambda, mu) pair, so repeated calls are bit-identical.
    """

    # default inhomogeneity of every chain site
    regular_point = 0j
    # sampling windows ((re_lo, re_hi), (im_lo, im_hi)) for spectral
    # points in checks and for Newton seeds
    sample_window = ((-1.2, 1.2), (-1.0, 1.0))
    root_window = ((-1.6, 1.6), (-1.7, 1.7))

    def __init__(self, name, N, params, eval_fn, table_data=None,
                 rapidity_period=None):
        if N < 2:
            raise ParameterDomain(f"N must be >= 2, got {N}")
        self.name = name
        self.N = int(N)
        self.params = dict(params)
        self.table_data = table_data
        # weights invariant under lam -> lam + rapidity_period, when set
        self.rapidity_period = rapidity_period
        self.solver_ok = table_data is None  # table models: no free evaluation
        self._eval_fn = eval_fn
        self._cache = {}
        self._cache_cap = max(1, self.CACHE_BYTES // cache_entry_bytes(self.N))

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"ModelSpec({self.name}, N={self.N}, {ps})"

    # byte budget of the evaluation cache, charged by cache_entry_bytes
    CACHE_BYTES = 32 * 2 ** 20

    def eval_r(self, lam, mu):
        lam = _finite(lam)
        mu = _finite(mu)
        key = (lam, mu)
        got = self._cache.get(key)
        if got is None:
            got = self._eval_fn(lam, mu)
            if len(self._cache) >= self._cache_cap:
                self._cache.clear()  # pure evaluations: recompute if evicted
            self._cache[key] = got
        return got


def eval_r(model, lam, mu):
    """Evaluate the charge-block-sparse R(lambda, mu) of `model`."""
    return model.eval_r(lam, mu)


def random_point(rng, window):
    (re0, re1), (im0, im1) = window
    return complex(rng.uniform(re0, re1), rng.uniform(im0, im1))


# ----------------------------------------------------------------------
# built-in families
# ----------------------------------------------------------------------

def _sinh(z):
    """np.sinh(z) of a complex scalar, inf or nan on overflow without a warning."""
    if abs(z.real) < 709.0:  # cosh(709) < 1e308: no overflow possible
        return np.sinh(z)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sinh(z)


def _six_vertex_weights(eta, c, u):
    """Flat six-vertex weights at u; `c` is sinh(eta)."""
    a = _sinh(u + eta)
    b = _sinh(u)
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise ParameterDomain(f"six_vertex weights overflow at u = {u}")
    if abs(a) < 1e-12 * max(1.0, abs(b), abs(c)):
        raise ParameterDomain(f"six_vertex weights have a pole at u = {u}")
    b, c = b / a, c / a
    # flat order (1,1;1,1) (1,2;1,2) (1,2;2,1) (2,1;1,2) (2,1;2,1) (2,2;2,2)
    return WeightMatrix(2, np.array([1.0, b, c, c, b, 1.0], dtype=complex))


def six_vertex(eta=0.4375):
    """Symmetric six-vertex model (N = 2) with anisotropy `eta`.

    Weights are pre-normalized by the (1,1;1,1) entry sinh(u + eta), so the
    unitarity relation holds with the identity on the right exactly.
    """
    eta = _anisotropy(eta)
    c = np.sinh(eta)

    def _eval(lam, mu):
        return _six_vertex_weights(eta, c, lam - mu)

    return ModelSpec("six_vertex", 2, {"eta": eta}, _eval,
                     rapidity_period=1j * np.pi)


def _qbracket(x, eta):
    return np.sinh(eta * x) / np.sinh(eta)


def _fundamental_lax(N, eta, u):
    """Lax operator on C^2 (x) C^N built from the U_q(sl2) spin-s generators.

    Returns a 2N x 2N array indexed [(alpha, i), (beta, j)] with alpha the
    auxiliary output; for N = 2 this is the raw six-vertex R-matrix.
    """
    s = (N - 1) / 2.0
    m = s - np.arange(N)          # weights of the local basis, state 1 highest
    v = np.sqrt(np.array([_qbracket(k + 1, eta) * _qbracket(2 * s - k, eta)
                          for k in range(N - 1)], dtype=complex))
    sp = np.zeros((N, N), dtype=complex)
    sp[np.arange(N - 1), np.arange(1, N)] = v
    sm = sp.T.copy()
    A = np.diag(np.sinh(u + eta / 2 + eta * m))
    D = np.diag(np.sinh(u + eta / 2 - eta * m))
    sh = np.sinh(eta)
    out = np.zeros((2 * N, 2 * N), dtype=complex)
    out[:N, :N] = A
    out[:N, N:] = sh * sm
    out[N:, :N] = sh * sp
    out[N:, N:] = D
    return out


_INTERTWINER_OFFSETS = (
    (0.4371 + 0.2913j, -0.5923 + 0.1647j),
    (0.7253 - 0.3381j, 0.1931 + 0.6117j),
    (-0.8419 + 0.4457j, 0.3343 - 0.7129j),
)


def _intertwiner_columns(N, m1, m2, idx):
    """Columns of the linear map X -> M1 (I (x) X) - (I (x) X) M2.

    The unknown is restricted to the ice-allowed basis entries `idx`; each
    column is the ravelled matrix of the commutator-like action on one
    basis element.
    """
    nn = N * N
    dim = 2 * nn
    k = len(idx)
    arr = np.asarray(idx)
    rs = arr[:, 0] * N + arr[:, 1]
    pq = arr[:, 2] * N + arr[:, 3]
    cols = np.zeros((k, dim, dim), dtype=complex)
    kk = np.arange(k)[:, None]
    uu = np.arange(dim)[None, :]
    for alpha in (0, 1):
        cols[kk, uu, (alpha * nn + pq)[:, None]] += m1[:, alpha * nn + rs].T
        cols[kk, (alpha * nn + rs)[:, None], uu] -= m2[alpha * nn + pq, :]
    return cols.reshape(k, dim * dim).T


def _intertwiner_normal_matrix(N, eta, w, offsets, idx):
    dim = 2 * N * N
    eye_n = np.eye(N)
    gram = 0.0
    for x in offsets:
        lx = _fundamental_lax(N, eta, x)
        ly = _fundamental_lax(N, eta, x + w)
        l12 = np.kron(lx, eye_n)
        t = ly.reshape(2, N, 2, N)
        l13 = np.einsum("ajbq,ip->aijbpq", t, eye_n).reshape(dim, dim)
        m1 = l12 @ l13
        m2 = l13 @ l12
        cols = _intertwiner_columns(N, m1, m2, idx)
        # an overflow leaves a non-finite Gram matrix; the caller rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            gram = gram + cols.conj().T @ cols
    return gram


def _solve_intertwiner(N, eta, w):
    lay = _layout(N)
    idx = lay.solver_keys  # 0-based ice keys in lexicographic order
    for offsets in _INTERTWINER_OFFSETS:
        gram = _intertwiner_normal_matrix(N, eta, w, offsets, idx)
        if not np.isfinite(gram).all():
            raise ParameterDomain(
                f"higher-spin weights overflow at u = {w} (eta = {eta})")
        evals, evecs = np.linalg.eigh(gram)
        top = evals[-1]
        if top <= 0:
            continue
        # eigenvalues of the Gram matrix are squared singular values
        if evals[0] > 1e-12 * top or evals[1] < 1e-9 * top:
            continue  # no one-dimensional nullspace at these offsets
        vec = evecs[:, 0]
        norm_pos = idx.index((0, 0, 0, 0))
        pivot = vec[norm_pos]
        if abs(pivot) < 1e-9 * np.max(np.abs(vec)):
            raise ParameterDomain(
                f"higher-spin weights degenerate at u = {w}: "
                "normalizing (1,1;1,1) entry vanishes")
        vals = np.empty(len(idx), dtype=complex)
        vals[lay.solver_slots] = vec / pivot
        return WeightMatrix(N, vals)
    raise ParameterDomain(
        f"higher-spin intertwiner not unique at u = {w} (degenerate point)")


def higher_spin_xxz(N=3, eta=0.4375):
    """Spin-s XXZ weights for N = 2s + 1 local states.

    N = 2 reduces to the six-vertex family; for N >= 3 each evaluation
    solves the mixed Yang-Baxter relation for the unique normalized
    intertwiner.
    """
    eta = _anisotropy(eta)
    if N == 2:
        model = six_vertex(eta)
        model.name = "higher_spin_xxz"
        return model

    def _eval(lam, mu):
        return _solve_intertwiner(N, eta, lam - mu)

    return ModelSpec("higher_spin_xxz", N, {"eta": eta}, _eval,
                     rapidity_period=1j * np.pi)


def permutation_model(N):
    """Constant R = permutation operator; solves the YBE trivially."""
    entries = {(a, b, b, a): 1.0 for a in range(1, N + 1) for b in range(1, N + 1)}

    def _eval(lam, mu):
        return WeightMatrix.from_entries(N, entries)

    return ModelSpec("custom", N, {"kind": "permutation"}, _eval)


def custom_model(N, eval_fn, name="custom", params=None):
    """Library extension point: `eval_fn(lam, mu)` supplies the weights.

    The callback may return a WeightMatrix, a {(a,b,c,d): value} dict, or a
    dense N^2 x N^2 array (which must carry exact structural zeros).
    """
    def _eval(lam, mu):
        got = eval_fn(lam, mu)
        if isinstance(got, WeightMatrix):
            return got
        if isinstance(got, dict):
            return WeightMatrix.from_entries(N, got)
        return WeightMatrix.from_dense(N, got)

    return ModelSpec(name, N, params or {}, _eval)


def table_model(records, N=None):
    """Model backed by stored evaluations; supports checkers only.

    `records` is a list of (lam, mu, WeightMatrix).  Lookups must match the
    stored pair exactly (bitwise on the parsed floats).
    """
    if not records:
        raise ParameterDomain("table model needs at least one record")
    if N is None:
        N = records[0][2].N
    store = {(complex(l), complex(m)): w for l, m, w in records}

    def _eval(lam, mu):
        try:
            return store[(lam, mu)]
        except KeyError:
            raise UnknownGridPoint(
                f"table model stores no weights at ({lam}, {mu})") from None

    return ModelSpec("table", N, {}, _eval, table_data=list(records))


# ----------------------------------------------------------------------
# table file format: one record per line,
#   lambda_re lambda_im mu_re mu_im a b c d w_re w_im
# ----------------------------------------------------------------------

def load_table_file(path):
    groups = {}
    order = []
    ns = set()
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 10:
                raise ParameterDomain(
                    f"{path}:{ln}: expected 10 fields, got {len(parts)}")
            try:
                lr, li, mr, mi = (float(p) for p in parts[:4])
                a, b, c, d = (int(p) for p in parts[4:8])
                wr, wi = float(parts[8]), float(parts[9])
            except ValueError as err:
                raise ParameterDomain(f"{path}:{ln}: {err}") from None
            if min(a, b, c, d) < 1:
                raise ParameterDomain(f"{path}:{ln}: indices start at 1")
            if a + b != c + d:
                raise ParameterDomain(
                    f"{path}:{ln}: entry ({a},{b})->({c},{d}) violates the ice rule")
            key = (complex(lr, li), complex(mr, mi))
            if key not in groups:
                groups[key] = {}
                order.append(key)
            groups[key][(a, b, c, d)] = complex(wr, wi)
            ns.update((a, b, c, d))
    if not ns:
        raise ParameterDomain(f"{path}:1: table file holds no weight records")
    N = max(ns)
    records = [(l, m, WeightMatrix.from_entries(N, groups[(l, m)]))
               for (l, m) in order]
    return table_model(records, N=N)


def write_table_file(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for lam, mu, w in records:
            for a, b, c, d, v in w.items():
                fh.write(f"{lam.real:.17g} {lam.imag:.17g} "
                         f"{mu.real:.17g} {mu.imag:.17g} "
                         f"{a} {b} {c} {d} {v.real:.17g} {v.imag:.17g}\n")


# ----------------------------------------------------------------------
# defining-relation checkers
# ----------------------------------------------------------------------

def check_ice_rule(arr):
    """Nonzero entries off a + b = c + d of a dense N^2 x N^2 weight array.

    Returns the offending (a, b, c, d, value), 1-based, in row-major
    order; an empty list means the ice rule holds.
    """
    arr = np.asarray(arr, dtype=complex)
    N = math.isqrt(arr.shape[0])
    lay = _layout(N)
    off = arr.copy()
    off[lay.rows, lay.cols] = 0
    return [(r // N + 1, r % N + 1, c // N + 1, c % N + 1, complex(arr[r, c]))
            for r, c in np.argwhere(off != 0).tolist()]


def _dense_permutation(N):
    p = np.zeros((N * N, N * N), dtype=complex)
    for a in range(N):
        for b in range(N):
            p[a * N + b, b * N + a] = 1.0
    return p


def _embed_13(r_dense, N):
    t = r_dense.reshape(N, N, N, N)
    return np.einsum("ikIK,jJ->ijkIJK", t, np.eye(N)).reshape(N ** 3, N ** 3)


def check_yang_baxter(model, l1, l2, l3):
    """Max-abs residual of the Yang-Baxter equation at (l1, l2, l3).

    Both sides of the componentwise relation are evaluated as dense
    products on C^N (x) C^N (x) C^N; the residual is normalized by the
    largest weight magnitude among the three evaluations.
    """
    N = model.N
    r12 = model.eval_r(l1, l2).dense()
    r13 = model.eval_r(l1, l3).dense()
    r23 = model.eval_r(l2, l3).dense()
    eye_n = np.eye(N)
    m12 = np.kron(r12, eye_n)
    m23 = np.kron(eye_n, r23)
    m13 = _embed_13(r13, N)
    lhs = m12 @ m13 @ m23
    rhs = m23 @ m13 @ m12
    scale = max(np.max(np.abs(r12)), np.max(np.abs(r13)), np.max(np.abs(r23)))
    return float(np.max(np.abs(lhs - rhs)) / max(scale, 1e-300))


def _swap_spaces(r_dense, N):
    return r_dense.reshape(N, N, N, N).transpose(1, 0, 3, 2).reshape(N * N, N * N)


def check_unitarity(model, lam, mu):
    """Max-abs entry of R21(lam, mu) R12(mu, lam) - I."""
    N = model.N
    r21 = _swap_spaces(model.eval_r(lam, mu).dense(), N)
    r12 = model.eval_r(mu, lam).dense()
    return float(np.max(np.abs(r21 @ r12 - np.eye(N * N))))


def check_regularity(model, lam):
    """Distance of R(lam, lam) from rho * P with rho its (1,1;1,1) entry."""
    w = model.eval_r(lam, lam)
    rho = w.entry(1, 1, 1, 1)
    return float(np.max(np.abs(w.dense() - rho * _dense_permutation(model.N))))


def charge_block(w, j, q1):
    """The q1 x q1 key-weight matrix a^{j,q1}_{b,c} read from `w`.

    j = 1 reads the charge-q1 block, j = 2 the mirrored charge-(2N - q1)
    block in reflected labels.
    """
    N = w.N
    if not 1 <= q1 <= N:
        raise IndexOutOfRange(f"q1 = {q1} outside 1..{N}")
    if j not in (1, 2):
        raise IndexOutOfRange(f"j = {j} must be 1 or 2")
    out = np.zeros((q1, q1), dtype=complex)
    for b in range(1, q1 + 1):
        for c in range(1, q1 + 1):
            if j == 1:
                out[b - 1, c - 1] = w.entry(q1 + 1 - b, b, c, q1 + 1 - c)
            else:
                out[b - 1, c - 1] = w.entry(N + 1 - b, N - q1 + b,
                                            N - q1 + c, N + 1 - c)
    return out
