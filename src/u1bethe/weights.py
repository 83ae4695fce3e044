"""R-matrix models for vertex systems with a single U(1) charge.

A weight matrix R(lambda, mu) stores only its ice entries: the ice rule
a + b = c + d forces every other entry to vanish structurally.  They lie
in the charge blocks q = a + b - 1 (q = 1..2N-1), with a, c running over
max(1, q+1-N)..min(q, N), and are kept in one flat array, block by block.
Evaluations are memoized per model in a bounded LRU (`ModelSpec`), and
handed out read-only.  Every model also evaluates an array of points in
one call (`ModelSpec.array_fn`), bit for bit the scalar evaluations, with
a mask of the points they refuse: the two families of difference form in
one array pass over u = lambda - mu, the other models point by point.

Built-in families:

* ``six_vertex`` -- N = 2 trigonometric weights in the symmetric gauge,
  normalized so that R21(l, m) R12(m, l) = I exactly.
* ``higher_spin_xxz`` -- N >= 3 spin-s weights, the fusion of N - 1
  spin-1/2 Lax operators built from the U_q(sl2) spin-s generators, kept
  as exact Laurent coefficients in z = e^u (`RationalKernel`).  They are
  checked by the relation that defines them: R(u) intertwines two
  products of that Lax operator (the mixed Yang-Baxter relation).
  No closed-form weights are transcribed; the Yang-Baxter and unitarity
  checkers below gate every built-in family.
"""

import cmath
import functools
import math

import numpy as np

from .errors import IndexOutOfRange, ParameterDomain, UnknownGridPoint

__all__ = [
    "ModelSpec", "WeightMatrix", "RationalKernel", "ice_slot",
    "six_vertex", "higher_spin_xxz", "table_model", "custom_model",
    "permutation_model", "eval_r", "check_ice_rule", "check_yang_baxter",
    "check_unitarity", "check_regularity", "charge_block",
    "load_table_file", "write_table_file", "random_point",
    "relative_residual", "worst_residual",
]


def _finite(z, what="spectral parameter"):
    z = complex(z)
    if not cmath.isfinite(z):
        raise ParameterDomain(f"{what} must be finite, got {z!r}")
    return z


def _anisotropy(eta, N=2):
    """`eta` as a complex number, with sinh(eta) finite and the q-numbers
    [k]_q = sinh(k eta) / sinh(eta) of k = 1..N-1 nonzero."""
    eta = _finite(eta, "eta")
    for k in range(1, N):
        if not cmath.isfinite(k * eta):
            raise ParameterDomain(
                f"anisotropy eta = {eta!r} is too large: {k} eta overflows")
        if abs(k * eta - 1j * np.pi * round(k * eta.imag / np.pi)) < 1e-12:
            zero = ("sinh(eta) = 0" if k == 1 else
                    f"[{k}]_q = sinh({k} eta) / sinh(eta) = 0 at N = {N}")
            raise ParameterDomain(
                f"anisotropy eta = {eta!r} is degenerate: {zero}")
    try:
        cmath.sinh(eta)
    except OverflowError:
        raise ParameterDomain(
            f"anisotropy eta = {eta!r} is too large: sinh(eta) overflows"
        ) from None
    return eta


_SCALARS = (complex, float, int)  # numpy's double scalars subclass these


def relative_residual(lhs, rhs):
    """max|lhs - rhs| / max(max|lhs|, max|rhs|, 1e-30), scalars or arrays.

    Builtin `abs` keeps a complex scalar on Python's own modulus, so a
    scalar residual is exactly abs(lhs - rhs) / max(abs(lhs), abs(rhs)).
    Scalars skip the reductions, which cost twenty times the arithmetic.
    """
    if isinstance(lhs, _SCALARS) and isinstance(rhs, _SCALARS):
        return float(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
    return float(np.max(abs(lhs - rhs))
                 / max(np.max(abs(lhs)), np.max(abs(rhs)), 1e-30))


def worst_residual(residuals):
    """The largest of `residuals` (one number or a sequence), 0.0 if none.

    Every check takes its worst case here.  np.max, unlike builtin max,
    propagates nan, so a nan anywhere makes the worst case nan, and nan
    fails every `<= tol` and `< tol` gate.
    """
    return float(np.max(residuals, initial=0.0))


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
        self.flip = np.array([self.index[tuple(N + 1 - i for i in key)]
                              for key in self.keys])
        # row_slots[(a-1) N + (b-1), c - lo] = slot of R_{a,b}^{c,d}, over the
        # block's columns c = lo..hi, padded with the slot past the last entry
        self.row_slots = np.full((N * N, N), len(self.keys))
        for k, (a, b, c, d) in enumerate(self.keys):
            self.row_slots[(a - 1) * N + b - 1, c - block_range(N, a + b - 1)[0]] = k
        arr = np.array(self.keys) - 1
        self.rows = arr[:, 0] * N + arr[:, 1]
        self.cols = arr[:, 2] * N + arr[:, 3]


_layout = functools.cache(_Layout)  # one layout per N, built on first use


def ice_row_slots(N):
    """(N^2, N) storage slots of each weight row (a, b) over its charge
    block's columns, padded with `ice_entry_count(N)`; row (a-1) N + (b-1)."""
    return _layout(N).row_slots


def ice_flip_slots(N):
    """Per storage slot, the slot of its spin flip a -> N+1-a on all four
    indices: `values[ice_flip_slots(N)]` is the flipped matrix."""
    return _layout(N).flip


def ice_slot(N, a, b, c, d):
    """Storage slot of the ice entry R_{a,b}^{c,d} of an N-state matrix."""
    return _layout(N).index[(a, b, c, d)]


def ice_entry_count(N):
    """Number of entries a + b = c + d of an N-state weight matrix."""
    return (2 * N ** 3 + N) // 3


class WeightMatrix:
    """One evaluated R(lambda, mu), stored as a flat array of ice entries.

    Entries are addressed 1-based as R_{a,b}^{c,d} with lower indices the
    output (row) pair and upper indices the input (column) pair.  Entries
    off the ice rule are structurally zero and cannot be stored.
    """

    __slots__ = ("N", "_lay", "_vals")

    def __init__(self, N, values):
        self.N = int(N)
        self._lay = _layout(self.N)
        self._vals = np.asarray(values, dtype=complex)

    @classmethod
    def from_entries(cls, N, entries):
        """Build from a dict {(a,b,c,d): value}; rejects non-ice keys."""
        w = cls(N, np.zeros(ice_entry_count(N), dtype=complex))
        for (a, b, c, d), val in entries.items():
            k = w._lay.index.get((a, b, c, d))
            if k is None:
                w._check_range(a, b, c, d)
                raise ParameterDomain(f"({a},{b})->({c},{d}) violates the ice rule")
            w._vals[k] = complex(val)
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

    def items(self):
        """Yield every ice entry (a, b, c, d, value) in storage order."""
        for key, v in zip(self._lay.keys, self._vals):
            yield (*key, v)

    @property
    def values(self):
        """The flat ice entries in storage order (see `ice_row_slots`)."""
        return self._vals

    def dense(self):
        """A fresh N^2 x N^2 array with rows (a,b) and columns (c,d),
        row-major."""
        N = self.N
        out = np.zeros((N * N, N * N), dtype=complex)
        out[self._lay.rows, self._lay.cols] = self._vals
        return out


def _evaluate(eval_fn, lam, mu):
    w = eval_fn(_finite(lam), _finite(mu))
    w.values.setflags(write=False)  # the memo hands it to every caller
    return w


class ModelSpec:
    """A weight model: N, parameters and an evaluation rule for R(l, m).

    Instances are immutable after construction.  Evaluations are memoized
    by the exact (lambda, mu) pair in an LRU of min(4096, 2^21 / K) entries
    for K = `ice_entry_count(N)`, at most 32 MiB of entry values for any N;
    an evicted point is evaluated again to the same bits.  The memoized
    matrices are read-only: every caller gets the same one.
    """

    # default inhomogeneity of every chain site
    regular_point = 0j
    # sampling windows ((re_lo, re_hi), (im_lo, im_hi)) for spectral
    # points in checks and for Newton seeds
    sample_window = ((-1.2, 1.2), (-1.0, 1.0))
    root_window = ((-1.6, 1.6), (-1.7, 1.7))

    def __init__(self, name, N, params, eval_fn, table_data=None,
                 rapidity_period=None, kernel=None, array_fn=None):
        if N < 2:
            raise ParameterDomain(f"N must be >= 2, got {N}")
        self.name = name
        self.N = int(N)
        self.params = dict(params)
        self.table_data = table_data
        # weights invariant under lam -> lam + rapidity_period, when set
        self.rapidity_period = rapidity_period
        # the RationalKernel behind eval_fn, for models evaluated through one
        self.kernel = kernel
        # for a model of difference form, array_fn(us) maps a 1-D array of
        # finite u = lam - mu to `ModelSpec.array_fn`'s (entries, refused),
        # but may leave refused rows unset; `ModelSpec.array_fn` runs it
        self._array_kernel = array_fn
        # bound to eval_fn, not to self: the memo makes no reference cycle
        self._memo = functools.lru_cache(
            maxsize=min(4096, 2 ** 21 // ice_entry_count(self.N)))(
                functools.partial(_evaluate, eval_fn))

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"ModelSpec({self.name}, N={self.N}, {ps})"

    def eval_r(self, lam, mu):
        return self._memo(complex(lam), complex(mu))

    def array_fn(self, lams, mus=0.0):
        """R at the points (lams[s], mus[s]) of two broadcast 1-D complex
        arrays: (entries, refused), with refused[s] True where `eval_r`
        raises ParameterDomain or UnknownGridPoint (a lam or mu that is not
        finite included).  Row s of the (P, K) flat ice entries is bit for
        bit `eval_r`'s values there, and nan where refused.  A model of
        difference form takes one array pass over u = lam - mu; the others
        call `eval_r` per point."""
        refused = ~(np.isfinite(lams) & np.isfinite(mus))
        if self._array_kernel:
            if refused.any():  # enter as u = 0, where no kernel refuses or warns
                lams, mus = np.where(refused, 0, lams), np.where(refused, 0, mus)
            out, pole = self._array_kernel(lams - mus)
            refused |= pole
        else:
            lams, mus = np.broadcast_arrays(lams, mus)
            out = np.empty((lams.size, ice_entry_count(self.N)), dtype=complex)
            for s, (lam, mu) in enumerate(zip(lams.tolist(), mus.tolist())):
                try:
                    out[s] = self.eval_r(lam, mu).values
                except (ParameterDomain, UnknownGridPoint):
                    refused[s] = True
        out[refused] = complex("nan")
        return out, refused


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


def _six_vertex_array(eta, c, us):
    """`_six_vertex_weights` at every u of the 1-D array `us`: (entries,
    refused), the (len(us), 6) flat entries with the same bits and where
    the scalar evaluation raises.  The guards take the same decisions
    (np.hypot is the scalar abs, which np.abs of an array is not to the
    last bit)."""
    with np.errstate(all="ignore"):  # refused points compute garbage
        a = np.sinh(us + eta)
        b = np.sinh(us)
        refused = ~(np.isfinite(a) & np.isfinite(b))
        refused |= np.hypot(a.real, a.imag) < 1e-12 * np.maximum(
            np.maximum(1.0, np.hypot(b.real, b.imag)), abs(c))
        out = np.empty((len(us), 6), dtype=complex)
        out[:, 0::5] = 1.0
        out[:, 1::3] = (b / a)[:, None]
        out[:, 2:4] = (c / a)[:, None]
    return out, refused


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
                     rapidity_period=1j * np.pi,
                     array_fn=functools.partial(_six_vertex_array, eta, c))


def _qbracket(x, eta):
    return np.sinh(eta * x) / np.sinh(eta)


def _fundamental_lax(N, eta, u):
    """Lax operator on C^2 (x) C^N built from the U_q(sl2) spin-s generators.

    Returns an array of shape shape(u) + (2N, 2N), one Lax operator per
    spectral parameter of `u`, indexed [..., (alpha, i), (beta, j)] with
    alpha the auxiliary output; for N = 2 this is the raw six-vertex
    R-matrix.
    """
    s = (N - 1) / 2.0
    m = s - np.arange(N)          # weights of the local basis, state 1 highest
    # + 0.0 turns an imaginary part -0.0 into +0.0: the branch of the root
    # of a negative product then depends on the value of eta alone
    v = np.sqrt(np.array([_qbracket(k + 1, eta) * _qbracket(2 * s - k, eta)
                          for k in range(N - 1)], dtype=complex) + 0.0)
    sp = np.zeros((N, N), dtype=complex)
    sp[np.arange(N - 1), np.arange(1, N)] = v
    sm = sp.T.copy()
    sh = np.sinh(eta)
    u = np.asarray(u)[..., None]
    diag = np.arange(N)
    out = np.zeros(u.shape[:-1] + (2 * N, 2 * N), dtype=complex)
    out[..., diag, diag] = np.sinh(u + eta / 2 + eta * m)
    out[..., :N, N:] = sh * sm
    out[..., N:, :N] = sh * sp
    out[..., diag + N, diag + N] = np.sinh(u + eta / 2 - eta * m)
    return out


def _fused_coefficients(N, eta):
    """Laurent coefficients of the ice entries of `higher_spin_xxz(N, eta)`
    by fusion: a (K, 2N - 1) array, column j the power j - (N - 1) of
    z = e^u; row k is P_k, and row 0, the (1,1;1,1) entry, is Q.

    With m = N - 1 and x = u - (N - 2) eta / 2, the Lax product
    L_{a_1}(x) L_{a_2}(x + eta) ... L_{a_m}(x + (m - 1) eta) leaves
    Sym^m(C^2) (x) C^N invariant, and there it is R(u) up to an auxiliary
    gauge and a scalar (Kulish-Reshetikhin-Sklyanin fusion).  Each factor
    is A z + B + C / z; after each, the product is restricted from
    Sym^(n-1) (x) C^2 to Sym^n in orthonormal symmetric bases, so no
    matrix is wider than N^2.
    """
    m = N - 1
    h = m / 2 - np.arange(N)          # weights of the local basis
    # t[p, a, b, c, d]: power p - n of z in entry (a, b; c, d) of the
    # product of the first n factors, a and c indexing Sym^n
    t = np.eye(N, dtype=complex)[None, None, :, None, :]
    # an overflow leaves a coefficient that is not finite, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        # blocks (alpha, beta) of a factor, up = 0: (0, 1) and (1, 0) are
        # the Lax operator's sinh(eta) S^-, S^+; (alpha, alpha) of factor k
        # is diag sinh(u + y[alpha]) with y = (k + 1 - m / 2) eta +- h eta
        lax = _fundamental_lax(N, eta, 0.0)
        off = (lax[:N, N:], lax[N:, :N])
        for k in range(m):
            n = k + 1
            y = (k + 1 - m / 2) * eta + np.array([h, -h]) * eta
            # state j of Sym^(n-1) gains an up factor (state j of Sym^n)
            # or a down one (state j + 1), with amplitude lift[alpha, j]
            j = np.arange(n)
            lift = np.sqrt(np.array([n - j, j + 1]) / n)
            new = np.zeros((len(t) + 2, n + 1, N, n + 1, N), dtype=complex)
            for alpha, beta in ((0, 0), (0, 1), (1, 0), (1, 1)):
                block = new[:, alpha:alpha + n, :, beta:beta + n]
                part = t * (lift[alpha][:, None, None, None]
                            * lift[beta][:, None])
                if alpha != beta:
                    block[1:-1] += part @ off[alpha]
                else:
                    block[2:] += part * (np.exp(y[alpha]) / 2)
                    block[:-2] -= part * (np.exp(-y[alpha]) / 2)
            t = new
        # R's gauge: entry (a, b; c, d) times g_c / g_a, where g_(k+1) / g_k
        # = sqrt(k (m-k+1)) [k]_q / (k v_(k-1)); sinh(eta) v is read off the
        # Lax operator's S^+ block, so that g takes its roots' branch
        k = np.arange(1, N)
        g = np.cumprod(np.r_[1.0, np.sqrt(k * (m - k + 1)) * np.sinh(k * eta)
                             / (k * np.diag(off[1], 1))])
        t *= (g[None, :] / g[:, None])[:, None, :, None]
    lay = _layout(N)
    coef = t.reshape(2 * N - 1, N * N, N * N)[:, lay.rows, lay.cols].T
    if not np.isfinite(coef).all():
        raise ParameterDomain(f"higher-spin weights overflow at eta = {eta}: "
                              "fused coefficients are not finite")
    return coef


_RELATION_OFFSET = 0.4371 + 0.2913j  # x0 of `relation_residuals`


class RationalKernel:
    """Ice entries of `higher_spin_xxz(N, eta)` as P_k(z) / Q(z), z = e^u.

    P_k and Q are Laurent polynomials with powers -(N-1)..N-1, built
    exactly by fusion (`_fused_coefficients`) when the kernel is made, and
    Q is shared: the (1,1;1,1) entry is Q / Q = 1.  `relation_residuals`
    checks them by the mixed Yang-Baxter relation with the Lax operator.
    """

    def __init__(self, N, eta):
        self.N = N
        self.eta = eta
        # row k: z^d P_k(z) in powers of z, low powers first (d = N - 1);
        # reversed, z^-d P_k(z) in powers of 1/z
        self._coef = _fused_coefficients(N, eta)
        self._powers = np.arange(2 * N - 1)
        self._q_size = sum(abs(qj) for qj in self._coef[0])

    def evaluate(self, u):
        """The weights at u.  P_k and Q are both scaled by z^-d
        (Re u > 0) or z^d, which cancels, so only powers of a t = e^-u or
        e^u with |t| <= 1 are formed.  ParameterDomain at a pole
        (`_is_pole`)."""
        flip = u.real > 0
        pw = cmath.exp(-u if flip else u) ** self._powers
        coef = self._coef[:, ::-1] if flip else self._coef
        vals = coef @ pw
        q = vals[0]
        if self._is_pole(q, flip, pw):
            raise ParameterDomain(f"higher-spin weights have a pole at "
                                  f"u = {complex(u)}: Q(e^u) = 0")
        vals /= q
        vals[0] = 1.0
        return WeightMatrix(self.N, vals)

    def evaluate_array(self, us):
        """`evaluate` at every u of the 1-D array `us`: (entries, refused),
        the (len(us), K) flat entries with the same bits and where
        `evaluate` raises.  np.exp and the powers vectorize bit for bit,
        and each Laurent branch takes one stacked matrix product.  On the
        flipped branch the coefficients are the reversed view that
        `evaluate` reads: numpy multiplies that strided view by the loop of
        one matrix-vector product, where a contiguous reversed copy would
        go through BLAS and round differently.  The pole guard's first test
        (np.hypot is the scalar abs) runs on the array, and `_is_pole`
        decides at the points it flags."""
        flip = us.real > 0
        pws = np.exp(np.where(flip, -us, us))[:, None] ** self._powers
        out = np.empty((len(us), len(self._coef)), dtype=complex)
        for sel, coef in ((~flip, self._coef), (flip, self._coef[:, ::-1])):
            out[sel] = (coef[None] @ pws[sel][:, :, None])[:, :, 0]
        q = out[:, 0].copy()
        refused = np.hypot(q.real, q.imag) < 2e-9 * self._q_size
        for s in np.flatnonzero(refused):
            refused[s] = self._is_pole(q[s], flip[s], pws[s])
        with np.errstate(all="ignore"):  # a pole's Q may be 0
            out /= q[:, None]
        out[:, 0] = 1.0
        return out, refused

    def _is_pole(self, q, flip, pw):
        """Whether u is a pole, given Q = q formed from pw, the powers
        0..2d of t = e^-u (`flip`) or e^u.  u is a pole where Q's terms
        q_j t^j cancel: |Q| is below 1e-9 of the sum of their moduli.  As
        |t| <= 1 that sum is at most sum |q_j| (2e-9 leaves room for
        rounding), so it is formed only where |Q| is that small, and
        scalar by scalar, so that the scalar and the array evaluation take
        the same decision."""
        coef = self._coef[0, ::-1] if flip else self._coef[0]
        return abs(q) < 2e-9 * self._q_size and abs(q) < 1e-9 * sum(
            abs(qj * tj) for qj, tj in zip(coef, pw))

    def relation_residuals(self, us):
        """The relative residual, at each u of `us`, of the mixed
        Yang-Baxter relation on C^2 (x) C^N (x) C^N that defines R(u):

            L12(x) L13(x + u) (I (x) R(u)) = (I (x) R(u)) L13(x + u) L12(x)

        with L the Lax operator.  At generic u its ice solutions are the
        multiples of R(u), and it holds at every x, so one x checks the
        weights.  x = x0 - Re(u) / 2 keeps the two Lax factors of one
        size: unshifted, L13 dwarfs L12 at large |Re u|.  It raises
        ParameterDomain at the first u that is not finite, as `eval_r`
        does, then at the first pole, as `evaluate` does, then at the
        first u where the relation's terms overflow (|Re u| > 700 or so)
        or where the Lax arguments cannot carry eta.  Each argument
        w = x (+ u) + eta/2 +- eta m is rounded to the doubles next to
        it; where they lie more than |eta| apart (np.spacing), arguments
        that differ by eta round onto one grid step, and the residual
        would measure that rounding (0.15 at u = 1e308j), not the
        weights.  At N = 3, eta = 0.4375 that is |Im u| >= 2^51 - 1.
        """
        us = np.asarray(us, dtype=complex)
        bad = ~np.isfinite(us)
        if bad.any():
            _finite(us[bad.argmax()])  # raises at the first, as eval_r does
        N, dim = self.N, 2 * self.N * self.N
        x = _RELATION_OFFSET - us.real / 2
        args = np.stack([x, x + us], -1)
        # the largest part of any Lax argument: |eta/2 +- eta m| <= |eta| N/2
        reach = np.maximum(abs(args.real), abs(args.imag)).max(-1)
        coarse = np.spacing(reach + abs(self.eta) * N / 2) > abs(self.eta)
        dense = np.zeros((len(us), N * N, N * N), dtype=complex)
        lay = _layout(N)
        with np.errstate(all="ignore"):  # an overflow is refused below
            lax = _fundamental_lax(N, self.eta, args)
            lax12, lax13 = lax.reshape(len(us), 2, 2, N, 2, N).swapaxes(0, 1)
            entries, refused = self.evaluate_array(us)
            if refused.any():
                self.evaluate(us[refused.argmax()])  # raises at a pole
            dense[:, lay.rows, lay.cols] = entries
            # products with the identity's exact ones and zeros, as np.kron
            # forms them: L12 = L (x) I, L13 on spaces 1 and 3, I2 (x) R(u)
            eye = np.eye(N)
            l12 = lax12[:, :, :, None, :, :, None] * eye[:, None, None, :]
            l13 = lax13[:, :, None, :, :, None, :] * eye[:, None, None, :, None]
            r = np.eye(2)[:, None, :, None] * dense[:, None, :, None, :]
            # a product per point: stacked ones run slower from N = 7 on
            out = [relative_residual(a @ b @ c, c @ b @ a) for a, b, c in zip(
                *(m.reshape(-1, dim, dim) for m in (l12, l13, r)))]
        for u, res, lost in zip(us, out, coarse):
            if not np.isfinite(res):  # an overflow leaves inf or nan
                raise ParameterDomain(f"the Lax relation of the higher-spin "
                                      f"weights overflows at u = {u}")
            if lost:
                raise ParameterDomain(
                    f"the Lax arguments at u = {u} are too large to carry "
                    f"eta = {self.eta}")
        return out


# the largest N of higher_spin_xxz: the fusion's memory grows like N^5
# (a tracemalloc peak of 5.4 MiB at N = 9, 108 MiB at N = 16)
_MAX_N = 9

# the one kernel of every higher_spin_xxz(N, eta) model in the process; a
# kernel holds at most 133 KB (N = 9)
_shared_kernel = functools.lru_cache(maxsize=16)(RationalKernel)


def higher_spin_xxz(N=3, eta=0.4375):
    """Spin-s XXZ weights for N = 2s + 1 local states.

    N = 2 reduces to the six-vertex family.  For N >= 3 the weights are
    the fusion of N - 1 spin-1/2 Lax operators, evaluated through a
    `RationalKernel`; `model.kernel` holds it.  Every model of one
    (N, eta) shares that kernel, so a process builds each (N, eta) once.
    `RationalKernel.relation_residuals` checks those weights by the mixed
    Yang-Baxter relation with the Lax operator that they intertwine.
    """
    if N < 2:
        raise ParameterDomain(f"N must be >= 2, got {N}")
    if N == 2:
        model = six_vertex(eta)
        model.name = "higher_spin_xxz"
        return model
    if N > _MAX_N:
        raise ParameterDomain(
            f"higher_spin_xxz supports N = 2..{_MAX_N}, got N = {N}")
    eta = _anisotropy(eta, N)
    kernel = _shared_kernel(N, eta)

    def _eval(lam, mu):
        return kernel.evaluate(lam - mu)

    return ModelSpec("higher_spin_xxz", N, {"eta": eta}, _eval,
                     rapidity_period=1j * np.pi, kernel=kernel,
                     array_fn=kernel.evaluate_array)


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
    m13 = np.einsum("ikIK,jJ->ijkIJK", r13.reshape(N, N, N, N),
                    eye_n).reshape(N ** 3, N ** 3)
    lhs = m12 @ m13 @ m23
    rhs = m23 @ m13 @ m12
    scale = max(np.max(np.abs(r12)), np.max(np.abs(r13)), np.max(np.abs(r23)))
    return float(np.max(np.abs(lhs - rhs)) / max(scale, 1e-300))


def check_unitarity(model, lam, mu):
    """Max-abs entry of R21(lam, mu) R12(mu, lam) - I."""
    N = model.N
    r21 = model.eval_r(lam, mu).dense().reshape(N, N, N, N).transpose(
        1, 0, 3, 2).reshape(N * N, N * N)
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
