"""Scalar amplitudes of the algebraic Bethe ansatz construction.

Everything here is a ratio of weight entries and small determinants:
the exchange function theta, the determinant families D2..D5 with their
analytic continuations, wanted-term factors P_a (and the closed-form
cross-check family Pbar_a), the off-shell amplitudes F via their
recurrences and via closed two-root forms, the auxiliary H functions and
the linear-combination coefficients g used by the state builder.

Conventions: `entry(a, b, c, d)` of a weight matrix reads R_{a,b}^{c,d}
with lower indices the output pair.  Root tuples are ordered; positional
labels (1-based) decide the ordered exchange factor theta_<.
"""

import math
from itertools import combinations

import numpy as np

from .errors import IndexOutOfRange, Singularity
from .weights import eval_r, ice_slot, relative_residual, worst_residual

__all__ = [
    "MIN_ROOT_SEPARATION", "theta", "theta_less", "det_guarded",
    "det_D2", "det_D3", "det_D4", "det_D5", "det_D4_cont", "det_D5_cont",
    "P_a", "Pbar_a", "F_offshell", "F2_closed", "H_function",
    "g_coefficient", "ratio_11_21", "scattering", "exchange_product",
    "require_distinct", "relative_residual", "worst_residual",
]

MIN_ROOT_SEPARATION = 1e-8

PIVOT_RTOL = 1e-14  # pivot below PIVOT_RTOL * max|entry| raises Singularity


def det_guarded(mat):
    """Determinant by LU with partial pivoting and a hard pivot gate.

    A pivot below PIVOT_RTOL times the largest input entry raises
    Singularity instead of returning a noise-dominated value.
    """
    m = np.array(mat, dtype=complex)
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n == 1:
        return m[0, 0]
    scale = np.max(np.abs(m))
    if scale == 0:
        raise Singularity("determinant of a zero matrix")
    thresh = PIVOT_RTOL * scale
    det = 1.0 + 0.0j
    for k in range(n):
        p = k + int(np.argmax(np.abs(m[k:, k])))
        if abs(m[p, k]) < thresh:
            raise Singularity(f"pivot {abs(m[p, k]):.3e} below {thresh:.3e}")
        if p != k:
            m[[k, p]] = m[[p, k]]
            det = -det
        det *= m[k, k]
        if k + 1 < n:
            m[k + 1:, k + 1:] -= np.outer(m[k + 1:, k] / m[k, k], m[k, k + 1:])
    return det


# a denominator below _DIV_RTOL * max(1, |numerator|) raises Singularity
_DIV_RTOL = 1e-14


def _div(num, den):
    if den == 0 or abs(den) < _DIV_RTOL * max(1.0, abs(num)):
        raise Singularity(f"denominator {complex(den)} vanishes")
    return num / den


def ratio_11_21(model, x, y):
    """R(x,y)_{1,1}^{1,1} / R(x,y)_{2,1}^{2,1}: the ubiquitous wanted-term ratio."""
    w = eval_r(model, x, y)
    return _div(w.entry(1, 1, 1, 1), w.entry(2, 1, 2, 1))


def scattering(model, x, y):
    """Two-root scattering factor ratio_11_21(x, y) / ratio_11_21(y, x)."""
    wxy, wyx = eval_r(model, x, y), eval_r(model, y, x)
    return _div(wxy.entry(1, 1, 1, 1) * wyx.entry(2, 1, 2, 1),
                wyx.entry(1, 1, 1, 1) * wxy.entry(2, 1, 2, 1))


def require_distinct(roots):
    roots = tuple(complex(r) for r in roots)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < MIN_ROOT_SEPARATION:
                raise Singularity(
                    f"roots {roots[i]} and {roots[j]} closer than "
                    f"{MIN_ROOT_SEPARATION}")
    return roots


# ----------------------------------------------------------------------
# exchange function and projector
# ----------------------------------------------------------------------

def theta(model, lam, mu):
    """Two-particle exchange function; theta(l, m) theta(m, l) = 1."""
    w = eval_r(model, lam, mu)
    if model.N == 2:
        return _div(w.entry(2, 2, 2, 2), w.entry(1, 1, 1, 1))
    num = det_guarded([[w.entry(2, 2, 2, 2), w.entry(3, 1, 2, 2)],
                       [w.entry(2, 2, 3, 1), w.entry(3, 1, 3, 1)]])
    return _div(num, w.entry(1, 1, 1, 1) * w.entry(3, 1, 3, 1))


def theta_less(model, lam_i, lam_j, i, j):
    """theta(lam_i, lam_j) when i < j, else 1 (ordered exchange factor)."""
    if i < j:
        return theta(model, lam_i, lam_j)
    return 1.0 + 0.0j


def exchange_product(model, roots, first, second):
    """Spectator exchange product over two groups of 1-based root labels:
    prod over i in `first`, j in `second` of ratio_11_21(lam_i, lam_j)
    * theta_<(lam_i, lam_j; i, j).
    """
    pref = 1.0 + 0.0j
    for i in first:
        for j in second:
            pref *= ratio_11_21(model, roots[i - 1], roots[j - 1])
            pref *= theta_less(model, roots[i - 1], roots[j - 1], i, j)
    return pref


# ----------------------------------------------------------------------
# array forms over evaluated weights: each element bit for bit the scalar
# amplitude, with a mask where the scalar one raises Singularity
# ----------------------------------------------------------------------

def mul(a, b):
    """a * b elementwise, rounded as a scalar complex multiply rounds it;
    numpy's array multiply rounds differently."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)),
                   dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _div_rows(num, den):
    """`_div` elementwise: (num / den, where `_div` raises).  np.hypot is
    the scalar abs, which np.abs of an array is not to the last bit."""
    big = np.hypot(num.real, num.imag)
    singular = (den == 0) | (np.hypot(den.real, den.imag)
                             < _DIV_RTOL * np.where(big > 1.0, big, 1.0))
    return num / den, singular


def _det2_rows(m):
    """`det_guarded` of each 2 x 2 matrix of the (..., 2, 2) array `m`:
    (determinants, where it raises), in its operations and order.  Its
    np.abs of an array stays np.abs; its scalar abs is np.hypot."""
    mag = np.abs(m)
    scale = np.max(mag, axis=(-2, -1))
    thresh = PIVOT_RTOL * scale
    swap = np.argmax(mag[..., 0], axis=-1) == 1
    m = np.where(swap[..., None, None], m[..., ::-1, :], m)
    pivot = m[..., 0, 0]
    rest = m[..., 1, 1] - (m[..., 1, 0] / pivot) * m[..., 0, 1]
    singular = ((scale == 0) | (np.hypot(pivot.real, pivot.imag) < thresh)
                | (np.hypot(rest.real, rest.imag) < thresh))
    det = mul(mul(np.where(swap, -(1.0 + 0.0j), 1.0 + 0.0j), pivot), rest)
    return det, singular


def theta_rows(model, w):
    """`theta` at the (..., K) flat entries `w` of R(lam, mu) evaluations:
    (values, where it raises)."""
    N = model.N

    def entry(*key):
        return w[..., ice_slot(N, *key)]

    if N == 2:
        return _div_rows(entry(2, 2, 2, 2), entry(1, 1, 1, 1))
    m = np.empty(w.shape[:-1] + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1] = entry(2, 2, 2, 2), entry(3, 1, 2, 2)
    m[..., 1, 0], m[..., 1, 1] = entry(2, 2, 3, 1), entry(3, 1, 3, 1)
    num, bad = _det2_rows(m)
    val, bad_den = _div_rows(num, mul(entry(1, 1, 1, 1), entry(3, 1, 3, 1)))
    return val, bad | bad_den


def scattering_rows(model, wxy, wyx):
    """`scattering` from the flat entries of R(x, y) and R(y, x):
    (values, where it raises)."""
    one, two = ice_slot(model.N, 1, 1, 1, 1), ice_slot(model.N, 2, 1, 2, 1)
    return _div_rows(mul(wxy[..., one], wyx[..., two]),
                     mul(wyx[..., one], wxy[..., two]))


# ----------------------------------------------------------------------
# determinant families
# ----------------------------------------------------------------------

def det_D2(model, a, e, lam, mu):
    N = model.N
    if not (2 <= a <= N - 1 and 0 <= e <= a - 1):
        raise IndexOutOfRange(f"D2 indices (a={a}, e={e}) invalid for N={N}")
    w = eval_r(model, lam, mu)
    num = -det_guarded([[w.entry(a + 1, 1, a, 2), w.entry(a - e, e + 2, a, 2)],
                        [w.entry(a + 1, 1, a + 1, 1),
                         w.entry(a - e, e + 2, a + 1, 1)]])
    return _div(num, w.entry(a, 1, a, 1) * w.entry(a + 1, 1, a + 1, 1))


def det_D3(model, a, e, lam, mu):
    N = model.N
    if not (2 <= a <= N - 2 and 0 <= e <= a - 1):
        raise IndexOutOfRange(f"D3 indices (a={a}, e={e}) invalid for N={N}")
    w = eval_r(model, lam, mu)
    cols = [(a + 2, 1), (a + 1, 2), (a - e, 3 + e)]
    rows = [(a, 3), (a + 1, 2), (a + 2, 1)]
    num = det_guarded([[w.entry(*lo, *up) for lo in cols] for up in rows])
    den2 = det_guarded([[w.entry(a + 2, 1, a + 1, 2), w.entry(a + 1, 2, a + 1, 2)],
                        [w.entry(a + 2, 1, a + 2, 1), w.entry(a + 1, 2, a + 2, 1)]])
    return _div(num, w.entry(a, 1, a, 1) * den2)


def det_D4(model, i, b, lam, mu):
    """D4^{(i,b)}(lam, mu); built from R(mu, lam) entries."""
    N = model.N
    if not (1 <= b <= i <= N):
        raise IndexOutOfRange(f"D4 indices (i={i}, b={b}) invalid for N={N}")
    w = eval_r(model, mu, lam)
    size = i - b + 1
    mat = [[w.entry(i - k, 1 + k, b + l, i + 1 - b - l) for l in range(size)]
           for k in range(size)]
    return det_guarded(mat)


def det_D5(model, i2, lam, mu):
    """D5^{(i2,2)}(lam, mu) with i2 <= N; built from R(mu, lam) entries."""
    N = model.N
    i = i2 - 2
    if not (1 <= i and i2 <= N):
        raise IndexOutOfRange(f"D5 index i2={i2} invalid for N={N}")
    w = eval_r(model, mu, lam)
    ups = [(2, i + 1)] + [(3 + l, i - l) for l in range(1, i)]
    mat = [[w.entry(i2 - k, 1 + k, *up) for up in ups] for k in range(i)]
    return det_guarded(mat)


def det_D4_cont(model, b, lam, l1):
    """Analytic continuation D4^{(N+1,b)}(lam, l1); R(l1, lam) entries.

    Valid for 2 <= b <= N + 1; b = N + 1 gives the empty determinant 1 so
    the special low-N corner needs no separate case.
    """
    N = model.N
    if not 2 <= b <= N + 1:
        raise IndexOutOfRange(f"D4 continuation index b={b} invalid for N={N}")
    w = eval_r(model, l1, lam)
    size = N - b + 1
    mat = [[w.entry(N - k, 2 + k, b + l, N + 2 - b - l) for l in range(size)]
           for k in range(size)]
    return (-1) ** (N + 1 - b) * det_guarded(mat)


def det_D5_cont(model, lam, l1):
    """Analytic continuation D5^{(N+1,2)}(lam, l1); R(l1, lam) entries."""
    N = model.N
    if N < 3:
        raise IndexOutOfRange("D5 continuation needs N >= 3")
    w = eval_r(model, l1, lam)
    size = N - 2
    ups = [(2, N)] + [(3 + l, N - 1 - l) for l in range(1, size)]
    mat = [[w.entry(N - k, 2 + k, *up) for up in ups] for k in range(size)]
    return (-1) ** N * det_guarded(mat)


# ----------------------------------------------------------------------
# wanted-term factors
# ----------------------------------------------------------------------

def P_a(model, a, lam, mu):
    """Coefficient of the eigenstate produced by the diagonal field a."""
    N = model.N
    if not 1 <= a <= N:
        raise IndexOutOfRange(f"P_a index a={a} outside 1..{N}")
    if a == 1:
        return ratio_11_21(model, mu, lam)
    if a == N:
        w = eval_r(model, lam, mu)
        return _div(w.entry(N, 2, N, 2), w.entry(N, 1, N, 1))
    return det_D2(model, a, 0, lam, mu)


def Pbar_a(model, a, lam, l1, l2):
    """Closed-form two-root wanted factor; equals P_a(lam, l2) identically.

    Computed from its own expression, so agreement with P_a is the
    numerical proof of the unitarity/Yang-Baxter identity chain behind it.
    """
    N = model.N
    if N < 3:
        raise IndexOutOfRange("Pbar needs N >= 3")
    if not 1 <= a <= N:
        raise IndexOutOfRange(f"Pbar index a={a} outside 1..{N}")
    w12 = eval_r(model, l1, l2)
    pref = _div(w12.entry(3, 1, 3, 1), w12.entry(3, 1, 2, 2))
    x = _div(w12.entry(3, 1, 2, 2), w12.entry(3, 1, 3, 1))
    if a == 1:
        w2l = eval_r(model, l2, lam)
        w1l = eval_r(model, l1, lam)
        t1 = _div(w2l.entry(1, 2, 2, 1), w2l.entry(2, 1, 2, 1)) \
            * _div(w1l.entry(3, 1, 2, 2), w1l.entry(3, 1, 3, 1))
        t2 = x * _div(w1l.entry(2, 1, 2, 1), w1l.entry(3, 1, 3, 1))
        return pref * (t1 + t2)
    if a == N:
        wl1 = eval_r(model, lam, l1)
        wl2 = eval_r(model, lam, l2)
        t1 = x * _div(wl1.entry(N, 3, N, 3), wl1.entry(N, 2, N, 2))
        t2 = _div(wl1.entry(N - 1, 3, N, 2), wl1.entry(N, 2, N, 2)) \
            * _div(wl2.entry(N, 1, N - 1, 2), wl2.entry(N, 1, N, 1))
        return pref * (t1 - t2)
    if a == N - 1:
        wl1 = eval_r(model, lam, l1)
        wl2 = eval_r(model, lam, l2)
        t1 = _div(wl2.entry(N, 1, N - 1, 2), wl2.entry(N, 1, N, 1)) \
            * _div(wl1.entry(N - 1, 3, N, 2), wl1.entry(N, 2, N, 2))
        dnum = det_guarded([[wl1.entry(N, 2, N - 1, 3), wl1.entry(N, 2, N, 2)],
                            [wl1.entry(N - 1, 3, N - 1, 3),
                             wl1.entry(N - 1, 3, N, 2)]])
        dden = det_guarded([[wl1.entry(N, 1, N - 1, 2), wl1.entry(N, 1, N, 1)],
                            [wl1.entry(N - 1, 2, N - 1, 2),
                             wl1.entry(N - 1, 2, N, 1)]])
        t2 = x * _div(wl1.entry(N, 1, N, 1), wl1.entry(N, 2, N, 2)) \
            * _div(dnum, dden)
        t3 = _div(det_D2(model, N - 1, 1, lam, l1),
                  det_D2(model, N - 1, 0, lam, l1)) \
            * _div(wl2.entry(N - 1, 1, N - 2, 2), wl2.entry(N - 1, 1, N - 1, 1))
        return pref * (t1 + t2 - t3)
    # 2 <= a <= N - 2
    wl2 = eval_r(model, lam, l2)
    t1 = _div(wl2.entry(a + 1, 1, a, 2), wl2.entry(a + 1, 1, a + 1, 1)) \
        * _div(det_D2(model, a + 1, 1, lam, l1),
               det_D2(model, a + 1, 0, lam, l1))
    t2 = x * _div(det_D3(model, a, 0, lam, l1), det_D2(model, a, 0, lam, l1))
    t3 = _div(det_D2(model, a, 1, lam, l1), det_D2(model, a, 0, lam, l1)) \
        * _div(wl2.entry(a, 1, a - 1, 2), wl2.entry(a, 1, a, 1))
    return pref * (t1 + t2 - t3)


# ----------------------------------------------------------------------
# off-shell amplitudes F
# ----------------------------------------------------------------------

def _ordered_splits(labels, first_size):
    """All (first, second) splits of `labels` into increasing tuples."""
    labels = tuple(labels)
    rest = set(labels)
    for first in combinations(labels, first_size):
        second = tuple(sorted(rest - set(first)))
        yield first, second


def F_offshell(model, c, b, a, lam, roots, cache=None):
    """Off-shell amplitude carrying b removed roots, c of them with w_1.

    Base data: F with one root is +/- the single-entry ratio; zero roots
    give 1.  Larger b follows the three recurrences (c = 0, 0 < c < b,
    c = b), each value memoized in the dict `cache` (a fresh one if None).
    """
    N = model.N
    roots = tuple(complex(r) for r in roots)
    if b == 0:
        if c != 0 or roots:
            raise IndexOutOfRange("zero-root amplitude takes c = 0, no roots")
        return 1.0 + 0.0j
    if not (1 <= b <= N - 1 and 1 <= a <= N - b and 0 <= c <= b):
        raise IndexOutOfRange(
            f"F indices (c={c}, b={b}, a={a}) invalid for N={N}")
    if len(roots) != b:
        raise IndexOutOfRange(f"expected {b} roots, got {len(roots)}")
    require_distinct(roots)
    if cache is None:
        cache = {}
    key = ("F", c, b, a, complex(lam), roots)
    val = cache.get(key)
    if val is None:
        val = cache[key] = _f_compute(model, c, b, a, lam, roots, cache)
    return val


def _f_compute(model, c, b, a, lam, roots, cache):
    if b == 1:
        w = eval_r(model, lam, roots[0])
        val = _div(w.entry(a + 1, 1, a, 2), w.entry(a + 1, 1, a + 1, 1))
        return val if c == 0 else -val
    if 0 < c < b:
        head = F_offshell(model, c, c, a + b - c, lam, roots[:c], cache)
        tail = F_offshell(model, 0, b - c, a, lam, roots[c:], cache)
        pref = math.prod((ratio_11_21(model, roots[i], roots[j])
                          for i in range(c, b) for j in range(c)),
                         start=1.0 + 0.0j)
        return head * tail * pref
    if c == 0:
        return _f_zero(model, b, a, lam, roots, cache)
    return _f_full(model, b, a, lam, roots, cache)


def _f_zero(model, b, a, lam, roots, cache):
    """c = 0 recurrence: peel the first root through every spin channel."""
    w1 = eval_r(model, lam, roots[0])
    den = w1.entry(a + b, 1, a + b, 1)
    total = 0.0 + 0.0j
    labels = tuple(range(2, b + 1))  # original labels of roots[1:]
    for ebar in range(1, b + 1):
        lead = _div(w1.entry(a + ebar, 1, a, 1 + ebar), den)
        for grp0, grp1 in _ordered_splits(labels, b - ebar):
            f0 = F_offshell(model, 0, b - ebar, a + ebar, lam,
                            tuple(roots[j - 1] for j in grp0), cache)
            fe = F_offshell(model, ebar - 1, ebar - 1, 2, roots[0],
                            tuple(roots[j - 1] for j in grp1), cache)
            total += lead * f0 * fe \
                * exchange_product(model, roots, grp0, grp1)
    return total


def _f_full(model, b, a, lam, roots, cache):
    """c = b closure: minus the sum of all lower-c amplitudes, reweighted."""
    total = 0.0 + 0.0j
    labels = tuple(range(1, b + 1))
    for fbar in range(b):
        for lset in combinations(labels, b - fbar):
            kept = tuple(j for j in labels if j not in lset)
            args = tuple(roots[j - 1] for j in kept) \
                + tuple(roots[j - 1] for j in lset)
            val = F_offshell(model, fbar, b, a, lam, args, cache)
            pref = math.prod(
                (theta_less(model, roots[i - 1], roots[ls - 1], i, ls)
                 * scattering(model, roots[i - 1], roots[ls - 1])
                 for ls in lset for i in kept), start=1.0 + 0.0j)
            total += val * pref
    return -total


def F2_closed(model, c, a, lam, l1, l2):
    """Two-root closed forms, the cross-check partner of the recurrence."""
    N = model.N
    if c == 0:
        if not 1 <= a <= N - 2:
            raise IndexOutOfRange(f"closed 0F2 needs 1 <= a <= {N - 2}")
        wl1 = eval_r(model, lam, l1)
        wl2 = eval_r(model, lam, l2)
        w12 = eval_r(model, l1, l2)
        t1 = _div(wl1.entry(a + 1, 1, a, 2), wl1.entry(a + 2, 1, a + 2, 1)) \
            * _div(wl2.entry(a + 2, 1, a + 1, 2), wl2.entry(a + 2, 1, a + 2, 1))
        t2 = _div(wl1.entry(a + 2, 1, a, 3), wl1.entry(a + 2, 1, a + 2, 1)) \
            * _div(w12.entry(3, 1, 2, 2), w12.entry(3, 1, 3, 1))
        return t1 - t2
    if c != 2:
        raise IndexOutOfRange("closed forms exist for c in {0, 2}")
    if a == 1:
        w2l = eval_r(model, l2, lam)
        w1l = eval_r(model, l1, lam)
        w12 = eval_r(model, l1, l2)
        t1 = _div(w2l.entry(1, 2, 2, 1), w2l.entry(2, 1, 2, 1)) \
            * det_D2(model, 2, 1, l1, lam)
        t2 = _div(w1l.entry(1, 3, 3, 1), w1l.entry(3, 1, 3, 1)) \
            * _div(w12.entry(3, 1, 2, 2), w12.entry(3, 1, 3, 1))
        return t1 - t2
    if not 2 <= a <= N - 2:
        raise IndexOutOfRange(f"closed 2F2 needs a = 1 or 2 <= a <= {N - 2}")
    wl1 = eval_r(model, lam, l1)
    wl2 = eval_r(model, lam, l2)
    w12 = eval_r(model, l1, l2)
    dnum = det_guarded([[wl1.entry(a + 2, 1, a, 3), wl1.entry(a + 1, 2, a, 3)],
                        [wl1.entry(a + 2, 1, a + 1, 2),
                         wl1.entry(a + 1, 2, a + 1, 2)]])
    dden = det_guarded([[wl1.entry(a + 2, 1, a + 1, 2),
                         wl1.entry(a + 1, 2, a + 1, 2)],
                        [wl1.entry(a + 2, 1, a + 2, 1),
                         wl1.entry(a + 1, 2, a + 2, 1)]])
    t1 = _div(w12.entry(3, 1, 2, 2), w12.entry(3, 1, 3, 1)) * _div(dnum, dden)
    t2 = _div(det_D2(model, a, 0, lam, l1), det_D2(model, a + 1, 0, lam, l1)) \
        * _div(wl2.entry(a + 1, 1, a, 2), wl2.entry(a + 1, 1, a + 1, 1)) \
        * _div(wl1.entry(a, 1, a, 1), wl1.entry(a + 1, 1, a + 1, 1)) \
        * _div(wl1.entry(a + 2, 1, a + 1, 2), wl1.entry(a + 2, 1, a + 2, 1))
    return -(t1 - t2)


# ----------------------------------------------------------------------
# H functions (two-root bookkeeping amplitudes)
# ----------------------------------------------------------------------

def H_function(model, c, b, a, lam, l1, l2, tag):
    """Closed-form H amplitudes of the two-root reduction.

    tag = 1 carries the direct forms; tag = 2 carries the independently
    printed swapped-argument forms (available for (c,b) = (0,1) at any a
    and (1,1) at a <= N-2).  Their consistency under the exchange symmetry
    is a checked identity, so the two tags never share code.
    """
    N = model.N
    if (c, b) not in ((0, 1), (1, 1), (1, 2)):
        raise IndexOutOfRange(f"H indices (c={c}, b={b}) not defined")
    if tag == 1:
        if (c, b) == (1, 1):
            if not 1 <= a <= N - 1:
                raise IndexOutOfRange(f"1H1 needs 1 <= a <= {N - 1}")
            return ratio_11_21(model, l2, l1) \
                * F_offshell(model, 1, 1, a, lam, (l1,))
        if (c, b) == (0, 1):
            if not 1 <= a <= N - 1:
                raise IndexOutOfRange(f"0H1 needs 1 <= a <= {N - 1}")
            return P_a(model, 2, l1, l2) * F_offshell(model, 0, 1, a, lam, (l1,))
        if not 1 <= a <= N - 2:
            raise IndexOutOfRange(f"1H2 needs 1 <= a <= {N - 2}")
        return F_offshell(model, 1, 1, a + 1, lam, (l1,)) \
            * H_function(model, 0, 1, a, lam, l1, l2, tag=2)
    if tag != 2:
        raise IndexOutOfRange(f"tag must be 1 or 2, got {tag}")
    if (c, b) == (0, 1):
        if not 1 <= a <= N - 1:
            raise IndexOutOfRange(f"0H1 needs 1 <= a <= {N - 1}")
        wl2 = eval_r(model, lam, l2)
        wl1 = eval_r(model, lam, l1)
        w12 = eval_r(model, l1, l2)
        return _div(wl2.entry(a + 1, 1, a, 2), wl2.entry(a + 1, 1, a + 1, 1)) \
            * _div(wl1.entry(a, 1, a, 1), wl1.entry(a + 1, 1, a + 1, 1)) \
            - _div(wl1.entry(a + 1, 1, a, 2), wl1.entry(a + 1, 1, a + 1, 1)) \
            * _div(w12.entry(2, 1, 1, 2), w12.entry(2, 1, 2, 1))
    if (c, b) != (1, 1):
        raise IndexOutOfRange("tag-2 closed form exists for (0,1) and (1,1)")
    if a == 1:
        w2l = eval_r(model, l2, lam)
        w1l = eval_r(model, l1, lam)
        w21 = eval_r(model, l2, l1)
        w12 = eval_r(model, l1, l2)
        return _div(w2l.entry(1, 2, 2, 1), w2l.entry(2, 1, 2, 1)) \
            * P_a(model, 2, l1, lam) \
            - _div(w1l.entry(1, 2, 2, 1), w1l.entry(2, 1, 2, 1)) \
            * _div(w21.entry(1, 2, 2, 1), w21.entry(2, 1, 2, 1)) \
            - _div(w12.entry(3, 1, 2, 2), w12.entry(3, 1, 3, 1)) \
            * _div(w1l.entry(2, 2, 3, 1), w1l.entry(3, 1, 3, 1))
    if not 2 <= a <= N - 2:
        raise IndexOutOfRange(f"tag-2 1H1 needs a = 1 or 2 <= a <= {N - 2}")
    wl1 = eval_r(model, lam, l1)
    wl2 = eval_r(model, lam, l2)
    w21 = eval_r(model, l2, l1)
    w12 = eval_r(model, l1, l2)
    dnum = det_guarded([[wl1.entry(a + 2, 1, a, 3), wl1.entry(a + 1, 2, a, 3)],
                        [wl1.entry(a + 2, 1, a + 2, 1),
                         wl1.entry(a + 1, 2, a + 2, 1)]])
    dden = det_guarded([[wl1.entry(a + 2, 1, a + 1, 2),
                         wl1.entry(a + 1, 2, a + 1, 2)],
                        [wl1.entry(a + 2, 1, a + 2, 1),
                         wl1.entry(a + 1, 2, a + 2, 1)]])
    inner = _div(det_D2(model, a, 0, lam, l1),
                 det_D2(model, a + 1, 0, lam, l1)) \
        * _div(wl2.entry(a + 1, 1, a, 2), wl2.entry(a + 1, 1, a + 1, 1)) \
        * _div(wl1.entry(a, 1, a, 1), wl1.entry(a + 1, 1, a + 1, 1)) \
        - _div(wl1.entry(a + 1, 1, a, 2), wl1.entry(a + 1, 1, a + 1, 1)) \
        * _div(w21.entry(1, 2, 2, 1), w21.entry(2, 1, 2, 1)) \
        - _div(w12.entry(3, 1, 2, 2), w12.entry(3, 1, 3, 1)) * _div(dnum, dden)
    return -inner


# ----------------------------------------------------------------------
# linear-combination coefficients of the state builder
# ----------------------------------------------------------------------

def g_coefficient(model, ebar, j_indices, all_roots, cache=None):
    """g coefficient attached to the creation field of spin channel ebar.

    `j_indices` are the 1-based positions (strictly increasing, within
    2..n) of the roots handed to the trailing diagonal fields; the
    remaining positions contribute the spectator prefactor.
    """
    n = len(all_roots)
    j_indices = tuple(j_indices)
    if not 2 <= ebar <= min(n, model.N - 1):
        raise IndexOutOfRange(f"ebar = {ebar} invalid for n={n}, N={model.N}")
    if len(j_indices) != ebar - 1 or list(j_indices) != sorted(set(j_indices)) \
            or any(not 2 <= j <= n for j in j_indices):
        raise IndexOutOfRange(f"bad j-index tuple {j_indices}")
    roots = tuple(complex(r) for r in all_roots)
    fval = F_offshell(model, ebar - 1, ebar - 1, 2, roots[0],
                      tuple(roots[j - 1] for j in j_indices), cache)
    comp = [k for k in range(2, n + 1) if k not in j_indices]
    return exchange_product(model, roots, comp, j_indices) * fval
