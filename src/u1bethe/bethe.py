"""Bethe vectors, Bethe equations and the off-shell transfer-matrix action.

The n-particle vector is assembled by the master recurrence: the leading
creation field T_{1,1+e}(lambda_1) multiplies the previously built
(n-e)-particle vector, with e-1 trailing diagonal fields T_{1,1} and a
scalar coefficient built from the two-root exchange data.  The same
bookkeeping produces, term by term, the predicted decomposition of
T_{a,a}(lambda) acting on the state, which is what the dense oracles in
`verify` check.

The Bethe equations are solved by a damped Newton iteration that moves
every seed in lockstep: each iterate evaluates the residuals of all
seeds and their forward-difference points in one array pass
(`bae_residuals`) and solves all Newton systems in one stacked call.
Weights refused in that pass come back as a mask that marks their rows
singular.  The array residuals are bit for bit the scalar `bae_residual`,
the oracle they are tested against, so each seed ends where a Newton
loop of its own would end, with the same outcome.
"""

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import amplitudes as amp
from .chain import (StateVector, monodromy_element, reference_state,
                    require_nonempty_sector, transfer_matrix, vacuum_weight)
from .errors import (IndexOutOfRange, InvalidOption, NoConvergence,
                     ParameterDomain, Singularity, SingularJacobian,
                     UnknownGridPoint)
from .weights import ice_slot

_EVAL_ERRORS = (Singularity, ParameterDomain, UnknownGridPoint)

__all__ = [
    "RootSet", "BetheState", "OffshellTerm", "build_bethe_vector",
    "bae_residual", "bae_residuals", "solve_bae", "solve_sector",
    "SectorSolve", "SEED_OUTCOMES", "eigenvalue",
    "eigenvector_residual", "offshell_expansion", "expansion_for_diagonal",
    "state_signature", "same_state", "EIGENVECTOR_TOL",
]

# an `eigenvector_residual` at or below this makes a built vector an
# eigenvector, and a relative eigenvalue difference at or below it makes
# two root sets one state: the solver and `solve`'s gates read it
EIGENVECTOR_TOL = 1e-8


@dataclass(frozen=True)
class RootSet:
    """An ordered set of pairwise-distinct rapidities."""
    roots: tuple

    def __post_init__(self):
        object.__setattr__(self, "roots",
                           tuple(complex(r) for r in self.roots))
        amp.require_distinct(self.roots)

    @property
    def n(self):
        return len(self.roots)

    def sorted(self):
        return RootSet(tuple(sorted(self.roots, key=lambda z: (z.real, z.imag))))


@dataclass
class BetheState:
    roots: RootSet
    vector: StateVector

    @property
    def sector(self):
        return self.roots.n


def build_bethe_vector(ctx, roots, cache=None):
    """Construct the unnormalized n-particle vector on the chain of `ctx`;
    sub-vectors and amplitudes are memoized in the dict `cache`, if given."""
    if isinstance(roots, RootSet):
        roots = roots.roots
    roots = amp.require_distinct(roots)
    require_nonempty_sector(ctx.N, ctx.L, len(roots))
    if cache is None:
        cache = {}
    vec = _phi(ctx, roots, cache)
    return BetheState(RootSet(roots), StateVector(ctx.N, ctx.L, vec))


def _phi(ctx, roots, cache):
    """Amplitudes of the vector of `roots`, memoized in `cache`."""
    if not roots:
        return reference_state(ctx.N, ctx.L).amplitudes
    key = ("phi", ctx, roots)
    vec = cache.get(key)
    if vec is None:
        vec = cache[key] = _phi_sum(ctx, roots, cache)
    return vec


def _phi_sum(ctx, roots, cache):
    """The master recurrence over the spin channel of the first root."""
    n = len(roots)
    total = np.zeros(ctx.dim, dtype=complex)
    labels = tuple(range(2, n + 1))
    for ebar in range(1, min(n, ctx.N - 1) + 1):
        top = monodromy_element(ctx, roots[0], 1, 1 + ebar)
        for jgrp in combinations(labels, ebar - 1):
            comp = tuple(k for k in labels if k not in jgrp)
            sub = _phi(ctx, tuple(roots[k - 1] for k in comp), cache)
            if ebar == 1:
                coef = 1.0 + 0.0j
            else:
                coef = amp.g_coefficient(ctx.model, ebar, jgrp, roots, cache)
            # the trailing T_{1,1} fields act on |0> as the scalars w_1
            for j in jgrp:
                coef *= vacuum_weight(ctx, roots[j - 1], 1)
            total += coef * top.apply(sub)
    total.flags.writeable = False  # the cache hands it to every caller
    return total


# ----------------------------------------------------------------------
# Bethe equations and eigenvalues
# ----------------------------------------------------------------------

def bae_residual(ctx, roots, j):
    """Residual of the j-th Bethe equation (1-based); zero on shell."""
    if isinstance(roots, RootSet):
        roots = roots.roots
    n = len(roots)
    if not 1 <= j <= n:
        raise IndexOutOfRange(f"equation index {j} outside 1..{n}")
    model = ctx.model
    lj = roots[j - 1]
    w1 = vacuum_weight(ctx, lj, 1)
    w2 = vacuum_weight(ctx, lj, 2)
    if w2 == 0:
        raise Singularity(f"w_2 vanishes at root {lj}")
    val = w1 / w2
    for i in range(1, n + 1):
        if i != j:
            li = roots[i - 1]
            val *= amp.scattering(model, li, lj) / amp.theta(model, lj, li)
    return val - 1.0


@functools.cache
def _residual_layout(N, n):
    """What `bae_residuals` indexes by for n roots on an N-state chain: the
    storage slots of w_1 and w_2, the ordered pairs (i, j), i != j, as
    their `first` and `second` roots, the pair (j, i) of each pair (`rev`)
    and, per t, the pair of the t-th i != j, ascending, at each j."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    first = np.array([i for i, _ in pairs], dtype=np.intp)
    second = np.array([j for _, j in pairs], dtype=np.intp)
    rev = np.array([pairs.index((j, i)) for i, j in pairs], dtype=np.intp)
    columns = [np.array([pairs.index((t + (t >= j), j)) for j in range(n)],
                        dtype=np.intp) for t in range(n - 1)]
    slots = [ice_slot(N, 1, 1, 1, 1), ice_slot(N, 2, 1, 2, 1)]
    return slots, first, second, rev, columns


def bae_residuals(ctx, roots):
    """`bae_residual` at every equation of each root set in the rows of the
    (P, n) array `roots`, from one `array_fn` call: R at each root against
    every site and at each ordered pair of roots.

    Returns (residuals, singular): row s of the (P, n) residuals is bit for
    bit [bae_residual(ctx, roots[s], j) for j = 1..n], and singular[s]
    marks the rows where `bae_residual` raises Singularity, ParameterDomain
    or UnknownGridPoint (at a point that `array_fn` refuses, among others),
    whose residuals are nan.  Products and quotients round as the scalar
    ones do (`amplitudes.mul`), and site products run in site order.
    """
    x = np.array(roots, dtype=complex)
    model, L = ctx.model, ctx.L
    count, n = x.shape
    slots, first, second, rev, columns = _residual_layout(ctx.N, n)
    npairs = len(first)
    sites = count * n * L
    lams = np.empty(sites + count * npairs, dtype=complex)
    mus = np.empty_like(lams)
    lams[:sites].reshape(count * n, L)[:] = x.reshape(-1, 1)
    mus[:sites].reshape(count * n, L)[:] = np.broadcast_to(
        np.array(ctx.inhomogeneities), (count * n, L))
    lams[sites:].reshape(count, npairs)[:] = x[:, first]
    mus[sites:].reshape(count, npairs)[:] = x[:, second]
    w, refused = model.array_fn(lams, mus)
    singular = (refused[:sites].reshape(count, n * L).any(axis=1)
                | refused[sites:].reshape(count, npairs).any(axis=1))
    with np.errstate(all="ignore"):  # singular rows compute garbage
        # w_1 and w_2 of each root as `chain.vacuum_weight`'s math.prod
        # forms them: from (1, 0), site by site in real and imaginary
        # parts, into buffers made once (`amplitudes.mul` gives the same
        # bits but allocates its output at every site, slower)
        vac = w[:sites].reshape(count * n, L, -1)[:, :, slots]
        vac = vac.transpose(1, 0, 2)  # site, root, (w_1, w_2)
        site_re = np.ascontiguousarray(vac.real)
        site_im = np.ascontiguousarray(vac.imag)
        re, im = np.ones(site_re.shape[1:]), np.zeros(site_re.shape[1:])
        re_next, a, b = np.empty_like(re), np.empty_like(re), np.empty_like(re)
        for sr, si in zip(site_re, site_im):
            np.subtract(np.multiply(re, sr, out=a), np.multiply(im, si, out=b),
                        out=re_next)
            np.add(np.multiply(re, si, out=a), np.multiply(im, sr, out=b),
                   out=im)
            re, re_next = re_next, re
        weights = np.empty(re.shape, dtype=complex)
        weights.real, weights.imag = re, im
        weights = weights.reshape(count, n, 2)
        w2 = weights[..., 1]
        singular |= (w2 == 0).any(axis=1)
        val = weights[..., 0] / w2
        if npairs:
            pw = w[sites:].reshape(count, npairs, -1)
            # pair (i, j): scattering(l_i, l_j) / theta(l_j, l_i)
            scat, bad_s = amp.scattering_rows(model, pw, pw[:, rev])
            th, bad_t = amp.theta_rows(model, pw)
            factor = scat / th[:, rev]
            singular |= (bad_s | bad_t).any(axis=1)
            for cols in columns:
                val = amp.mul(val, factor[:, cols])
    return np.where(singular[:, None], complex("nan"), val - 1.0), singular


def _newton_steps(jac, rhs):
    """np.linalg.solve of each system of the stack; nan where singular."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.full(rhs.shape, complex("nan"))
        for s in range(len(rhs)):
            try:
                steps[s] = np.linalg.solve(jac[s], rhs[s])
            except np.linalg.LinAlgError:
                pass
        return steps


def _lockstep_newton(ctx, seeds, tol, max_iter):
    """Damped complex Newton on the Bethe residuals from every seed at once.

    Each iterate evaluates the residuals at every active seed and at its n
    forward-difference points in one `bae_residuals` call, then solves all
    the Newton systems in one stacked call.  A seed retires with an
    outcome of `SEED_OUTCOMES` ("converged" or one of the failures) and
    the best residual it reached.  Returns (outcomes, iterates, best): a
    converged seed's roots are its row of the iterates.  Every seed takes
    the path that a Newton loop of its own takes, to the bit.
    """
    x = np.array(seeds, dtype=complex)
    count, n = x.shape
    outcomes = ["max_iter"] * count
    best = np.full(count, np.inf)
    active = np.arange(count)
    diag = np.arange(n)
    for _ in range(max_iter):
        if not len(active):
            break
        xa = x[active]
        h = 1e-7 * (1.0 + np.hypot(xa.real, xa.imag))
        pts = np.repeat(xa[:, None], n + 1, axis=1)
        pts[:, diag + 1, diag] += h
        res, singular = bae_residuals(ctx, pts.reshape(-1, n))
        res = res.reshape(len(active), n + 1, n)
        singular = singular.reshape(len(active), n + 1)
        r = res[:, 0]
        rn = np.abs(r).max(axis=1)
        ok = ~singular[:, 0]
        seen = best[active[ok]]
        best[active[ok]] = np.where(rn[ok] < seen, rn[ok], seen)  # min()
        converged = ok & (rn < tol)
        go = ok & ~converged & ~singular[:, 1:].any(axis=1)
        for s in (~go).nonzero()[0]:
            outcomes[active[s]] = ("converged" if converged[s]
                                   else "singular_residual")
        jac = ((res[go, 1:] - r[go, None]) / h[go, :, None]).transpose(0, 2, 1)
        step = _newton_steps(jac, -r[go])
        smax = np.abs(step).max(axis=1)
        big = smax > 1.0
        step[big] *= (1.0 / smax[big])[:, None]
        xn = xa[go] + step
        finite = np.isfinite(smax)
        inside = finite & ~(np.abs(xn).max(axis=1) > 8.0)
        moved = active[go]
        for s in (~inside).nonzero()[0]:
            outcomes[moved[s]] = ("left_region" if finite[s]
                                  else "singular_jacobian")
        x[moved[inside]] = xn[inside]
        active = moved[inside]
    return outcomes, x, best


# roots this close (in periods) below the strip's upper edge are on it to
# Newton's accuracy (1e-13 periods at the tests' edge roots), so they are
# folded onto the lower edge, as exact arithmetic folds the edge itself
_EDGE_TOL = 1e-9


def _fold_period(roots, period):
    """Translate each root into the strip [-1/2, 1/2) of the period, so
    that a state's roots print the same whichever seed found it."""
    if period is None:
        return tuple(roots)
    out = []
    for z in roots:
        k = np.floor((z / period).real + 0.5 + _EDGE_TOL)
        out.append(z - k * period)
    return tuple(out)


# offsets from the model's regular point at which a state is told apart
# from others (`state_signature`) and tested for being an eigenvector
_FILTER_OFFSETS = (0.377 + 0.211j, -0.523 + 0.149j, 0.181 - 0.433j)


def state_signature(ctx, roots):
    """The eigenvalue of `roots` at each filter offset; nan where singular."""
    sig = []
    for off in _FILTER_OFFSETS:
        try:
            sig.append(eigenvalue(ctx, ctx.model.regular_point + off, roots))
        except _EVAL_ERRORS:
            sig.append(complex("nan"))
    return np.array(sig)


def same_state(sig_a, sig_b):
    """Whether two signatures or eigenvalues are one state's; nan never is."""
    return amp.relative_residual(sig_a, sig_b) <= EIGENVECTOR_TOL


def _is_physical(ctx, rs):
    """Accept a converged root set only if it produces an eigenvector.

    Spurious Bethe-equation solutions (typically runaways standing in for
    roots at infinity) build a vanishing vector; genuine ones have an
    `eigenvector_residual` within EIGENVECTOR_TOL at the first usable
    filter offset.
    """
    try:
        state = build_bethe_vector(ctx, rs)
    except _EVAL_ERRORS:
        return False
    if float(np.max(np.abs(state.vector.amplitudes))) < 1e-10:
        return False
    for off in _FILTER_OFFSETS:
        try:
            res = eigenvector_residual(ctx, ctx.model.regular_point + off,
                                       state)
        except _EVAL_ERRORS:
            continue
        return res <= EIGENVECTOR_TOL
    return False


def _default_seeds(ctx, n, count, seed):
    """Grid points in the model root window with deterministic jitter."""
    rng = np.random.default_rng(seed)
    (re0, re1), (im0, im1) = ctx.model.root_window
    g = max(2, int(np.ceil(np.sqrt(count))))
    res = np.linspace(re0, re1, g)
    ims = np.linspace(im0, im1, g)
    seeds = []
    for _ in range(count):
        pt = []
        for _k in range(n):
            z = complex(rng.choice(res), rng.choice(ims))
            z += complex(rng.normal(0, 0.07), rng.normal(0, 0.07))
            pt.append(z)
        seeds.append(tuple(pt))
    return seeds


# what becomes of a seed: its converged roots are a new state, a state
# already found or an unphysical set; or its Newton iteration stops
SEED_OUTCOMES = ("converged", "duplicate", "unphysical", "max_iter",
                 "left_region", "singular_residual", "singular_jacobian")

# stopped iterations that record the best residual they reached
_RESIDUAL_FAILURES = ("max_iter", "left_region", "singular_residual")


class SectorSolve(NamedTuple):
    """`solve_sector`'s result: the states, the number of seeds with each
    of `SEED_OUTCOMES`, and the best residual of the failed iterations."""
    states: list
    outcomes: dict
    best_residual: float


def solve_sector(ctx, n, seeds=None, tol=1e-12, max_iter=60, n_seeds=50,
                 seed=42):
    """`solve_bae`'s states and the outcome of every seed; finding no
    state is not an error here.

    The Newton iteration runs all seeds in lockstep (`_lockstep_newton`);
    then each converged seed, in seed order, is kept as a new state,
    dropped as a duplicate (its sorted roots pair off with a found
    state's, or else `same_state` of their signatures), or dropped as
    unphysical: coincident roots, or a set that fails to build an
    eigenvector (vanishing-vector runaways standing in for roots at
    infinity); `_admit` says in which order.  `seeds` must hold root sets
    of n roots each.
    """
    if n_seeds < 1 or max_iter < 1:
        raise InvalidOption("n_seeds and max_iter must be >= 1")
    if seeds is not None:
        seeds = [tuple(s) for s in seeds]
        if not seeds or any(len(s) != n for s in seeds):
            raise InvalidOption(f"seeds must be a nonempty list of "
                                f"{n}-root sets")
    counts = dict.fromkeys(SEED_OUTCOMES, 0)
    if n == 0:
        return SectorSolve([RootSet(())], counts, np.inf)
    if ctx.model.table_data is not None:
        raise InvalidOption(
            "table models store fixed grid points; the solver needs "
            "arbitrary-argument weight evaluation")
    require_nonempty_sector(ctx.N, ctx.L, n)
    if seeds is None:
        seeds = _default_seeds(ctx, n, n_seeds, seed)
    outcomes, iterates, best = _lockstep_newton(ctx, seeds, tol, max_iter)
    found = []
    signatures = []  # of the sets in `found`
    for outcome, x in zip(outcomes, iterates):
        if outcome == "converged":
            outcome = _admit(ctx, tuple(x), found, signatures)
        counts[outcome] += 1
    found.sort(key=lambda rs: tuple((z.real, z.imag) for z in rs.roots))
    failed = [b for b, o in zip(best, outcomes) if o in _RESIDUAL_FAILURES]
    return SectorSolve(found, counts, float(min(failed, default=np.inf)))


def _same_roots(a, b):
    """Whether two sorted root sets pair off root by root, in order, within
    `amplitudes.MIN_ROOT_SEPARATION`, the distance of one rapidity."""
    return all(abs(x - y) < amp.MIN_ROOT_SEPARATION for x, y in zip(a, b))


def _admit(ctx, x, found, signatures):
    """The outcome of converged roots `x`; a new state joins `found`.

    The roots are folded into the period strip and sorted.  A set that
    pairs off root by root with a state in `found` (`_same_roots`) is a
    duplicate, without a signature.  Two sets of one state whose sort
    orders differ (equal real parts up to rounding) do not pair off: they
    fall through to the signature, as does every other set.  A set whose
    signature is `same_state` as a found state's is a duplicate too; one
    that fails `_is_physical` is unphysical; any other joins `found`.
    """
    try:
        rs = RootSet(_fold_period(x, ctx.model.rapidity_period)).sorted()
    except Singularity:
        return "unphysical"  # coincident roots: not an admissible state
    if any(_same_roots(rs.roots, other.roots) for other in found):
        return "duplicate"
    sig = state_signature(ctx, rs)
    if any(same_state(sig, other) for other in signatures):
        return "duplicate"
    if not _is_physical(ctx, rs):
        return "unphysical"
    found.append(rs)
    signatures.append(sig)
    return "converged"


def solve_bae(ctx, n, seeds=None, tol=1e-12, max_iter=60, n_seeds=50, seed=42):
    """Newton-solve the Bethe equations in the n-particle sector.

    Returns one converged root set per state (`same_state` of their
    signatures), each canonically sorted, the list ordered
    lexicographically; `solve_sector` says which sets are dropped.
    Folding roots into the strip of the model's rapidity period only
    makes them print canonically.  Completeness is not attempted.  With
    no state found it raises NoConvergence, or SingularJacobian when every
    given seed hit a singular Jacobian.
    """
    got = solve_sector(ctx, n, seeds, tol, max_iter, n_seeds, seed)
    if not got.states:
        if (seeds is not None
                and got.outcomes["singular_jacobian"] == len(seeds)):
            raise SingularJacobian("every provided seed hit a singular Jacobian")
        raise NoConvergence(
            f"no Bethe roots found in sector n={n}", got.best_residual)
    return got.states


def _wanted_coefficient(ctx, lam, roots, a):
    """w_a(lam) prod_i P_a(lam, lam_i), the eigenvalue's term of T_{a,a}."""
    coef = vacuum_weight(ctx, lam, a)
    for li in roots:
        coef *= amp.P_a(ctx.model, a, lam, li)
    return coef


def eigenvalue(ctx, lam, roots):
    """Transfer-matrix eigenvalue predicted for the given root set."""
    if isinstance(roots, RootSet):
        roots = roots.roots
    return sum((_wanted_coefficient(ctx, lam, roots, a)
                for a in range(1, ctx.N + 1)), 0.0 + 0.0j)


def eigenvector_residual(ctx, lam, state):
    """max|T(lam) v - Lambda v| / (max(|Lambda|, 1) max|v|) of a built state.

    Lambda is the eigenvalue predicted from the state's roots.
    """
    v = state.vector.amplitudes
    vmax = float(np.max(np.abs(v)))
    if vmax == 0:
        raise Singularity("constructed Bethe vector vanishes")
    lam_pred = eigenvalue(ctx, lam, state.roots)
    tv = transfer_matrix(ctx, lam).apply(v)
    scale = max(abs(lam_pred), 1.0) * vmax
    return float(np.max(np.abs(tv - lam_pred * v))) / scale


# ----------------------------------------------------------------------
# off-shell expansion of the diagonal action
# ----------------------------------------------------------------------

@dataclass
class OffshellTerm:
    """One unwanted contribution to T_{a,a}(lambda) |Phi_n>."""
    a: int
    t: int
    p: int
    w1_labels: tuple
    w2_labels: tuple
    op_indices: tuple       # (a - p, a + t - p)
    coefficient: complex    # includes the overall minus sign
    vector: StateVector     # T_{a-p,a+t-p}(lambda) phi_{n-t}(rest) |0>

    @property
    def contribution(self):
        return self.coefficient * self.vector


def expansion_for_diagonal(ctx, lam, roots, a, cache=None):
    """Predicted decomposition of T_{a,a}(lambda) |Phi_n>.

    Returns (wanted, terms): `wanted` is the part proportional to the
    state, `terms` the enumerated unwanted contributions (t ascending,
    p ascending, index tuples lexicographic).
    """
    if isinstance(roots, RootSet):
        roots = roots.roots
    roots = amp.require_distinct(roots)
    if cache is None:
        cache = {}
    model = ctx.model
    N = ctx.N
    n = len(roots)
    phi_full = _phi(ctx, roots, cache)
    wanted = StateVector(ctx.N, ctx.L,
                         _wanted_coefficient(ctx, lam, roots, a) * phi_full)
    terms = []
    labels = tuple(range(1, n + 1))
    for t in range(1, n + 1):
        for p in range(max(0, a + t - N), min(a - 1, t) + 1):
            for w1grp in combinations(labels, t - p):
                rest = tuple(k for k in labels if k not in w1grp)
                for w2grp in combinations(rest, p):
                    spect = tuple(k for k in labels
                                  if k not in w1grp and k not in w2grp)
                    fargs = tuple(roots[k - 1] for k in w1grp) \
                        + tuple(roots[k - 1] for k in w2grp)
                    coef = amp.F_offshell(model, t - p, t, a - p, lam,
                                          fargs, cache)
                    for jk in w1grp:
                        coef *= vacuum_weight(ctx, roots[jk - 1], 1)
                    for jl in w2grp:
                        coef *= vacuum_weight(ctx, roots[jl - 1], 2)
                    coef *= amp.exchange_product(model, roots, spect, w1grp)
                    coef *= amp.exchange_product(model, roots, w2grp, spect)
                    for jk in w1grp:
                        for jl in w2grp:
                            coef *= amp.theta_less(model, roots[jl - 1],
                                                   roots[jk - 1], jl, jk)
                    sub = _phi(ctx, tuple(roots[k - 1] for k in spect), cache)
                    op = monodromy_element(ctx, lam, a - p, a + t - p)
                    vec = StateVector(ctx.N, ctx.L, op.apply(sub))
                    terms.append(OffshellTerm(
                        a=a, t=t, p=p, w1_labels=w1grp, w2_labels=w2grp,
                        op_indices=(a - p, a + t - p),
                        coefficient=-coef, vector=vec))
    return wanted, terms


def offshell_expansion(ctx, lam, roots, cache=None):
    """Predicted decomposition of the full T(lambda) |Phi_n>.

    Returns (wanted, terms): wanted = Lambda_n(lambda) |Phi_n> and the
    concatenated per-diagonal unwanted terms (a ascending).
    """
    if isinstance(roots, RootSet):
        roots = roots.roots
    if cache is None:
        cache = {}
    wanted_total = None
    terms = []
    for a in range(1, ctx.N + 1):
        wanted, tpart = expansion_for_diagonal(ctx, lam, roots, a, cache)
        wanted_total = wanted if wanted_total is None else wanted_total + wanted
        terms.extend(tpart)
    return wanted_total, terms
