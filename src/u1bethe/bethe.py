"""Bethe vectors, Bethe equations and the off-shell transfer-matrix action.

The n-particle vector is assembled by the master recurrence: the leading
creation field T_{1,1+e}(lambda_1) multiplies the previously built
(n-e)-particle vector, with e-1 trailing diagonal fields T_{1,1} and a
scalar coefficient built from the two-root exchange data.  The same
bookkeeping produces, term by term, the predicted decomposition of
T_{a,a}(lambda) acting on the state, which is what the dense oracles in
`verify` check.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import amplitudes as amp
from .chain import (StateVector, monodromy_element, reference_state,
                    require_nonempty_sector, transfer_matrix, vacuum_weight)
from .errors import (IndexOutOfRange, InvalidOption, NoConvergence,
                     ParameterDomain, Singularity, SingularJacobian,
                     UnknownGridPoint)

_EVAL_ERRORS = (Singularity, ParameterDomain, UnknownGridPoint)

__all__ = [
    "RootSet", "BetheState", "OffshellTerm", "build_bethe_vector",
    "bae_residual", "bae_residual_vector", "solve_bae", "eigenvalue",
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


def bae_residual_vector(ctx, roots):
    return np.array([bae_residual(ctx, roots, j)
                     for j in range(1, len(roots) + 1)])


def _newton(ctx, x0, tol, max_iter):
    """Damped complex Newton on the Bethe residual vector."""
    n = len(x0)
    x = np.array(x0, dtype=complex)
    best = np.inf
    for _ in range(max_iter):
        try:
            r = bae_residual_vector(ctx, tuple(x))
        except _EVAL_ERRORS:
            raise NoConvergence("residual singular along the path",
                                best) from None
        rn = float(np.max(np.abs(r)))
        best = min(best, rn)
        if rn < tol:
            return tuple(x)
        jac = np.zeros((n, n), dtype=complex)
        for k in range(n):
            h = 1e-7 * (1.0 + abs(x[k]))
            xp = x.copy()
            xp[k] += h
            try:
                rp = bae_residual_vector(ctx, tuple(xp))
            except _EVAL_ERRORS:
                raise NoConvergence("Jacobian sample singular", best) from None
            jac[:, k] = (rp - r) / h
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            raise SingularJacobian("Newton Jacobian is singular") from None
        smax = float(np.max(np.abs(step)))
        if not np.isfinite(smax):
            raise SingularJacobian("Newton step is not finite")
        if smax > 1.0:
            step *= 1.0 / smax
        x = x + step
        if np.max(np.abs(x)) > 8.0:
            raise NoConvergence("iterate left the search region", best)
    raise NoConvergence(f"no convergence in {max_iter} iterations", best)


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


def solve_bae(ctx, n, seeds=None, tol=1e-12, max_iter=60, n_seeds=50, seed=42):
    """Newton-solve the Bethe equations in the n-particle sector.

    Returns one converged root set per state (`same_state` of their
    signatures), each canonically sorted, the list ordered
    lexicographically.  Sets that fail to build an eigenvector
    (vanishing-vector runaways standing in for roots at infinity) are
    dropped.  Folding roots into the strip of the model's rapidity period
    only makes them print canonically.  Completeness is not attempted.
    """
    if n == 0:
        return [RootSet(())]
    if ctx.model.table_data is not None:
        raise InvalidOption(
            "table models store fixed grid points; the solver needs "
            "arbitrary-argument weight evaluation")
    require_nonempty_sector(ctx.N, ctx.L, n)
    explicit = seeds is not None
    if seeds is None:
        seeds = _default_seeds(ctx, n, n_seeds, seed)
    found = []
    signatures = []  # of the sets in `found`
    best = np.inf
    jac_failures = 0
    for s in seeds:
        try:
            x = _newton(ctx, s, tol, max_iter)
        except NoConvergence as err:
            if err.best_residual is not None:
                best = min(best, err.best_residual)
            continue
        except SingularJacobian:
            jac_failures += 1
            continue
        try:
            rs = RootSet(_fold_period(x, ctx.model.rapidity_period)).sorted()
        except Singularity:
            continue  # coincident roots: not an admissible Bethe state
        sig = state_signature(ctx, rs)
        if any(same_state(sig, other) for other in signatures):
            continue
        if not _is_physical(ctx, rs):
            continue
        found.append(rs)
        signatures.append(sig)
    if not found:
        if explicit and jac_failures == len(seeds):
            raise SingularJacobian("every provided seed hit a singular Jacobian")
        raise NoConvergence(
            f"no Bethe roots found in sector n={n}", best)
    found.sort(key=lambda rs: tuple((z.real, z.imag) for z in rs.roots))
    return found


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
