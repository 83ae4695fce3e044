"""Brute-force oracles: dense diagonalization, commutation-rule generation
by numeric linear solves, and the weight-identity suite.

Every commutation rule comes from one recipe.  A component of the
fundamental relation R(l, m) T(l) (x) T(m) = T(m) (x) T(l) R(l, m) is
written as a formal linear combination of operator products with numeric
weight coefficients (`_rtt`).  The components a rule family selects are
solved as a square system for the products being eliminated
(`_eliminate`, guarded determinant and inverse), and the product being
commuted is isolated from the result (`_isolate`).  The emitted rule is
an operator identity that `check_rule_on_lattice` verifies by applying
monodromy products to random chain vectors.
"""

from dataclasses import dataclass, field

import numpy as np

from . import amplitudes as amp
from . import bethe as bt
from .amplitudes import relative_residual, worst_residual
from .chain import (SplitMonodromy, dense_sector_dimension,
                    monodromy_columns, monodromy_element, reference_state,
                    vacuum_weight)
from .errors import (DegenerateParameters, IndexOutOfRange, ParameterDomain,
                     Singularity)
from .weights import charge_block, eval_r, ice_flip_slots, random_point

__all__ = [
    "RuleCoefficients", "RuleTerm", "IdentityReport",
    "exact_spectrum", "eigenstate_residual", "relative_residual",
    "generate_diag_creation_rule", "generate_creation_creation_rule",
    "generate_annihilation_creation_rule", "check_rule_on_lattice",
    "enumerate_rules", "creation_rule_counts", "table3_counts",
    "identity_suite", "amplitude_property_suite", "appendix_operator_checks",
]

_EVAL_ERRORS = (Singularity, ParameterDomain)


# ----------------------------------------------------------------------
# dense oracles
# ----------------------------------------------------------------------

def exact_spectrum(ctx, lam, sectors=None):
    """Eigenvalues of T(lam) per S^z sector, by dense diagonalization.

    Returns (n, sorted eigenvalues) for each sector n in `sectors`, every
    sector by default, each in an array of its own.  Every requested
    sector is checked against `DENSE_LIMIT` before any block is built.
    If each site's weights at lam equal their spin flip a -> N+1-a exactly,
    the chain flip i -> N^L-1-i, which reverses sector n onto top - n for
    top = (N-1) L, commutes with T(lam): sector n > top/2 is read from
    top - n, and the middle sector splits in two.
    """
    top = (ctx.N - 1) * ctx.L
    sectors = tuple(range(top + 1) if sectors is None else sectors)
    for n in sectors:
        dense_sector_dimension(ctx.N, ctx.L, n)
    sites = [eval_r(ctx.model, lam, mu).values for mu in ctx.inhomogeneities]
    flip = all(np.array_equal(w[ice_flip_slots(ctx.N)], w) for w in sites)
    mirror = {n: min(n, top - n) if flip else n for n in sectors}
    built = tuple(dict.fromkeys(mirror.values()))
    split = SplitMonodromy(ctx, lam, built)
    evals = {m: (_centrosymmetric_eigvals if flip and 2 * m == top
                 else np.linalg.eigvals)(split.block(m))
             for m in built}
    return [(n, np.array(sorted(evals[mirror[n]],
                                key=lambda z: (z.real, z.imag))))
            for n in sectors]


def _centrosymmetric_eigvals(block):
    """Eigenvalues of a d x d block with B[p, q] = B[d-1-p, d-1-q]: those of
    its halves even and odd under p -> d-1-p (the middle p of odd d: even)."""
    h, r = divmod(len(block), 2)
    mirror = block[:h + r, ::-1][:, :h]  # B[p, d-1-q] for q < h
    even = block[:h + r, :h + r].copy()
    even[:, :h] += mirror
    return np.concatenate([np.linalg.eigvals(even),
                           np.linalg.eigvals(block[:h, :h] - mirror[:h])])


def eigenstate_residual(ctx, lam, roots, cache=None):
    """`bethe.eigenvector_residual` of the Bethe vector built from `roots`."""
    return bt.eigenvector_residual(ctx, lam,
                                   bt.build_bethe_vector(ctx, roots, cache))


# ----------------------------------------------------------------------
# formal linear combinations of monodromy products
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RuleTerm:
    """coeff * T_{left[0],left[1]}(left[2]) T_{right[0],right[1]}(right[2]).

    The third slot names the rapidity: "lam" or "mu".
    """
    left: tuple
    right: tuple
    coeff: complex


class _Lin:
    """Formal linear combination of ordered operator products."""

    def __init__(self):
        self._terms = {}

    def add(self, left, right, coeff):
        if coeff == 0:
            return
        key = (left, right)
        self._terms[key] = self._terms.get(key, 0.0 + 0.0j) + coeff

    def add_lin(self, other, scale=1.0):
        for (left, right), coeff in other._terms.items():
            self.add(left, right, scale * coeff)

    def pop(self, left, right):
        return self._terms.pop((left, right), 0.0 + 0.0j)

    def terms(self):
        return sorted((RuleTerm(left, right, coeff)
                       for (left, right), coeff in self._terms.items()
                       if abs(coeff) > 0),
                      key=lambda t: (t.left, t.right))


@dataclass
class RuleCoefficients:
    """A commutation rule: lhs product = sum of weighted products."""
    family: str
    indices: dict
    lam: complex
    mu: complex
    lhs: tuple              # (left, right) operator product, coefficient 1
    terms: list = field(default_factory=list)
    direct: bool = False    # no linear system was needed (or it was 1x1)


# ----------------------------------------------------------------------
# the fundamental relation and its linear solves
# ----------------------------------------------------------------------

def _rtt(w, out, inn, x="lam", y="mu"):
    """Component (out, inn) of R T(x) (x) T(y) - T(y) (x) T(x) R (= 0).

    `w` is R(x, y).  The first sum runs over e + f = out1 + out2 with
    weights R_{out}^{e,f}, the second over h + g = inn1 + inn2 with
    weights R_{h,g}^{inn}; products carry the argument tags x and y.
    """
    (o1, o2), (i1, i2) = out, inn
    N = w.N
    eq = _Lin()
    s = o1 + o2
    for e in range(max(1, s - N), min(s - 1, N) + 1):
        eq.add((e, i1, x), (s - e, i2, y), w.entry(o1, o2, e, s - e))
    s = i1 + i2
    for g in range(max(1, s - N), min(s - 1, N) + 1):
        eq.add((o2, g, y), (o1, s - g, x), -w.entry(s - g, g, i1, i2))
    return eq


def _eliminate(eqs, unknowns):
    """Solve the equations `eqs` (each = 0) for the unknown products.

    Each unknown's coefficient is popped from every equation, leaving
    A X + R = 0; returns X = -A^{-1} R, one _Lin per unknown (guarded
    against a numerically singular A).
    """
    if len(eqs) != len(unknowns):
        raise IndexOutOfRange(
            f"rule system is not square ({len(eqs)} x {len(unknowns)})")
    amat = np.array([[eq.pop(*u) for u in unknowns] for eq in eqs],
                    dtype=complex)
    n = len(eqs)
    scale = np.max(np.abs(amat))
    if scale == 0 or abs(np.linalg.det(amat)) < (amp.PIVOT_RTOL * scale) ** n:
        raise Singularity("rule system is numerically singular")
    inv = np.linalg.inv(amat)
    out = []
    for k in range(n):
        lin = _Lin()
        for row, eq in enumerate(eqs):
            lin.add_lin(eq, -inv[k, row])
        out.append(lin)
    return out


def _equals(product, expr):
    """The equation product = expr, written as expr - product (= 0)."""
    eq = _Lin()
    eq.add(*product, -1.0)
    eq.add_lin(expr)
    return eq


def _isolate(eq, lhs, family, indices, lam, mu, direct=False):
    """Rearrange `eq` == 0 into lhs = sum(terms) and wrap it up."""
    coeff = eq.pop(*lhs)
    if coeff == 0 or abs(coeff) < 1e-14:
        raise Singularity(f"target product has vanishing coefficient {coeff}")
    rhs = _Lin()
    rhs.add_lin(eq, -1.0 / coeff)
    return RuleCoefficients(family, indices, lam, mu, lhs, rhs.terms(), direct)


# ----------------------------------------------------------------------
# family 1: diagonal field through a basis creation field
# ----------------------------------------------------------------------

def generate_diag_creation_rule(model, a, b, lam, mu):
    """Rule for T_{a,a}(lam) T_{1,b}(mu), emitted from the numeric solve."""
    N = model.N
    if not (1 <= a <= N and 2 <= b <= N):
        raise IndexOutOfRange(f"diag-creation indices (a={a}, b={b}) invalid")
    lam, mu = complex(lam), complex(mu)
    lhs = ((a, a, "lam"), (1, b, "mu"))

    def rule(eq, direct=False):
        return _isolate(eq, lhs, "diag_creation", {"a": a, "b": b},
                        lam, mu, direct)

    if a == 1:
        # a single component, taken at the swapped pair (mu, lam)
        return rule(_rtt(eval_r(model, mu, lam), (1, 1), (b, 1), "mu", "lam"),
                    direct=True)
    w = eval_r(model, lam, mu)
    if a == N:
        return rule(_rtt(w, (N, 1), (N, b)), direct=True)
    # the same system as the creation rule with a in the place of a1
    _family, cs, kwin = _creation_system(a, b, N)
    unknowns = [((1, k, "mu"), (a, a + b - k, "lam")) for k in kwin]
    solved = _eliminate([_rtt(w, (a, 1), (a + c, b - c)) for c in cs],
                        unknowns)
    # T_{1,b}(mu) T_{a,a}(lam) = solved expression
    k = kwin.index(b)
    return rule(_equals(unknowns[k], solved[k]))


# ----------------------------------------------------------------------
# family 2: creation fields among themselves
# ----------------------------------------------------------------------

def _creation_system(a1, b1, N):
    """(family, cs, kwin) of the linear system behind an a1 >= 3 rule.

    The family is the A1/A2/A4 label of Table 3, `cs` the component
    offsets c of the equations and `kwin` the window of unknowns k.
    """
    if b1 >= N:
        return ("A4", list(range(b1 - N, N - a1 + 1)),
                list(range(a1 + b1 - N, N + 1)))
    kwin = list(range(max(1, a1 + b1 - N), b1 + 1))
    if a1 <= N + 1 - b1:
        return "A1", list(range(0, b1)), kwin
    return "A2", list(range(0, N - a1 + 1)), kwin


def _creation_window(a1, b1, d1, N):
    if not (2 <= a1 <= N and 0 <= d1 <= N - a1 and 2 <= b1 - d1 <= N):
        raise IndexOutOfRange(
            f"creation indices (a1={a1}, b1={b1}, d1={d1}) invalid for N={N}")


def generate_creation_creation_rule(model, a1, b1, d1, lam, mu):
    """Rule commuting two creation fields.

    For a1 = 2 the rule reorders the basis fields T_{1,b1-d1}(lam) and
    T_{1,2+d1}(mu); for a1 >= 3 it brings T_{1,b1-d1}(mu) to the left of
    T_{a1-1,a1+d1}(lam).
    """
    N = model.N
    _creation_window(a1, b1, d1, N)
    lam, mu = complex(lam), complex(mu)

    def rule(eq, lhs, direct=False):
        return _isolate(eq, lhs, "creation_creation",
                        {"a1": a1, "b1": b1, "d1": d1}, lam, mu, direct)

    w = eval_r(model, lam, mu)
    if a1 == 2:
        b = b1 - d1
        lhs = ((1, b, "lam"), (1, 2 + d1, "mu"))
        if b1 >= N:
            return rule(_rtt(w, (1, 1), (b, 2 + d1)), lhs, direct=True)
        cs = [b - 2, b1 - 1]
        kwin = [1, 2]
    else:
        _family, cs, kwin = _creation_system(a1, b1, N)
    unknowns = [((1, k, "mu"), (a1 - 1, a1 + b1 - k, "lam")) for k in kwin]
    solved = _eliminate([_rtt(w, (a1 - 1, 1), (a1 + c, b1 - c)) for c in cs],
                        unknowns)
    if a1 == 2:
        # T_{1,2}(mu) T_{1,b1}(lam) = solved expression, then reorder
        return rule(_equals(unknowns[1], solved[1]), lhs)
    k = kwin.index(b1 - d1)
    return rule(_equals(unknowns[k], solved[k]), unknowns[k],
                direct=(len(cs) == 1))


# ----------------------------------------------------------------------
# family 3: annihilator through a basis creation field (two stages)
# ----------------------------------------------------------------------

def generate_annihilation_creation_rule(model, a1, d1, b, lam, mu):
    """Rule for T_{f1,a1-1}(lam) T_{1,b}(mu), f1 = a1 + d1.

    Stage 1 combines the c2 = 0 components to isolate the product;
    stage 2 eliminates, for every combination index c1, the residual
    wrong-order creation products through the components at c2 > 0.
    """
    N = model.N
    _creation_window(a1, b + d1, d1, N)
    lam, mu = complex(lam), complex(mu)
    f1 = a1 + d1
    lhs = ((f1, a1 - 1, "lam"), (1, b, "mu"))

    def rule(eq, direct=False):
        return _isolate(eq, lhs, "annihilation_creation",
                        {"a1": a1, "d1": d1, "b": b}, lam, mu, direct)

    w = eval_r(model, lam, mu)

    def component(c1, c2):
        return _rtt(w, (f1 - c1, c1 + 1), (a1 + c2 - 1, b - c2))

    if b == 2:
        return rule(component(0, 0), direct=True)
    # stage 1: combinations in c1 at c2 = 0
    c1s = list(range(0, b - 1)) if b - 2 <= d1 else list(range(0, d1 + 2))
    xwin = list(range(f1 - len(c1s) + 1, f1 + 1))
    solved = _eliminate([component(c1, 0) for c1 in c1s],
                        [((x, a1 - 1, "lam"), (f1 + 1 - x, b, "mu"))
                         for x in xwin])
    eq = _equals(lhs, solved[xwin.index(f1)])
    # stage 2: per c1, replace the wrong-order creation products
    for c1 in c1s:
        ywin = list(range(max(1, a1 + b - 1 - N), b + c1 - d1 - 1))
        if not ywin:
            continue
        c2s = list(range(d1 - c1 + 2, min(b - 1, N - a1 + 1) + 1))
        unknowns = [((c1 + 1, y, "mu"), (f1 - c1, a1 + b - 1 - y, "lam"))
                    for y in ywin]
        solved = _eliminate([component(c1, c2) for c2 in c2s], unknowns)
        for u, expr in zip(unknowns, solved):
            coeff = eq.pop(*u)
            if coeff != 0:
                eq.add_lin(expr, coeff)
    return rule(eq)


# ----------------------------------------------------------------------
# rule enumeration, counting and lattice verification
# ----------------------------------------------------------------------

def enumerate_rules(N):
    """Every admissible index combination per family at a given N."""
    diag = [("diag_creation", {"a": a, "b": b})
            for a in range(1, N + 1) for b in range(2, N + 1)]
    creation = []
    annihilation = []
    for a1 in range(2, N + 1):
        for d1 in range(0, N - a1 + 1):
            for b in range(2, N + 1):
                b1 = b + d1
                creation.append(("creation_creation",
                                 {"a1": a1, "b1": b1, "d1": d1}))
                annihilation.append(("annihilation_creation",
                                     {"a1": a1, "d1": d1, "b": b}))
    return diag + creation + annihilation


def creation_rule_counts(N):
    """Count the a1 >= 3 creation rules per linear-system family."""
    counts = {"A1": 0, "A2": 0, "A4": 0}
    for family, indices in enumerate_rules(N):
        if family == "creation_creation" and indices["a1"] >= 3:
            counts[_creation_system(indices["a1"], indices["b1"], N)[0]] += 1
    return counts


def table3_counts(N):
    """Closed-form totals the enumeration must reproduce."""
    return {
        "A1": (N - 1) * (N - 2) * (N - 3) // 6,
        "A2": N * (N - 1) * (N - 2) // 6,
        "A4": N * (N - 1) * (N - 2) // 6,
    }


def generate_rule(model, family, indices, lam, mu):
    if family == "diag_creation":
        return generate_diag_creation_rule(model, indices["a"], indices["b"],
                                           lam, mu)
    if family == "creation_creation":
        return generate_creation_creation_rule(
            model, indices["a1"], indices["b1"], indices["d1"], lam, mu)
    if family == "annihilation_creation":
        return generate_annihilation_creation_rule(
            model, indices["a1"], indices["d1"], indices["b"], lam, mu)
    raise IndexOutOfRange(f"unknown rule family {family!r}")


def check_rule_on_lattice(ctx, rule, trials=3):
    """Relative residual of the rule as an operator identity on the chain.

    Both sides act on `trials` random vectors (seeded, so repeatable);
    the residual is the worst max-abs mismatch over trials, normalized by
    the larger side.  Each product T_{i,j}(x) T_{k,m}(y) is read from one
    contraction per distinct right factor (y, m) and one per distinct left
    factor (x, j), over all of its inner vectors stacked as columns, and
    the terms are summed in the rule's order.
    """
    rng = np.random.default_rng(0)
    args = {"lam": rule.lam, "mu": rule.mu}
    vecs = np.empty((ctx.dim, trials), dtype=complex)
    for k in range(trials):
        vecs[:, k] = (rng.standard_normal(ctx.dim)
                      + 1j * rng.standard_normal(ctx.dim))
    products = [rule.lhs] + [(t.left, t.right) for t in rule.terms]
    inner, groups = {}, {}
    for (_, j, ltag), right in products:
        _, m, rtag = right
        if (rtag, m) not in inner:
            inner[rtag, m] = monodromy_columns(ctx, args[rtag], m, vecs)
        groups.setdefault((ltag, j), {})[right] = None  # an ordered set
    applied = {}
    for (ltag, j), rights in groups.items():
        outs = monodromy_columns(ctx, args[ltag], j, np.concatenate(
            [inner[rtag, m][k - 1] for k, m, rtag in rights], axis=1))
        for s, right in enumerate(rights):
            applied[ltag, j, right] = outs[:, :, s * trials:(s + 1) * trials]

    def product(left, right):
        i, j, ltag = left
        return applied[ltag, j, right][i - 1]

    lv = product(*rule.lhs)
    rv = np.zeros_like(lv)
    for t in rule.terms:
        rv += t.coeff * product(t.left, t.right)
    return worst_residual([relative_residual(lv[:, k], rv[:, k])
                           for k in range(trials)])


# ----------------------------------------------------------------------
# identity suite
# ----------------------------------------------------------------------

@dataclass
class IdentityReport:
    identity_id: str
    samples: list           # parameter tuples actually used
    residuals: list
    skipped: int
    tol: float

    @property
    def max_residual(self):
        return worst_residual(self.residuals)

    @property
    def mean_residual(self):
        return float(np.mean(self.residuals)) if self.residuals else 0.0

    @property
    def passed(self):
        return bool(self.residuals) and self.max_residual < self.tol

    def __repr__(self):
        flag = "pass" if self.passed else "FAIL"
        return (f"IdentityReport({self.identity_id}: {flag}, "
                f"max {self.max_residual:.3e}, {len(self.residuals)} samples, "
                f"{self.skipped} skipped)")


def _id_block_unitarity(model, pts):
    lam, mu = pts
    wlm, wml = eval_r(model, lam, mu), eval_r(model, mu, lam)
    return [float(np.max(np.abs(
        charge_block(wlm, j, q1) @ charge_block(wml, j, q1) - np.eye(q1))))
        for j in (1, 2) for q1 in range(1, model.N + 1)]


def _id_swap_ratio(model, pts):
    lam, mu = pts
    wlm, wml = eval_r(model, lam, mu), eval_r(model, mu, lam)
    lhs = amp._div(wlm.entry(2, 1, 1, 2), wlm.entry(2, 1, 2, 1))
    rhs = -amp._div(wml.entry(1, 2, 2, 1), wml.entry(2, 1, 2, 1))
    return relative_residual(lhs, rhs)


def _id_d2_product(model, pts):
    lam, mu = pts
    wlm, wml = eval_r(model, lam, mu), eval_r(model, mu, lam)
    lhs = amp.det_D2(model, 2, 0, lam, mu) * amp.det_D2(model, 2, 0, mu, lam)
    rhs = amp._div(wlm.entry(1, 1, 1, 1), wlm.entry(2, 1, 2, 1)) \
        * amp._div(wml.entry(1, 1, 1, 1), wml.entry(2, 1, 2, 1))
    return relative_residual(lhs, rhs)


def _id_d2_top(model, pts):
    lam, mu = pts
    wml = eval_r(model, mu, lam)
    lhs = amp.det_D2(model, 2, 1, lam, mu)
    rhs = -amp._div(wml.entry(3, 1, 2, 2), wml.entry(3, 1, 3, 1)) \
        * amp.det_D2(model, 2, 0, lam, mu)
    return relative_residual(lhs, rhs)


def _id_d2_charge3_mid(model, pts):
    l1, lam = pts
    w = eval_r(model, lam, l1)
    lhs = amp._div(amp.det_D2(model, 3, 1, l1, lam),
                   amp.det_D2(model, 3, 0, l1, lam))
    num = amp.det_guarded([[w.entry(4, 1, 2, 3), w.entry(3, 2, 2, 3)],
                           [w.entry(4, 1, 4, 1), w.entry(3, 2, 4, 1)]])
    den = amp.det_guarded([[w.entry(4, 1, 3, 2), w.entry(3, 2, 3, 2)],
                           [w.entry(4, 1, 4, 1), w.entry(3, 2, 4, 1)]])
    return relative_residual(lhs, -amp._div(num, den))


def _id_d2_charge3_top(model, pts):
    l1, lam = pts
    w = eval_r(model, lam, l1)
    lhs = amp._div(amp.det_D2(model, 3, 2, l1, lam),
                   amp.det_D2(model, 3, 0, l1, lam))
    num = amp.det_guarded([[w.entry(4, 1, 2, 3), w.entry(3, 2, 2, 3)],
                           [w.entry(4, 1, 3, 2), w.entry(3, 2, 3, 2)]])
    den = amp.det_guarded([[w.entry(4, 1, 3, 2), w.entry(3, 2, 3, 2)],
                           [w.entry(4, 1, 4, 1), w.entry(3, 2, 4, 1)]])
    return relative_residual(lhs, amp._div(num, den))


def _id_block_det_exchange(model, pts):
    lam, mu = pts
    N = model.N
    det = amp.det_guarded
    res = []
    for j in (1, 2):
        for i in range(1, N - 1):
            wa = charge_block(eval_r(model, lam, mu), j, i + 2)
            wa1 = charge_block(eval_r(model, lam, mu), j, i + 1)
            ab = charge_block(eval_r(model, mu, lam), j, i + 2)
            ab1 = charge_block(eval_r(model, mu, lam), j, i + 1)
            lhs_num = det([[wa[r, c] for c in (i - 1, i, i + 1)]
                           for r in (0, 1, 2)]) * wa1[0, i]
            lhs_den = det([[wa1[r, c] for c in (i - 1, i)] for r in (0, 1)]) \
                * det([[wa[r, c] for c in (i, i + 1)] for r in (0, 1)])
            lhs = amp._div(lhs_num, lhs_den)
            r1 = amp._div(
                det([[ab1[r, c] for c in range(1, i + 1)] for r in range(i)]),
                det([[ab1[r, c] for c in range(2, i + 1)]
                     for r in range(i - 1)]))
            cols_num = list(range(i + 1, 2, -1))
            cols_den = list(range(i + 1, 1, -1))
            r2 = amp._div(
                det([[ab[r, c] for c in cols_num] for r in range(i - 1)]),
                det([[ab[r, c] for c in cols_den] for r in range(i)]))
            res.append(relative_residual(lhs, (-1) ** i * r1 * r2))
    return res


def _id_d3_over_d2(model, pts):
    lam, mu = pts
    res = []
    for i in range(2, model.N - 1):
        lhs = amp._div(amp.det_D3(model, i, 0, lam, mu),
                       amp.det_D2(model, i, 0, lam, mu))
        rhs = amp._div(amp.det_D4(model, i + 1, 2, lam, mu),
                       amp.det_D4(model, i + 1, 3, lam, mu)) \
            * amp._div(amp.det_D4(model, i + 2, 4, lam, mu),
                       amp.det_D4(model, i + 2, 3, lam, mu))
        res.append(relative_residual(lhs, rhs))
    return res


def _id_d2_to_d5d4(model, pts):
    lam, mu = pts
    res = []
    for i in range(1, model.N - 1):
        lhs = amp._div(amp.det_D2(model, i + 1, 1, lam, mu),
                       amp.det_D2(model, i + 1, 0, lam, mu))
        rhs = -amp._div(amp.det_D5(model, i + 2, lam, mu),
                        amp.det_D4(model, i + 2, 3, lam, mu))
        res.append(relative_residual(lhs, rhs))
    return res


def _id_ybe_triple_low(model, pts):
    lam, l1, l2 = pts
    w2l = eval_r(model, l2, lam)
    w12 = eval_r(model, l1, l2)
    w1l = eval_r(model, l1, lam)
    x12 = amp._div(w12.entry(3, 1, 2, 2), w12.entry(3, 1, 3, 1))
    lhs = amp._div(w2l.entry(1, 1, 1, 1), w2l.entry(2, 1, 2, 1)) * x12
    rhs = amp._div(w2l.entry(1, 2, 2, 1), w2l.entry(2, 1, 2, 1)) \
        * amp._div(w1l.entry(3, 1, 2, 2), w1l.entry(3, 1, 3, 1)) \
        + x12 * amp._div(w1l.entry(2, 1, 2, 1), w1l.entry(3, 1, 3, 1))
    return relative_residual(lhs, rhs)


def _id_ybe_triple_high(model, pts):
    lam, l1, l2 = pts
    N = model.N
    wl2 = eval_r(model, lam, l2)
    wl1 = eval_r(model, lam, l1)
    w12 = eval_r(model, l1, l2)
    x12 = amp._div(w12.entry(3, 1, 2, 2), w12.entry(3, 1, 3, 1))
    lhs = amp._div(wl2.entry(N, 2, N, 2), wl2.entry(N, 1, N, 1)) * x12
    rhs = x12 * amp._div(wl1.entry(N, 3, N, 3), wl1.entry(N, 2, N, 2)) \
        - amp._div(wl1.entry(N - 1, 3, N, 2), wl1.entry(N, 2, N, 2)) \
        * amp._div(wl2.entry(N, 1, N - 1, 2), wl2.entry(N, 1, N, 1))
    return relative_residual(lhs, rhs)


def _wanted_assembly_residual(model, a, cont, lam, l1, l2):
    wl2 = eval_r(model, lam, l2)
    w12 = eval_r(model, l1, l2)
    x12 = amp._div(w12.entry(3, 1, 2, 2), w12.entry(3, 1, 3, 1))
    if cont:
        d4_b3 = amp.det_D4_cont(model, 3, lam, l1)
        d4_b4 = amp.det_D4_cont(model, 4, lam, l1)
        d5 = amp.det_D5_cont(model, lam, l1)
    else:
        d4_b3 = amp.det_D4(model, a + 2, 3, lam, l1)
        d4_b4 = amp.det_D4(model, a + 2, 4, lam, l1)
        d5 = amp.det_D5(model, a + 2, lam, l1)
    lhs = amp.det_D2(model, a, 0, lam, l2) * x12
    t1 = -amp._div(wl2.entry(a + 1, 1, a, 2), wl2.entry(a + 1, 1, a + 1, 1)) \
        * amp._div(d5, d4_b3)
    t2 = amp._div(amp.det_D5(model, a + 1, lam, l1),
                  amp.det_D4(model, a + 1, 3, lam, l1)) \
        * amp._div(wl2.entry(a, 1, a - 1, 2), wl2.entry(a, 1, a, 1))
    t3 = x12 * amp._div(amp.det_D4(model, a + 1, 2, lam, l1),
                        amp.det_D4(model, a + 1, 3, lam, l1)) \
        * amp._div(d4_b4, d4_b3)
    return relative_residual(lhs, t1 + t2 + t3)


def _id_wanted_assembly(model, pts):
    lam, l1, l2 = pts
    N = model.N
    # the top index a = N - 1 takes the continued determinants
    return [_wanted_assembly_residual(model, a, a == N - 1, lam, l1, l2)
            for a in range(2, N)]


def _id_d5d4_continuation(model, pts):
    lam, l1 = pts
    N = model.N
    w = eval_r(model, lam, l1)
    lhs = -amp._div(amp.det_D5_cont(model, lam, l1),
                    amp.det_D4_cont(model, 3, lam, l1))
    rhs = amp._div(w.entry(N - 1, 3, N, 2), w.entry(N, 2, N, 2))
    return relative_residual(lhs, rhs)


def _id_d3d2_continuation(model, pts):
    lam, l1 = pts
    N = model.N
    w = eval_r(model, lam, l1)
    dnum = amp.det_guarded([[w.entry(N, 2, N - 1, 3), w.entry(N, 2, N, 2)],
                            [w.entry(N - 1, 3, N - 1, 3),
                             w.entry(N - 1, 3, N, 2)]])
    dden = amp.det_guarded([[w.entry(N, 1, N - 1, 2), w.entry(N, 1, N, 1)],
                            [w.entry(N - 1, 2, N - 1, 2),
                             w.entry(N - 1, 2, N, 1)]])
    lhs = amp._div(dnum * w.entry(N, 1, N, 1), dden * w.entry(N, 2, N, 2))
    rhs = amp._div(amp.det_D4(model, N, 2, lam, l1),
                   amp.det_D4(model, N, 3, lam, l1)) \
        * amp._div(amp.det_D4_cont(model, 4, lam, l1),
                   amp.det_D4_cont(model, 3, lam, l1))
    return relative_residual(lhs, rhs)


def _id_charge3_unitarity(model, pts):
    lam, mu = pts
    wlm, wml = eval_r(model, lam, mu), eval_r(model, mu, lam)
    lhs = wlm.entry(3, 1, 1, 3) * wml.entry(3, 1, 3, 1) \
        + wlm.entry(3, 1, 2, 2) * wml.entry(2, 2, 3, 1)
    return relative_residual(lhs, -wlm.entry(3, 1, 3, 1) * wml.entry(1, 3, 3, 1))


_IDENTITIES = [
    # (id, number of sampled points, minimal N, evaluator)
    ("block_unitarity", 2, 2, _id_block_unitarity),
    ("swap_ratio_antisymmetry", 2, 2, _id_swap_ratio),
    ("d2_product_inversion", 2, 3, _id_d2_product),
    ("d2_top_index_swap", 2, 3, _id_d2_top),
    ("d2_ratio_swap_charge3_mid", 2, 4, _id_d2_charge3_mid),
    ("d2_ratio_swap_charge3_top", 2, 4, _id_d2_charge3_top),
    ("block_det_exchange", 2, 3, _id_block_det_exchange),
    ("d3_over_d2_factorization", 2, 4, _id_d3_over_d2),
    ("d2_ratio_to_d5d4", 2, 3, _id_d2_to_d5d4),
    ("ybe_triple_ratio_low", 3, 3, _id_ybe_triple_low),
    ("ybe_triple_ratio_high", 3, 3, _id_ybe_triple_high),
    ("wanted_term_assembly", 3, 3, _id_wanted_assembly),
    ("d5d4_continuation_ratio", 2, 3, _id_d5d4_continuation),
    ("d3d2_continuation_ratio", 2, 3, _id_d3d2_continuation),
    ("charge3_unitarity_row", 2, 3, _id_charge3_unitarity),
]


def draw_regular(rng, window, n_pts, fn):
    """(pts, fn(pts), singular draws before) for the first of up to ten
    draws of `n_pts` points at which `fn` is regular; else (None, None, 10)."""
    for k in range(10):
        pts = tuple(random_point(rng, window) for _ in range(n_pts))
        try:
            return pts, fn(pts), k
        except _EVAL_ERRORS:
            continue
    return None, None, 10


def _run_identity(model, name, n_pts, fn, samples, tol, rng):
    drawn = [draw_regular(rng, model.sample_window, n_pts,
                          lambda p: worst_residual(fn(model, p)))
             for _ in range(samples)]
    used = [pts for pts, _, _ in drawn if pts is not None]
    residuals = [res for pts, res, _ in drawn if pts is not None]
    skipped = samples - len(used)
    if skipped > 0.2 * samples:
        raise DegenerateParameters(
            f"identity {name}: {skipped}/{samples} samples were singular")
    return IdentityReport(name, used, residuals, skipped, tol)


def _run_table(model, table, stream, samples, tol, seed, names=None):
    """One report per entry of `table` applicable at the model's N (and
    named in `names`, if given); entry k draws from rng (seed, stream + k)."""
    return [_run_identity(model, name, n_pts, fn, samples, tol,
                          np.random.default_rng((seed, stream + k)))
            for k, (name, n_pts, min_n, fn) in enumerate(table)
            if model.N >= min_n and (names is None or name in names)]


def identity_suite(model, samples=50, tol=1e-9, seed=42, names=None):
    """Check every weight identity applicable at the model's N.

    Identities whose indices exceed N are auto-restricted away; each one
    is sampled at random non-singular points (singular draws are
    resampled up to ten times, then counted as skips).  `names`
    restricts the run to a subset of identity ids."""
    return _run_table(model, _IDENTITIES, 0, samples, tol, seed, names)


# ----------------------------------------------------------------------
# amplitude property suite (cross-form checks on the scalar functions)
# ----------------------------------------------------------------------

def _ap_exchange_inverse(model, pts):
    lam, mu = pts
    return abs(amp.theta(model, lam, mu) * amp.theta(model, mu, lam) - 1.0)


def _ap_one_particle_sum(model, pts):
    lam, mu = pts
    return [abs(amp.F_offshell(model, 0, 1, a, lam, (mu,))
                + amp.F_offshell(model, 1, 1, a, lam, (mu,)))
            for a in range(1, model.N)]


def _ap_f2_exchange(model, pts):
    lam, l1, l2 = pts
    th = amp.theta(model, l1, l2)
    return [relative_residual(
        amp.F_offshell(model, c, 2, a, lam, (l1, l2)),
        th * amp.F_offshell(model, c, 2, a, lam, (l2, l1)))
        for a in range(1, model.N - 1) for c in (0, 2)]


def _ap_f2_closed(model, pts):
    lam, l1, l2 = pts
    return [relative_residual(amp.F_offshell(model, c, 2, a, lam, (l1, l2)),
                              amp.F2_closed(model, c, a, lam, l1, l2))
            for a in range(1, model.N - 1) for c in (0, 2)]


def _ap_pbar(model, pts):
    lam, l1, l2 = pts
    return [relative_residual(amp.Pbar_a(model, a, lam, l1, l2),
                              amp.P_a(model, a, lam, l2))
            for a in range(1, model.N + 1)]


def _ap_h_exchange(model, pts):
    lam, l1, l2 = pts
    th = amp.theta(model, l1, l2)
    # channel c = 1 stops one index short of c = 0
    return [relative_residual(
        amp.H_function(model, c, 1, a, lam, l1, l2, tag=2),
        th * amp.H_function(model, c, 1, a, lam, l2, l1, tag=1))
        for c in (0, 1) for a in range(1, model.N - c)]


def _ap_h_equals_f(model, pts):
    lam, l1, l2 = pts
    return [relative_residual(
        amp.H_function(model, 1, 2, a, lam, l1, l2, tag=1),
        amp.F_offshell(model, 1, 2, a, lam, (l1, l2)))
        for a in range(1, model.N - 1)]


_AMPLITUDE_PROPERTIES = [
    ("exchange_inverse", 2, 2, _ap_exchange_inverse),
    ("one_particle_offshell_sum", 2, 2, _ap_one_particle_sum),
    ("f2_exchange_symmetry", 3, 3, _ap_f2_exchange),
    ("f2_closed_vs_recursive", 3, 3, _ap_f2_closed),
    ("pbar_equals_p", 3, 3, _ap_pbar),
    ("h_exchange_consistency", 3, 3, _ap_h_exchange),
    ("h_equals_f_identification", 3, 3, _ap_h_equals_f),
]


def amplitude_property_suite(model, samples=50, tol=1e-9, seed=42):
    return _run_table(model, _AMPLITUDE_PROPERTIES, 1000, samples, tol, seed)


# ----------------------------------------------------------------------
# appendix operator identities on the two-particle state
# ----------------------------------------------------------------------

def appendix_operator_checks(ctx, lam, l2, l3, cache=None, tol=1e-9):
    """Vector-level checks of the annihilator action on the 2-root state.

    Verifies: the exact kill by annihilators of spin drop >= 3; the
    closed forms for T_{a+2,a} and T_{a+1,a} acting on the state; the
    tagged-amplitude identity behind them; and the two scalar
    factorizations of the mixed wanted terms.
    """
    model = ctx.model
    N = ctx.N
    if cache is None:
        cache = {}
    phi2 = bt.build_bethe_vector(ctx, (l2, l3), cache).vector.amplitudes
    ref = reference_state(N, ctx.L).amplitudes
    reports = []

    def rep(name, residuals):
        reports.append(IdentityReport(name, [(lam, l2, l3)],
                                      residuals, 0, tol))

    def rt(x, y):
        return amp.ratio_11_21(model, x, y)

    def F(c, b, a, span, roots):
        return amp.F_offshell(model, c, b, a, span, roots, cache)

    w1_2 = vacuum_weight(ctx, l2, 1)
    w1_3 = vacuum_weight(ctx, l3, 1)
    w2_2 = vacuum_weight(ctx, l2, 2)
    w2_3 = vacuum_weight(ctx, l3, 2)
    th23 = amp.theta(model, l2, l3)

    # exact kill: spin drop of three or more annihilates the state
    res = []
    for a in range(1, N + 1):
        for d in range(3, N - a + 1):
            out = monodromy_element(ctx, lam, d + a, a).apply(phi2)
            res.append(float(np.max(np.abs(out))))
    if res:
        rep("high_annihilator_kills_phi2", res)

    # T_{a+2,a} on the state: four-weight closed form
    res = []
    for a in range(1, N - 1):
        lhs = monodromy_element(ctx, lam, a + 2, a).apply(phi2)
        w23 = eval_r(model, l2, l3)
        w32 = eval_r(model, l3, l2)
        coef = vacuum_weight(ctx, lam, a + 2) * w1_2 * w1_3 \
            * F(0, 2, a, lam, (l2, l3))
        coef += vacuum_weight(ctx, lam, a + 1) * w2_2 * w1_3 \
            * F(1, 2, a, lam, (l2, l3)) * rt(l2, l3) \
            * amp._div(w32.entry(2, 1, 2, 1), w32.entry(1, 1, 1, 1)) * th23
        coef += vacuum_weight(ctx, lam, a + 1) * w1_2 * w2_3 \
            * F(1, 2, a, lam, (l3, l2)) * rt(l3, l2) \
            * amp._div(w23.entry(2, 1, 2, 1), w23.entry(1, 1, 1, 1))
        coef += vacuum_weight(ctx, lam, a) * w2_2 * w2_3 \
            * F(2, 2, a, lam, (l2, l3))
        rhs = coef * ref
        res.append(relative_residual(lhs, rhs))
    if res:
        rep("t_aplus2_on_phi2", res)

    # T_{a+1,a} on the state: five-term closed form
    res = []
    for a in range(1, N):
        lhs = monodromy_element(ctx, lam, a + 1, a).apply(phi2)
        rhs = np.zeros_like(lhs)
        t12_3 = monodromy_element(ctx, l3, 1, 2).apply(ref)
        t12_2 = monodromy_element(ctx, l2, 1, 2).apply(ref)
        c1 = F(0, 1, a, lam, (l2,)) * (
            vacuum_weight(ctx, lam, a + 1) * w1_2 * rt(l3, l2)
            * amp.P_a(model, a + 1, lam, l3)
            - vacuum_weight(ctx, lam, a) * w2_2 * th23 * rt(l2, l3)
            * amp.P_a(model, a, lam, l3))
        rhs += c1 * t12_3
        c2 = F(0, 1, a, lam, (l3,)) * (
            vacuum_weight(ctx, lam, a + 1) * w1_3 * th23 * rt(l2, l3)
            * amp.P_a(model, a + 1, lam, l2)
            - vacuum_weight(ctx, lam, a) * w2_3 * rt(l3, l2)
            * amp.P_a(model, a, lam, l2))
        rhs += c2 * t12_2
        if a + 2 <= N:
            c3 = w1_2 * w1_3 * F(0, 2, a, lam, (l2, l3))
            rhs += c3 * monodromy_element(ctx, lam, a + 1, a + 2).apply(ref)
        c4 = -F(0, 1, a, lam, (l2,)) * F(0, 1, a, lam, (l3,)) * (
            w1_2 * w2_3 * rt(l3, l2) + w2_2 * w1_3 * rt(l2, l3) * th23)
        rhs += c4 * monodromy_element(ctx, lam, a, a + 1).apply(ref)
        if a >= 2:
            c5 = w2_2 * w2_3 * F(2, 2, a - 1, lam, (l2, l3))
            rhs += c5 * monodromy_element(ctx, lam, a - 1, a).apply(ref)
        res.append(relative_residual(lhs, rhs))
    rep("t_aplus1_on_phi2", res)

    # tagged two-root amplitude equals the recursion value
    res = []
    for a in range(1, N - 1):
        wl2 = eval_r(model, lam, l2)
        tagged = amp._div(wl2.entry(a + 2, 1, a, 3),
                          wl2.entry(a + 2, 1, a + 2, 1)) \
            * F(0, 1, 2, l2, (l3,)) \
            + amp.P_a(model, 2, l2, l3) * F(0, 1, a + 1, lam, (l2,)) \
            * F(0, 1, a, lam, (l3,)) \
            - F(0, 1, a + 1, lam, (l2,)) * F(0, 1, a, lam, (l2,)) \
            * F(0, 1, 1, l2, (l3,))
        res.append(relative_residual(tagged, F(2, 2, a, lam, (l2, l3))))
    if res:
        rep("tagged_f22_identity", res)

    # scalar factorizations of the mixed wanted terms
    res1, res2 = [], []
    for a in range(1, N - 1):
        wl2 = eval_r(model, lam, l2)
        p1 = amp.P_a(model, a + 1, lam, l3) * F(0, 1, a, lam, (l2,)) \
            * F(0, 1, 1, l2, (l3,)) \
            - F(0, 1, a + 1, lam, (l3,)) * F(0, 1, a, lam, (l2,)) \
            * amp._div(wl2.entry(a + 1, 2, a + 2, 1),
                       wl2.entry(a + 2, 1, a + 2, 1)) \
            + amp._div(wl2.entry(a, 2, a, 2), wl2.entry(a + 1, 1, a + 1, 1)) \
            * F(0, 1, a, lam, (l3,)) \
            - F(1, 1, 2, l2, (l3,)) * amp._div(
                amp.det_guarded(
                    [[wl2.entry(a + 2, 1, a, 3), wl2.entry(a + 1, 2, a, 3)],
                     [wl2.entry(a + 2, 1, a + 2, 1),
                      wl2.entry(a + 1, 2, a + 2, 1)]]),
                wl2.entry(a + 2, 1, a + 2, 1) * wl2.entry(a + 1, 1, a + 1, 1))
        rhs1 = th23 * amp.P_a(model, 1, l3, l2) \
            * amp.P_a(model, a + 1, lam, l2) * F(0, 1, a, lam, (l3,))
        res1.append(relative_residual(p1, rhs1))
    for a in range(1, N):
        wl2 = eval_r(model, lam, l2)
        # the first factor enters with the w_1-carrying amplitude, hence
        # the overall sign relative to the raising-side factorization
        p2 = amp.P_a(model, a, lam, l2) * F(1, 1, a, lam, (l2,)) \
            * F(0, 1, 1, l2, (l3,)) \
            - F(0, 1, a, lam, (l3,)) * F(0, 1, a, lam, (l2,)) \
            * amp._div(wl2.entry(a, 2, a + 1, 1),
                       wl2.entry(a + 1, 1, a + 1, 1)) \
            + amp._div(wl2.entry(a, 2, a, 2), wl2.entry(a + 1, 1, a + 1, 1)) \
            * F(0, 1, a, lam, (l3,))
        rhs2 = th23 * amp.P_a(model, 2, l3, l2) \
            * amp.P_a(model, a, lam, l2) * F(0, 1, a, lam, (l3,))
        res2.append(relative_residual(p2, rhs2))
    if res1:
        rep("mixed_wanted_factorization_up", res1)
    rep("mixed_wanted_factorization_down", res2)
    return reports
