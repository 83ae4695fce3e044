"""50-digit oracle for the Bethe equations and eigenvalues of the six-vertex
chain.

The weights are written here in closed form, a(u) = 1,
b(u) = sinh u / sinh(u + eta) and c(u) = sinh eta / sinh(u + eta), and the
Bethe equations and the eigenvalue take their textbook algebraic Bethe
ansatz form.  Nothing below calls the package's amplitude helpers, so the
checks bound the double-precision arithmetic from outside.  They justify
two tolerances: the solver's 1e-12 on the Bethe residual holds in exact
arithmetic at the roots it returns, and the eigenvalues predicted there
are exact far below the 1e-8 used to match them to exact diagonalization
and to accept eigenvectors.
"""

import mpmath
import pytest

from u1bethe import bethe as B
from u1bethe import chain as C
from u1bethe import weights as W

from conftest import ETA

MU = (0.0, 0.05 + 0.02j, -0.1, 0.03 - 0.04j, 0.07)
LAMBDAS = (0.3 + 0.1j, -0.2 + 0.4j)
FIFTY_DIGITS = mpmath.workdps(50)


def a_w(u):
    return mpmath.mpf(1)


def b_w(u):
    return mpmath.sinh(u) / mpmath.sinh(u + mpmath.mpf(ETA))


def c_w(u):
    return mpmath.sinh(mpmath.mpf(ETA)) / mpmath.sinh(u + mpmath.mpf(ETA))


def bae(roots, mus, j):
    """a(l_j)^L / b(l_j)^L prod_{i != j} of the two-root scattering, minus 1."""
    lj = roots[j]
    val = mpmath.fprod(a_w(lj - m) / b_w(lj - m) for m in mus)
    for i, li in enumerate(roots):
        if i != j:
            val *= b_w(lj - li) * a_w(li - lj) / (a_w(lj - li) * b_w(li - lj))
    return val - 1


def eigenvalue(lam, roots, mus):
    return (mpmath.fprod(a_w(lam - m) for m in mus)
            * mpmath.fprod(a_w(r - lam) / b_w(r - lam) for r in roots)
            + mpmath.fprod(b_w(lam - m) for m in mus)
            * mpmath.fprod(a_w(lam - r) / b_w(lam - r) for r in roots))


@pytest.fixture(scope="module")
def ctx():
    return C.ChainContext(W.six_vertex(ETA), len(MU), MU)


def test_closed_form_weights_are_the_models(ctx):
    with FIFTY_DIGITS:
        for u in (0.3 + 0.2j, -0.7 + 0.05j):
            w = ctx.model.eval_r(u, 0.0)
            z = mpmath.mpc(u)
            for entry, closed in (((1, 1, 1, 1), a_w), ((2, 1, 2, 1), b_w),
                                  ((1, 2, 2, 1), c_w), ((2, 2, 2, 2), a_w)):
                assert abs(w.entry(*entry) - complex(closed(z))) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3])
def test_solved_roots_against_50_digit_oracle(ctx, n):
    mus = [mpmath.mpc(m) for m in ctx.inhomogeneities]
    sets = B.solve_bae(ctx, n, n_seeds=40)[:2]
    assert sets
    with FIFTY_DIGITS:
        for rs in sets:
            roots = [mpmath.mpc(z) for z in rs.roots]
            for j in range(n):
                exact = bae(roots, mus, j)
                # the solver's tolerance holds in exact arithmetic, and the
                # double residual is accurate far below it
                assert abs(exact) <= 1e-12
                assert abs(B.bae_residual(ctx, rs, j + 1)
                           - complex(exact)) <= 1e-14
            polished = mpmath.findroot(
                [lambda *x, j=j: bae(list(x), mus, j) for j in range(n)],
                roots) if n > 1 else [mpmath.findroot(
                    lambda x: bae([x], mus, 0), roots[0])]
            polished = [polished[k] for k in range(n)]
            assert max(abs(p - r) for p, r in zip(polished, roots)) <= 1e-11
            for lam in LAMBDAS:
                ev = B.eigenvalue(ctx, lam, rs)
                at_roots = eigenvalue(mpmath.mpc(lam), roots, mus)
                exact = eigenvalue(mpmath.mpc(lam), polished, mus)
                assert abs(ev - complex(at_roots)) <= 1e-13 * abs(at_roots)
                # 1e-8, the ED-match and eigenvector gate, has >= 1000x
                # headroom over what the root tolerance leaves
                assert abs(ev - complex(exact)) <= 1e-11 * abs(exact)
