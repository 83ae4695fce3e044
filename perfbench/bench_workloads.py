"""The benchmark's four workloads, each a fixed unit of work plus oracles.

A workload has two parts.  `prepare(pkg, seed, out_dir)` is set-up: it
generates the inputs from the seed, writes any config file, and builds
the model and `ChainContext`.  `unit(pkg, inputs, out_dir)` runs the
unit of work; it builds its own model and context first, untimed, so that
every repetition starts from cold weight and monodromy caches, and it
returns the unit's time and a `UnitResult` with the oracle outcomes.
`expected_layers` names the per-layer call counts that must be nonzero
in a traced run (the coverage check).

The Newton start points are the solver's own default seeding (a fixed
solver seed, `SOLVER_SEED`), not the benchmark seed: the cost of one start
ranges over a factor of ten between starts that converge and starts that
wander, so seeding them from the benchmark seed would make the unit's cost
a random variable.  The benchmark seed draws the spectral points at which
eigenvalues and eigenvectors are checked, the off-shell roots, and the
CLI config and sample points.
"""

import json
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

SOLVER_SEED = 42
SOLVER_TOL = 1e-12       # solve_bae default; also the BAE-residual oracle
EIG_RTOL = 1e-8          # found eigenvalue vs sector ED, relative
VEC_RTOL = 1e-8          # ||Tv - Lambda v|| <= VEC_RTOL max(|Lambda|, 1) ||v||
OFFSHELL_RTOL = 1e-10    # off-shell decomposition vs direct action (CLI default)
CHECK_BOX = ((-0.5, 0.5), (-0.4, 0.4))   # spectral points for the oracles
ETA = 0.4375             # anisotropy of every workload's model


@dataclass
class UnitResult:
    """Oracle outcomes and figures of one unit of work."""
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    states_found: int = 0
    ed_matched: int = 0
    sector_dim: int = 0
    solve_s: float = 0.0
    solve_seeds: int = 0
    cli_s: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


# layers every solve workload must reach in the traced run
SOLVE_LAYERS = ("weights.eval_calls", "weights.eval_misses",
                "chain.build_calls", "chain.apply_calls", "chain.vacuum_calls",
                "bethe.residual_calls", "bethe.build_calls", "amplitudes.calls")


def _point(rng, box=CHECK_BOX):
    (re0, re1), (im0, im1) = box
    return complex(rng.uniform(re0, re1), rng.uniform(im0, im1))


def _ladder(L):
    return [0.05 * k + 0.02j * k for k in range(1, L + 1)]


def _solve(pkg, ctx, n, seeds, res):
    """Newton-solve sector n and check every BAE residual."""
    t0 = perf_counter()
    try:
        sets = pkg.solve_bae(ctx, n, n_seeds=seeds, seed=SOLVER_SEED,
                             tol=SOLVER_TOL)
    except pkg.U1BetheError as err:
        sets = []
        res.check(False, f"solve n={n}: {type(err).__name__}: {err}")
    res.solve_s += perf_counter() - t0
    res.solve_seeds += seeds
    res.states_found += len(sets)
    for rs in sets:
        worst = max(abs(pkg.bae_residual(ctx, rs, j))
                    for j in range(1, rs.n + 1))
        res.check(worst <= SOLVER_TOL,
                  f"BAE residual {worst:.3e} at n={n} roots {rs.roots}")
    return sets


def _match_ed(pkg, ctx, lam, sets_by_n, res):
    """Match every found eigenvalue against sector ED at `lam`."""
    spectrum = dict(pkg.exact_spectrum(ctx, lam))
    for n, sets in sets_by_n.items():
        evs = spectrum[n]
        res.sector_dim += len(evs)
        matched = set()
        for rs in sets:
            pred = pkg.eigenvalue(ctx, lam, rs)
            k = int(np.argmin(np.abs(evs - pred)))
            rel = abs(evs[k] - pred) / max(abs(pred), 1e-30)
            ok = rel <= EIG_RTOL
            res.check(ok, f"eigenvalue mismatch {rel:.3e} at n={n}")
            if ok:
                matched.add(k)
        res.ed_matched += len(matched)


# ----------------------------------------------------------------------
# spin1-solve and xxz-dense: Newton solves matched to sector ED
# ----------------------------------------------------------------------

class SolveWithED:
    """Newton-solve some sectors and match every eigenvalue to sector ED."""
    expected_layers = SOLVE_LAYERS + ("verify.ed_calls",)

    def __init__(self, name, family, L, mu, sectors, seeds):
        self.name, self.family, self.L, self.mu = name, family, L, mu
        self.sectors, self.seeds = sectors, seeds

    def _context(self, pkg):
        return pkg.ChainContext(self.family(pkg), self.L, self.mu)

    def prepare(self, pkg, seed, out_dir):
        rng = np.random.default_rng(seed)
        self._context(pkg)
        return {"lam": _point(rng)}

    def unit(self, pkg, inputs, out_dir):
        ctx = self._context(pkg)
        res = UnitResult()
        t0 = perf_counter()
        sets = {n: _solve(pkg, ctx, n, self.seeds, res) for n in self.sectors}
        _match_ed(pkg, ctx, inputs["lam"], sets, res)
        return perf_counter() - t0, res


# weight evaluation dominates; the chain has dimension 27
SPIN1_SOLVE = SolveWithED(
    "spin1-solve", lambda pkg: pkg.higher_spin_xxz(3, eta=ETA), L=3,
    mu=(0.0, 0.05 + 0.02j, -0.1), sectors=(1, 2), seeds=8)

# dense monodromy strips dominate (dim 1024 < DENSE_LIMIT)
XXZ_DENSE = SolveWithED(
    "xxz-dense", lambda pkg: pkg.six_vertex(ETA), L=10, mu=_ladder(10),
    sectors=(2,), seeds=8)


# ----------------------------------------------------------------------
# xxz-matfree: matrix-free chain (dim 16384 > DENSE_LIMIT)
# ----------------------------------------------------------------------

class XXZMatfree:
    name = "xxz-matfree"
    expected_layers = SOLVE_LAYERS + ("bethe.offshell_calls",)
    L, SEEDS = 14, 10

    def prepare(self, pkg, seed, out_dir):
        rng = np.random.default_rng(seed)
        model = pkg.six_vertex(ETA)
        inputs = {"lam": _point(rng),
                  "roots": (_point(rng, model.root_window),
                            _point(rng, model.root_window)),
                  "offshell_lam": _point(rng, model.sample_window)}
        pkg.ChainContext(model, self.L, _ladder(self.L))
        return inputs

    def unit(self, pkg, inputs, out_dir):
        ctx = pkg.ChainContext(pkg.six_vertex(ETA), self.L, _ladder(self.L))
        res = UnitResult()
        t0 = perf_counter()
        lam = inputs["lam"]
        for rs in _solve(pkg, ctx, 2, self.SEEDS, res):
            v = pkg.build_bethe_vector(ctx, rs).vector.amplitudes
            ev = pkg.eigenvalue(ctx, lam, rs)
            tv = pkg.transfer_matrix(ctx, lam).apply(v)
            err = float(np.linalg.norm(tv - ev * v))
            bound = VEC_RTOL * max(abs(ev), 1.0) * float(np.linalg.norm(v))
            res.check(err <= bound,
                      f"eigenvector residual {err:.3e} > {bound:.3e}")
        roots, olam = inputs["roots"], inputs["offshell_lam"]
        try:
            state = pkg.build_bethe_vector(ctx, roots)
            wanted, terms = pkg.offshell_expansion(ctx, olam, roots)
        except pkg.U1BetheError as err:
            res.check(False, f"offshell: {type(err).__name__}: {err}")
        else:
            pred = wanted.amplitudes.copy()
            for term in terms:
                pred += term.contribution.amplitudes
            direct = pkg.transfer_matrix(ctx, olam).apply(
                state.vector.amplitudes)
            scale = max(float(np.max(np.abs(direct))), 1e-30)
            err = float(np.max(np.abs(direct - pred))) / scale
            res.check(err <= OFFSHELL_RTOL, f"offshell residual {err:.3e}")
        return perf_counter() - t0, res


# ----------------------------------------------------------------------
# verify-cli: the CLI in-process on a generated N=4 config
# ----------------------------------------------------------------------

class VerifyCLI:
    name = "verify-cli"
    expected_layers = ("weights.eval_calls", "weights.eval_misses",
                       "chain.build_calls", "chain.apply_calls",
                       "bethe.build_calls", "amplitudes.calls",
                       "verify.rule_gen_calls", "verify.rules_checked",
                       "verify.identity_calls", "cli.parse_calls",
                       "cli.render_calls")
    # rules runs at the tolerance the repository's own N=4 rule test uses
    # (tests/test_rules.py::test_rules_n4_subset); at the CLI default of
    # 1e-10, about one config in forty fails with a residual near 1.1e-10
    COMMANDS = (
        ("check-r", ["--samples", "40"]),
        ("identities", ["--samples", "6"]),
        ("rules", ["--tol", "5e-10"]),
        ("offshell", ["--n", "2"]),
    )

    def prepare(self, pkg, seed, out_dir):
        rng = np.random.default_rng(seed)
        mus = [0.0] + [complex(round(z.real, 4), round(z.imag, 4))
                       for z in (_point(rng, ((-0.15, 0.15), (-0.05, 0.05)))
                                 for _ in range(2))]
        path = os.path.join(out_dir, f"verify-cli-{seed}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"model = higher_spin_xxz\nN = 4\neta = {ETA}\nL = 3\n"
                     "inhomogeneities = [" + ", ".join(
                         f"{z.real}{z.imag:+}j" for z in mus) + "]\n")
        cli = pkg.cli
        raw, lines = cli.parse_config(path)
        cli.build_context(cli.build_model(raw, lines), raw, lines)
        return {"config": path, "seed": seed}

    def unit(self, pkg, inputs, out_dir):
        res = UnitResult()
        t0 = perf_counter()
        for cmd, extra in self.COMMANDS:
            out = os.path.join(out_dir, f"verify-cli-{inputs['seed']}-{cmd}.out")
            argv = [cmd, "--config", inputs["config"], "--seed",
                    str(inputs["seed"]), "--out", out, "--quiet"] + extra
            c0 = perf_counter()
            code = pkg.cli.main(argv)
            res.cli_s[cmd] = perf_counter() - c0
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
            res.check(code == 0 and json.loads(text)["pass"] is True,
                      f"{cmd} exited {code} or did not pass")
            res.reports[cmd] = "".join(
                ln for ln in text.splitlines(keepends=True)
                if not ln.startswith('  "timestamp": '))
        return perf_counter() - t0, res


WORKLOADS = {w.name: w for w in (SPIN1_SOLVE, XXZ_DENSE, XXZMatfree(),
                                 VerifyCLI())}
