"""Command-line front end: config ingestion, command dispatch, reports.

Config files are flat ``key = value`` text: `model`, `N`, `table_file`,
`L`, `inhomogeneities = [...]` plus the model parameter `eta`.
Reports are JSON-shaped documents with every float carrying 17
significant digits so that runs are reproducible bit-for-bit (the
timestamp field is the only run-dependent entry).
"""

import argparse
import errno
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import amplitudes as amp
from . import bethe as bt
from . import verify
from .chain import ChainContext, monodromy_element
from .errors import ConfigError, InvalidOption, U1BetheError, UnknownGridPoint
from .weights import (check_regularity, check_unitarity, check_yang_baxter,
                      higher_spin_xxz, load_table_file, random_point,
                      six_vertex)

__all__ = ["main", "parse_config", "build_model", "build_context",
           "run_command", "render_report"]

_RESERVED_KEYS = {"model", "N", "table_file", "L", "inhomogeneities"}


# ----------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------

def _parse_complex(text, line):
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise ConfigError(f"cannot parse {text!r} as a complex number",
                          line) from None


def parse_config(path):
    """Parse a flat key = value config file with line diagnostics."""
    raw = {}
    lines = {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for ln, text in enumerate(fh, start=1):
                stripped = text.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError("expected 'key = value'", ln)
                key, _, value = stripped.partition("=")
                key = key.strip()
                value = value.strip()
                if not key or not value:
                    raise ConfigError("empty key or value", ln)
                if key in raw:
                    raise ConfigError(f"duplicate key {key!r}", ln)
                raw[key] = value
                lines[key] = ln
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path} is not UTF-8 text: {err}") from None
    return raw, lines


def build_model(raw, lines):
    name = raw.get("model")
    if name is None:
        raise ConfigError("missing required key 'model'", 1)
    line = lines.get("model", 1)
    if name == "table":
        path = raw.get("table_file")
        if path is None:
            raise ConfigError("table model needs 'table_file'", line)
        try:
            return load_table_file(path)
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read table file: {err}",
                              lines.get("table_file", line)) from None
    if name == "custom":
        raise ConfigError(
            "custom models are a library-level extension point; "
            "they cannot be defined in a config file", line)
    if name not in ("six_vertex", "higher_spin_xxz"):
        raise ConfigError(f"unknown model {name!r}", line)
    params = {}
    for key, value in raw.items():
        if key in _RESERVED_KEYS:
            continue
        if key != "eta":
            raise ConfigError(f"unknown parameter {key!r}", lines[key])
        params[key] = _parse_complex(value, lines[key])
    if name == "higher_spin_xxz" and "N" not in raw:
        raise ConfigError("higher_spin_xxz needs 'N'", line)
    try:
        n = int(raw.get("N", 2))
    except ValueError:
        raise ConfigError(f"N must be an integer, got {raw['N']!r}",
                          lines["N"]) from None
    if name == "six_vertex":
        if n != 2:
            raise ConfigError("six_vertex has N = 2", lines.get("N", line))
        return six_vertex(**params)
    return higher_spin_xxz(n, **params)


def build_context(model, raw, lines):
    try:
        L = int(raw.get("L", 1))
    except ValueError:
        raise ConfigError(f"L must be an integer, got {raw['L']!r}",
                          lines.get("L", 1)) from None
    if L < 1:
        raise ConfigError("L must be >= 1", lines.get("L", 1))
    inhomog = None
    if "inhomogeneities" in raw:
        ln = lines["inhomogeneities"]
        text = raw["inhomogeneities"].strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ConfigError("inhomogeneities must be a [..] list", ln)
        body = text[1:-1].strip()
        inhomog = [_parse_complex(p, ln) for p in body.split(",")] \
            if body else []
        if len(inhomog) != L:
            raise ConfigError(
                f"expected {L} inhomogeneities, got {len(inhomog)}", ln)
    return ChainContext(model, L, inhomog)


# ----------------------------------------------------------------------
# report rendering: floats carry 17 significant digits
# ----------------------------------------------------------------------

def _fmt_float(x):
    if x != x:
        return '"nan"'
    if x in (float("inf"), float("-inf")):
        return f'"{x}"'
    return format(float(x), ".17g")


def _render(obj, indent):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_render(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(isinstance(v, (int, float, complex, str, bool))
                   for v in obj)
        if flat:
            return "[" + ", ".join(_render(v, indent) for v in obj) + "]"
        items = [f"{pad}  {_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, complex):
        return f"[{_fmt_float(obj.real)}, {_fmt_float(obj.imag)}]"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj), ensure_ascii=False)


def render_report(report):
    return _render(report, 0) + "\n"


def _summary(residuals):
    residuals = [float(r) for r in residuals]
    return {"max": amp.worst_residual(residuals),
            "mean": float(np.mean(residuals)) if residuals else 0.0,
            "count": len(residuals)}


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _check_options(opts):
    """Reject option values no command can run with, before any work."""
    for name in ("samples", "seeds", "lambdas", "max_iter"):
        if getattr(opts, name, 1) < 1:
            raise InvalidOption(f"--{name.replace('_', '-')} must be >= 1")
    if opts.seed < 0:
        raise InvalidOption("--seed must be >= 0")
    # written so that nan fails too: every comparison with nan is false
    if not 0 < opts.tol < float("inf"):
        raise InvalidOption("--tol must be finite and > 0")
    if getattr(opts, "csv", None) and not opts.spectrum:
        raise InvalidOption("--csv needs --spectrum")


def cmd_check_r(model, ctx, opts):
    rng = np.random.default_rng(opts.seed)
    n = opts.samples
    results = []
    residuals = []
    kernel = model.kernel
    if model.table_data is not None:
        keys = [(l, m) for (l, m, _w) in model.table_data]
        uni = [check_unitarity(model, l, m) for (l, m) in keys]
        reg_keys = [(l,) for (l, m) in keys if l == m]
        reg = [check_regularity(model, k[0]) for k in reg_keys]
        if not reg:
            raise UnknownGridPoint(
                "table stores no coincident pair for the regularity check")
        checks = [("unitarity", uni, keys), ("regularity", reg, reg_keys)]
    else:
        win = model.sample_window
        pts = [tuple(random_point(rng, win) for _ in range(3))
               for _ in range(n)]
        ybe = [check_yang_baxter(model, *p) for p in pts]
        uni = [check_unitarity(model, p[0], p[1]) for p in pts]
        reg = [check_regularity(model, p[0]) for p in pts]
        checks = [("yang_baxter", ybe, pts), ("unitarity", uni, pts),
                  ("regularity", reg, pts)]
        # a kernel's fused weights are checked by their defining relation
        # at every u = lambda - mu of the pairs the rows above evaluated
        if kernel is not None:
            kern = [amp.worst_residual(kernel.relation_residuals(
                        [l1 - l2, l1 - l3, l2 - l3, l2 - l1, l1 - l1]))
                    for l1, l2, l3 in pts]
            checks.append(("kernel", kern, pts))
    for name, vals, where in checks:
        worst = int(np.argmax(vals)) if vals else 0
        results.append({"check": name, **_summary(vals),
                        "worst_sample": list(where[worst]) if vals else []})
        residuals.extend(vals)
    passed = all(r <= opts.tol for r in residuals)
    return results, residuals, passed, {}


def cmd_identities(model, ctx, opts):
    reports = verify.identity_suite(model, samples=opts.samples,
                                    tol=opts.tol, seed=opts.seed)
    reports += verify.amplitude_property_suite(
        model, samples=opts.samples, tol=opts.tol, seed=opts.seed)
    results = []
    residuals = []
    for rep in reports:
        results.append({
            "identity": rep.identity_id,
            "samples": len(rep.residuals),
            "skipped": rep.skipped,
            "max_residual": rep.max_residual,
            "mean_residual": rep.mean_residual,
            "pass": rep.passed,
        })
        residuals.append(rep.max_residual)
    return results, residuals, all(r["pass"] for r in results), {}


def cmd_solve(model, ctx, opts):
    rng = np.random.default_rng(opts.seed)
    lams = [random_point(rng, model.sample_window)
            for _ in range(opts.lambdas)]
    results = []
    residuals = []
    spectrum = None
    if opts.spectrum:
        # the solved sector is all the check needs; the CSV lists every one
        spectrum = verify.exact_spectrum(
            ctx, lams[0], None if opts.csv else (opts.n,))
    got = bt.solve_sector(ctx, opts.n, tol=opts.tol, n_seeds=opts.seeds,
                          seed=opts.seed, max_iter=opts.max_iter)
    # finding no state is a failed check, not a vacuous pass
    passed = bool(got.states)
    if not passed:
        results.append({"roots": None, "note": "no roots found",
                        "best_residual": float(got.best_residual)})
    for rs in got.states:
        bres = amp.worst_residual([abs(bt.bae_residual(ctx, rs.roots, j))
                                   for j in range(1, rs.n + 1)])
        record = {"roots": list(rs.roots),
                  "bae_residual": bres,
                  "eigenvalues": [bt.eigenvalue(ctx, lam, rs)
                                  for lam in lams]}
        state = bt.build_bethe_vector(ctx, rs)
        vec_res = [bt.eigenvector_residual(ctx, lam, state) for lam in lams]
        record["eigenstate_residuals"] = vec_res
        residuals.extend(vec_res)
        if not all(r <= bt.EIGENVECTOR_TOL for r in vec_res):
            passed = False
        if spectrum is not None:
            evs = dict(spectrum)[rs.n]
            pred0 = record["eigenvalues"][0]
            record["spectrum_distance"] = min(abs(ev - pred0) for ev in evs)
            if not any(bt.same_state(pred0, ev) for ev in evs):
                passed = False
        results.append(record)
    if opts.csv:
        with open(opts.csv, "w", encoding="utf-8") as fh:
            fh.write("sector,index,re,im\n")
            for n, evs in spectrum:
                for k, ev in enumerate(evs):
                    fh.write(f"{n},{k},{ev.real:.17g},{ev.imag:.17g}\n")
    return results, residuals, passed, {
        "seed_outcomes": {"n": opts.n, **got.outcomes}}


def _parse_root(text):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = ()
    if not 1 <= len(parts) <= 2:
        raise InvalidOption(f"cannot parse root {text!r}; use RE or RE,IM")
    return complex(*parts)


def cmd_offshell(model, ctx, opts):
    rng = np.random.default_rng(opts.seed)
    if opts.root:
        roots = tuple(_parse_root(r) for r in opts.root)
    elif opts.n > 0:
        roots = tuple(random_point(rng, model.root_window)
                      for _ in range(opts.n))
    else:
        raise InvalidOption("offshell needs --root entries or --n > 0")
    lam = _parse_root(opts.lam) if opts.lam else \
        random_point(rng, model.sample_window)
    cache = {}
    state = bt.build_bethe_vector(ctx, roots, cache)
    results = []
    residuals = []
    # the full T(lam) expansion is the sum of the per-diagonal ones
    wanted_total = np.zeros(ctx.dim, dtype=complex)
    unwanted = np.zeros(ctx.dim, dtype=complex)
    for a in range(1, ctx.N + 1):
        wanted, terms = bt.expansion_for_diagonal(ctx, lam, roots, a, cache)
        wanted_total += wanted.amplitudes
        pred = wanted.amplitudes.copy()
        for t in terms:
            part = t.contribution.amplitudes
            pred += part
            unwanted += part
        direct = monodromy_element(ctx, lam, a, a).apply(
            state.vector.amplitudes)
        res = verify.relative_residual(direct, pred)
        results.append({"diagonal_index": a, "terms": len(terms),
                        "residual": res})
        residuals.append(res)
    rel_unwanted = float(np.max(np.abs(unwanted))
                         / max(np.max(np.abs(wanted_total)), 1e-30))
    results.append({"lambda": lam, "roots": list(roots),
                    "unwanted_over_wanted": rel_unwanted})
    return results, residuals, all(r <= opts.tol for r in residuals), {}


def cmd_rules(model, ctx, opts):
    combos = verify.enumerate_rules(model.N)

    def one(item):
        k, (family, indices) = item
        _, rule, notes = verify.draw_regular(
            np.random.default_rng((opts.seed, k)), model.sample_window, 2,
            lambda p: verify.generate_rule(model, family, indices, *p))
        if rule is None:
            return {"family": family, "indices": dict(indices),
                    "residual": float("inf"), "resampled": notes,
                    "note": "all sample pairs were singular"}
        return {"family": family, "indices": dict(indices),
                "direct": rule.direct, "terms": len(rule.terms),
                "residual": verify.check_rule_on_lattice(ctx, rule),
                "resampled": notes}

    results = [one(item) for item in enumerate(combos)]
    residuals = [r["residual"] for r in results]
    counts = verify.creation_rule_counts(model.N)
    expected = verify.table3_counts(model.N)
    results.append({"creation_rule_counts": counts,
                    "expected_counts": expected,
                    "counts_match": counts == expected})
    passed = all(r <= opts.tol for r in residuals) and counts == expected
    return results, residuals, passed, {}


_COMMANDS = {
    "check-r": cmd_check_r,
    "identities": cmd_identities,
    "solve": cmd_solve,
    "offshell": cmd_offshell,
    "rules": cmd_rules,
}


def run_command(command, model, ctx, opts):
    return _COMMANDS[command](model, ctx, opts)


# ----------------------------------------------------------------------
# argument parsing and entry point
# ----------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="u1bethe",
        description="Algebraic Bethe ansatz engine for U(1) vertex models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_tol):
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--tol", type=float, default=default_tol)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", default=None, help="report path (default stdout)")
        p.add_argument("--quiet", action="store_true")

    for name, text in (("check-r", "R-matrix defining relations"),
                       ("identities", "weight-identity suite")):
        p = sub.add_parser(name, help=text)
        common(p, 1e-10)
        p.add_argument("--samples", type=int, default=100)
    p = sub.add_parser("solve", help="Bethe roots, eigenvalues, residuals")
    common(p, 1e-12)
    p.add_argument("--csv", default=None,
                   help="CSV export path of the --spectrum eigenvalues")
    p.add_argument("--n", type=int, default=1, help="particle number")
    p.add_argument("--spectrum", action="store_true",
                   help="compare against dense diagonalization")
    p.add_argument("--lambdas", type=int, default=5,
                   help="random spectral points for residual checks")
    p.add_argument("--seeds", type=int, default=50, help="Newton seed count")
    p.add_argument("--max-iter", type=int, default=60)
    p = sub.add_parser("offshell", help="off-shell expansion vs direct action")
    common(p, 1e-10)
    p.add_argument("--root", action="append", default=[],
                   help="root as RE or RE,IM (repeatable)")
    p.add_argument("--n", type=int, default=0,
                   help="draw this many random roots instead")
    p.add_argument("--lam", default=None, help="spectral point RE,IM")
    p = sub.add_parser("rules", help="generate and lattice-check all rules")
    common(p, 1e-10)
    return parser


def main(argv=None):
    parser = _build_parser()
    opts = parser.parse_args(argv)
    try:
        return _run(opts)
    except OSError as err:  # a file that cannot be opened, read or written
        print(f"error: {err}", file=sys.stderr)
        return 2
    except U1BetheError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


def _check_output_path(path):
    """Raise the OSError that writing `path` would raise because its
    folder is missing or it is a folder itself, creating nothing."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                folder)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _outcome(report):
    """The figure of the summary line: the worst residual or, where the
    report holds none, the note and best residual of `solve`'s result
    without roots."""
    summary = report["residual_summary"]
    if summary["count"]:
        return f"max residual {summary['max']:.3e}"
    return "; ".join(["no residuals"] + [
        f"{r['note']}, best residual {r['best_residual']:.3e}"
        for r in report["results"] if "best_residual" in r])


def _run(opts):
    _check_options(opts)
    # checked before the run, so that an unusable path costs no work
    for path in (opts.out, getattr(opts, "csv", None)):
        if path:
            _check_output_path(path)
    raw, lines = parse_config(opts.config)
    model = build_model(raw, lines)
    ctx = build_context(model, raw, lines)
    # `extra` holds a command's report sections beyond its results
    results, residuals, passed, extra = run_command(
        opts.command, model, ctx, opts)
    # echo the options that shape the results; pure I/O switches stay out
    # so that identical runs give byte-identical reports wherever written
    echoed = {k: v for k, v in sorted(vars(opts).items())
              if k not in ("command", "config", "out", "csv", "quiet")
              and v is not None}
    report = {
        "command": opts.command,
        "config": dict(raw),
        "options": echoed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "results": results,
        **extra,
        "residual_summary": _summary(residuals),
        "pass": passed,
    }
    text = render_report(report)
    if opts.out:
        with open(opts.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if not opts.quiet:
        if opts.out:
            status = "pass" if passed else "FAIL"
            print(f"{opts.command}: {status} ({_outcome(report)})")
        else:
            sys.stdout.write(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
