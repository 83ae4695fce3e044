"""u1bethe benchmark: one closed-loop client, one workload per process.

    python3 perfbench/run.py --workload spin1-solve --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run imports the package from `src/` of the checkout that holds this
file and repeats the workload's fixed unit of work, each time on cold
caches, until `--seconds` is used up.  Before each unit it sets up
`SETUP_ROUNDS` times (fresh import, input generation, model and context
construction); `setup_s` is the median of those set-ups.  Around each
unit it also times a fixed host reference computation; `wall_norm`, the
gated time, is each unit's time over the reference around it, so that
the shared host's drifting speed does not read as a change in u1bethe.
Every unit runs its correctness oracles; a failed oracle counts in
`failed`.

With `--trace 0` the units run untraced and the result carries the
end-to-end metrics.  With `--trace 1` traced and untraced units alternate:
the result carries per-layer metrics from the traced units, and the
tracing overhead (traced minus untraced `wall_s`).  The last line of
standard output is the JSON result; everything above it is the
human-readable report.  Result files and traced spans go to
`perfbench/out/`.  `--workload all` runs every workload, both modes, each
in its own process.
"""

import os
import sys

# thread caps must be in place before numpy is imported
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
BETHE_THREADS = min(2, NPROC)   # >1 so the CLI's worker pool really runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["BETHE_THREADS"] = str(BETHE_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_ROUNDS = 3       # set-ups before each unit
MIN_UNITS = 3          # untraced units per run; traced runs use pairs
REF_SAMPLES = 5        # host reference timings before each unit

sys.path.insert(0, str(HERE))
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402


_REF = numpy.random.default_rng(0)
REF_MATRIX = _REF.standard_normal((32, 32)) + 1j * _REF.standard_normal((32, 32))
REF_MATRIX = REF_MATRIX + REF_MATRIX.conj().T
REF_ARRAY = _REF.standard_normal((64, 2, 2048)) + 0j   # 4 MB: keeps RSS low
REF_OP = _REF.standard_normal((2, 2)) + 0j


def host_reference():
    """Time of a fixed computation that does not touch u1bethe.

    It mixes what the workloads spend their time on: interpreter loops,
    small `eigh` calls and a Kronecker-strip style `einsum` over 4 MB (a
    larger array would raise the process's peak RSS above u1bethe's own
    on the small workloads).
    """
    t0 = perf_counter()
    acc = 0
    for k in range(150_000):
        acc += k * k
    for _ in range(60):
        numpy.linalg.eigh(REF_MATRIX)
    for _ in range(6):
        numpy.einsum("ij,pjr->pir", REF_OP, REF_ARRAY)
    return perf_counter() - t0


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import u1bethe (and its CLI) afresh from the checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "u1bethe" or m.startswith("u1bethe.")]:
        del sys.modules[name]
    pkg = importlib.import_module("u1bethe")
    importlib.import_module("u1bethe.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "u1bethe":
        fail(f"u1bethe was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def describe(values, unit):
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} {unit}"
    if n >= 20:
        ordered = sorted(values)
        k = n - 10                      # samples at or below the percentile
        text += f", p{100 * k // n} {ordered[k - 1]:.6g} {unit}"
    else:
        text += ", too few samples for a percentile above the median"
    return text + f", n={n}"


def environment():
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": NPROC, "blas_threads": BLAS_THREADS,
            "bethe_threads": int(os.environ["BETHE_THREADS"]),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "src_lines": src_lines, "clients": 1, "loop": "closed"}


def layer_metrics(summ, res):
    """Per-layer metrics of one traced unit: span summary, unit result."""
    layers = bench_trace.layer_totals(summ)

    def calls(layer):
        return layers.get(layer, (0, 0.0))[0]

    def self_s(layer):
        return layers.get(layer, (0, 0.0))[1]

    misses = summ.get(bench_trace.KERNEL_SPAN, (0,))[0]
    evals = summ.get("weights.eval_r", (0,))[0]
    return {
        "weights.eval_calls": evals,
        "weights.eval_misses": misses,
        "weights.hit_ratio": 1.0 - misses / evals if evals else 0.0,
        "weights.self_s": self_s("weights"),
        "chain.build_calls": calls("chain.build"),
        "chain.build_s": self_s("chain.build"),
        "chain.apply_calls": calls("chain.apply"),
        "chain.apply_s": self_s("chain.apply"),
        "chain.vacuum_calls": calls("chain.vacuum"),
        "bethe.residual_calls": calls("bethe.residual"),
        "bethe.residual_self_s": self_s("bethe.residual"),
        "bethe.build_calls": calls("bethe.build"),
        "bethe.build_s": self_s("bethe.build"),
        "bethe.solve_self_s": self_s("bethe.solve"),
        "bethe.offshell_calls": calls("bethe.offshell"),
        "bethe.yield": (res.states_found / res.solve_seeds
                        if res.solve_seeds else 0.0),
        "amplitudes.calls": calls("amplitudes"),
        "amplitudes.self_s": self_s("amplitudes"),
        "verify.ed_calls": calls("verify.ed"),
        "verify.ed_s": self_s("verify.ed"),
        "verify.rule_gen_calls": summ.get("verify.generate_rule", (0,))[0],
        "verify.rule_gen_s": self_s("verify.rule_gen"),
        "verify.rules_checked": calls("verify.lattice"),
        "verify.lattice_s": self_s("verify.lattice"),
        "verify.identity_calls": calls("verify.identity"),
        "verify.identity_s": self_s("verify.identity"),
        "cli.parse_calls": summ.get("cli.parse_config", (0,))[0],
        "cli.parse_s": self_s("cli.parse"),
        "cli.render_calls": calls("cli.render"),
        "cli.render_s": self_s("cli.render"),
    }


def unit_of(name):
    if name.endswith(("calls", "misses", "checked")):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def host_speed():
    """Median of REF_SAMPLES host reference timings."""
    return statistics.median(host_reference() for _ in range(REF_SAMPLES))


@dataclass
class Run:
    """Samples of one run, in the order they were taken."""
    setups: list = field(default_factory=list)   # set-up times
    units: list = field(default_factory=list)    # (unit time, traced)
    refs: list = field(default_factory=list)     # host reference around units
    results: list = field(default_factory=list)  # UnitResult per unit
    summaries: list = field(default_factory=list)  # (span summary, result)

    def times(self, traced):
        return [dt for dt, t in self.units if t == traced]

    def normalized(self):
        """Untraced unit times over the mean host reference around each."""
        return [dt / ((self.refs[i] + self.refs[i + 1]) / 2)
                for i, (dt, traced) in enumerate(self.units) if not traced]


def run_units(workload, seed, seconds, trace):
    """Set up and run units until `seconds` is spent.

    Each unit is preceded by SETUP_ROUNDS fresh set-ups and by a host
    reference timing, so those samples spread over the whole run like the
    unit samples do.  With `trace`, every other unit is traced, and the
    spans of the first traced unit are written out at the end.
    """
    run, rounds, first_tracer = Run(), [], None
    start = perf_counter()
    while True:
        r0 = perf_counter()
        for _ in range(SETUP_ROUNDS):
            t0 = perf_counter()
            pkg = import_package()
            inputs = workload.prepare(pkg, seed, str(OUT))
            run.setups.append(perf_counter() - t0)
        run.refs.append(host_speed())
        tracing = bool(trace) and len(run.times(True)) < len(run.times(False))
        tracer = None
        if tracing:
            tracer = bench_trace.Tracer()
            tracer.install(pkg)
        try:
            dt, res = workload.unit(pkg, inputs, str(OUT))
        finally:
            if tracer is not None:
                tracer.uninstall()
        run.units.append((dt, tracing))
        run.results.append(res)
        if tracing:
            run.summaries.append((tracer.summary(), res))
            first_tracer = first_tracer or tracer
        rounds.append(perf_counter() - r0)
        plain, traced = len(run.times(False)), len(run.times(True))
        done = traced >= 1 and traced == plain if trace else plain >= MIN_UNITS
        if done and perf_counter() + statistics.median(rounds) > start + seconds:
            break
    run.refs.append(host_speed())
    if first_tracer is not None:
        first_tracer.write(OUT / f"{workload.name}-{seed}-spans.jsonl")
    return inputs, run


def self_time_shares(summaries):
    """Each layer's share of the traced self time, medians over units."""
    per_layer = {}
    for summ, _res in summaries:
        for layer, (_calls, own) in bench_trace.layer_totals(summ).items():
            per_layer.setdefault(layer, []).append(own)
    med = {k: statistics.median(v) for k, v in per_layer.items()}
    total = sum(med.values())
    return sorted(((k, v / total) for k, v in med.items()),
                  key=lambda kv: -kv[1])


def check_results(workload, results, layers):
    """Totals of the unit oracles, the determinism and coverage checks."""
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    notes = [n for r in results for n in r.notes]
    first = results[0].reports
    for res in results[1:]:
        for cmd, text in res.reports.items():
            attempted += 1
            if text != first.get(cmd):
                failed += 1
                notes.append(f"{cmd}: report differs between runs")
    for metrics in layers:
        for key in workload.expected_layers:
            attempted += 1
            if not metrics[key] > 0:
                failed += 1
                notes.append(f"coverage: {key} is 0 in the traced run")
    return attempted, failed, notes


def run_one(args, spec):
    workload = bench_workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    inputs, run = run_units(workload, args.seed, args.seconds, args.trace)
    setup_times, results, summaries = run.setups, run.results, run.summaries
    plain, traced, norm = run.times(False), run.times(True), run.normalized()
    layers = [layer_metrics(summ, res) for summ, res in summaries]
    attempted, failed, notes = check_results(workload, results, layers)
    res = results[-1]
    report = {
        "setup_s": (statistics.median(setup_times), "s",
                    describe(setup_times, "s")),
        "wall_s": (statistics.median(plain), "s", describe(plain, "s")),
        "host.ref_s": (statistics.median(run.refs), "s",
                       describe(run.refs, "s")),
        "wall_norm": (statistics.median(norm), "ref",
                      "each untraced unit over the host reference around it, "
                      + describe(norm, "ref")),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", "whole process"),
        "fail_share": (failed / attempted, "ratio",
                       f"{failed} of {attempted} checks"),
    }
    if res.solve_seeds:
        solve = [r.solve_s for r in results]
        report["states_found"] = (res.states_found, "count",
                                  "distinct physical root sets")
        report["s_per_state"] = (
            statistics.median(solve) / max(res.states_found, 1), "s",
            f"median solve {describe(solve, 's')}")
    if res.sector_dim:
        report["completeness"] = (
            res.ed_matched / res.sector_dim, "ratio",
            f"{res.ed_matched} of {res.sector_dim} sector states matched")
    for cmd in res.cli_s:
        vals = [r.cli_s[cmd] for r in results]
        report[f"cli.{cmd}_s"] = (statistics.median(vals), "s",
                                  describe(vals, "s"))
    env = environment()
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload.name]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{why}")
    print("env " + json.dumps(env))
    for name, (value, unit, detail) in report.items():
        print(f"  {name} = {value:.6g} {unit}  ({detail})")
    for note in notes:
        print(f"  FAILED: {note}")
    if args.trace:
        per_layer = {k: statistics.median(m[k] for m in layers)
                     for k in layers[0]}
        per_layer["host.ref_s"] = statistics.median(run.refs)
        per_layer["trace.wall_s"] = statistics.median(traced)
        per_layer["trace.overhead_s"] = (statistics.median(traced)
                                         - statistics.median(plain))
        for name, value in per_layer.items():
            print(f"  {name} = {value:.6g} {unit_of(name)}")
        shares = self_time_shares(summaries)
        print("  share of traced self time: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in shares if v >= 0.001))
        metrics = {m["name"]: {"value": per_layer[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": report[m["name"]][0],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    full = {"workload": workload.name, "seed": args.seed,
            "trace": args.trace, "env": env, "inputs": repr(inputs),
            "report": {k: {"value": v, "unit": u, "detail": d}
                       for k, (v, u, d) in report.items()},
            "samples": {"setup_s": setup_times, "wall_s": plain,
                        "host.ref_s": run.refs,
                        "trace.wall_s": traced},
            "metrics": metrics, "notes": notes}
    if summaries:
        full["shares"] = dict(self_time_shares(summaries))
        full["spans"] = {name: {"calls": c, "total_s": t, "self_s": o}
                         for name, (c, t, o) in summaries[0][0].items()}
    (OUT / f"{workload.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def run_all(args):
    """Every workload in both modes, each in a fresh process."""
    summary, all_ok = [], True
    for name in bench_workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            if proc.returncode != 0 or result is None:
                all_ok = False
                summary.append(f"{name} trace {trace}: FAILED to run "
                               f"(exit {proc.returncode})")
                continue
            figures = ", ".join(
                f"{k} {v['value']:.4g} {v['unit']}"
                for k, v in result["metrics"].items()
                if trace == 0 or k.startswith("trace."))
            all_ok = all_ok and result["correct"]
            summary.append(
                f"{name} trace {trace}: correct {result['correct']}, "
                f"fail_share {result['failed']}/{result['attempted']}, "
                f"{figures}")
    print("summary")
    for line in summary:
        print("  " + line)
    return 0 if all_ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench_workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    if not (SRC / "u1bethe" / "__init__.py").is_file():
        fail(f"no u1bethe package under {SRC}")
    if args.workload == "all":
        return run_all(args)
    run_one(args, json.loads(spec_path.read_text(encoding="utf-8")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
