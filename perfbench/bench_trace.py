"""Outside-in span tracing of u1bethe's public entry points.

The tracer wraps functions and methods from outside the package, so the
package itself stays untouched.  A function that other modules import by
name (``from .chain import transfer_matrix``) is replaced in every module
that holds it; a method is replaced on its class.  Spans stay in memory
until the benchmark writes them out.

A span's self time is its duration minus the durations of the spans it
directly caused (nesting is tracked per thread).  A layer's self time is
the sum of the self times of its spans.
"""

import functools
import itertools
import json
import threading
from time import perf_counter

# span name -> (module attribute path, layer); "Class.method" names a method
ENTRY_POINTS = {
    "weights.eval_r": ("weights:ModelSpec.eval_r", "weights"),
    "chain.monodromy_element": ("chain:monodromy_element", "chain.build"),
    "chain.transfer_matrix": ("chain:transfer_matrix", "chain.build"),
    "chain.apply": ("chain:ChainOperator.apply", "chain.apply"),
    "chain.vacuum_weight": ("chain:vacuum_weight", "chain.vacuum"),
    "bethe.solve_bae": ("bethe:solve_bae", "bethe.solve"),
    "bethe.bae_residual": ("bethe:bae_residual", "bethe.residual"),
    "bethe.build_bethe_vector": ("bethe:build_bethe_vector", "bethe.build"),
    "bethe.eigenvalue": ("bethe:eigenvalue", "bethe.eigenvalue"),
    "bethe.offshell_expansion": ("bethe:offshell_expansion", "bethe.offshell"),
    "bethe.expansion_for_diagonal": ("bethe:expansion_for_diagonal",
                                     "bethe.offshell"),
    "verify.exact_spectrum": ("verify:exact_spectrum", "verify.ed"),
    "verify.generate_rule": ("verify:generate_rule", "verify.rule_gen"),
    "verify.generate_diag_creation_rule": (
        "verify:generate_diag_creation_rule", "verify.rule_gen"),
    "verify.generate_creation_creation_rule": (
        "verify:generate_creation_creation_rule", "verify.rule_gen"),
    "verify.generate_annihilation_creation_rule": (
        "verify:generate_annihilation_creation_rule", "verify.rule_gen"),
    "verify.check_rule_on_lattice": ("verify:check_rule_on_lattice",
                                     "verify.lattice"),
    "verify.identity_suite": ("verify:identity_suite", "verify.identity"),
    "verify.amplitude_property_suite": ("verify:amplitude_property_suite",
                                        "verify.identity"),
    "cli.parse_config": ("cli:parse_config", "cli.parse"),
    "cli.build_model": ("cli:build_model", "cli.parse"),
    "cli.build_context": ("cli:build_context", "cli.parse"),
    "cli.run_command": ("cli:run_command", "cli.run"),
    "cli.render_report": ("cli:render_report", "cli.render"),
}
for _fn in ("F_offshell", "P_a", "theta", "theta_less", "g_coefficient",
            "det_D2", "det_D3", "det_D4", "det_D5", "det_D4_cont",
            "det_D5_cont"):
    ENTRY_POINTS[f"amplitudes.{_fn}"] = (f"amplitudes:{_fn}", "amplitudes")

# the evaluation rule a ModelSpec calls on a cache miss; wrapped per instance
KERNEL_SPAN = "weights.kernel"
LAYER_OF = {name: layer for name, (_path, layer) in ENTRY_POINTS.items()}
LAYER_OF[KERNEL_SPAN] = "weights"

MODULES = ("weights", "chain", "bethe", "amplitudes", "verify", "cli")


class Tracer:
    """Records spans of wrapped entry points while installed."""

    def __init__(self):
        self.spans = []          # [name, id, parent id, t0, t1, child time]
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo = []

    def _wrap(self, name, fn):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1][1] if stack else -1
            rec = [name, next(ids), parent, perf_counter(), 0.0, 0.0]
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][5] += rec[4] - rec[3]
                spans.append(rec)

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, pkg):
        """Wrap every entry point of the imported package `pkg`."""
        mods = [pkg] + [getattr(pkg, m) for m in MODULES]
        for name, (path, _layer) in ENTRY_POINTS.items():
            home, _, attr = path.partition(":")
            home = getattr(pkg, home)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._set(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original)
            for mod in mods:
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, wrapped)
        # count cache misses: wrap the evaluation rule each new model gets
        spec = pkg.weights.ModelSpec
        init = spec.__init__
        wrap = self._wrap

        @functools.wraps(init)
        def counting_init(self_, name, N, params, eval_fn, *args, **kwargs):
            init(self_, name, N, params, wrap(KERNEL_SPAN, eval_fn),
                 *args, **kwargs)

        self._set(spec, "__init__", counting_init)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self):
        """Per span name: call count, total time and self time."""
        out = {}
        for name, _id, _parent, t0, t1, child in self.spans:
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (t1 - t0), own + (t1 - t0 - child))
        return out

    def write(self, path):
        """Write spans as JSON lines: name, id, parent id, start, end."""
        base = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for name, sid, parent, t0, t1, _child in self.spans:
                fh.write(json.dumps([name, sid, parent, round(t0 - base, 9),
                                     round(t1 - base, 9)]) + "\n")


def layer_totals(summary):
    """Per layer: calls and self time summed over the layer's span names."""
    out = {}
    for name, (calls, _total, own) in summary.items():
        layer = LAYER_OF[name]
        c, s = out.get(layer, (0, 0.0))
        out[layer] = (c + calls, s + own)
    return out
