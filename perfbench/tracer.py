"""Per-layer spans of operadyn, recorded from outside the package.

``Tracer.install`` wraps every public function of each layer module and
every method and property of the classes it defines (plus the private
``StructureTensor._validate``, which the validate metric needs).  Each
wrapped call records one span (name, start, end, parent span, op id) in
flat arrays, counts the call, and books its self time: the span's duration
minus the time covered by its child spans.  Module namespaces that imported
a wrapped function by name (``bianchi.build_mu``, ``cli.matrix_lax_residual``,
the package ``__init__``) are patched too, so calls between layers are seen.

A few calls also feed named counters (term products, operand sparsity,
distinct arguments, trace samples) through hooks that read only plain
attributes, so a hook never re-enters a wrapped function.

``uninstall`` restores every original.  Nothing in ``src/`` is modified.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("poly", "ncpoly", "operad", "structure", "oscillator", "lax",
          "bianchi", "quantum", "cli")

# the root span of one benchmark operation
ROOT = "bench.op"

_SKIP = {"__new__", "__setattr__", "__delattr__", "__getattribute__",
         "__init_subclass__", "__class_getitem__"}
_PRIVATE = {"structure.StructureTensor._validate"}


class Tracer:
    def __init__(self):
        self.names = []
        self.index = {}
        self.calls = []
        self.self_s = []
        self.counts = defaultdict(float)
        self.distinct = defaultdict(set)
        self.op = -1
        # spans, one entry each
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._child = [0.0]
        self._restore = []

    # ---- recording --------------------------------------------------------

    def _register(self, name):
        idx = self.index.get(name)
        if idx is None:
            idx = self.index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return idx

    def wrap(self, name, fn, hook=None):
        idx = self._register(name)
        stack, child = self._stack, self._child
        calls, self_s = self.calls, self.self_s
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(tracer, args, kwargs)
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1])
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            child.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                elapsed = t1 - t0
                self_s[idx] += elapsed - child.pop()
                child[-1] += elapsed
                calls[idx] += 1
                starts[sid] = t0
                ends[sid] = t1
        return traced

    def call(self, op_id, fn, *args):
        """Run fn as the root span of benchmark operation op_id."""
        self.op = op_id
        return self.wrap(ROOT, fn)(*args)

    # ---- installation -------------------------------------------------------

    def install(self):
        import operadyn  # noqa: F401  (loads every layer module)
        hooks = _hooks()
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"operadyn.{layer}")
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    wrapper = self.wrap(name, obj, hooks.get(name))
                    self._set(mod, attr, wrapper)
                    wrappers[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj, hooks)
        for modname, mod in list(sys.modules.items()):
            if modname != "operadyn" and not modname.startswith("operadyn."):
                continue
            for attr, obj in list(vars(mod).items()):
                pair = wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self._set(mod, attr, pair[1])
        missing = sorted((set(hooks) | set(NAMES)) - set(self.index))
        if missing:
            print(f"warning: not found in operadyn: {', '.join(missing)}", file=sys.stderr)

    def _wrap_class(self, layer, cls, hooks):
        for attr, val in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            dunder = attr.startswith("__") and attr.endswith("__")
            if attr in _SKIP or (attr.startswith("_") and not dunder and name not in _PRIVATE):
                continue
            hook = hooks.get(name)
            if inspect.isfunction(val):
                new = self.wrap(name, val, hook)
            elif isinstance(val, classmethod):
                new = classmethod(self.wrap(name, val.__func__, hook))
            elif isinstance(val, staticmethod):
                new = staticmethod(self.wrap(name, val.__func__, hook))
            elif isinstance(val, property) and val.fget is not None:
                new = property(self.wrap(name, val.fget, hook), val.fset, val.fdel, val.__doc__)
            else:
                continue
            self._set(cls, attr, new)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # ---- reading ------------------------------------------------------------

    def total_calls(self, *names):
        return sum(self.calls[self.index[n]] for n in names if n in self.index)

    def total_self(self, *names):
        return sum(self.self_s[self.index[n]] for n in names if n in self.index)

    def layer_self(self, layer):
        prefix = layer + "."
        return sum(s for n, s in zip(self.names, self.self_s) if n.startswith(prefix))

    def inclusive(self, name, parent=None):
        """Summed duration of the spans of name (only those under parent, if given)."""
        idx, pidx = self.index.get(name), self.index.get(parent)
        names, parents = self.span_name, self.span_parent
        total = 0.0
        for sid, n in enumerate(names):
            if n == idx and (parent is None
                             or (parents[sid] >= 0 and names[parents[sid]] == pidx)):
                total += self.span_end[sid] - self.span_start[sid]
        return total

    def write_spans(self, path, header):
        """Gzipped tab-separated spans: id, parent, op, name, start and end in seconds."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# {header}\n")
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            names = self.names
            for sid, (n, parent, op, t0, t1) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_op,
                    self.span_start, self.span_end)):
                fh.write(f"{sid}\t{parent}\t{op}\t{names[n]}\t{t0:.9f}\t{t1:.9f}\n")


# ---------------------------------------------------------------------------
# operadyn-specific counters and the per-layer metrics


def _hooks():
    from operadyn.ncpoly import NCPoly
    from operadyn.poly import Poly

    def poly_mul(tr, args, kwargs):
        a, b = args
        tr.counts["poly.mul.term_products"] += (
            len(a.terms) * (len(b.terms) if isinstance(b, Poly) else 1))

    def ncpoly_mul(tr, args, kwargs):
        a, b = args
        tr.counts["ncpoly.mul.term_products"] += (
            len(a.terms) * (len(b.terms) if isinstance(b, NCPoly) else 1))

    def partial_compose(tr, args, kwargs):
        f, _, g = args
        tr.counts["operad.partial_compose.entry_products"] += f.dim ** (f.degree + g.degree + 1)
        nonzero = 0
        for v in itertools.chain(f.coeffs.flat, g.coeffs.flat):
            nonzero += bool(v.terms) if isinstance(v, Poly) else v != 0
        tr.counts["operad.partial_compose.nonzero_entries"] += nonzero
        tr.counts["operad.partial_compose.entries"] += f.coeffs.size + g.coeffs.size

    def deform(tr, args, kwargs):
        t, omega, p0 = args[:3]
        tr.distinct["bianchi.deform"].add((t.tag, str(t.a), str(omega), str(p0)))

    def quantize(tr, args, kwargs):
        t, omega, p0 = args[:3]
        a = args[3] if len(args) > 3 else kwargs.get("a")
        tr.distinct["quantum.quantize"].add((t.tag, str(t.a), str(omega), str(p0), str(a)))

    def deformation_trace(tr, args, kwargs):
        tr.counts["bianchi.trace.samples"] += len(args[3])

    return {
        "poly.Poly.__mul__": poly_mul,
        "poly.Poly.__rmul__": poly_mul,
        "ncpoly.NCPoly.__mul__": ncpoly_mul,
        "operad.partial_compose": partial_compose,
        "bianchi.deform": deform,
        "quantum.quantize": quantize,
        "bianchi.deformation_trace": deformation_trace,
    }


# every wrapped name a per-layer metric reads
NAMES = (
    "poly.Poly.__mul__", "poly.Poly.__rmul__", "poly.Poly.__add__", "poly.Poly.__radd__",
    "poly.Poly.__init__", "poly.Poly.evaluate", "structure.StructureTensor.evaluate",
    "oscillator.exact_flow", "bianchi.deformation_trace", "bianchi.deform",
    "operad.partial_compose", "operad.gerstenhaber_bracket",
    "lax.matrix_lax_residual", "lax.operadic_lax_residual", "lax.solve_C",
    "ncpoly.NCPoly.__mul__", "ncpoly.NCPoly.__init__", "ncpoly.ExtScalar.__init__",
    "quantum.quantize", "quantum.classify", "quantum.basis_jacobian",
    "quantum.quantum_jacobian", "structure.StructureTensor.__init__",
    "structure.StructureTensor.from_array", "structure.StructureTensor._validate",
    "structure.StructureTensor.diff", "bianchi.reduce_on_shell", "cli.main",
)


def layer_metrics(tr, n_ops):
    """Per-layer metrics of n_ops traced operations: {name: (value, unit)}.

    Counts and self times are per operation; shares are ratios of totals.
    """
    def calls(*names):
        return (tr.total_calls(*names) / n_ops, "count/op")

    def self_s(*names):
        return (tr.total_self(*names) / n_ops, "s/op")

    def layer(name):
        return (tr.layer_self(name) / n_ops, "s/op")

    def count(name):
        return (tr.counts[name] / n_ops, "count/op")

    def share(num, den):
        return (num / den if den else 0.0, "ratio")

    samples = tr.counts["bianchi.trace.samples"]
    per_sample = (tr.inclusive("bianchi.deformation_trace")
                  - tr.inclusive("bianchi.deform", parent="bianchi.deformation_trace"))
    return {
        "poly.mul.calls": calls("poly.Poly.__mul__", "poly.Poly.__rmul__"),
        "poly.mul.term_products": count("poly.mul.term_products"),
        "poly.add.calls": calls("poly.Poly.__add__", "poly.Poly.__radd__"),
        "poly.init.calls": calls("poly.Poly.__init__"),
        "poly.self_s": layer("poly"),
        "poly.evaluate.calls": calls("poly.Poly.evaluate"),
        "poly.evaluate.self_s": self_s("poly.Poly.evaluate"),
        "structure.evaluate.calls": calls("structure.StructureTensor.evaluate"),
        "oscillator.exact_flow.calls": calls("oscillator.exact_flow"),
        "oscillator.self_s": layer("oscillator"),
        "bianchi.trace.sample_us": (per_sample / samples * 1e6 if samples else 0.0, "us"),
        "operad.partial_compose.calls": calls("operad.partial_compose"),
        "operad.partial_compose.entry_products": count("operad.partial_compose.entry_products"),
        "operad.partial_compose.nonzero_share": share(
            tr.counts["operad.partial_compose.nonzero_entries"],
            tr.counts["operad.partial_compose.entries"]),
        "operad.bracket.calls": calls("operad.gerstenhaber_bracket"),
        "operad.self_s": layer("operad"),
        "lax.matrix_residual.calls": calls("lax.matrix_lax_residual"),
        "lax.matrix_residual.self_s": self_s("lax.matrix_lax_residual"),
        "lax.operadic_residual.calls": calls("lax.operadic_lax_residual"),
        "lax.solve_C.calls": calls("lax.solve_C"),
        "lax.self_s": layer("lax"),
        "ncpoly.mul.calls": calls("ncpoly.NCPoly.__mul__"),
        "ncpoly.mul.term_products": count("ncpoly.mul.term_products"),
        "ncpoly.init.calls": calls("ncpoly.NCPoly.__init__"),
        "ncpoly.extscalar.init.calls": calls("ncpoly.ExtScalar.__init__"),
        "ncpoly.self_s": layer("ncpoly"),
        "quantum.quantize.calls": calls("quantum.quantize"),
        "quantum.classify.calls": calls("quantum.classify"),
        "quantum.basis_jacobian.self_s": self_s("quantum.basis_jacobian",
                                                "quantum.quantum_jacobian"),
        "quantum.self_s": layer("quantum"),
        "structure.build.calls": calls("structure.StructureTensor.__init__",
                                       "structure.StructureTensor.from_array"),
        "structure.validate.self_s": self_s("structure.StructureTensor._validate"),
        "structure.diff.calls": calls("structure.StructureTensor.diff"),
        "structure.self_s": layer("structure"),
        "bianchi.deform.calls": calls("bianchi.deform"),
        "bianchi.deform.distinct_share": share(len(tr.distinct["bianchi.deform"]),
                                               tr.total_calls("bianchi.deform")),
        "quantum.quantize.distinct_share": share(len(tr.distinct["quantum.quantize"]),
                                                 tr.total_calls("quantum.quantize")),
        "bianchi.deform.self_s": self_s("bianchi.deform"),
        "bianchi.reduce_on_shell.self_s": self_s("bianchi.reduce_on_shell"),
        "bianchi.self_s": layer("bianchi"),
        "cli.main.calls": calls("cli.main"),
        "cli.self_s": layer("cli"),
    }
