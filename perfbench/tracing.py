"""Per-layer tracing of the strictlyap package from outside its code.

`Tracer.install()` replaces the public entry points of every package module
by timing wrappers.  A name bound with ``from .x import y`` is a second
reference to the same function object, so each wrapper is installed under
every name, in every ``strictlyap`` module, that refers to the original;
`Tracer.uninstall()` puts the originals back.

Coarse entry points record one span each (id, parent id, layer, name, start,
end).  Compiled expressions are called millions of times along an RK4 run, so
their calls are counted and timed per calling span instead.  A layer's self
time is its spans' durations minus the time of the traced calls they made.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "strictlyap"

# (layer, module, attribute) of every wrapped entry point; "Class.method"
# names a method patched on its class.
ENTRY_POINTS = [
    ("decay", "decay", "estimate_pe"),
    ("decay", "decay", "check_pe"),
    ("decay", "decay", "underline_p"),
    ("decay", "decay", "simpson"),
    ("decay", "decay", "window_integral"),
    ("decay", "decay", "window_integral_vec"),
    ("decay", "decay", "xi"),
    ("decay", "decay", "xi_vec"),
    ("funcalc", "funcalc", "invert"),
    ("funcalc", "funcalc", "_invert_array"),
    ("verify", "verify", "SampleDomain.sample"),
    ("verify", "verify", "_run_check"),
    ("verify", "verify", "_coordinate_descent"),
    ("verify", "verify", "check_iss_estimate"),
    ("verify", "verify", "fit_iss_envelope"),
    ("strictify", "strictify", "strictify_issp"),
    ("strictify", "strictify", "strictify_disp"),
    ("strictify", "strictify", "strictify_from_state_form"),
    ("strictify", "strictify", "build_w"),
    ("strictify", "strictify", "_xi_splines"),
    ("strictify", "strictify", "construct_omega"),
    ("strictify", "strictify", "StrictCertificate.v_sharp"),
    ("strictify", "strictify", "StrictCertificate.vdot_sharp"),
    ("dynsys", "dynsys", "integrate"),
    ("config", "fixtures", "get_fixture"),
    ("config", "config", "load_problem"),
    ("config", "config", "strictify_problem"),
    ("cli", "cli", "main"),
    ("cli", "cli", "_write_csv"),
    ("cli", "dynsys", "write_trajectory_csv"),
]

QUADRATURE = {"simpson", "window_integral", "window_integral_vec", "xi", "xi_vec"}
BUILDS = {"get_fixture", "load_problem"}
WRITES = {"_write_csv", "write_trajectory_csv"}

# per-layer metric -> unit, in report order
UNITS = {
    "exprparse.scalar_calls": "count",
    "exprparse.array_calls": "count",
    "exprparse.array_elems": "count",
    "exprparse.self_s": "s",
    "decay.calls": "count",
    "decay.quad_nodes": "count",
    "decay.self_s": "s",
    "funcalc.invert_calls": "count",
    "funcalc.invert_elems": "count",
    "funcalc.self_s": "s",
    "verify.sample_calls": "count",
    "verify.sample_points": "count",
    "verify.sample_self_s": "s",
    "verify.margin_points": "count",
    "verify.kept_ratio": "1",
    "verify.check_self_s": "s",
    "verify.refine_probes": "count",
    "verify.refine_improve_ratio": "1",
    "verify.refine_self_s": "s",
    "strictify.tabulate_s": "s",
    "strictify.omega_s": "s",
    "strictify.self_s": "s",
    "dynsys.steps": "count",
    "dynsys.rhs_calls": "count",
    "dynsys.self_s": "s",
    "dynsys.steps_per_s": "1/s",
    "cli.rows_written": "count",
    "cli.bytes_written": "count",
    "cli.write_s": "s",
    "setup.import_s": "s",
    "config.build_s": "s",
    "trace.overhead_s": "s",
}

LAYERS = ("exprparse", "decay", "funcalc", "verify", "strictify", "dynsys",
          "config", "cli")


class _Frame:
    __slots__ = ("span_id", "layer", "name", "start", "child_s", "expr")

    def __init__(self, span_id, layer, name, start):
        self.span_id = span_id
        self.layer = layer
        self.name = name
        self.start = start
        self.child_s = 0.0
        # compiled-expression calls made directly inside this span:
        # [scalar calls, scalar s, array calls, array s, array elements]
        self.expr = [0, 0.0, 0, 0.0, 0]


class Tracer:
    """Spans and counters of one traced pass; one instance per pass."""

    def __init__(self):
        self.spans: list[tuple] = []          # (id, parent, layer, name, start, end)
        self.expr_calls: list[tuple] = []     # (parent span id, *_Frame.expr)
        self.self_s: dict = defaultdict(float)      # (layer, name) -> self seconds
        self.incl_s: dict = defaultdict(float)      # (layer, name) -> inclusive seconds
        self.counts: dict = defaultdict(int)
        self._root = _Frame(None, None, None, 0.0)   # calls outside every span
        self._stack: list[_Frame] = []
        self._next_id = 1
        self._patched: list[tuple] = []             # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def _enter(self, layer, name):
        frame = _Frame(self._next_id, layer, name, time.perf_counter())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += dur
        self.self_s[frame.layer, frame.name] += dur - frame.child_s
        self.incl_s[frame.layer, frame.name] += dur
        self.spans.append((frame.span_id, parent.span_id if parent else None,
                           frame.layer, frame.name, frame.start, end))
        if frame.expr[0] or frame.expr[2]:
            self.expr_calls.append((frame.span_id, *frame.expr))

    def _top_name(self):
        return self._stack[-1].name if self._stack else None

    def _span(self, layer, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before`` may rewrite the arguments and
        ``after`` sees the result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            if layer == "decay" and (not self._stack or self._stack[-1].layer != "decay"):
                self.counts["decay.calls"] += 1
            frame = self._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, fn):
        """Aggregate calls of a compiled expression into the calling span."""
        stack, root = self._stack, self._root
        clock = time.perf_counter

        def call(*args):
            elems = -1                      # stays -1 on the scalar path
            for a in args:
                if isinstance(a, np.ndarray) and a.size > elems:
                    elems = a.size
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - t0
                parent = stack[-1] if stack else root
                parent.child_s += dur
                rec = parent.expr
                if elems < 0:
                    rec[0] += 1
                    rec[1] += dur
                else:
                    rec[2] += 1
                    rec[3] += dur
                    rec[4] += elems

        for attr in ("expr", "arg_names"):
            if hasattr(fn, attr):
                setattr(call, attr, getattr(fn, attr))
        return call

    # -- argument hooks that count work where it happens ------------------------

    def _counting_margin(self, margin_fn):
        """Margin evaluations: the first call is the sampled batch."""
        state = {"first": True}

        def margin(t, x, u):
            if state["first"]:
                state["first"] = False
                self.counts["verify.margin_points"] += int(np.size(t))
            return margin_fn(t, x, u)

        return margin

    def _counting_mask(self, mask_fn):
        """Implication mask: the first call filters the drawn batch."""
        state = {"first": True}

        def mask(t, x, u):
            keep = mask_fn(t, x, u)
            if state["first"]:
                state["first"] = False
                self.counts["verify.masked_drawn"] += int(np.size(t))
                self.counts["verify.masked_kept"] += int(np.count_nonzero(keep))
            return keep

        return mask

    def _before_run_check(self, args, kwargs):
        # _run_check(name, margin_fn, domain, nx, nu, n, seed, tol, mask_fn=None, ...)
        args = list(args)
        args[1] = self._counting_margin(args[1])
        if len(args) > 8 and args[8] is not None:
            args[8] = self._counting_mask(args[8])
        elif kwargs.get("mask_fn") is not None:
            kwargs = dict(kwargs, mask_fn=self._counting_mask(kwargs["mask_fn"]))
        return tuple(args), kwargs

    def _before_descent(self, args, kwargs):
        # _coordinate_descent(margin_fn, domain, point, accept=None, passes=8)
        margin_fn = args[0]
        best = [np.inf]

        def probe(t, x, u):
            value = margin_fn(t, x, u)
            v = float(np.asarray(value)[0])
            self.counts["verify.refine_probes"] += 1
            if v < best[0]:
                if best[0] != np.inf:
                    self.counts["verify.refine_improving"] += 1
                best[0] = v
            return value

        return (probe, *args[1:]), kwargs

    def _before_integrate(self, args, kwargs):
        system = args[0]
        f = system.f
        counts = self.counts

        def rhs(t, x, u):
            counts["dynsys.rhs_calls"] += 1
            return f(t, x, u)

        return (dataclasses.replace(system, f=rhs), *args[1:]), kwargs

    def _after_integrate(self, args, kwargs, traj):
        self.counts["dynsys.steps"] += int(traj.times.size) - 1

    def _before_write_csv(self, args, kwargs):
        # _write_csv(path, header, rows): rows may be a one-shot iterator
        return (args[0], args[1], list(args[2]), *args[3:]), kwargs

    def _after_write_csv(self, args, kwargs, result):
        self._count_written(args[0], len(args[2]))

    def _after_write_trajectory(self, args, kwargs, result):
        self._count_written(args[0], args[1].times.size)

    def _count_written(self, path, rows):
        self.counts["cli.rows_written"] += int(rows)
        self.counts["cli.bytes_written"] += os.path.getsize(path)

    def _after_sample(self, args, kwargs, result):
        self.counts["verify.sample_calls"] += 1
        self.counts["verify.sample_points"] += int(result[0].size)

    def _after_invert(self, args, kwargs, result):
        self.counts["funcalc.invert_calls"] += 1
        self.counts["funcalc.invert_elems"] += int(np.size(result))

    def _rate_values(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def rate_values(p, nodes):
            if self._top_name() in QUADRATURE:
                counts["decay.quad_nodes"] += int(np.size(nodes))
            return fn(p, nodes)

        return rate_values

    def _compile_expr(self, fn):
        @functools.wraps(fn)
        def compile_expr(*args, **kwargs):
            return self._leaf(fn(*args, **kwargs))

        return compile_expr

    # -- installation ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Bind ``replacement`` under every package name bound to ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        import importlib

        hooks = {
            "_run_check": (self._before_run_check, None),
            "_coordinate_descent": (self._before_descent, None),
            "integrate": (self._before_integrate, self._after_integrate),
            "_write_csv": (self._before_write_csv, self._after_write_csv),
            "write_trajectory_csv": (None, self._after_write_trajectory),
            "SampleDomain.sample": (None, self._after_sample),
            "invert": (None, self._after_invert),
            "_invert_array": (None, self._after_invert),
        }
        for layer, mod_name, attr in ENTRY_POINTS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            before, after = hooks.get(attr, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._span(layer, meth, original, before, after))
            else:
                original = getattr(mod, attr)
                self._replace_everywhere(
                    original, self._span(layer, attr, original, before, after))
        decay = importlib.import_module(f"{PACKAGE}.decay")
        self._replace_everywhere(decay._rate_values, self._rate_values(decay._rate_values))
        exprparse = importlib.import_module(f"{PACKAGE}.exprparse")
        self._replace_everywhere(exprparse.compile_expr,
                                 self._compile_expr(exprparse.compile_expr))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def _expr_records(self) -> list[tuple]:
        return self.expr_calls + [(None, *self._root.expr)]

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _), s in self.self_s.items():
            out[layer] += s
        out["exprparse"] += sum(e[2] + e[4] for e in self._expr_records())
        return out

    def metrics(self, import_s: float, overhead_s: float) -> dict[str, float]:
        c, self_s, incl = self.counts, self.self_s, self.incl_s

        def self_of(layer, names=None, exclude=()):
            return sum(s for (ly, nm), s in self_s.items()
                       if ly == layer and (names is None or nm in names)
                       and nm not in exclude)

        def incl_of(names):
            return sum(s for (_, nm), s in incl.items() if nm in names)

        layers = self.layer_self_s()
        expr = [sum(col) for col in list(zip(*self._expr_records()))[1:]]
        integrate_s = incl_of({"integrate"})
        drawn = c["verify.masked_drawn"]
        probes = c["verify.refine_probes"]
        values = {
            "exprparse.scalar_calls": expr[0],
            "exprparse.array_calls": expr[2],
            "exprparse.array_elems": expr[4],
            "exprparse.self_s": layers["exprparse"],
            "decay.calls": c["decay.calls"],
            "decay.quad_nodes": c["decay.quad_nodes"],
            "decay.self_s": layers["decay"],
            "funcalc.invert_calls": c["funcalc.invert_calls"],
            "funcalc.invert_elems": c["funcalc.invert_elems"],
            "funcalc.self_s": layers["funcalc"],
            "verify.sample_calls": c["verify.sample_calls"],
            "verify.sample_points": c["verify.sample_points"],
            "verify.sample_self_s": self_of("verify", {"sample"}),
            "verify.margin_points": c["verify.margin_points"],
            # no masked check ran: nothing was filtered out
            "verify.kept_ratio": c["verify.masked_kept"] / drawn if drawn else 1.0,
            "verify.check_self_s": self_of("verify", exclude={"sample", "_coordinate_descent"}),
            "verify.refine_probes": probes,
            "verify.refine_improve_ratio": c["verify.refine_improving"] / probes if probes else 0.0,
            "verify.refine_self_s": self_of("verify", {"_coordinate_descent"}),
            "strictify.tabulate_s": incl_of({"_xi_splines"}),
            "strictify.omega_s": incl_of({"construct_omega"}),
            "strictify.self_s": layers["strictify"],
            "dynsys.steps": c["dynsys.steps"],
            "dynsys.rhs_calls": c["dynsys.rhs_calls"],
            "dynsys.self_s": layers["dynsys"],
            "dynsys.steps_per_s": c["dynsys.steps"] / integrate_s if integrate_s else 0.0,
            "cli.rows_written": c["cli.rows_written"],
            "cli.bytes_written": c["cli.bytes_written"],
            "cli.write_s": incl_of(WRITES),
            "setup.import_s": import_s,
            "config.build_s": incl_of(BUILDS),
            "trace.overhead_s": overhead_s,
        }
        return values

    def dump(self, path) -> None:
        """Write spans and aggregated expression calls as JSON."""
        calls = [{"parent": p, "scalar_calls": sc, "scalar_s": ss, "array_calls": ac,
                  "array_s": as_, "array_elems": ae}
                 for p, sc, ss, ac, as_, ae in self._expr_records()]
        spans = [{"id": i, "parent": p, "layer": ly, "name": nm, "start": a, "end": b}
                 for i, p, ly, nm, a, b in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "expression_calls": calls}, fh)
