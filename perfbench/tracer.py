"""Traced run: spans around every call into each layer's public functions.

Wrappers are installed at run time only.  Methods are patched on their
class; module-level functions are patched in every ``rplaces`` namespace
that holds them (``balls``, ``cuts``, ``embed`` and ``places`` each hold
their own ``approx_analysis``, for example).  A span records name, start,
end, parent span and op id; spans stay in memory and are written out when
the run ends.  A layer's self time is its span time minus its child spans;
its busy time is the union of its spans.

Counts come from the first pass alone, which is the same work on every run
of one seed, so they repeat exactly.  Later passes alternate untraced and
traced to measure the tracing overhead.
"""
from __future__ import annotations

import inspect
import json
import os
import statistics
import time

import harness

LAYERS = ("coeff", "valgroup", "ordfield", "ratfun", "balls", "cuts",
          "places", "embed", "cli")
OP = len(LAYERS)                 # layer index of the benchmark's op spans
DUNDERS = frozenset((
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__abs__", "__str__"))
EVALUATE = frozenset(("Poly.evaluate", "RatFun.eval_at"))
MAX_SPANS = 200_000
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# per-layer metric names, in the order BENCHMARK.json lists them
COUNTERS = (
    ("coeff.constructs", "count"), ("coeff.coeff_bits_max", "bits"),
    ("ordfield.hahn_mul", "count"), ("ordfield.elem_cmp", "count"),
    ("ordfield.terms_max", "count"), ("ordfield.mask_lookups", "count"),
    ("ordfield.analysis_calls", "count"),
    ("ordfield.analysis_exhausted_frac", "ratio"),
    ("cuts.cmp_calls", "count"), ("cuts.classify_unknown_frac", "ratio"),
    ("ratfun.build_s", "s"), ("ratfun.terms_max", "count"),
    ("ratfun.poly_evaluate", "count"), ("places.eval_calls", "count"),
    ("cli.render_s", "s"),
)
# wrapped name -> counter it bumps
CALL_COUNTERS = {
    "QuadExt.__init__": "coeff.constructs",
    "HahnSum.__mul__": "ordfield.hahn_mul",
    "FieldElement.cmp": "ordfield.elem_cmp",
    "FieldDescriptor.embedding_mask_into": "ordfield.mask_lookups",
    "approx_analysis": "ordfield.analysis_calls",
    "cut_cmp": "cuts.cmp_calls",
    "classify": "cuts.classify_calls",
    "Poly.evaluate": "ratfun.poly_evaluate",
    "eval_place": "places.eval_calls",
}


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    def __init__(self, rp):
        self.rp = rp
        self.active = False
        self.stack: list = []          # frames [layer, child_s, id, flag]
        self.depth = [0] * (OP + 1)
        self.calls = [0] * (OP + 1)
        self.busy = [0.0] * (OP + 1)
        self.self_s = [0.0] * (OP + 1)
        self.count: dict = {}
        self.spans: list = []
        self.next_id = 0
        self.op_id = -1
        self._install()

    # -- wrapping -------------------------------------------------------

    def _install(self) -> None:
        mods = [getattr(self.rp, name) for name in LAYERS]
        replaced = {}
        for li, mod in enumerate(mods):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and \
                        obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap(obj, li, name)
                elif inspect.isclass(obj) and \
                        obj.__module__ == mod.__name__ and \
                        not issubclass(obj, BaseException):
                    self._wrap_class(obj, li)
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, name, replaced[id(obj)])

    def _wrap_class(self, cls, li: int) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(val, staticmethod):
                setattr(cls, attr, staticmethod(
                    self._wrap(val.__func__, li, name)))
            elif isinstance(val, classmethod):
                setattr(cls, attr, classmethod(
                    self._wrap(val.__func__, li, name)))
            elif inspect.isfunction(val):
                setattr(cls, attr, self._wrap(val, li, name))

    def _wrap(self, fn, li: int, name: str):
        tr = self
        perf = time.perf_counter
        counter = CALL_COUNTERS.get(name)
        evaluate = name in EVALUATE
        render = name == "render_json"

        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            stack = tr.stack
            sid = tr.next_id
            tr.next_id = sid + 1
            parent = stack[-1][2] if stack else -1
            outer = tr.depth[li] == 0
            frame = [li, 0.0, sid, outer and li == 3 and not evaluate]
            stack.append(frame)
            tr.depth[li] += 1
            tr.calls[li] += 1
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dur = t1 - t0
                stack.pop()
                tr.depth[li] -= 1
                tr.self_s[li] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if outer:
                    tr.busy[li] += dur
                    if frame[3]:
                        tr.bump("ratfun.build_s", dur)
                    if render:
                        tr.bump("cli.render_s", dur)
                if len(tr.spans) < MAX_SPANS:
                    tr.spans.append((sid, parent, li, name, t0, t1,
                                     tr.op_id))
            if counter is not None:
                tr.bump(counter, 1)
            tr.observe(li, name, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def bump(self, key: str, by) -> None:
        self.count[key] = self.count.get(key, 0) + by

    def high(self, key: str, value) -> None:
        if value > self.count.get(key, 0):
            self.count[key] = value

    def observe(self, li: int, name: str, args, out) -> None:
        """Size high-water marks of the values a layer hands back."""
        rp = self.rp
        if li == 0:
            q = args[0] if name == "QuadExt.__init__" else out
            if isinstance(q, rp.coeff.QuadExt):
                self.high("coeff.coeff_bits_max",
                          max(_bits(q.a), _bits(q.b)))
        elif li == 2:
            if isinstance(out, rp.ordfield.FieldElement):
                self.high("ordfield.terms_max",
                          max(len(out.num.terms), len(out.den.terms)))
            elif isinstance(out, rp.ordfield.HahnSum):
                self.high("ordfield.terms_max", len(out.terms))
            elif isinstance(out, rp.ordfield.Exhausted):
                self.bump("ordfield.analysis_exhausted", 1)
        elif li == 3:
            if isinstance(out, rp.ratfun.RatFun):
                self.high("ratfun.terms_max",
                          max(_poly_terms(out.num), _poly_terms(out.den)))
            elif isinstance(out, rp.ratfun.Poly):
                self.high("ratfun.terms_max", _poly_terms(out))
        elif li == 5 and name == "classify" and out.kind == "unknown":
            self.bump("cuts.classify_unknown", 1)

    # -- the op hooks the measurement loop calls --------------------------

    def begin_op(self, kind: str) -> None:
        if not self.active:
            return
        self.op_id += 1
        self._op_t0 = time.perf_counter()
        self.stack.append([OP, 0.0, -1, False])

    def end_op(self) -> None:
        if not self.active:
            return
        frame = self.stack.pop()
        dur = time.perf_counter() - self._op_t0
        self.calls[OP] += 1
        self.busy[OP] += dur
        self.self_s[OP] += dur - frame[1]

    # -- the traced run ---------------------------------------------------

    def snapshot(self, scale: float) -> dict:
        out = {}
        for li, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = (self.calls[li], "count")
            out[f"{layer}.busy_s"] = (self.busy[li] / scale, "s")
            out[f"{layer}.self_s"] = (self.self_s[li] / scale, "s")
        c = self.count
        for key, unit in COUNTERS:
            if key == "ordfield.analysis_exhausted_frac":
                v = c.get("ordfield.analysis_exhausted", 0) / \
                    max(1, c.get("ordfield.analysis_calls", 0))
            elif key == "cuts.classify_unknown_frac":
                v = c.get("cuts.classify_unknown", 0) / \
                    max(1, c.get("cuts.classify_calls", 0))
            else:
                v = c.get(key, 0)
                if unit == "s":
                    v /= scale
            out[key] = (v, unit)
        return out

    def write_spans(self, tag: str) -> str:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{tag}.jsonl")
        names = LAYERS + ("op",)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "layer", "name",
                                            "start_s", "end_s", "op"],
                                 "truncated": len(self.spans) >= MAX_SPANS})
                     + "\n")
            for sid, parent, li, name, t0, t1, op in self.spans:
                fh.write(json.dumps([sid, parent, names[li], name,
                                     round(t0, 7), round(t1, 7), op]) + "\n")
        return path

    def run(self, built, verify, seconds: float, tag: str) -> dict:
        loop0 = harness.Loop()
        self.active = True
        results = loop0.run_pass(built.first, hooks=self)
        self.active = False
        loop0.finish()
        verify(built.first, results)
        scale = statistics.median(loop0.factors())
        metrics = self.snapshot(scale)
        metrics["trace.pass_ops"] = (len(results), "count")
        path = self.write_spans(tag)
        spans = len(self.spans)
        self.spans = []
        # overhead: alternate untraced and traced runs of the steady pass
        plain, traced = harness.Loop(), harness.Loop()
        while True:
            for loop, on in ((plain, False), (traced, True)):
                self.active = on
                res = loop.run_pass(built.steady,
                                    hooks=self if on else None)
                self.active = False
                verify(built.steady, res)
            if loop0.measured_raw + plain.measured_raw + \
                    traced.measured_raw >= seconds:
                break
        plain.finish()
        traced.finish()
        sp, st = harness.summarize(plain), harness.summarize(traced)
        metrics["trace.untraced_ops_per_s"] = (sp["ops_per_s"], "ops/s")
        metrics["trace.traced_ops_per_s"] = (st["ops_per_s"], "ops/s")
        metrics["trace.overhead_ratio"] = (
            st["ops_per_s"] / sp["ops_per_s"], "ratio")
        metrics["raw_ops_per_s"] = (sp["raw_ops_per_s"], "ops/s")
        attempted = loop0.attempted + plain.attempted + traced.attempted
        metrics["op_fail_frac"] = (verify.failed_ops / attempted, "ratio")
        detail = {"spans_file": os.path.relpath(path), "spans_kept": spans,
                  "failures_by_code": dict(verify.failures),
                  "op_self_s": self.self_s[OP] / scale}
        return {"attempted": attempted, "failed": verify.failed_ops,
                "metrics": metrics, "detail": detail}


def _poly_terms(p) -> int:
    """Hahn-sum terms over all coefficients of a polynomial."""
    return sum(len(c.num.terms) + len(c.den.terms) for c in p.terms.values())
