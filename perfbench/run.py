"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload arith --seed 0 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
details (sample counts, tail percentile, raw unscaled figures, error
breakdown).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The exit status is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
import types
from collections import Counter

import harness
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAYERS = tracer.LAYERS
WORKLOADS = ("arith", "cuts", "places", "script")
SETUP_REPS = 5         # set-ups per run, at least ...
SETUP_MIN_S = 2.0      # ... and until this much set-up time is measured,
SETUP_MAX_REPS = 40    # ... but no more than this


def load_library() -> types.SimpleNamespace:
    """Import every layer of ``rplaces``; the namespace is what the
    workloads call through, so the tracer's patches reach them."""
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"rplaces.{name}") for name in LAYERS})


def workload_module(name: str):
    return importlib.import_module(f"wl_{name}")


class Verifier:
    """Checks the results of each pass with the clock stopped.

    The first time a pass runs, its results get the workload's semantic
    checks and are kept; later runs of the same pass must give the same
    results, as the workload's ``same`` judges them.
    """

    def __init__(self, built):
        self.built = built
        self.first: dict = {}
        self.failures: Counter = Counter()
        self.failed_ops = 0

    def __call__(self, p, results) -> None:
        OpError = harness.OpError
        bad = {}
        for i, r in enumerate(results):
            if isinstance(r, OpError):
                bad[i] = f"raised-{r.code}"
        first = self.first.get(p.name)
        if first is None:
            for i, reason in self.built.check(p, results):
                bad.setdefault(i, reason)
            self.first[p.name] = results
        else:
            for i, (op, r) in enumerate(zip(p.ops, results)):
                if i in bad or i >= len(first) or \
                        isinstance(first[i], OpError):
                    continue
                if not self.built.same(op[0], r, first[i]):
                    bad[i] = "mismatch-with-earlier-pass"
        for reason in bad.values():
            self.failures[reason] += 1
        self.failed_ops += len(bad)


def run_untraced(mod, data, seconds: float) -> dict:
    def setup():
        return mod.Built(load_library(), data)

    built, setup_scaled, setup_raw = harness.timed_setups(setup, 1)
    loop = harness.Loop()
    verify = Verifier(built)
    p = built.first
    while loop.measured_raw < seconds:
        results = loop.run_pass(p, seconds - loop.measured_raw)
        verify(p, results)
        p = built.steady
    loop.finish()
    # peak RSS of one set-up and the loop; the further set-ups, each a
    # fresh copy of the library, come after it, with nothing of the loop
    # left alive
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    s = harness.summarize(loop)
    attempted, failed = loop.attempted, verify.failed_ops
    failures, passes = dict(verify.failures), sorted(verify.first)
    del built, verify, loop, results
    _, more_scaled, more_raw = harness.timed_setups(
        setup, SETUP_REPS - 1, SETUP_MIN_S - setup_raw[0],
        SETUP_MAX_REPS - 1)
    metrics = {
        "ops_per_s": (s["ops_per_s"], "ops/s"),
        "op_p50_ms": (s["p50_ms"], "ms"),
        "op_tail_ms": (s["tail_ms"], "ms"),
        "setup_s": (statistics.median(setup_scaled + more_scaled), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {
        "samples": s["ops"],
        "tail_percentile": s["tail_pct"],
        "tail_samples_beyond": s["tail_beyond"],
        "op_fail_frac": failed / attempted,
        "failures_by_code": failures,
        "raw_ops_per_s": s["raw_ops_per_s"],
        "raw_setup_s": statistics.median(setup_raw + more_raw),
        "setup_reps": len(setup_raw + more_raw),
        "speed_factor_median": s["speed_median"],
        "passes_checked": passes,
    }
    return {"attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


def run_traced(mod, data, seconds: float, tag: str) -> dict:
    built, _, _ = harness.timed_setups(
        lambda: mod.Built(load_library(), data), 1)
    return tracer.Tracer(built.rp).run(built, Verifier(built), seconds, tag)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rplaces", "__init__.py")):
        print(f"perfbench: no rplaces sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    mod = workload_module(args.workload)
    data = mod.generate(args.seed)
    t0 = time.perf_counter()
    if args.trace:
        out = run_traced(mod, data, args.seconds,
                         f"{args.workload}-{args.seed}")
    else:
        out = run_untraced(mod, data, args.seconds)
    out["detail"]["wall_s"] = time.perf_counter() - t0
    out["detail"]["workload"] = args.workload
    out["detail"]["seed"] = args.seed
    print("detail " + json.dumps(out["detail"], sort_keys=True))
    correct = out["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in out["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
