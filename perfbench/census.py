"""Op-kind census: how often in-repo use of the library calls each kind of
op the workloads time.

    python3 perfbench/census.py          # from the repository root

It runs the eleven probes (``probe <name>`` at seed 0), the acceptance
tests and the CLI tests (``tests/test_acceptance.py``,
``tests/test_cli.py``, in-process under pytest) with counting
wrappers on the entry points of each workload's op kinds, and prints one
JSON object: workload -> op kind -> calls.  A call is counted only when no
other entry point of the same workload is already running, so a ``harrison``
that calls ``eval_place`` counts once, as ``harrison``.  The op mixes of
``arith``, ``cuts``, ``places`` and ``script`` are derived from these counts
(``CENSUS`` in each workload module).
"""
from __future__ import annotations

import functools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# workload -> op kind -> entry points ("module:Class.method" or
# "module:function")
TARGETS = {
    "arith": {
        "add": ("ordfield:FieldElement.__add__",),
        "sub": ("ordfield:FieldElement.__sub__",
                "ordfield:FieldElement.__rsub__"),
        "mul": ("ordfield:FieldElement.__mul__",),
        "div": ("ordfield:FieldElement.__truediv__",
                "ordfield:FieldElement.__rtruediv__"),
        "cmp": ("ordfield:FieldElement.cmp", "ordfield:FieldElement.__eq__",
                "ordfield:FieldElement.__lt__"),
        "val": ("ordfield:FieldElement.val",),
        "residue": ("ordfield:FieldElement.residue",),
        "expand": ("ordfield:FieldElement.expand",),
    },
    "cuts": {kind: (f"{mod}:{kind}",) for mod, kind in (
        ("cuts", "cut_cmp"), ("cuts", "equivalent"), ("cuts", "side_of"),
        ("cuts", "classify"), ("cuts", "find_between"), ("cuts", "restrict"),
        ("cuts", "fiber"), ("embed", "iota_tilde"),
        ("balls", "between_ball"))},
    "places": {"eval_place": ("places:eval_place",),
               "harrison": ("places:harrison",)},
    "script": {"line": ("cli:run",)},
}
# test files run under the counting wrappers: the acceptance criteria, and
# the CLI tests, the only in-repo source of command lines besides the probes
TESTS = ("test_acceptance.py", "test_cli.py")
PROBES = ("ball-triple", "cut-classes", "glue", "between-towers", "fiber",
          "embedding", "nonconvex-witness", "stacked-tower", "place-cases",
          "compose-pullback", "axioms")


def _script_kind(line: str) -> str:
    """Kind of a CLI line: eval/harrison lines against everything else."""
    word = line.split("#", 1)[0].split(None, 1)
    return word[0] if word and word[0] in ("eval", "harrison") else "other"


def install(rp: dict) -> dict:
    """Wrap every entry point; returns the live counts."""
    counts = {w: dict.fromkeys(kinds, 0) for w, kinds in TARGETS.items()}
    counts["script"] = dict.fromkeys(("eval", "harrison", "other"), 0)
    depth = {w: 0 for w in TARGETS}

    def wrap(fn, workload, kind):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if depth[workload] == 0:
                k = kind
                if workload == "script":
                    k = _script_kind(args[1])
                counts[workload][k] += 1
            depth[workload] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[workload] -= 1
        return counted

    for workload, kinds in TARGETS.items():
        for kind, targets in kinds.items():
            for target in targets:
                modname, attr = target.split(":")
                mod = rp[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, wrap(vars(cls)[meth], workload, kind))
                    continue
                fn = getattr(mod, attr)
                wrapped = wrap(fn, workload, kind)
                # every namespace that imported the function by name
                for other in rp.values():
                    if getattr(other, attr, None) is fn:
                        setattr(other, attr, wrapped)
    return counts


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import importlib
    import pytest
    rp = {name: importlib.import_module(f"rplaces.{name}") for name in (
        "coeff", "valgroup", "ordfield", "ratfun", "balls", "cuts",
        "places", "embed", "cli")}
    counts = install(rp)
    cli = rp["cli"]
    for name in PROBES:
        record = cli.run(cli.Session(seed=0), f"probe {name}")
        if "error" in record:
            print(f"census: probe {name} failed: {record['error']}",
                  file=sys.stderr)
            return 1
    status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", ROOT]
                         + [os.path.join(ROOT, "tests", name)
                            for name in TESTS])
    if status != 0:
        print("census: the tests failed", file=sys.stderr)
        return 1
    print(json.dumps(counts, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
