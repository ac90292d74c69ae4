"""Tests of the benchmark itself: seeded inputs, passing checks, exact
trace counts, and refusal to run without the library sources.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import collections
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark's entry module)


def mix(name: str, data: dict):
    """The part of a workload's inputs no seed may change: op mix, pool
    sizes and shapes."""
    if name == "arith":
        ops = collections.Counter((f, k) for f, k, *_ in data["ops"])
        pools = {f: sorted(len(e["num"]) for e in pool)
                 for f, pool in data["pools"].items()}
        return ops, pools
    if name == "cuts":
        ops = collections.Counter(op[0] for op in data["ops"])
        sizes = {k: len(data[k]) for k in ("elems", "balls", "principal",
                                           "fillers", "f2_cuts")}
        return ops, sizes, [f[0] for f in data["fillers"]]
    if name == "places":
        ops = collections.Counter(
            (fam, len(evals), sum(h for _, h in evals))
            for fam, _, evals in data["order"])
        return ops, len(data["uni"]), len(data["bi"])
    lines = [line for session in data["sessions"] for line in session]
    return (collections.Counter(" ".join(line.split()[:2]) if
                                line.startswith(("def-", "witness", "embed"))
                                else line.split()[0]
                                for line, _ in lines),
            sum(1 for _, want in lines if want and "error" in want),
            len(data["sessions"]))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_seed_gives_identical_inputs(name):
    mod = run.workload_module(name)
    assert mod.generate(3) == mod.generate(3)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_two_seeds_differ_with_the_same_mix(name):
    mod = run.workload_module(name)
    a, b = mod.generate(1), mod.generate(2)
    assert a != b
    assert mix(name, a) == mix(name, b)


def _run(name: str, trace: int, seconds: float, hashseed: str = "0") -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", name, "--seed", "4", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == (0 if out["correct"] else 1), proc.stderr
    assert out["correct"] == (out["failed"] == 0)
    return out


# The cuts workload meets two library defects (perfbench/README.md, "Known
# defects"); its runs fail their checks until the library is fixed.
KNOWN_FAILING = ("cuts",)


@pytest.mark.parametrize("name", [
    pytest.param(n, marks=pytest.mark.xfail(
        strict=True, reason="known library defects")) if n in KNOWN_FAILING
    else n for n in run.WORKLOADS])
def test_run_passes_its_checks(name):
    # long enough for one whole pass of every workload
    out = _run(name, 0, 12)
    assert out["correct"] and out["failed"] == 0


COUNT_UNITS = ("count", "bits")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_trace_counts_repeat_exactly(name):
    first = _run(name, 1, 0.2, "1")["metrics"]
    second = _run(name, 1, 0.2, "2")["metrics"]
    counts = {k: v["value"] for k, v in first.items()
              if v["unit"] in COUNT_UNITS}
    assert counts == {k: second[k]["value"] for k in counts}
    assert counts[f"{'cli' if name == 'script' else 'ordfield'}.calls"] > 0
    if name == "arith":
        for key in ("ordfield.mask_lookups", "ratfun.calls", "cuts.calls",
                    "places.calls", "cli.calls", "balls.calls",
                    "embed.calls"):
            assert counts[key] == 0, key
    if name != "script":
        assert counts["cli.calls"] == 0
        assert first["cli.self_s"]["value"] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", "arith", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
