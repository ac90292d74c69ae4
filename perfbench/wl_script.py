"""`script`: CLI sessions through ``rplaces.cli.run`` and ``render_json``.

One op is one command line: parse, dispatch, library work and rendering
all happen inside the timed op.  A pass is one generated session in a fresh
``Session``: every ``def-field`` form, elements, balls, cuts, places of
every form, every query command, eval/harrison lines that each carry a new
function text, and a few malformed lines with a known error code.  The
first pass of a run also carries each of the eleven probes once.
"""
from __future__ import annotations

import os
import random
from fractions import Fraction

from harness import Pass

PROBES = ("ball-triple", "cut-classes", "glue", "between-towers", "fiber",
          "embedding", "nonconvex-witness", "stacked-tower", "place-cases",
          "compose-pullback", "axioms")
N_ELEMS = 6           # elements of R, a0..a5
# eval/harrison lines, each with a new function text: four at each of the
# eleven places the session defines.  This is a chosen weighting, not
# observed traffic: in-repo CLI use (``census.py``) has 10 such lines among
# 1089, too few to weigh the parsing and building of functions at all.
# Every third one asks harrison (3 of the 10 in the census).
N_EVALS = 44
# sessions per pass, each from its own draws: the lines near the median
# are then many, and the median moves little from seed to seed
N_SESSIONS = 4
GOLDEN = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests", "golden", "probes.json")


def _num(q: Fraction) -> str:
    return str(q)


def _coef(rng) -> Fraction:
    return Fraction(rng.randint(1, 7), rng.randint(1, 3))


def _series(rng, nterms: int, rank: int = 1, lead: str = "") -> str:
    """Text of an element with a constant and nterms monomials; ``lead``
    puts fixed leading coordinates before each (rank-1) exponent."""
    out = _num(Fraction(rng.choice([-1, 1]) * rng.randint(1, 5),
                        rng.randint(1, 2)))
    used = set()
    for _ in range(nterms):
        while True:
            # halves only: how many terms a product has then depends
            # little on the seed
            e = tuple(Fraction(rng.randint(-2, 8), 2)
                      for _ in range(rank))
            if e not in used and any(e):
                used.add(e)
                break
        exp = f"({lead}{_num(e[0])})" if lead else _num(e[0]) \
            if rank == 1 else "(" + ",".join(_num(q) for q in e) + ")"
        sign = rng.choice(" +-")
        op = "-" if sign == "-" else "+"
        out += f" {op} {_coef(rng)}*t^({exp})"
    return out


def _ratfun(rng, variables, coeff, k: int) -> str:
    """A new function text of degree at most 2 in the given variables.
    Its shape (degrees, term counts) depends on k only; the seed draws
    the coefficients and which variables carry the powers."""
    def poly(deg, nterms):
        terms = []
        for i in range(nterms):
            e = 1 + (i + deg) % deg
            mono = "*".join(f"{v}^{e}" for v in rng.sample(
                variables, 1 + i % len(variables)))
            terms.append(f"({coeff(i + k)})*{mono}")
        return f"{coeff(k)} + " + " + ".join(terms)
    return f"({poly(1 + k % 2, 1 + k % 3)})/" \
        f"({poly(1 + (k // 2) % 2, 1 + (k + 1) % 3)})"


def generate(seed: int) -> dict:
    """N_SESSIONS sessions, each a list of (text, expectation), and where
    the probes go in the first one."""
    rng = random.Random(f"{seed}:script")
    sessions = [_session(rng) for _ in range(N_SESSIONS)]
    probe_at = sorted(rng.sample(range(len(sessions[0]) + 1), len(PROBES)))
    return {"seed": seed, "sessions": sessions, "probe_at": probe_at}


def _session(rng) -> list:
    """Session lines as (text, expectation): expectation is None for a
    line that must succeed, {"error": code} for a malformed one, or a dict
    the line's result must contain."""
    L = []

    def ok(line, expect=None):
        L.append((line, expect))

    q = lambda lo, hi: _num(Fraction(rng.randint(lo, hi), rng.choice([1, 2])))
    # fields, in every def-field form
    ok("def-field F = hahn rational lex 2")
    ok("def-field R = subfield F mask (1)")
    ok("def-field W = extend-coeff R sqrt 2")
    ok("def-field G = extend-group R lex 3 mask (2)")
    ok(f"def-field E eps = adjoin R above ({q(0, 3)}) {rng.choice('+-')}")
    ok("def-field Q0 = hahn rational lex 0")
    ok("def-field Q1 = extend-group Q0 lex 1 mask ()")
    ok("def-field V = hahn sqrt 2 weighted (1, sqrt(2))")
    ok("def-field S = hahn sqrt 3 lex 1")
    ok("def-field SR = subfield S mask (0) rational")
    ok("def-field FW = extend-coeff F sqrt 2")
    ok("def-field declare W in FW mask (1)")
    ok("def-field Fn = hahn rational lex 2")
    ok("def-field Rn = subfield Fn mask (0)")
    # elements, balls, cuts
    for i in range(N_ELEMS):
        ok(f"def-elem a{i} in R = {i} + {_coef(rng)}*t^({q(1, 4)})"
           f" {rng.choice('+-')} {_coef(rng)}*t^({q(5, 8)})")
    ok(f"def-elem f0 in F = {_series(rng, 2, rank=2)}")
    ok(f"def-elem c0 in E = a1 {rng.choice('+-')} eps")
    ok(f"def-elem s0 in W = a2 + {_coef(rng)}*sqrt(2)*t^({q(1, 3)})")
    ok(f"def-elem v0 in V = {_series(rng, 2, rank=2)}")
    ok(f"def-elem tau in Q1 = {_coef(rng)}*t^(1)")
    ok("def-elem b in Q0 = 2")
    for i in range(3):
        ok(f"def-ball B{i} in R = ball(a{i}; above ({q(5, 9)}))")
        ok(f"def-cut Clo{i} in R = edge(B{i}, lower)")
        ok(f"def-cut Chi{i} in R = edge(B{i}, upper)")
    ok("def-ball Bs in R = ball(a3; at-least (2))")
    ok("def-cut Cp in R = a4+")
    ok("def-cut Cm in R = a5-")
    ok("def-cut Ctop in R = +inf")
    ok("def-cut Cbot in R = -inf")
    ok("def-cut Ce in R = filler(c0, lower, over R)")
    ok("def-cut Cw in R = filler(s0, upper, over R)")
    # places, in every def-place form
    ok("def-place P1 = from-cut Clo0 var y")
    ok("def-place P1h = from-cut Chi0 var y")
    ok("def-place Pp = from-cut Cp var y")
    # three-case and distinguish need both variables sent to 0
    ok("def-place P2 = stacked in Q0 x = 0; y = 0")
    ok(f"def-place P2o = stacked in Q0 x = {q(-2, 2)}; y = {q(-2, 2)}; "
       "order y,x")
    ok("def-place P3 = independent in Q0 x = 0 : 1; y = 0 : sqrt(2)")
    ok(f"def-place P3w = independent in Q0 x = {q(-2, 2)} : sqrt(2); "
       f"y = {q(-2, 2)} : 1")
    ok("def-place G1 = gauss R var y")
    ok("def-place Z1 = residue Q1")
    ok(f"def-place K1 = compose via Z1 x = {q(-2, 2)} + t^(1); "
       f"y = {q(-2, 2)} + t^(2)")
    ok(f"def-place ZP = stacked in Q0 y = {q(-2, 2)}")
    ok("def-place X1 = constext ZP over R")
    ok("def-place RL = realized over Q0 in Q1 x = tau")
    # queries: every command
    ok("cmp elem a0 a1", {"order": "LT"})
    ok(f"cmp exp F ({q(-2, 2)},{q(-2, 2)}) ({q(-2, 2)},{q(-2, 2)})")
    ok("cmp cut Clo0 Chi0", {"order": "LT"})
    ok("cmp cut Cbot Clo1", {"order": "LT"})
    ok("cmp cut Cw Clo2")
    ok("cmp cut Ce Cp")
    ok(f"cmp side Clo1 {_series(rng, 2)}")
    ok("cmp in B0 a0", {"contains": True})
    for i in range(3):
        ok(f"val a{i}")
        ok(f"residue a{i + 3}")
    ok("val f0")
    ok(f"expand a3 cutoff ({q(2, 6)})")
    ok(f"expand s0 cutoff ({q(2, 6)})")
    ok(f"classify Ce cutoff ({q(4, 8)})")
    ok(f"classify Cw cutoff ({q(4, 8)})")
    ok(f"classify Clo2 cutoff ({q(1, 3)})")
    ok("classify ball B1")
    ok("equiv Clo0 Chi0", {"equivalent": True})
    ok("equiv Clo0 Clo1", {"equivalent": False})
    ok("equiv ball B0 B1", {"equal": False})
    ok("embed exists R in F", {"exists": True})
    ok("embed exists Rn in Fn", {"exists": False})
    ok("embed principal R in F")
    ok("embed cut Clo1 from R into F as D1")
    ok("embed cut Cw from R into F as D2")
    ok("restrict cut D1 to R as D1r")
    ok("cmp cut D1r Clo1", {"order": "EQ"})
    ok("embed place P1 from R into F as P1F")
    ok("restrict place P2 to x as P2x")
    ok("restrict place P2 cut x as CX")
    ok("fiber Clo2 in F")
    ok("fiber Cp in F")
    ok("between complement B1 in F as BC")
    ok("between filler s0 over R")
    ok("between cuts Clo0 Clo1 as m01")
    ok("witness nonconvex Rn Fn")
    ok("witness three-case P2")
    ok("witness separate Cp Ctop var y")
    ok("witness distinguish P2 P3")
    # evaluations, each with a new function text
    series = lambda i: _series(rng, i % 3)
    # P1F evaluates in F(y): coefficients from the copy of R inside F
    series2 = lambda i: _series(rng, i % 3, lead="0,")
    # nonzero coefficients: a denominator never vanishes identically
    rational = lambda i: _num(Fraction(rng.choice([-1, 1]) * rng.randint(1, 6),
                                       rng.randint(1, 3)))
    targets = [("P1", ["y"], series), ("P1h", ["y"], series),
               ("Pp", ["y"], series), ("P1F", ["y"], series2),
               ("P2", ["x", "y"], rational), ("P2o", ["x", "y"], rational),
               ("P3w", ["x", "y"], rational), ("K1", ["x", "y"], rational),
               ("X1", ["y"], series), ("RL", ["x"], rational),
               ("G1", ["y"], series)]
    # every third line asks harrison, except at the Gauss place whose
    # values carry no order
    for k in range(N_EVALS):
        name, variables, coeff = targets[k % len(targets)]
        cmd = "harrison" if k % 3 == 2 and name != "G1" else "eval"
        ok(f"{cmd} {name} {_ratfun(rng, variables, coeff, k)}")
    # malformed lines and their stable codes
    bad = [("frobnicate 12", "unknown-command"),
           (f"val nosuch{rng.randint(0, 99)}", "unknown-name"),
           (f"def-elem zz in R = 1 + ({_coef(rng)}", "syntax"),
           ("def-elem a0 in R = 1", "duplicate-name"),
           ("cmp elem a0 v0", "field-mismatch"),
           ("between cuts Clo1 Clo0", "domain"),
           ("eval P1 (y + 1", "syntax")]
    defs = [i for i, (line, _) in enumerate(L) if line.startswith("def-")]
    after_defs = defs[-1] + 1
    for line, code in bad:
        L.insert(rng.randrange(after_defs, len(L) + 1),
                 (line, {"error": code}))
    # queries and evaluations in a seeded order after all definitions;
    # lines that bind a name ("as X") stay before the lines using X
    head, tail = L[:after_defs], L[after_defs:]
    rng.shuffle(tail)
    tail.sort(key=lambda item: _stage(item[0]))
    return head + tail


def _stage(line: str) -> int:
    """Order of binding: producers of D1, P1F, ... before their users."""
    if " as " in line and line.startswith(("embed", "restrict place",
                                           "between complement")):
        return 0
    if line.startswith("restrict cut D1") or "P1F" in line:
        return 1 if line.startswith("restrict") or "embed" in line else 2
    if "D1r" in line:
        return 2
    return 1


class _Holder:
    __slots__ = ("sess",)

    def __init__(self):
        self.sess = None


class Built:
    def __init__(self, rp, data: dict):
        self.rp = rp
        self.seed = data["seed"]
        cli = rp.cli
        holder = _Holder()
        seed = data["seed"]

        def line_op(text, first, expect):
            if first:
                holder.sess = cli.Session(seed=seed)
            record = cli.run(holder.sess, text)
            return record, cli.render_json(record)

        def make(sessions):
            # each session starts in a fresh Session
            return [("line", line_op, (text, i == 0, expect))
                    for lines in sessions
                    for i, (text, expect) in enumerate(lines)]

        sessions = data["sessions"]
        with_probes = list(sessions[0])
        for k, at in reversed(list(zip(range(len(PROBES)), data["probe_at"]))):
            with_probes.insert(at, (f"probe {PROBES[k]}", None))
        self.first = Pass("script+probes", make([with_probes] + sessions[1:]))
        self.steady = Pass("script", make(sessions))

    def same(self, kind: str, a, b) -> bool:
        return a[1] == b[1]

    def check(self, p: Pass, results: list) -> list:
        from harness import OpError
        bad = []
        probes = {}
        for i, ((_, _, (text, _, want)), r) in enumerate(zip(p.ops, results)):
            if isinstance(r, OpError):
                continue
            record, _ = r
            if text.startswith("probe "):
                probes[text[6:]] = r
                if "error" in record or not _probe_ok(record["result"]):
                    bad.append((i, "check-probe"))
                continue
            if want is not None and "error" in want:
                got = record.get("error", {}).get("code")
                if got != want["error"]:
                    bad.append((i, f"check-expected-{want['error']}"))
                continue
            if "error" in record:
                bad.append((i, f"cli-error-{record['error']['code']}"))
                continue
            if want is not None and any(record["result"].get(k) != v
                                        for k, v in want.items()):
                bad.append((i, "check-result"))
        if self.seed == 0 and len(probes) == len(PROBES):
            with open(GOLDEN, encoding="utf-8") as fh:
                golden = [line.rstrip("\n") for line in fh if line.strip()]
            for name, line in zip(PROBES, golden):
                if probes[name][1] != line:
                    bad.append((-1, "check-golden-probe"))
        return bad


def _probe_ok(res: dict) -> bool:
    """Violation, disagreement and failure counters of a probe are 0."""
    for key in ("violations", "oversized_classes", "disagreements",
                "order_violations", "section_failures", "law_failures"):
        if res.get(key, 0) != 0:
            return False
    circle = res.get("circle")
    if circle is not None and circle["matches"] != circle["total"]:
        return False
    return res.get("geometric_series_matches", True) is True
