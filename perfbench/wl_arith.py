"""`arith`: single FieldElement calls on a fixed operand pool.

One op is one of ``+ - * /``, ``cmp``, ``val``, ``residue`` or ``expand``
on elements of one of five fields; both operands always come from the same
field, so no embedding lookup happens.  Nearly all time goes to ``coeff``,
``valgroup`` and ``ordfield``.
"""
from __future__ import annotations

import operator
import random
from fractions import Fraction

from harness import Pass, census_mix, check_each

# name, coefficient radicand, group kind, rank, share of ops (per 100).
# The field shares are a chosen weighting, not observed traffic: the five
# fields weigh alike except Q(sqrt 1000003), a minority of ops.
FIELDS = (
    ("lex1", None, "lex", 1, 25),
    ("lex2", None, "lex", 2, 25),
    ("sqrt2", 2, "lex", 1, 20),
    ("sqrtbig", 1000003, "lex", 1, 5),
    ("weighted", None, "weighted", 2, 25),
)
# FieldElement calls of each kind in in-repo use (``census.py``: the eleven
# probes, the acceptance and the CLI tests); the op mix follows them, with
# a rarer kind raised to 1% before the shares are renormalised
CENSUS = {"add": 53254, "sub": 113102, "mul": 84307, "div": 7314,
          "cmp": 24950, "val": 68259, "residue": 2824, "expand": 112}
MIX = census_mix(CENSUS, 0.01)
# A seed draws values only.  Shapes (term counts, which coefficients are
# irrational, which operands meet how often) are the same for every seed,
# so two seeds cost the same up to the values drawn.
POOL_SUMS = 32        # elements with 1-4 terms (8 of each) and denominator 1
POOL_QUOTIENTS = 8    # (1 or 2 terms) / (1 + c t^g), g > 0
OPS_PER_PASS = 2000   # (field, kind) counts are fixed: field share x kind share
STEPS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


def _coeff(rng: random.Random, d, irrational: bool):
    a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
    if d is None or not irrational:
        return (a, Fraction(0))
    return (a, Fraction(rng.choice([-1, 1]) * rng.randint(1, 5),
                        rng.randint(1, 3)))


def _exponent(rng: random.Random, kind: str, rank: int, positive=False):
    while True:
        if kind == "weighted":
            lo = 0 if positive else -2
            e = tuple(Fraction(rng.randint(lo, 4), rng.choice([1, 2]))
                      for _ in range(rank))
        else:
            e = tuple(Fraction(rng.randint(-4, 6), rng.choice([1, 2, 3]))
                      for _ in range(rank))
        if not positive:
            return e
        if kind == "weighted" and any(e) and min(e) >= 0:
            return e
        if kind == "lex" and e > (Fraction(0),) * rank:
            return e


def _terms(rng: random.Random, field: tuple, n: int, parity: int) -> list:
    """n terms with distinct exponents; every other one irrational."""
    _, d, kind, rank, _ = field
    seen, out = set(), []
    while len(out) < n:
        e = _exponent(rng, kind, rank)
        if e not in seen:
            seen.add(e)
            out.append((e, _coeff(rng, d, (len(out) + parity) % 2 == 0)))
    return out


def generate(seed: int) -> dict:
    rng = random.Random(f"{seed}:arith")
    pools = {}
    for field in FIELDS:
        name, d, kind, rank, _ = field
        pool = []
        for i in range(POOL_SUMS):
            pool.append({"num": _terms(rng, field, 1 + i % 4, i // 4),
                         "den": None})
        for i in range(POOL_QUOTIENTS):
            pool.append({"num": _terms(rng, field, 1 + i % 2, i // 2),
                         "den": (_exponent(rng, kind, rank, positive=True),
                                 _coeff(rng, d, i % 4 < 2))})
        rng.shuffle(pool)
        pools[name] = pool
    ops = []
    for fname, _, _, _, fshare in FIELDS:
        size = len(pools[fname])
        for kind, kshare in MIX.items():
            # each element is the first operand equally often, and the
            # second operand equally often, in a seeded pairing
            firsts = list(range(size))
            seconds = list(range(size))
            rng.shuffle(firsts)
            rng.shuffle(seconds)
            for k in range(round(OPS_PER_PASS * fshare / 100 * kshare)):
                ops.append((fname, kind, firsts[k % size],
                            seconds[(k + k // size) % size],
                            STEPS[k % len(STEPS)]))
    rng.shuffle(ops)
    return {"pools": pools, "ops": ops}


_FN = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
       "div": operator.truediv, "cmp": lambda x, y: x.cmp(y),
       "val": lambda x: x.val(), "residue": lambda x: x.residue(),
       "expand": lambda x, cutoff: x.expand(cutoff)}


def _rep(h) -> dict:
    """Exponents and coefficient parts of a HahnSum, compared as stored
    (comparing QuadExt values would compute their differences)."""
    return {e: (c.a, c.b, c.d) for e, c in h.terms.items()}


class Built:
    def __init__(self, rp, data: dict):
        self.rp = rp
        QuadExt = rp.coeff.QuadExt
        vg = rp.valgroup
        self.fields = {}
        self.pools = {}
        for name, d, kind, rank, _ in FIELDS:
            if kind == "weighted":
                group = vg.ValueGroup(vg.WEIGHTED, rank,
                                      (QuadExt(1), QuadExt.sqrt(2)))
            else:
                group = vg.ValueGroup(vg.LEX, rank)
            F = rp.ordfield.FieldDescriptor(name, d, group)
            self.fields[name] = F

            def elem(terms):
                x = F.zero()
                for e, (a, b) in terms:
                    x = x + F.monomial(group.elem(*e),
                                       QuadExt(a, b, d if b else None))
                return x

            pool = []
            for spec in data["pools"][name]:
                x = elem(spec["num"])
                if spec["den"] is not None:
                    e, c = spec["den"]
                    x = x / (F.one() + elem([(e, c)]))
                pool.append(x)
            self.pools[name] = pool
        ops = []
        for fname, kind, i, j, step in data["ops"]:
            F = self.fields[fname]
            x, y = self.pools[fname][i], self.pools[fname][j]
            if kind in ("val", "residue"):
                args = (x,)
            elif kind == "expand":
                # a step along the least significant direction keeps the
                # number of terms under the cutoff finite in every group
                g = F.group
                coords = [0] * g.rank
                coords[-1 if g.kind == "lex" else 0] = step
                args = (x, x.val() + g.elem(*coords))
            else:
                args = (x, y)
            ops.append((kind, _FN[kind], args))
        self.first = Pass("arith", ops)
        self.steady = self.first

    def same(self, kind: str, a, b) -> bool:
        """The same representation: a later pass makes the same calls on
        the same operands, so it must give back the same numerator and
        denominator, not merely an equal element."""
        if kind in ("add", "sub", "mul", "div"):
            return _rep(a.num) == _rep(b.num) and _rep(a.den) == _rep(b.den)
        return a == b

    def check(self, p: Pass, results: list) -> list:
        """(op index, reason) for every result that fails its check."""
        INF = self.rp.ordfield.INF
        return check_each(p, results,
                          lambda i, kind, args, r: self._ok(kind, args, r, INF))

    def _ok(self, kind, args, r, INF) -> bool:
        x = args[0]
        F = x.field
        if kind == "add":
            return r - args[1] == x
        if kind == "sub":
            return r + args[1] == x
        if kind == "mul":
            return r.val() == x.val() + args[1].val()
        if kind == "div":
            return r * args[1] == x
        if kind == "cmp":
            return r in (-1, 0, 1) and r == -args[1].cmp(x)
        if kind == "val":
            return (x / F.monomial(r)).val().is_zero()
        if kind == "residue":
            s = x.val().sign()
            if r is INF:
                return s < 0
            d = x - F.const(r)
            return s >= 0 and (d.is_zero() or d.val().sign() > 0)
        if kind == "expand":
            terms, more = r
            cutoff = args[1]
            G = F.group
            partial = F.zero()
            for coords, c in terms.terms.items():
                g = G.elem(*coords)
                if g.cmp(cutoff) > 0:
                    return False
                partial = partial + F.monomial(g, c)
            d = x - partial
            if more:
                return not d.is_zero() and d.val().cmp(cutoff) > 0
            return d.is_zero()
        return False
