"""`cuts`: order queries on a fixed population of cuts.

The base field R (rank-1 lex over Q) is the convex subfield on the last
coordinate of F2 (rank-2 lex, a group extension of R).  F2 is extended by
sqrt(2) coefficients to W2, and W2 by an adjoined infinitesimal to E, so
the tower is R < F2 < W2 < E.  The population holds cuts of R of every
kind: ball edges, principal a+/a-, +inf/-inf and fillers from F2 (one of
them beyond every element of R), W2 and E; pair queries draw both cuts from
all of it.  A second, smaller population holds cuts of F2 for
``restrict``.  Half of
the sqrt(2) fillers are written in W2 and half in E, so filler pairs cross
fields and comparisons go through the embedding lookups.  Cuts recur
across queries.
"""
from __future__ import annotations

import functools
import random
from fractions import Fraction

from harness import Pass, census_mix, check_each

# outermost calls of each query in in-repo use (``census.py``: the eleven
# probes, the acceptance and the CLI tests); the op mix follows them, with
# a rarer kind raised to 1% before the shares are renormalised
CENSUS = {"cut_cmp": 13387, "equivalent": 12003, "side_of": 15,
          "classify": 6, "find_between": 24, "restrict": 668, "fiber": 21,
          "iota_tilde": 202, "between_ball": 32}
MIX = census_mix(CENSUS, 0.01)
OPS_PER_PASS = 2400
N_ELEMS = 12          # elements of R used by side_of, plus two per ball
N_BALLS = 8           # each gives both edges
N_PRINCIPAL = 4       # each gives a+ and a-
N_W2 = 10             # fillers with a sqrt(2) coefficient (non-ball cuts)
CLASSIFY_AT = 8       # classify cutoff: past every sqrt(2) obstruction
N_F2_CUTS = 8         # population of F2 cuts for restrict


def _frac(rng, lo=-6, hi=6, dens=(1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _nonzero(rng) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 7),
                    rng.randint(1, 4))


def _r_elem(rng, nterms) -> list:
    """Terms ((q,), (a, 0)) of an element of R; distinct exponents."""
    exps = set()
    while len(exps) < nterms:
        exps.add(_frac(rng, -2, 6))
    return [((q,), (_nonzero(rng), Fraction(0))) for q in sorted(exps)]


def _f2_elem(rng, nterms) -> list:
    exps = set()
    while len(exps) < nterms:
        exps.add((Fraction(rng.randint(-1, 1)), _frac(rng, -2, 6)))
    return [(e, (_nonzero(rng), Fraction(0))) for e in sorted(exps)]


def _w2_filler(rng, i: int) -> tuple:
    """An element of R (1-3 terms) plus (a + b sqrt(2)) t^q past its last
    exponent, so the analysis always peels every term of R first."""
    base = _r_elem(rng, 1 + i % 3)
    q = base[-1][0][0] + Fraction(rng.randint(1, 3), 2)
    a = _nonzero(rng) if i % 2 else Fraction(0)
    return ("W2", base, ((Fraction(0), q), (a, _nonzero(rng))))


def generate(seed: int) -> dict:
    rng = random.Random(f"{seed}:cuts")
    elems = [_r_elem(rng, 1 + i % 3) for i in range(N_ELEMS)]
    balls = []
    for i in range(N_BALLS):
        q = _frac(rng, 0, 4)
        balls.append({"center": _r_elem(rng, 1 + i % 3),
                      "radius": ("above", "at-least")[i % 2],
                      "q": q})
    principal = [_r_elem(rng, 1 + i % 2) for i in range(N_PRINCIPAL)]
    eps_q = _frac(rng, 0, 3)
    fillers = [
        # F2: a term infinitesimal with respect to R (first coordinate 1)
        ("F2", _r_elem(rng, 2), ((Fraction(1), _frac(rng)),
                                 (_nonzero(rng), Fraction(0)))),
        ("F2", _r_elem(rng, 1), ((Fraction(1), _frac(rng)),
                                 (_nonzero(rng), Fraction(0)))),
        # F2: a term infinite with respect to R (first coordinate -1), so
        # the filler lies beyond every element of R
        ("F2", _r_elem(rng, 1), ((Fraction(-1), _frac(rng)),
                                 (_nonzero(rng), Fraction(0)))),
        # W2: a sqrt(2) coefficient on an exponent of R
    ] + [_w2_filler(rng, i) for i in range(N_W2)] + [
        # E: plus or minus the adjoined infinitesimal
        ("E", _r_elem(rng, 2), rng.choice([-1, 1])),
        ("E", _r_elem(rng, 1), rng.choice([-1, 1])),
    ]
    f2_cuts = []
    for i in range(N_F2_CUTS):
        form = ("edge", "principal", "fillerW2", "fillerE")[i % 4]
        f2_cuts.append({"form": form, "center": _f2_elem(rng, 2),
                        "q": (Fraction(rng.randint(0, 1)), _frac(rng, 0, 4)),
                        "side": rng.choice([-1, 1]),
                        "extra": (_frac(rng, 0, 4), _nonzero(rng))})
    # Picks are spread evenly over each list of candidates (u and v are
    # seeded permutations of equally spaced points), so every seed asks
    # the same number of queries of each cut kind.
    ops = []
    for kind, share in MIX.items():
        n = round(OPS_PER_PASS * share)
        us = [(k + 0.5) / n for k in range(n)]
        vs = list(us)
        rng.shuffle(us)
        rng.shuffle(vs)
        for k in range(n):
            ops.append((kind, us[k], vs[k]))
    rng.shuffle(ops)
    return {"elems": elems, "balls": balls, "principal": principal,
            "eps_q": eps_q, "fillers": fillers, "f2_cuts": f2_cuts,
            "ops": ops}


def _pick(seq, u: float):
    return seq[int(u * len(seq))]


class Built:
    def __init__(self, rp, data: dict):
        self.rp = rp
        of, vg, cu, ba = rp.ordfield, rp.valgroup, rp.cuts, rp.balls
        QuadExt = rp.coeff.QuadExt
        LOWER, UPPER = vg.LOWER, vg.UPPER
        F2 = of.FieldDescriptor("F2", None, vg.ValueGroup(vg.LEX, 2))
        R = F2.subfield("R", (1,))
        W2 = F2.extend_coeff("W2", 2)
        E, eps = of.adjoin_infinitesimal(
            W2, W2.group.above(W2.group.elem(0, data["eps_q"])), 1, "E")
        self.R, self.F2 = R, F2
        self.ctx = rp.embed.EmbeddingContext(R, F2)

        def elem(F, terms):
            x = F.zero()
            for e, (a, b) in terms:
                x = x + F.monomial(F.group.elem(*e),
                                   QuadExt(a, b, 2 if b else None))
            return x

        def lift_r(terms, F):
            """An element of R written in F2 coordinates (0, q)."""
            return elem(F, [((Fraction(0),) + e, c) for e, c in terms])

        elems = [elem(R, t) for t in data["elems"]]
        balls = []
        for spec in data["balls"]:
            c = elem(R, spec["center"])
            g = R.group.elem(spec["q"])
            seg = R.group.seg_above(g) if spec["radius"] == "above" \
                else R.group.seg_at_least(g)
            B = ba.Ball(R, c, seg)
            balls.append(B)
            inner = R.group.elem(spec["q"] + 1)
            outer = R.group.elem(spec["q"] - 1)
            elems.append(c + R.monomial(inner))
            elems.append(c - R.monomial(outer))
        pop = []
        for B in balls:
            pop.append(cu.cut_edge(B, LOWER))
            pop.append(cu.cut_edge(B, UPPER))
        for t in data["principal"]:
            a = elem(R, t)
            pop.append(cu.cut_principal(a, LOWER))
            pop.append(cu.cut_principal(a, UPPER))
        pop.append(cu.cut_minus_inf(R))
        pop.append(cu.cut_plus_inf(R))
        fillers = []          # (cut, kind of filler)
        for k, (where, base, extra) in enumerate(data["fillers"]):
            if where == "E":
                g = of.lift(lift_r(base, W2), E) + extra * eps
            else:
                F = F2 if where == "F2" else W2
                g = lift_r(base, F) + elem(F, [extra])
                if where == "W2" and k % 2:
                    # the same kind of filler written in E: pairs of
                    # sqrt(2) fillers then cross fields
                    g = of.lift(g, E)
            fillers.append((cu.cut_filler(g, LOWER, R), where))
        fillers_all = [C for C, _ in fillers]
        pop += fillers_all
        self.pop = pop
        self.elems = elems
        f2pop = []
        for spec in data["f2_cuts"]:
            c = elem(F2, spec["center"])
            side = spec["side"]
            if spec["form"] == "edge":
                B = ba.Ball(F2, c, F2.group.seg_above(
                    F2.group.elem(*spec["q"])))
                f2pop.append(cu.cut_edge(B, side))
            elif spec["form"] == "principal":
                f2pop.append(cu.cut_principal(c, side))
            elif spec["form"] == "fillerW2":
                q, a = spec["extra"]
                g = elem(W2, spec["center"]) + W2.monomial(
                    W2.group.elem(0, q), QuadExt(0, a, 2))
                f2pop.append(cu.cut_filler(g, side, F2))
            else:
                g = of.lift(c, E) + spec["side"] * eps
                f2pop.append(cu.cut_filler(g, side, F2))
        self.f2pop = f2pop
        # cuts of R whose fibers in F2 are defined: fiber() of a filler cut
        # needs the filler inside F2.  NonBallWithFiller takes non-ball
        # cuts: the sqrt(2) fillers.
        fiberable = [C for C in pop if C.kind != "filler"] + \
            [C for C, where in fillers if where == "F2"]
        between_specs = [ba.BallComplement(B) for B in balls] + \
            [ba.NonBallWithFiller(R, C.g) for C, where in fillers
             if where == "W2"]
        order = sorted(range(len(pop)), key=functools.cmp_to_key(
            lambda i, j: cu.cut_cmp(pop[i], pop[j])))
        ordered_pairs = []
        for a in range(len(order)):
            for b in range(a + 1, len(order)):
                i, j = order[a], order[b]
                if cu.cut_cmp(pop[i], pop[j]) < 0:
                    ordered_pairs.append((pop[i], pop[j]))
        fn = {
            "cut_cmp": lambda C1, C2: cu.cut_cmp(C1, C2),
            "equivalent": lambda C1, C2: cu.equivalent(C1, C2),
            "side_of": lambda C, x: cu.side_of(C, x),
            "classify": lambda C, prec: cu.classify(C, prec),
            "find_between": lambda C1, C2: cu.find_between(C1, C2),
            "restrict": lambda D, sub: cu.restrict(D, sub),
            "fiber": lambda C, big: cu.fiber(C, big),
            "iota_tilde": lambda C, ctx: rp.embed.iota_tilde(C, ctx),
            "between_ball": lambda spec, amb: ba.between_ball(spec,
                                                             ambient=amb),
        }
        ops = []
        for kind, u, v in data["ops"]:
            if kind in ("cut_cmp", "equivalent"):
                args = (_pick(pop, u), _pick(pop, v))
            elif kind == "side_of":
                args = (_pick(pop, u), _pick(elems, v))
            elif kind == "classify":
                # other kinds classify without analysis; the cutoff is past
                # every sqrt(2) obstruction and below every F2 one, so
                # both certificates and unknowns occur for every seed
                args = (_pick(fillers_all, u), R.group.elem(CLASSIFY_AT))
            elif kind == "find_between":
                args = _pick(ordered_pairs, u)
            elif kind == "restrict":
                args = (_pick(f2pop, u), R)
            elif kind == "fiber":
                args = (_pick(fiberable, u), F2)
            elif kind == "iota_tilde":
                args = (_pick(pop, u), self.ctx)
            else:
                spec = _pick(between_specs, u)
                amb = F2 if isinstance(spec, ba.BallComplement) else None
                args = (spec, amb)
            ops.append((kind, fn[kind], args))
        self.first = Pass("cuts", ops)
        self.steady = self.first
        self.rank = {}

    # -- checks ---------------------------------------------------------

    def same(self, kind: str, a, b) -> bool:
        if kind == "classify":
            return (a.kind, str(getattr(a, "side", ""))) == \
                (b.kind, str(getattr(b, "side", "")))
        if hasattr(a, "describe"):
            return repr(a.describe()) == repr(b.describe())
        return a == b

    def check(self, p: Pass, results: list) -> list:
        cu = self.rp.cuts
        # Sort the population, then compare every pair both ways: the
        # answers must match the sorted classes, which makes cut_cmp
        # antisymmetric and transitive on it.
        pop = self.pop
        srt = sorted(pop, key=functools.cmp_to_key(cu.cut_cmp))
        cls, k = {}, 0
        for a, C in enumerate(srt):
            if a and cu.cut_cmp(srt[a - 1], C) != 0:
                k += 1
            cls[id(C)] = k
        self.rank = cls
        broken = 0
        for a, C in enumerate(srt):
            for D in srt[a + 1:]:
                want = -1 if cls[id(C)] < cls[id(D)] else 0
                if cu.cut_cmp(C, D) != want or cu.cut_cmp(D, C) != -want:
                    broken += 1
        out = check_each(p, results, lambda i, kind, args, r: self._ok(
            kind, args, r))
        if broken:
            out.append((-1, "check-order-transitivity"))
        return out

    def _ok(self, kind, args, r) -> bool:
        rp = self.rp
        cu, vg = rp.cuts, rp.valgroup
        R = self.R
        if kind == "cut_cmp":
            C1, C2 = args
            r1, r2 = self.rank.get(id(C1)), self.rank.get(id(C2))
            if r1 is not None and r2 is not None and \
                    r != (r1 > r2) - (r1 < r2):
                return False
            return r in (-1, 0, 1) and cu.cut_cmp(C2, C1) == -r
        if kind == "equivalent":
            C1, C2 = args
            return r == cu.equivalent(C2, C1) and \
                (r or cu.cut_cmp(C1, C2) != 0)
        if kind == "side_of":
            C, x = args
            up = cu.cut_principal(x, vg.UPPER)
            return r == (cu.BELOW if cu.cut_cmp(up, C) <= 0 else cu.ABOVE)
        if kind == "classify":
            C = args[0]
            if r.kind == "principal":
                return cu.cut_cmp(C, cu.cut_principal(r.element,
                                                      r.side)) == 0
            if r.kind == "ball":
                return cu.cut_cmp(C, cu.cut_edge(r.ball, r.side)) == 0
            if r.kind == "non_ball":
                return C.kind == "filler" and \
                    len(r.certificate.refutations) > 0
            return C.kind == "filler"
        if kind == "find_between":
            C1, C2 = args
            return cu.side_of(C1, r) == cu.ABOVE and \
                cu.side_of(C2, r) == cu.BELOW
        if kind == "restrict":
            D = args[0]
            return r.field is R and all(
                cu.side_of(D, x) == cu.side_of(r, x) for x in self.elems)
        if kind == "fiber":
            C = args[0]
            return cu.cut_cmp(r.lower, r.upper) <= 0 and \
                cu.cut_cmp(cu.restrict(r.lower, R), C) == 0 and \
                cu.cut_cmp(cu.restrict(r.upper, R), C) == 0
        if kind == "iota_tilde":
            C = args[0]
            return r.field is self.F2 and \
                cu.cut_cmp(cu.restrict(r, R), C) == 0
        if kind == "between_ball":
            spec = args[0]
            lo = cu.restrict(cu.cut_edge(r, vg.LOWER), R)
            hi = cu.restrict(cu.cut_edge(r, vg.UPPER), R)
            if isinstance(spec, rp.balls.BallComplement):
                B0 = spec.ball
                return cu.cut_cmp(lo, cu.cut_edge(B0, vg.LOWER)) == 0 and \
                    cu.cut_cmp(hi, cu.cut_edge(B0, vg.UPPER)) == 0
            C = cu.cut_filler(spec.filler, vg.LOWER, R)
            return cu.cut_cmp(lo, C) == 0 and cu.cut_cmp(hi, C) == 0
        return False

