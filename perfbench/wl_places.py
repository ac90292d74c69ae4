"""`places`: rational-function builds and their evaluation at places.

One op is one build of a rational function by RatFun arithmetic (degree at
most 3) or one ``eval_place``/``harrison`` call on a function built earlier
in the pass.  Two families:

* functions of y over PF (rank-1 lex over Q) with series coefficients,
  evaluated at both edge-cut places of four balls and at two principal-cut
  places (10 places);
* functions of x, y over Q with rational coefficients, evaluated at three
  stacked, three independent (weights 1, sqrt(2) and others) and three
  composed residue places over PF1 = Q((t)) (9 places).

Every function is evaluated at every place of its family, so evaluation
dominates: ``Poly.evaluate``, products with large intermediates, and
``lift`` into the realisation fields.
"""
from __future__ import annotations

import random
from fractions import Fraction

from harness import Pass, check_each

N_UNI = 36            # functions of y per pass
N_BI = 36             # functions of x, y per pass (two are stacked checks)
# outermost eval_place and harrison calls in in-repo use (``census.py``:
# the eleven probes, the acceptance and the CLI tests); a harrison call
# counts once, not also as the eval_place it makes
CENSUS = {"eval_place": 1916, "harrison": 612}
HARRISON_SHARE = CENSUS["harrison"] / sum(CENSUS.values())


def _q(rng, lo=-4, hi=4, dens=(1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _nz(rng) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 2))


def _series(rng, nterms: int) -> list:
    """nterms terms (exponent, coefficient) of an element of PF."""
    exps = rng.sample([Fraction(k, 2) for k in range(-2, 5)], nterms)
    return [(e, _nz(rng)) for e in sorted(exps)]


# A seed draws values only; the shapes below cycle identically for every
# seed, so two seeds cost the same up to the values drawn.
DEGREES = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3),
           (3, 3))


def _uni_poly(rng, deg: int, monic: bool, salt: int) -> dict:
    """All coefficients present; 1 or 2 terms each, alternating."""
    out = {}
    for k in range(deg + 1):
        out[k] = [(Fraction(0), Fraction(1))] if (k == deg and monic) \
            else _series(rng, 1 + (k + salt) % 2)
    return out


def _bi_poly(rng, deg: int) -> dict:
    """deg + 1 monomials of total degree at most deg, one of them of
    degree deg."""
    monos = [(i, j) for i in range(deg + 1) for j in range(deg + 1 - i)]
    top = [(i, j) for i, j in monos if i + j == deg]
    first = rng.choice(top)
    rest = rng.sample([m for m in monos if m != first], deg)
    return {k: _nz(rng) for k in [first] + rest}


def generate(seed: int) -> dict:
    rng = random.Random(f"{seed}:places")
    # every evaluation at a place pays for its realisation, so the places'
    # shapes are fixed too: ball i is centred at i + c t^(1/2) with radius
    # above (i + 1)/2, composed place k sends x, y to a + t^kx, b + t^ky
    balls = [(i, _nz(rng), Fraction(1, 2), Fraction(i + 1, 2))
             for i in range(4)]
    principal = [Fraction(10) + _q(rng, 0, 3), Fraction(-10) + _q(rng, 0, 3)]
    stacked = [(_q(rng), _q(rng), order) for order in ("yx", "xy", "xy")]
    weights = [("1", "sqrt2"), ("sqrt2", "1"), ("1", "1+sqrt2")]
    independent = [(_q(rng), _q(rng), w) for w in weights]
    composed = [(_q(rng), _q(rng), kx, ky) for kx, ky in ((1, 2), (2, 1),
                                                           (1, 3))]
    uni = []
    for j in range(N_UNI):
        dn, dd = DEGREES[j % len(DEGREES)]
        uni.append({"num": _uni_poly(rng, dn, False, j),
                    "den": _uni_poly(rng, dd, j % 2 == 0, j + 1)})
    bi = []
    for j in range(N_BI):
        if j < 2:
            bi.append({"stacked_check": 2 + j})
        else:
            dn, dd = DEGREES[j % len(DEGREES)]
            bi.append({"num": _bi_poly(rng, dn), "den": _bi_poly(rng, dd)})
    order = []
    for fam, n, places in (("uni", N_UNI, 10), ("bi", N_BI, 9)):
        for j in range(n):
            evals = list(range(places))
            rng.shuffle(evals)
            har = set(rng.sample(evals, round(places * HARRISON_SHARE)))
            order.append((fam, j, [(p, p in har) for p in evals]))
    rng.shuffle(order)
    return {"balls": balls, "principal": principal, "stacked": stacked,
            "independent": independent, "composed": composed, "uni": uni,
            "bi": bi, "order": order}


class _Slot:
    """Holds the function a build op made, for the evaluations after it."""

    __slots__ = ("f",)

    def __init__(self):
        self.f = None


class Built:
    def __init__(self, rp, data: dict):
        self.rp = rp
        of, vg, pl, rf = rp.ordfield, rp.valgroup, rp.places, rp.ratfun
        QuadExt = rp.coeff.QuadExt
        cu, ba = rp.cuts, rp.balls
        PF = of.FieldDescriptor("PF", None, vg.ValueGroup(vg.LEX, 1))
        Q0 = of.FieldDescriptor("PQ", None, vg.ValueGroup(vg.LEX, 0))
        PF1 = Q0.extend_group("PF1", vg.ValueGroup(vg.LEX, 1), ())
        self.PF, self.Q0, self.PF1 = PF, Q0, PF1

        def series(terms):
            x = PF.zero()
            for e, c in terms:
                x = x + PF.monomial(PF.group.elem(e), c)
            return x

        uni_places, self.edge_pairs = [], []
        for i, c, shift, r in data["balls"]:
            center = PF.const(Fraction(i)) + \
                PF.monomial(PF.group.elem(shift), c)
            B = ba.Ball(PF, center, PF.group.seg_above(PF.group.elem(r)))
            lo = pl.place_from_cut(cu.cut_edge(B, vg.LOWER), "y")
            hi = pl.place_from_cut(cu.cut_edge(B, vg.UPPER), "y")
            self.edge_pairs.append((len(uni_places), len(uni_places) + 1))
            uni_places += [lo, hi]
        for a in data["principal"]:
            C = cu.cut_principal(PF.const(a), vg.UPPER)
            uni_places.append(pl.place_from_cut(C, "y"))
        bi_places, self.centers = [], []    # centres (x, y) per place
        for a, b, order in data["stacked"]:
            items = [("x", Q0.const(a)), ("y", Q0.const(b))]
            self.centers.append((items[0][1], items[1][1]))
            if order == "yx":
                items.reverse()
            bi_places.append(pl.stacked_place(Q0, items))
        w = {"1": QuadExt(1), "sqrt2": QuadExt.sqrt(2),
             "1+sqrt2": QuadExt(1, 1, 2)}
        for a, b, (wx, wy) in data["independent"]:
            x, y = Q0.const(a), Q0.const(b)
            bi_places.append(pl.independent_place(
                Q0, [("x", x), ("y", y)], (w[wx], w[wy])))
            self.centers.append((x, y))
        zeta = pl.ResiduePlace(PF1)
        self.zeta = zeta
        t = PF1.monomial(PF1.group.elem(1))
        for a, b, kx, ky in data["composed"]:
            x1 = PF1.const(a) + t ** kx
            y1 = PF1.const(b) + t ** ky
            bi_places.append(pl.rational_place_compose(
                [("x", x1), ("y", y1)], zeta))
            self.centers.append((x1, y1))
        self.uni_places, self.bi_places = uni_places, bi_places
        a0, b0, _ = data["stacked"][0]

        def build_uni(spec):
            y = rf.RatFun.var(PF, ("y",), "y")

            def poly(p):
                out = rf.RatFun.const(PF, ("y",), 0)
                for k, terms in sorted(p.items()):
                    out = out + rf.RatFun.const(PF, ("y",), series(terms)) \
                        * y ** k
                return out
            return poly(spec["num"]) / poly(spec["den"])

        def build_bi(spec):
            V = ("x", "y")
            x = rf.RatFun.var(Q0, V, "x")
            y = rf.RatFun.var(Q0, V, "y")
            if "stacked_check" in spec:
                # (x - a + (y - b)^n) / (x - a) -> 1 where y is
                # infinitely closer to b than x is to a
                dx = x - Q0.const(a0)
                return (dx + (y - Q0.const(b0)) ** spec["stacked_check"]) \
                    / dx

            def poly(p):
                out = rf.RatFun.const(Q0, V, 0)
                for (i, j), c in sorted(p.items()):
                    out = out + rf.RatFun.const(Q0, V, c) * x ** i * y ** j
                return out
            return poly(spec["num"]) / poly(spec["den"])

        def build(make, spec, slot):
            slot.f = make(spec)
            return slot.f

        def ev(place, slot):
            return pl.eval_place(place, slot.f)

        def har(place, slot):
            return pl.harrison(place, slot.f)

        ops = []
        self.meta = []        # per op: (family, function index, place index)
        for fam, j, evals in data["order"]:
            slot = _Slot()
            spec = data[fam][j]
            make = build_uni if fam == "uni" else build_bi
            places = uni_places if fam == "uni" else bi_places
            ops.append(("build", build, (make, spec, slot)))
            self.meta.append((fam, j, None))
            for k, is_har in evals:
                ops.append(("harrison" if is_har else "eval",
                            har if is_har else ev, (places[k], slot)))
                self.meta.append((fam, j, k))
        self.first = Pass("places", ops)
        self.steady = self.first

    # -- checks ---------------------------------------------------------

    def same(self, kind: str, a, b) -> bool:
        if kind == "eval":
            return str(a) == str(b)
        return a == b

    def check(self, p: Pass, results: list) -> list:
        pl = self.rp.places
        funcs, values = {}, {}
        for (kind, _, _), meta, r in zip(p.ops, self.meta, results):
            if kind == "build":
                funcs[meta[:2]] = r
            elif kind == "eval":
                values[meta] = r

        def value(fam, j, k):
            if (fam, j, k) not in values:
                places = self.uni_places if fam == "uni" else self.bi_places
                values[fam, j, k] = pl.eval_place(places[k], funcs[fam, j])
            return values[fam, j, k]

        def ok(i, kind, args, r) -> bool:
            fam, j, k = self.meta[i]
            if kind == "build":
                return r.variables == (("y",) if fam == "uni"
                                       else ("x", "y"))
            v = value(fam, j, k)
            if kind == "harrison" and \
                    r != (v.is_finite() and v.sign() > 0):
                return False
            if fam == "uni":
                for lo, hi in self.edge_pairs:
                    if k in (lo, hi):
                        # the two edges of one ball give one place
                        return str(value(fam, j, lo)) == \
                            str(value(fam, j, hi))
                return True
            if j < 2 and k == 0:
                return str(v) == "1"
            # away from a pole of f at the centres, every place here gives
            # the residue of f at the centres: for the composed places that
            # is ResiduePlace.eval of eval_at
            x, y = self.centers[k]
            image = funcs[fam, j].eval_at({"x": x, "y": y})
            if isinstance(image, self.rp.ratfun.PoleMarker):
                return True        # 0/0 or a pole: the approach decides
            return str(v) == str(self.zeta.eval(image))

        return check_each(p, results, ok)
