"""Tests for places of rational function fields: construction from cuts,
realized multi-variable places, Gauss-type places, and the searches."""
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ratfun_reference import (evaluate_per_term, gauss_value_by_polys,
                              place_value_by_objects)
import rplaces.cuts as cuts_module
import rplaces.places as places_module
import rplaces.ratfun as ratfun_module
from rplaces.coeff import QuadExt
from rplaces.valgroup import LEX, LOWER, UPPER, WEIGHTED, ValueGroup
from rplaces.ordfield import INF, FieldDescriptor, FieldMismatchError, lift
from rplaces.ratfun import (POLE, Poly, RatFun, _homogeneous, _leading_sums,
                            _substitution, format_ratfun, parse_ratfun)
from rplaces.balls import Ball
from rplaces.cuts import (cut_cmp, cut_edge, cut_filler, cut_minus_inf,
                          cut_plus_inf, cut_principal, equivalent)
from rplaces.places import (PlaceValue, ResiduePlace, RPlace,
                            constant_ext_embed, distinguish_stacked_independent,
                            eval_place, find_separating_function,
                            gauss_extension, harrison, induced_cut,
                            independent_place, place_from_cut, place_restrict,
                            rational_place_compose, realized_place,
                            stacked_place, three_case_witness)

SQRT2 = QuadExt(0, 1, 2)


def constants(name="Q"):
    return FieldDescriptor(name, None, ValueGroup(LEX, 0))


def rational_field(name="R"):
    return FieldDescriptor(name, None, ValueGroup(LEX, 1))


def sqrt2_pair():
    R = rational_field()
    R2 = R.extend_coeff("R2", 2)
    return R, R2, R2.const(SQRT2)


def rf(text, field, variables=("y",)):
    return parse_ratfun(text, field, variables)


def random_poly(rng, field, variables, degree=3):
    n = len(variables)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = tuple(rng.randint(0, degree) for _ in range(n))
        terms[key] = field.const(rng.randint(-5, 5))
    return Poly(field, variables, terms)


def random_ratfun(rng, field, variables):
    num = random_poly(rng, field, variables)
    den = random_poly(rng, field, variables)
    while den.is_zero():
        den = random_poly(rng, field, variables)
    return RatFun(num, den)


class TestPlaceValue:
    def test_infinite(self):
        v = PlaceValue.infinite()
        assert v.is_infinite() and not v.is_finite() and not v.is_zero()
        assert str(v) == "inf"
        with pytest.raises(ValueError):
            v.sign()

    def test_finite(self):
        v = PlaceValue(QuadExt(Fraction(-3, 2)))
        assert v.is_finite() and v.sign() == -1 and str(v) == "-3/2"
        assert PlaceValue(QuadExt(0)).is_zero()
        assert v != PlaceValue.infinite()
        assert v == PlaceValue(QuadExt(Fraction(-3, 2)))

    def test_gauss_value_has_no_sign(self):
        k = constants()
        v = PlaceValue(rf("y + 1", k))
        assert v.is_finite() and not v.is_zero()
        assert str(v) == "y + 1"
        with pytest.raises(ValueError):
            v.sign()


class TestResiduePlace:
    def test_residues(self):
        R = rational_field()
        t = R.monomial(R.group.elem(1))
        zeta = ResiduePlace(R)
        assert zeta.eval(R.const(5)) == PlaceValue(QuadExt(5))
        assert zeta.eval(t + 3) == PlaceValue(QuadExt(3))
        assert zeta.eval(t).is_zero()
        assert zeta.eval(1 / t).is_infinite()

    def test_lifts_from_subfield(self):
        R, R2, rt2 = sqrt2_pair()
        zeta = ResiduePlace(R2)
        assert zeta.eval(R.const(2)) == PlaceValue(QuadExt(2))


class TestPlaceFromCut:
    def test_principal_upper(self):
        k = constants()
        P = place_from_cut(cut_principal(k.const(2), UPPER))
        assert eval_place(P, rf("y^2", k)) == PlaceValue(QuadExt(4))
        assert eval_place(P, rf("1/(y - 2)", k)).is_infinite()
        assert harrison(P, rf("y^2", k))
        assert not harrison(P, rf("2 - y", k))
        assert not harrison(P, rf("1/(y - 2)", k))

    def test_principal_sides_share_values(self):
        k = constants()
        up = place_from_cut(cut_principal(k.const(2), UPPER))
        lo = place_from_cut(cut_principal(k.const(2), LOWER))
        for text in ("y^2", "y + 1", "1/(y - 2)", "(y - 1)/(y + 1)"):
            assert eval_place(up, rf(text, k)) == eval_place(lo, rf(text, k))

    def test_ball_edges_glue(self):
        R = rational_field()
        B = Ball(R, R.zero(), R.group.seg_above(R.group.elem(2)))
        lo = place_from_cut(cut_edge(B, LOWER))
        hi = place_from_cut(cut_edge(B, UPPER))
        f = rf("(y^3 + 1)/(1 - y)", R)
        assert eval_place(lo, f) == PlaceValue(QuadExt(1))
        assert eval_place(hi, f) == PlaceValue(QuadExt(1))
        rng = random.Random(7)
        for _ in range(60):
            g = random_ratfun(rng, R, ("y",))
            assert eval_place(lo, g) == eval_place(hi, g)

    def test_filler(self):
        R, R2, rt2 = sqrt2_pair()
        P = place_from_cut(cut_filler(rt2, UPPER, R))
        assert eval_place(P, rf("y^2 - 2", R)).is_zero()
        assert not harrison(P, rf("y^2 - 2", R))
        assert eval_place(P, rf("y + 1", R)) == PlaceValue(QuadExt(1, 1, 2))
        assert harrison(P, rf("y + 1", R))

    def test_improper(self):
        R = rational_field()
        up = place_from_cut(cut_plus_inf(R))
        lo = place_from_cut(cut_minus_inf(R))
        assert eval_place(up, rf("y", R)).is_infinite()
        assert eval_place(up, rf("1/y", R)).is_zero()
        assert eval_place(lo, rf("y", R)).is_infinite()
        assert eval_place(lo, rf("1/y", R)).is_zero()
        assert harrison(up, rf("5 - 1/y", R))
        assert not harrison(up, rf("y", R))
        # bounded rational functions have one limit at both infinities,
        # so the improper cuts induce the same value map
        for text in ("y/(y + 1)", "(y^2 - 1)/(y^2 + 1)", "1/y"):
            assert eval_place(up, rf(text, R)) == eval_place(lo, rf(text, R))

    def test_describe(self):
        k = constants()
        P = place_from_cut(cut_principal(k.const(2), UPPER), var="z")
        d = P.describe()
        assert d["kind"] == "realized" and d["provenance"] == "cut"
        assert d["variables"] == ["z"] and "z" in d["realization"]

    def test_no_pole_marker_at_cut_places(self):
        R = rational_field()
        B = Ball(R, R.one(), R.group.seg_above(R.group.elem(1)))
        rng = random.Random(11)
        for C in (cut_principal(R.zero(), UPPER), cut_edge(B, LOWER),
                  cut_plus_inf(R)):
            P = place_from_cut(C)
            for _ in range(25):
                eval_place(P, random_ratfun(rng, R, ("y",)))


class TestInducedCut:
    def test_roundtrip(self):
        R, R2, rt2 = sqrt2_pair()
        B = Ball(R, R.zero(), R.group.seg_above(R.group.elem(2)))
        population = [
            cut_principal(R.const(2), UPPER),
            cut_principal(R.const(2), LOWER),
            cut_edge(B, LOWER),
            cut_edge(B, UPPER),
            cut_filler(rt2, UPPER, R),
            cut_plus_inf(R),
            cut_minus_inf(R),
        ]
        for C in population:
            back = induced_cut(place_from_cut(C), "y")
            assert cut_cmp(back, C) == 0
            assert equivalent(back, C)

    def test_base_field_realization_rejected(self):
        R = rational_field()
        P = realized_place(R, {"y": R.const(2)})
        assert eval_place(P, rf("y^2", R)) == PlaceValue(QuadExt(4))
        with pytest.raises(ValueError):
            induced_cut(P, "y")

    def test_unknown_variable(self):
        k = constants()
        P = place_from_cut(cut_principal(k.const(0), UPPER))
        with pytest.raises(ValueError):
            induced_cut(P, "z")


class TestEvalArithmetic:
    def test_homomorphism_on_finite_values(self):
        R = rational_field()
        P = place_from_cut(cut_principal(R.const(1), UPPER))
        rng = random.Random(3)
        for _ in range(40):
            f = random_ratfun(rng, R, ("y",))
            g = random_ratfun(rng, R, ("y",))
            vf, vg = eval_place(P, f), eval_place(P, g)
            if vf.is_infinite() or vg.is_infinite():
                continue
            assert eval_place(P, f + g) == PlaceValue(vf.value + vg.value)
            assert eval_place(P, f * g) == PlaceValue(vf.value * vg.value)

    def test_missing_variable(self):
        k = constants()
        P = place_from_cut(cut_principal(k.const(0), UPPER))
        with pytest.raises(ValueError):
            eval_place(P, rf("x + 1", k, ("x",)))

    def test_curve_place_pole_and_indeterminate(self):
        k = constants()
        F = k.extend_group("k(t)", ValueGroup(LEX, 1), ())
        t = F.monomial(F.group.elem(1))
        P = realized_place(k, {"x": t, "y": 2 * t})
        f = rf("1/(2*x - y)", k, ("x", "y"))
        assert eval_place(P, f).is_infinite()
        num = Poly(k, ("x", "y"), {(1, 0): k.const(2), (0, 1): k.const(-1)})
        with pytest.raises(ArithmeticError):
            eval_place(P, RatFun(num, num))

    def test_realized_place_validation(self):
        k = constants()
        R = rational_field()
        t = R.monomial(R.group.elem(1))
        with pytest.raises(ValueError):
            realized_place(k, {})
        with pytest.raises(TypeError):
            realized_place(k, {"x": 3})
        with pytest.raises(ValueError):
            realized_place(k, {"x": t})  # R does not extend k


class TestStackedPlaces:
    def test_order_dependence(self):
        k = constants()
        xy = rf("x/y", k, ("x", "y"))
        S1 = stacked_place(k, [("x", 0), ("y", 0)])
        S2 = stacked_place(k, [("y", 0), ("x", 0)])
        assert eval_place(S1, xy).is_zero()
        assert eval_place(S2, xy).is_infinite()

    def test_centers(self):
        k = constants()
        S = stacked_place(k, [("x", Fraction(1, 2)), ("y", -3)])
        assert eval_place(S, rf("x", k, ("x", "y"))) \
            == PlaceValue(QuadExt(Fraction(1, 2)))
        assert eval_place(S, rf("y", k, ("x", "y"))) == PlaceValue(QuadExt(-3))

    def test_tower_witness(self):
        k = constants()
        for n in (2, 3, 5):
            S = stacked_place(k, [("y", 2), ("x", 1)])
            f = rf(f"(x - 1 + (y - 2)^{n})/(x - 1)", k, ("x", "y"))
            assert eval_place(S, f) == PlaceValue(QuadExt(1))
            shifted = stacked_place(k, [("y", 5), ("x", 1)])
            assert eval_place(shifted, f).is_infinite()

    def test_restriction(self):
        k = constants()
        S = stacked_place(k, [("y", 2), ("x", 1)])
        Sx = place_restrict(S, ("x",))
        assert Sx.variables == ("x",)
        assert eval_place(Sx, rf("x^2", k, ("x",))) == PlaceValue(QuadExt(1))
        C = induced_cut(Sx, "x")
        assert cut_cmp(C, cut_principal(k.const(1), UPPER)) == 0
        with pytest.raises(ValueError):
            place_restrict(S, ("z",))
        with pytest.raises(ValueError):
            place_restrict(S, ())

    def test_bad_bases_and_names(self):
        R = rational_field()
        with pytest.raises(ValueError):
            stacked_place(R, [("x", 0)])
        k = constants()
        with pytest.raises(ValueError):
            stacked_place(k, [("x", 0), ("x", 1)])
        with pytest.raises(ValueError):
            stacked_place(k, [])


class TestIndependentPlaces:
    def test_weighted_values(self):
        k = constants()
        P = independent_place(k, [("x", 0), ("y", 0)], (1, SQRT2))
        assert eval_place(P, rf("y^2/x", k, ("x", "y"))).is_zero()
        assert eval_place(P, rf("x/y", k, ("x", "y"))).is_infinite()
        assert eval_place(P, rf("(x + y^2)/x", k, ("x", "y"))) \
            == PlaceValue(QuadExt(1))

    def test_dependent_weights_rejected(self):
        k = constants()
        pairs = [("x", 0), ("y", 0)]
        for bad in ((2, 1), (1, Fraction(7, 3)), (SQRT2, 3 * SQRT2)):
            with pytest.raises(ValueError):
                independent_place(k, pairs, bad)
        with pytest.raises(ValueError):
            independent_place(k, pairs + [("z", 0)],
                              (1, SQRT2, QuadExt(1, 1, 2)))

    def test_bad_weights(self):
        k = constants()
        pairs = [("x", 0), ("y", 0)]
        with pytest.raises(ValueError):
            independent_place(k, pairs, (1, -SQRT2))
        with pytest.raises(ValueError):
            independent_place(k, pairs, (QuadExt(0, 1, 2), QuadExt(0, 1, 3)))
        with pytest.raises(ValueError):
            independent_place(k, pairs, (1,))


class TestThreeCaseWitness:
    def test_all_cases(self):
        k = constants()
        S1 = stacked_place(k, [("x", 0), ("y", 0)])
        case, f, val = three_case_witness(S1)
        assert case == "quotient_vanishes"
        assert val == PlaceValue(QuadExt(1))

        # stacked places list the deepest variable first, so the mirrored
        # order still vanishes relative to its own variable tuple
        S2 = stacked_place(k, [("y", 0), ("x", 0)])
        case, f, val = three_case_witness(S2)
        assert case == "quotient_vanishes"
        assert val == PlaceValue(QuadExt(1))

        I = independent_place(k, [("x", 0), ("y", 0)], (1, SQRT2))
        case, f, val = three_case_witness(I)
        assert case == "quotient_blows_up"
        assert format_ratfun(f) == "(x + y)/(x)"
        assert val == PlaceValue(QuadExt(1))

        F = k.extend_group("k(t)", ValueGroup(LEX, 1), ())
        t = F.monomial(F.group.elem(1))
        curve = realized_place(k, {"x": t, "y": 2 * t})
        case, f, val = three_case_witness(curve)
        assert case == "quotient_balanced"
        assert format_ratfun(f) == "(y^2)/(x^2)"
        assert val == PlaceValue(QuadExt(4))

    def test_needs_zero_centers(self):
        k = constants()
        S = stacked_place(k, [("x", 1), ("y", 0)])
        with pytest.raises(ValueError):
            three_case_witness(S)
        with pytest.raises(ValueError):
            three_case_witness(place_from_cut(cut_principal(k.const(0),
                                                            UPPER)))


class TestGaussPlaces:
    def test_coefficientwise(self):
        F = rational_field("F")
        G = gauss_extension(F)
        v = eval_place(G, rf("(1 + t^(1))*y^2 + t^(1)", F))
        assert str(v) == "y^2"
        assert eval_place(G, rf("1/(t^(1)*y)", F)).is_infinite()
        v = eval_place(G, rf("((1 + t^(1))*y^2 + t^(1))/(2*y - t^(3))", F))
        assert str(v) == "(1/2*y^2)/(y)"
        assert eval_place(G, rf("t^(2)*y/(1 + t^(1))", F)).is_zero()

    def test_trivial_on_residue_functions(self):
        F = rational_field("F")
        G = gauss_extension(F)
        rng = random.Random(19)
        for _ in range(30):
            f = random_ratfun(rng, F, ("y",))
            v = eval_place(G, f)
            assert v.is_finite()
            expected = "0" if f.is_zero() else format_ratfun(f)
            assert format_ratfun(v.value) == expected

    def test_value_field(self):
        F = rational_field("F")
        k = constants("k")
        G = gauss_extension(F, residue_field=k)
        v = eval_place(G, rf("y + 1 + t^(1)", F))
        assert v.value.field is k
        with pytest.raises(ValueError):
            gauss_extension(F, residue_field=rational_field())
        with pytest.raises(ValueError):
            eval_place(G, rf("x + 1", F, ("x",)))

    def test_harrison_undefined(self):
        F = rational_field("F")
        G = gauss_extension(F)
        with pytest.raises(ValueError):
            harrison(G, rf("y + 1", F))

    def test_residue_field_holds_the_coefficients(self):
        # a residue field without sqrt(2) cannot hold the leading
        # coefficients of a field with it: refused when the place is made
        R, F, _ = sqrt2_pair()
        k, k2 = constants("k"), FieldDescriptor("k2", 2, ValueGroup(LEX, 0))
        with pytest.raises(ValueError, match="lacks the coefficients"):
            gauss_extension(F, residue_field=k)
        G = gauss_extension(F, residue_field=k2)
        assert str(eval_place(G, rf("sqrt(2)*y + t^(1)", F))) == \
            "(sqrt(2))*y"
        assert gauss_extension(R, residue_field=k2).field is k2
        zeta = place_from_cut(cut_principal(k.const(2), UPPER))
        with pytest.raises(ValueError, match="lacks the coefficients"):
            constant_ext_embed(zeta, F)
        zeta2 = place_from_cut(cut_principal(k2.const(SQRT2), UPPER))
        ext = constant_ext_embed(zeta2, F)
        assert str(eval_place(ext, rf("sqrt(2)*y + t^(1)", F))) == "2"
        assert str(eval_place(constant_ext_embed(zeta2, R),
                              rf("y + t^(1)", R))) == "sqrt(2)"


class TestConstantExtension:
    def test_two_stage_values(self):
        k = constants()
        zeta = place_from_cut(cut_principal(k.const(2), UPPER))
        F = rational_field("F")
        ext = constant_ext_embed(zeta, F)
        assert eval_place(ext, rf("(1 + t^(1))*y^2 + t^(1)", F)) \
            == PlaceValue(QuadExt(4))
        assert eval_place(ext, rf("1/(t^(1)*y)", F)).is_infinite()
        assert eval_place(ext, rf("t^(1)*y", F)).is_zero()
        assert harrison(ext, rf("(1 + t^(1))*y^2 + t^(1)", F))
        d = ext.describe()
        assert d["kind"] == "composed" and "inner" in d

    def test_pullback_identity(self):
        k = constants()
        zeta = place_from_cut(cut_principal(k.const(2), UPPER))
        F = rational_field("F")
        ext = constant_ext_embed(zeta, F)
        G = gauss_extension(F, residue_field=k)
        rng = random.Random(23)
        for _ in range(40):
            f = random_ratfun(rng, F, ("y",))
            gv = eval_place(G, f)
            lhs = eval_place(ext, f)
            rhs = eval_place(zeta, gv.value) if gv.is_finite() else gv
            assert lhs == rhs

    def test_validation(self):
        k = constants()
        F = rational_field("F")
        with pytest.raises(ValueError):
            constant_ext_embed(gauss_extension(F), F)
        R = rational_field()
        zeta_big = place_from_cut(cut_principal(R.const(2), UPPER))
        with pytest.raises(ValueError):
            constant_ext_embed(zeta_big, F)


class TestRationalCompose:
    def test_frozen_values(self):
        F = rational_field("K")
        t = F.monomial(F.group.elem(1))
        zeta = ResiduePlace(F)
        P = rational_place_compose([("x", t)], zeta)
        assert eval_place(P, rf("x^2 + 1", F, ("x",))) \
            == PlaceValue(QuadExt(1))
        assert eval_place(P, rf("1/(x - t^(1))", F, ("x",))).is_infinite()
        P2 = rational_place_compose([("x", F.one()), ("y", F.one())], zeta)
        assert eval_place(P2, rf("1/(x - y)", F, ("x", "y"))).is_infinite()
        assert eval_place(P2, rf("(x + y)/(x*y)", F, ("x", "y"))) \
            == PlaceValue(QuadExt(2))

    @staticmethod
    def substitution_value(f, var, a, zeta):
        """Independent oracle: expand num and den in powers of u = var - a
        by the binomial theorem, c * (u + a)^k = sum over j of C(k, j) * c *
        a^(k - j) * u^j, in FieldElement arithmetic; cancel the common
        vanishing order, then take the residue of the ratio of lowest
        terms.  None stands for infinity."""
        F = f.field

        def shift(p):
            out = {}
            for (k,), c in p.terms.items():
                for j in range(k + 1):
                    out[j] = out.get(j, F.zero()) + \
                        c * math.comb(k, j) * a ** (k - j)
            return {j: c for j, c in out.items() if not c.is_zero()}

        num, den = shift(f.num), shift(f.den)
        md = min(den)
        if not num:
            return zeta.eval(F.zero())
        mn = min(num)
        if mn > md:
            return zeta.eval(F.zero())
        if mn < md:
            return None
        return zeta.eval(num[mn] / den[md])

    def test_pullback_membership(self):
        F = rational_field("K")
        t = F.monomial(F.group.elem(1))
        zeta = ResiduePlace(F)
        rng = random.Random(31)
        centers = [F.const(2), t, 1 + t, F.zero()]
        for a in centers:
            P = rational_place_compose([("x", a)], zeta)
            for _ in range(25):
                f = random_ratfun(rng, F, ("x",))
                v = self.substitution_value(f, "x", a, zeta)
                expected = v is not None and v.is_finite() and v.sign() > 0
                assert harrison(P, f) == expected

    def test_removable_singularity(self):
        # substitution alone would report 0/0 here; the perturbed
        # realization takes the canceled value instead
        F = rational_field("K")
        zeta = ResiduePlace(F)
        P = rational_place_compose([("x", F.zero())], zeta)
        f = rf("(x^2/4)/(x^2)", F, ("x",))
        assert f.eval_at({"x": F.zero()}) is POLE
        assert eval_place(P, f) == PlaceValue(QuadExt(Fraction(1, 4)))

    def test_validation(self):
        F = rational_field("K")
        with pytest.raises(TypeError):
            rational_place_compose([("x", F.one())], "not a place")


def quotient_value(place, f):
    """eval_place at a realized place through the residue of the full
    quotient nv / dv, both substituted term by term: the reference for
    reading it from the leading terms of two sums."""
    nv = evaluate_per_term(f.num, place.realization, place.field)
    dv = evaluate_per_term(f.den, place.realization, place.field)
    if dv.is_zero():
        if nv.is_zero():
            raise ArithmeticError("0/0")
        return PlaceValue.infinite()
    r = (nv / dv).residue()
    return PlaceValue.infinite() if r is INF else PlaceValue(r)


def outcome(v):
    if v.is_infinite():
        return "inf"
    return "zero" if v.is_zero() else "finite"


class TestResidueFromLeadingTerms:
    @staticmethod
    def check(place, field, variables, texts, seed):
        fs = [rf(text, field, variables) for text in texts]
        rng = random.Random(seed)
        fs += [random_ratfun(rng, field, variables) for _ in range(20)]
        seen = set()
        for f in fs:
            try:
                want = quotient_value(place, f)
            except ArithmeticError:
                with pytest.raises(ArithmeticError):
                    eval_place(place, f)
                continue
            got = eval_place(place, f)
            assert got == want
            if got.is_finite():
                assert (got.value.a, got.value.b, got.value.d) == \
                    (want.value.a, want.value.b, want.value.d)
            seen.add(outcome(got))
        assert seen == {"zero", "inf", "finite"}

    def test_cut_places(self):
        R, R2, rt2 = sqrt2_pair()
        B = Ball(R, R.zero(), R.group.seg_above(R.group.elem(2)))
        cuts = [cut_edge(B, LOWER), cut_edge(B, UPPER),
                cut_principal(R.const(2), UPPER), cut_filler(rt2, UPPER, R),
                cut_filler(rt2 + 3, LOWER, R), cut_plus_inf(R),
                cut_minus_inf(R)]
        texts = ("y", "1/y", "y + 1", "y - 2", "1/(y - 2)", "y^2 - 2",
                 "1/(y^2 - 2)", "(y^2 - 2)/(y - 2)", "t^(3)/y", "y/t^(3)",
                 "(y^3 + t^(1))/(y^2 + 3)")
        for i, C in enumerate(cuts):
            self.check(place_from_cut(C), R, ("y",), texts, i)

    def test_stacked_independent_and_composed_places(self):
        k = constants()
        texts = ("x/y", "y/x", "y^2/x", "x/y^2", "(x + y^2)/x",
                 "(x + 1)/(y + 2)", "x*y", "1/(x*y)")
        places = [
            stacked_place(k, [("x", 0), ("y", 0)]),
            stacked_place(k, [("y", 0), ("x", 0)]),
            independent_place(k, [("x", 0), ("y", 0)], (1, SQRT2)),
            independent_place(k, [("x", 0), ("y", 0)], (SQRT2, 1)),
        ]
        for i, P in enumerate(places):
            self.check(P, k, ("x", "y"), texts, 100 + i)
        K = rational_field("K")
        zeta = ResiduePlace(K)
        composed = [
            rational_place_compose([("x", K.monomial(K.group.elem(1)))],
                                   zeta),
            rational_place_compose([("x", K.const(2))], zeta),
        ]
        texts = ("x^2 + 1", "x - t^(1)", "1/(x - t^(1))", "x - 2",
                 "1/(x - 2)", "(x^2 - 4)/(x - 2)", "x/t^(1)")
        for i, P in enumerate(composed):
            self.check(P, K, ("x",), texts, 200 + i)


class TestQuotientRealizations:
    """Realizing values whose denominator is not 1, such as
    (1 + t)/(2 + t^2): the powers of their denominators enter every term."""

    @staticmethod
    def setting(kind):
        """(base, extension, realizing values of x and y)."""
        if kind == "weighted":
            k = FieldDescriptor("k", 2, ValueGroup(LEX, 0))
            W = k.extend_group("W", ValueGroup(WEIGHTED, 2,
                                               (QuadExt(1), SQRT2)), ())
            s, u = W.monomial(W.group.elem(1, 0)), \
                W.monomial(W.group.elem(0, 1))
            return k, W, ((1 + s) / (2 + u * u),
                          (W.const(SQRT2) + u) / (1 + s))
        R = rational_field()
        if kind == "sqrt 2":
            F = R.extend_coeff("R2", 2)
            t = F.monomial(F.group.elem(1))
            return R, F, ((1 + t) / (2 + t * t),
                          (2 + F.const(SQRT2) * t) / (3 + t))
        F = R.extend_group("F2", ValueGroup(LEX, 2), (1,))
        s, u = F.monomial(F.group.elem(1, 0)), F.monomial(F.group.elem(0, 1))
        return R, F, ((1 + u) / (2 + u * u), (s + u) / (1 - s))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32),
           st.sampled_from(["sqrt 2", "lex 2", "weighted"]))
    def test_eval_place_matches_the_full_quotient(self, seed, kind):
        base, F, (a, b) = self.setting(kind)
        assert len(a.den.terms) > 1 and len(b.den.terms) > 1
        place = realized_place(base, {"x": a, "y": b})
        rng = random.Random(seed)
        # removable and true zeros and poles at the residues of a and b
        ra, rb = base.const(a.residue()), base.const(b.residue())
        fs = [random_ratfun(rng, base, ("x", "y")) for _ in range(3)]
        X = RatFun.var(base, ("x", "y"), "x")
        Y = RatFun.var(base, ("x", "y"), "y")
        fs += [X - ra, 1 / (Y - rb), (X - ra) * (Y - rb) / (X - ra) ** 2,
               fs[0] * (X - ra) ** 2 / (Y - rb)]
        seen = set()
        for f in fs:
            want = quotient_value(place, f)
            got = eval_place(place, f)
            assert got == want
            if got.is_finite():
                assert (got.value.a, got.value.b, got.value.d) == \
                    (want.value.a, want.value.b, want.value.d)
            seen.add(outcome(got))
        assert seen == {"zero", "inf", "finite"}


def read_leading(f, values, F) -> tuple:
    """(`_leading_sums(f, values, F)`, the list of those of the stored term
    dicts of f's num and den whose sums it built)."""
    built = []

    def substitution(*args):
        total = _substitution(*args)

        def recorded(p):
            built.append(p)
            return total(p)
        return recorded
    with mock.patch.object(ratfun_module, "_substitution", substitution):
        return _leading_sums(f, values, F), built


class TestLeadingSums:
    """`ratfun._leading_sums`, which eval_place reads, against the full
    sums of `ratfun._homogeneous`: the same zero sums and the same
    `leading()`, stored coefficient form included, whether the leading
    monomials decide or their cancellation makes the reader build the
    sums."""

    @staticmethod
    def check(f, values, F) -> int:
        """Compares the two; returns how many sums the reader built (0, 1
        or 2)."""
        got, built = read_leading(f, values, F)
        lifted = [lift(v, F) for v in values]
        want = _homogeneous(f, values, F)
        # the common scale: coefficients, value numerators, built sums
        n = math.lcm(*(c.num._n for p in (f.num, f.den)
                       for c in p.terms.values()),
                     *(v.num._n for v in lifted),
                     *(w._n for p, w in zip(f._terms, want)
                       if any(p is b for b in built)))
        for g, w in zip(got, want):
            assert (g is None) == w.is_zero()
            if g is not None:
                (gk, (x, y), r), (wk, (a, b), q) = g, w._lead(w._n, F.group)
                assert all(k1 * w._n == k2 * n for k1, k2 in zip(gk, wk))
                assert (x * q, y * q) == (a * r, b * r)
        return len(built)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32),
           st.sampled_from(["sqrt 2", "lex 2", "weighted"]),
           st.integers(1, 3))
    def test_quotient_realizations(self, seed, kind, n):
        base, F, (a, b) = TestQuotientRealizations.setting(kind)
        rng = random.Random(seed)
        X = RatFun.var(base, ("x", "y"), "x")
        Y = RatFun.var(base, ("x", "y"), "y")
        ra, rb = base.const(a.residue()), base.const(b.residue())
        fs = [random_ratfun(rng, base, ("x", "y")) for _ in range(3)]
        cancelling = [X - ra, (X - ra + (Y - rb) ** n) / (X - ra),
                      (Y - rb) ** n / (X - ra)]
        for f in fs + [fs[0] * (Y - rb) ** n, X * Y + 1, 1 / X]:
            for values in ([a, b], [F.zero(), b], [a, F.zero()]):
                self.check(f, values, F)
        built = [self.check(f, [a, b], F) for f in cancelling]
        assert built[0] == 1 and all(built)  # X - ra cancels in N alone

    def test_cut_places(self):
        R, R2, rt2 = sqrt2_pair()
        B = Ball(R, R.zero(), R.group.seg_above(R.group.elem(2)))
        cuts = [cut_edge(B, LOWER), cut_edge(B, UPPER),
                cut_principal(R.const(2), UPPER), cut_filler(rt2, UPPER, R),
                cut_filler(rt2 + 3, LOWER, R), cut_plus_inf(R),
                cut_minus_inf(R)]
        texts = ("y", "1/y", "y - 2", "1/(y - 2)", "y^2 - 2", "1/(y^2 - 2)",
                 "(y^2 - 2)/(y - 2)", "t^(3)/y", "(y^3 + t^(1))/(y^2 + 3)")
        rng = random.Random(7)
        built = 0
        for C in cuts:
            P = place_from_cut(C)
            fs = [rf(text, R) for text in texts]
            fs += [random_ratfun(rng, R, ("y",)) for _ in range(8)]
            for f in fs:
                built += self.check(f, [P.realization["y"]], P.field)
        assert built > 0

    def test_mixed_exponent_scales(self):
        R = rational_field()
        y = R.monomial(R.group.elem(Fraction(1, 3))) + \
            R.monomial(R.group.elem(Fraction(1, 2)))
        built = [self.check(rf(text, R), [y], R) for text in (
            "t^(1/2)*y + 1", "t^(1/2)*y^2 - y", "1/(t^(1/2)*y)",
            "y^3 - t^(1)", "(y^2 + 1)/(t^(1/2)*y - t^(5/6))")]
        assert built == [0, 0, 0, 1, 1]

    def test_surd_leading_coefficients_with_rational_products(self):
        R, R2, rt2 = sqrt2_pair()
        y = rt2 + R2.monomial(R2.group.elem(1))
        for F in (R, R2):  # coefficients lifted into R2, or already there
            built = [self.check(rf(text, F), [y], R2) for text in (
                "y^2", "y^2 + 1", "(y + 1)/y^3", "y^2 - 2",
                "y/(y^2 - 2)")]
            assert built == [0, 0, 0, 1, 1]
        built = [self.check(rf(text, R2), [y], R2) for text in (
            "sqrt(2)*y", "sqrt(2)*y - 2", "1/(sqrt(2)*y^3 - 4)")]
        assert built == [0, 1, 1]

    def test_full_sums_only_when_leading_summands_cancel(self, monkeypatch):
        calls = Counter()

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper
        def substitution(*args):
            return counted("built", _substitution(*args))
        monkeypatch.setattr(ratfun_module, "_substitution", substitution)
        monkeypatch.setattr(FieldDescriptor, "embedding_mask_into",
                            counted("mask",
                                    FieldDescriptor.embedding_mask_into))
        R, R2, rt2 = sqrt2_pair()
        P = realized_place(R, {"y": rt2 + R2.monomial(R2.group.elem(1))})
        calls.clear()
        assert eval_place(P, rf("y^2 + 1", R)) == PlaceValue(QuadExt(3))
        assert calls == {"mask": 1}
        calls.clear()
        assert eval_place(P, rf("y^2 - 2", R)).is_zero()
        assert calls == {"mask": 1, "built": 1}


class TestIntegerFinish:
    """eval_place, which decides the exponent order and the coefficient
    quotient in integers, against `place_value_by_objects`, the finish in
    GroupElem and QuadExt objects of the full sums, printed form
    included."""

    @staticmethod
    def check(place, fs, seen: set) -> None:
        """Compares the two on every f; adds the cases met to `seen`."""
        F = place.field
        values = [place.realization[v] for v in place.variables]
        if any(v.is_zero() for v in values):
            seen.add("value 0")
        for f in fs:
            (top, bottom), built = read_leading(f, values, F)
            if len(built) == 1:
                seen.add("only N" if built[0] is f._terms[0] else "only M")
            scale = math.lcm(*(c.num._n for p in (f.num, f.den)
                               for c in p.terms.values()),
                             *(v.num._n for v in values))
            if built and any(scale % v.den._n for v in values):
                seen.add("den scale")
            if bottom is not None and bottom[1][1]:
                seen.add("yd")
            if top is not None and bottom is not None and \
                    F.group.kind == WEIGHTED and \
                    {(a > b) - (a < b) for a, b in zip(top[0], bottom[0])} \
                    >= {-1, 1}:
                seen.add("surd order")
            try:
                want = place_value_by_objects(place, f)
            except ArithmeticError:
                with pytest.raises(ArithmeticError):
                    eval_place(place, f)
                seen.add("0/0")
                continue
            got = eval_place(place, f)
            assert got == want and str(got) == str(want)
            if got.is_finite():
                assert (got.value.a, got.value.b, got.value.d) == \
                    (want.value.a, want.value.b, want.value.d)
            seen.add("pole" if bottom is None else outcome(got))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32),
           st.sampled_from(["sqrt 2", "lex 2", "weighted"]))
    def test_quotient_realizations(self, seed, kind):
        base, F, (a, b) = TestQuotientRealizations.setting(kind)
        rng = random.Random(seed)
        X = RatFun.var(base, ("x", "y"), "x")
        Y = RatFun.var(base, ("x", "y"), "y")
        ra, rb = base.const(a.residue()), base.const(b.residue())
        # g leads with the second unit exponent in the weighted setting
        g = Y - rb + (2 * X - 1) * rb
        fs = [random_ratfun(rng, base, ("x", "y")) for _ in range(3)]
        fs += [X - ra, 1 / (Y - rb), 1 / Y, Y / X, X / X,
               (X - ra) ** 3 / g ** 2, g ** 2 / (X - ra) ** 3]
        seen = set()
        for values in ([a, b], [F.zero(), b], [a, F.zero()]):
            self.check(realized_place(base, dict(zip("xy", values))), fs,
                       seen)
        want = {"only N", "only M", "value 0", "pole", "0/0", "zero", "inf",
                "finite"}
        want |= {"yd"} if kind != "lex 2" else set()
        want |= {"surd order"} if kind == "weighted" else set()
        assert want <= seen

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_cut_and_independent_places(self, seed):
        R, R2, rt2 = sqrt2_pair()
        B = Ball(R, R.zero(), R.group.seg_above(R.group.elem(2)))
        cuts = [cut_edge(B, LOWER), cut_edge(B, UPPER),
                cut_principal(R.const(2), UPPER), cut_filler(rt2, UPPER, R),
                cut_filler(rt2 + 3, LOWER, R), cut_plus_inf(R),
                cut_minus_inf(R)]
        texts = ("y", "1/y", "y - 2", "1/(y - 2)", "y^2 - 2", "1/(y^2 - 2)",
                 "(y^2 - 2)/(y - 2)", "t^(3)/y", "(y^3 + t^(1))/(y^2 + 3)")
        rng = random.Random(seed)
        seen = set()
        for C in cuts:
            fs = [rf(text, R) for text in texts]
            fs += [random_ratfun(rng, R, ("y",)) for _ in range(3)]
            self.check(place_from_cut(C), fs, seen)
        k = constants()
        # 3 against 2*sqrt(2) and 7 against 5*sqrt(2)
        texts = ("x^3/y^2", "y^2/x^3", "x^7/y^5", "y^5/x^7", "(x + y)/x")
        fs = [rf(text, k, ("x", "y")) for text in texts]
        fs += [random_ratfun(rng, k, ("x", "y")) for _ in range(3)]
        for ws in ((1, SQRT2), (SQRT2, QuadExt(1, 1, 2))):
            self.check(independent_place(k, [("x", 0), ("y", 0)], ws), fs,
                       seen)
        assert {"yd", "surd order", "only N", "only M", "zero", "inf",
                "finite"} <= seen

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_mixed_exponent_scales(self, seed):
        R = rational_field()
        t = R.monomial(R.group.elem(1))
        values = [R.monomial(R.group.elem(Fraction(1, 3))) +
                  R.monomial(R.group.elem(Fraction(1, 2))),
                  # a den at the scale 7, which no numerator has
                  (1 + t) / (1 + R.monomial(R.group.elem(Fraction(1, 7))))]
        texts = ("t^(1/2)*y + 1", "t^(1/2)*y^2 - y", "1/(t^(1/2)*y)",
                 "y^3 - t^(1)", "(y^2 + 1)/(t^(1/2)*y - t^(5/6))", "y - 1",
                 "1/(y - 1)", "(y - 1)/(y^2 - 1)")
        rng = random.Random(seed)
        fs = [rf(text, R) for text in texts]
        fs += [random_ratfun(rng, R, ("y",)) for _ in range(3)]
        seen = set()
        for y in values:
            self.check(realized_place(R, {"y": y}), fs, seen)
        assert {"den scale", "only N", "only M"} <= seen


def gauss_setting(kind):
    """(F, S, k): a base field, a declared subfield of it with a smaller
    group or coefficient field, and a residue field holding F's
    coefficients."""
    if kind == "Q":
        F = rational_field("F")
        return F, F.subfield("S"), constants("k")
    if kind == "Q(sqrt 2)":
        F = rational_field("F0").extend_coeff("F", 2)
        return F, F.subfield("S", coeff_d=None), \
            FieldDescriptor("k", 2, ValueGroup(LEX, 0))
    F = FieldDescriptor("F", None, ValueGroup(LEX, 2))
    return F, F.subfield("S", (1,)), constants("k")


def element_of(X, rng):
    """A nonzero element of X: a monomial, a sum of two, or a quotient, so
    that coefficients may have denominators."""
    def mono():
        g = X.group.elem(*(Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                           for _ in range(X.group.rank)))
        c = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))
        if X.coeff_d is not None and rng.randrange(2):
            c = QuadExt(c, rng.randint(1, 2), X.coeff_d)
        return X.monomial(g, c)
    x = mono()
    kind = rng.randrange(3)
    if kind:
        y = mono() + mono()
        x = y if kind == 1 or y.is_zero() else (X.one() + mono()) / y
    return X.one() if x.is_zero() else x


def function_of(X, rng):
    """A nonzero function of y over X."""
    while True:
        num, den = [Poly(X, ("y",), {(rng.randint(0, 3),): element_of(X, rng)
                                     for _ in range(rng.randint(1, 3))})
                    for _ in range(2)]
        if not num.is_zero() and not den.is_zero():
            return RatFun(num, den)


class TestGaussFromStoredPair:
    """`eval_place` at Gauss and constant-extension places reads the stored
    pair; `gauss_value_by_polys` reads the Poly views, as the library
    once did."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(["Q", "Q(sqrt 2)",
                                                      "lex 2"]),
           st.booleans())
    def test_values_match_the_view_route(self, seed, kind, sub):
        rng = random.Random(seed)
        F, S, k = gauss_setting(kind)
        X = S if sub else F
        G = gauss_extension(F, "y", k)
        center = k.const(QuadExt(rng.randint(-2, 2), rng.randint(0, 1),
                                 k.coeff_d) if k.coeff_d else
                         rng.randint(-2, 2))
        zeta = place_from_cut(cut_principal(center,
                                            rng.choice((LOWER, UPPER))))
        ext = constant_ext_embed(zeta, F)
        f = function_of(X, rng)
        # f times t^(v(den) - v(num)), the least values of a coefficient,
        # has a finite nonzero Gauss value; one more t^(+-1) gives 0 or inf
        least = [min(c.val() for c in p.terms.values()) for p in (f.num,
                                                                f.den)]
        m = X.monomial(least[1] - least[0])
        g = X.monomial(X.group.elem(1, *[0] * (X.group.rank - 1)))
        fs = [RatFun.const(X, ("y",), 0), f * m, f * m * g, f * m / g, f]
        calls = Counter()
        real = RatFun._polys

        def counted(self):
            calls["views"] += 1
            return real(self)
        with mock.patch.object(RatFun, "_polys", counted):
            got = [(eval_place(G, h), eval_place(ext, h)) for h in fs]
            texts = [(str(gv), str(ev)) for gv, ev in got]
        assert calls["views"] == 0
        kinds = Counter()
        for h, (gv, _), (gs, es) in zip(fs, got, texts):
            want = gauss_value_by_polys(k, h)
            assert gs == str(want)
            if want.is_finite():
                assert gv.value.field is k and gv.value.variables == ("y",)
                assert gv.value._terms == want.value._terms
                want = eval_place(zeta, want.value)
            else:
                assert gv.is_infinite()
            assert es == str(want)
            kinds[outcome(gv)] += 1
        assert kinds["zero"] >= 2 and kinds["inf"] >= 1 and \
            kinds["finite"] >= 1


class TestSeparatingSearch:
    def test_value_scale_pairs(self):
        R, R2, rt2 = sqrt2_pair()
        B = Ball(R, R.zero(), R.group.seg_above(R.group.elem(2)))
        pairs = [
            (cut_principal(R.zero(), UPPER), cut_principal(R.one(), LOWER)),
            (cut_filler(rt2, UPPER, R), cut_principal(R.zero(), UPPER)),
            (cut_plus_inf(R), cut_edge(B, UPPER)),
            (cut_minus_inf(R), cut_principal(R.zero(), LOWER)),
            (cut_edge(B, UPPER), cut_principal(R.const(-7), LOWER)),
        ]
        for C1, C2 in pairs:
            f, v1, v2 = find_separating_function(C1, C2)
            assert v1 != v2
            P1, P2 = place_from_cut(C1), place_from_cut(C2)
            assert eval_place(P1, f) == v1
            assert eval_place(P2, f) == v2

    def test_decides_the_order_once(self, monkeypatch):
        R, R2, rt2 = sqrt2_pair()
        C1 = cut_filler(rt2, UPPER, R)
        C2 = cut_filler(rt2 + 3, LOWER, R)
        calls = []
        order = cuts_module._order

        def counted(A, B):
            calls.append((A, B))
            return order(A, B)

        monkeypatch.setattr(cuts_module, "_order", counted)
        monkeypatch.setattr(places_module, "_order", counted)
        f, v1, v2 = find_separating_function(C1, C2)
        assert v1 != v2
        assert len(calls) == 1

    def test_equivalent_pair_rejected(self):
        R = rational_field()
        B = Ball(R, R.zero(), R.group.seg_above(R.group.elem(2)))
        with pytest.raises(ValueError):
            find_separating_function(cut_edge(B, LOWER), cut_edge(B, UPPER))


class TestDistinguishSearch:
    def test_stacked_vs_independent(self):
        k = constants()
        S = stacked_place(k, [("x", 0), ("y", 0)])
        I = independent_place(k, [("x", 0), ("y", 0)], (1, SQRT2))
        f, h1, h2 = distinguish_stacked_independent(S, I)
        assert h1 != h2
        assert harrison(S, f) == h1 and harrison(I, f) == h2

    def test_nonzero_centers(self):
        k = constants()
        S = stacked_place(k, [("x", 3), ("y", -1)])
        I = independent_place(k, [("x", 3), ("y", -1)], (1, SQRT2))
        f, h1, h2 = distinguish_stacked_independent(S, I)
        assert h1 != h2

    def test_identical_places_exhaust(self):
        k = constants()
        S1 = stacked_place(k, [("x", 0), ("y", 0)])
        S2 = stacked_place(k, [("x", 0), ("y", 0)])
        with pytest.raises(LookupError):
            distinguish_stacked_independent(S1, S2, max_degree=3)
