"""Places of rational function fields over Hahn-type ordered fields.

A place sends every rational function over a base field to a finite
residue value or to infinity.  Most places here are *realized*: each
function-field variable is assigned an element of a declared extension
of the base field, a function is evaluated by exact substitution, and
the extension's residue map produces the value.  Cut places perturb a
field element by a fresh infinitesimal whose valuation sits exactly at
the group position the cut prescribes, so the assigned element traces
the cut without landing on any base-field element.

Gauss-type places act coefficientwise instead; their values are
rational functions over a rank-0 residue field.  A constant-extension
place chains a Gauss stage with a realized place over that residue
field, which is how a place of k(y) is promoted to a place of F(y) for
a Hahn field F with residue field k.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .coeff import QuadExt
from .valgroup import LOWER, UPPER, LEX, WEIGHTED, ValueGroup
from .ordfield import (DEFAULT_MAX_STEPS, INF, FieldDescriptor, FieldElement,
                       _least_key, adjoin_infinitesimal, lift, obstruction)
from .ratfun import (RatFun, _as_element, _leading_sums, _normal, _ratfun,
                     _unit_terms, format_ratfun)
from .cuts import (Cut, _between, _order, _ordered_equivalent,
                   cut_filler_analyzed)


def _side_sign(side: int) -> int:
    return 1 if side == UPPER else -1


@dataclass(frozen=True)
class PlaceValue:
    """Value of a place at one function.

    `value` is a QuadExt for finite values of realized places, a RatFun
    over the residue field for finite values of Gauss-type places, and
    None for infinity.
    """

    value: Union[QuadExt, RatFun, None] = None

    @staticmethod
    def infinite() -> "PlaceValue":
        return PlaceValue(None)

    def is_infinite(self) -> bool:
        return self.value is None

    def is_finite(self) -> bool:
        return self.value is not None

    def is_zero(self) -> bool:
        if self.value is None:
            return False
        if isinstance(self.value, RatFun):
            return self.value.is_zero()
        return self.value.sign() == 0

    def sign(self) -> int:
        if self.value is None:
            raise ValueError("infinity has no sign")
        if isinstance(self.value, RatFun):
            raise ValueError("Gauss residues carry no order")
        return self.value.sign()

    def describe(self) -> dict:
        if self.value is None:
            return {"finite": False}
        return {"finite": True, "value": str(self)}

    def __str__(self) -> str:
        if self.value is None:
            return "inf"
        return format_ratfun(self.value) if isinstance(self.value, RatFun) \
            else str(self.value)

    def __repr__(self) -> str:
        return f"PlaceValue({self})"


class ResiduePlace:
    """The canonical residue place of a Hahn-type field: elements of
    valuation >= 0 map to their residue, the rest to infinity."""

    __slots__ = ("field",)

    def __init__(self, field: FieldDescriptor):
        self.field = field

    def eval(self, x: FieldElement) -> PlaceValue:
        if x.field is not self.field:
            x = lift(x, self.field)
        r = x.residue()
        if r is INF:
            return PlaceValue.infinite()
        return PlaceValue(r)

    def describe(self) -> dict:
        return {"kind": "residue", "field": self.field.name}

    def __repr__(self) -> str:
        return f"ResiduePlace({self.field.name})"


class RPlace:
    """Place data for base(variables); construct through the factories.

    kind "realized": `field` extends `base` and `realization` assigns
    one element of it per variable.  kind "gauss": values are computed
    coefficientwise, `field` is the rank-0 residue field.  kind
    "composed": a Gauss stage followed by the realized place `inner`
    over the residue field.
    """

    __slots__ = ("kind", "base", "variables", "field", "realization",
                 "inner", "provenance", "_value_leads")

    def __init__(self, kind: str, base: FieldDescriptor,
                 variables: tuple, field: FieldDescriptor,
                 realization: Optional[dict] = None,
                 inner: Optional["RPlace"] = None,
                 provenance: str = "custom"):
        self.kind = kind
        self.base = base
        self.variables = variables
        self.field = field
        self.realization = realization
        self.inner = inner
        self.provenance = provenance
        # the memo of `ratfun._leading_sums`, filled by eval_place
        self._value_leads = {}

    def describe(self) -> dict:
        out = {"kind": self.kind, "base": self.base.name,
               "variables": list(self.variables),
               "provenance": self.provenance}
        if self.kind == "realized":
            out["field"] = self.field.name
            out["realization"] = {v: str(self.realization[v])
                                  for v in self.variables}
        else:
            out["residue_field"] = self.field.name
            if self.inner is not None:
                out["inner"] = self.inner.describe()
        return out

    def __repr__(self) -> str:
        if self.kind == "realized":
            parts = ", ".join(f"{v} -> {self.realization[v]}"
                              for v in self.variables)
            return f"RPlace({self.base.name}({', '.join(self.variables)}): " \
                   f"{parts})"
        return f"RPlace({self.kind} over {self.base.name})"


def realized_place(base: FieldDescriptor, assignment: dict,
                   provenance: str = "custom") -> RPlace:
    """A place given directly by elements of one declared extension."""
    if not assignment:
        raise ValueError("a place needs at least one variable")
    variables = tuple(assignment)
    values = list(assignment.values())
    for v in values:
        if not isinstance(v, FieldElement):
            raise TypeError("realization values must be field elements")
    field = values[0].field
    for v in values[1:]:
        if v.field is not field:
            raise ValueError("realization values must share one field")
    if base.embedding_mask_into(field) is None:
        raise ValueError(f"{field.name} does not extend {base.name}")
    return RPlace("realized", base, variables, field,
                  dict(assignment), provenance=provenance)


# -- places from cuts ----------------------------------------------------------

def place_from_cut(C: Cut, var: str = "y",
                   name: Optional[str] = None) -> RPlace:
    """The place of base(var) determined by a cut of the base field.

    The variable is sent to an element adjacent to the cut: for a ball
    edge, center +/- eps with v(eps) exactly at the radius boundary (for
    a principal cut that boundary is the top of the group, so eps is
    infinitesimal relative to the whole base field); for a filler cut,
    the filling element +/- eps with v(eps) above the extension's group;
    for the improper cuts, +/-1/eps, which exceeds the base field.
    """
    R = C.field
    if name is None:
        name = f"{R.name}<{var}>"
    if C.kind in ("minus_inf", "plus_inf"):
        big, eps = adjoin_infinitesimal(R, R.group.plus_inf(), 1, name)
        yhat = 1 / eps
        if C.kind == "minus_inf":
            yhat = -yhat
    elif C.kind == "edge":
        big, eps = adjoin_infinitesimal(R, C.ball.radius.boundary, 1, name)
        yhat = lift(C.ball.center, big) + _side_sign(C.side) * eps
    else:
        host = C.g.field
        big, eps = adjoin_infinitesimal(host, host.group.plus_inf(), 1, name)
        yhat = lift(C.g, big) + _side_sign(C.side) * eps
    return RPlace("realized", R, (var,), big, {var: yhat},
                  provenance="cut")


# -- evaluation ------------------------------------------------------------------

def _gauss_value(F: FieldDescriptor, k: FieldDescriptor, var: str,
                 f: RatFun) -> PlaceValue:
    """num and den times t^(-v), v the least value of a coefficient, keep
    the leading coefficients of value v; every other one vanishes."""
    if tuple(f.variables) != (var,):
        raise ValueError(f"expected a function of {var!r} alone")
    # an embedding keeps the order of valuations and leading coefficients
    if f.field is not F and f.field.embedding_mask_into(F) is None:
        raise ValueError(f"{f.field.name} does not embed in {F.name}")
    if f.is_zero():
        return PlaceValue(RatFun.const(k, (var,), 0))
    leads = [{key: h.leading() for key, h in p.items()} for p in f._terms]
    vn, vd = (min(g for g, _ in p.values()) for p in leads)
    c = vn.cmp(vd)
    if c > 0:
        return PlaceValue(RatFun.const(k, (var,), 0))
    if c < 0:
        return PlaceValue.infinite()
    pair = tuple({key: k.const(a).num for key, (g, a) in p.items()
                  if g.cmp(vn) == 0} for p in leads)
    return PlaceValue(_ratfun(k, (var,), _normal(pair, _unit_terms(k, 1))))


def eval_place(place: RPlace, f: RatFun) -> PlaceValue:
    """Exact value of the place at f; never approximates.

    At a realized place f(values) = N/M for the two plain sums that
    substitution over one common denominator gives, and the residue is read
    from their leading terms alone: v(N/M) is v(N) - v(M), and the leading
    coefficient is N's over M's.  `ratfun._leading_sums` reads those terms
    in integers, from f's memo per (scale, group rank, mask) and the
    place's per (variables, scale), which never go stale, as neither
    changes; it builds a sum only when its leading monomials cancel."""
    if place.kind == "gauss":
        return _gauss_value(place.base, place.field, place.variables[0], f)
    if place.kind == "composed":
        g = _gauss_value(place.base, place.field, place.variables[0], f)
        if g.is_infinite():
            return g
        return eval_place(place.inner, g.value)
    missing = [v for v in f.variables if v not in place.realization]
    if missing:
        raise ValueError(f"place does not assign {missing[0]!r}")
    top, bottom = _leading_sums(
        f, [place.realization[v] for v in f.variables], place.field,
        place._value_leads)
    if bottom is None:
        if top is None:
            raise ArithmeticError("0/0: the function is indeterminate "
                                  "at this place")
        return PlaceValue.infinite()
    if top is None:
        return PlaceValue(QuadExt(0))
    (kn, (xn, yn), qn), (kd, (xd, yd), qd) = top, bottom
    if kn != kd:  # distinct keys are distinct exponents, see ValueGroup
        if _least_key(place.field.group, (kn, kd)) == kn:
            return PlaceValue.infinite()
        return PlaceValue(QuadExt(0))
    d = place.field.coeff_d
    if yd:  # times the conjugate xd - yd*sqrt(d) over num and den
        xn, yn, xd = xn * xd - d * yn * yd, yn * xd - xn * yd, \
            xd * xd - d * yd * yd
    return PlaceValue(QuadExt(Fraction(qd * xn, qn * xd),
                              Fraction(qd * yn, qn * xd), d))


def harrison(place: RPlace, f: RatFun) -> bool:
    """Membership of f in the place's positive-residue set: the value is
    finite and strictly positive."""
    v = eval_place(place, f)
    if v.is_infinite():
        return False
    if isinstance(v.value, RatFun):
        raise ValueError("Gauss residues carry no order")
    return v.value.sign() > 0


# -- restriction ------------------------------------------------------------------

def place_restrict(place: RPlace, variables: Sequence[str]) -> RPlace:
    """The place induced on the subfield generated by some variables."""
    if place.kind != "realized":
        raise ValueError("only realized places restrict by sub-assignment")
    variables = tuple(variables)
    if not variables:
        raise ValueError("restriction needs at least one variable")
    if len(set(variables)) != len(variables):
        raise ValueError("repeated variable")
    for v in variables:
        if v not in place.realization:
            raise ValueError(f"place does not assign {v!r}")
    return RPlace("realized", place.base, variables, place.field,
                  {v: place.realization[v] for v in variables},
                  provenance=place.provenance)


def induced_cut(place: RPlace, var: str,
                max_steps: int = DEFAULT_MAX_STEPS) -> Cut:
    """The cut of the base field traced by the element realizing `var`."""
    if place.kind != "realized":
        raise ValueError("only realized places induce cuts")
    if var not in place.realization:
        raise ValueError(f"place does not assign {var!r}")
    x = place.realization[var]
    res = obstruction(x, place.base, max_steps)
    side = UPPER if res.coeff.sign() > 0 else LOWER
    return cut_filler_analyzed(x, side, place.base, res)


# -- constructed multi-variable places ---------------------------------------------

def _assignment_items(assignment) -> list:
    items = list(assignment.items()) if isinstance(assignment, dict) \
        else [tuple(p) for p in assignment]
    if not items:
        raise ValueError("a place needs at least one variable")
    names = [v for v, _ in items]
    if len(set(names)) != len(names):
        raise ValueError("repeated variable")
    return items


def stacked_place(base: FieldDescriptor, assignment,
                  name: Optional[str] = None) -> RPlace:
    """Variables go to center + eps_i with v(eps_i) the i-th unit vector
    of a fresh lexicographic group, earlier variables most significant:
    each eps_i is infinitesimal relative to all powers of eps_{i+1}."""
    if base.group.rank != 0:
        raise ValueError("stacked places need a constant base field "
                         "(group rank 0)")
    items = _assignment_items(assignment)
    return _perturbed_place(base, items, ValueGroup(LEX, len(items)), name,
                            "stacked")


def _perturbed_place(base: FieldDescriptor, items: list,
                     group: ValueGroup, name: Optional[str],
                     provenance: str) -> RPlace:
    """Variable i goes to its center + t^(unit i) in a new extension of
    the constant base field by `group`."""
    if name is None:
        name = f"{base.name}({','.join(v for v, _ in items)})"
    big = base.extend_group(name, group, ())
    realization = {}
    for i, (v, a) in enumerate(items):
        center = lift(_as_element(base, a), big)
        realization[v] = center + big.monomial(group.unit(i))
    return RPlace("realized", base, tuple(v for v, _ in items), big,
                  realization, provenance=provenance)


def independent_place(base: FieldDescriptor, assignment,
                      weights: Sequence, name: Optional[str] = None
                      ) -> RPlace:
    """Variables go to center + eps_i with v(eps_i) of real size given
    by rationally independent positive weights (checked by ValueGroup), so
    no two monomials in the eps_i share a valuation."""
    if base.group.rank != 0:
        raise ValueError("independent places need a constant base field "
                         "(group rank 0)")
    items = _assignment_items(assignment)
    if len(weights) != len(items):
        raise ValueError("need one weight per variable")
    return _perturbed_place(base, items,
                            ValueGroup(WEIGHTED, len(items), weights), name,
                            "independent")


def rational_place_compose(assignment, zeta: ResiduePlace,
                           name: Optional[str] = None) -> RPlace:
    """Composite of the substitution x_i -> a_i over zeta's field with
    the residue place: variables go to a_i + eps_i for nested fresh
    infinitesimals above the whole value group, so substitution never
    divides by zero and the residue computes zeta of the substituted
    value."""
    if not isinstance(zeta, ResiduePlace):
        raise TypeError("zeta must be a ResiduePlace")
    K = zeta.field
    items = _assignment_items(assignment)
    cur = K
    eps = []
    for v, _ in items:
        cur, e = adjoin_infinitesimal(cur, cur.group.plus_inf(), 1,
                                      name or f"{cur.name}<{v}>")
        eps.append(e)
    realization = {}
    for (v, a), e in zip(items, eps):
        realization[v] = lift(_as_element(K, a), cur) + lift(e, cur)
    return RPlace("realized", K, tuple(v for v, _ in items), cur,
                  realization, provenance="composed")


# -- Gauss places and constant extension ---------------------------------------------

def gauss_extension(F: FieldDescriptor, var: str = "y",
                    residue_field: Optional[FieldDescriptor] = None
                    ) -> RPlace:
    """The place of F(var) trivial on residues: it sends a function to
    the coefficientwise residue, a rational function over the rank-0
    residue field, or to infinity when the denominator dominates."""
    if residue_field is None:
        residue_field = FieldDescriptor(f"{F.name}.res", F.coeff_d,
                                        ValueGroup(LEX, 0))
    if residue_field.group.rank != 0:
        raise ValueError("the residue field must have group rank 0")
    # it holds the leading coefficients of F's elements
    if F.coeff_d is not None and F.coeff_d != residue_field.coeff_d:
        raise ValueError(f"the residue field {residue_field.name} lacks the "
                         f"coefficients of {F.name}")
    return RPlace("gauss", F, (var,), residue_field,
                  provenance="gauss")


def constant_ext_embed(zeta: RPlace, F: FieldDescriptor) -> RPlace:
    """Promote a place of k(var) to F(var) for a Hahn field F with
    residue field k: apply the Gauss place coefficientwise, then zeta
    to the resulting function; infinity stays infinity."""
    if zeta.kind != "realized" or len(zeta.variables) != 1:
        raise ValueError("zeta must be a realized one-variable place")
    if zeta.base.group.rank != 0:
        raise ValueError("zeta must live over a constant base field")
    g = gauss_extension(F, zeta.variables[0], zeta.base)
    return RPlace("composed", F, g.variables, g.field,
                  inner=zeta, provenance="composed")


# -- searches and witnesses -----------------------------------------------------------

def three_case_witness(place: RPlace) -> tuple:
    """For a two-variable place sending both variables to 0, a function
    with value finite and strictly positive, by the shape of the
    quotient of the two realizations.

    Returns (case, f, value); raises ArithmeticError if the selected
    function fails positivity, which would mean inconsistent place data.
    """
    if len(place.variables) != 2:
        raise ValueError("needs a two-variable place")
    xv, yv = place.variables
    X = RatFun.var(place.base, place.variables, xv)
    Y = RatFun.var(place.base, place.variables, yv)
    for g in (X, Y):
        val = eval_place(place, g)
        if not (val.is_finite() and val.is_zero()):
            raise ValueError("needs a place sending both variables to 0")
    q = eval_place(place, X / Y)
    if q.is_finite() and q.is_zero():
        case, f = "quotient_vanishes", 1 + X / Y
    elif q.is_infinite():
        case, f = "quotient_blows_up", 1 + Y / X
    else:
        case, f = "quotient_balanced", (Y / X) ** 2
    val = eval_place(place, f)
    if val.is_infinite() or val.sign() <= 0:
        raise ArithmeticError(f"{case}: witness lost positivity")
    return case, f, val


def _cut_anchor(C: Cut) -> Optional[FieldElement]:
    if C.kind == "edge":
        return C.ball.center
    if C.kind == "filler":
        return C.analysis.approximant
    return None


def find_separating_function(C1: Cut, C2: Cut, var: str = "y") -> tuple:
    """A function whose place values differ at two inequivalent cuts,
    searched over y - c and 1/(y - c) for anchors c between and around
    the cuts.  Returns (f, value at C1, value at C2)."""
    order, witness = _order(C1, C2)
    lo, hi = (C1, C2) if order < 0 else (C2, C1)
    if order == 0 or _ordered_equivalent(lo, hi):
        raise ValueError("equivalent cuts define the same place")
    anchors = []

    def push(c):
        if c is None:
            return
        if all(c.cmp(prev) != 0 for prev in anchors):
            anchors.append(c)

    push(_between(lo, hi, witness))
    push(witness())
    for C in (C1, C2):
        push(_cut_anchor(C))
    for c in list(anchors):
        push(c + 1)
        push(c - 1)
    push(C1.field.zero())
    P1 = place_from_cut(C1, var)
    P2 = place_from_cut(C2, var)
    X = RatFun.var(C1.field, (var,), var)
    for c in anchors:
        for f in (X - c, (X - c) ** -1):
            v1 = eval_place(P1, f)
            v2 = eval_place(P2, f)
            if v1 != v2:
                return f, v1, v2
    raise LookupError(f"no function of the searched family ({var} - c and "
                      f"1/({var} - c) over the anchors c) separated the cuts")


def distinguish_stacked_independent(p1: RPlace, p2: RPlace,
                                    max_degree: int = 6) -> tuple:
    """A function on which two places with the same finite centers take
    different positive-residue membership, searched over monomial
    quotients 1 + (x-a)^j/(y-b)^k and the mirrored form.

    Returns (f, membership at p1, membership at p2).
    """
    if len(p1.variables) != 2 or p1.variables != p2.variables:
        raise ValueError("needs two places on the same two variables")
    xv, yv = p1.variables
    X = RatFun.var(p1.base, p1.variables, xv)
    Y = RatFun.var(p1.base, p1.variables, yv)
    ax = eval_place(p1, X)
    ay = eval_place(p1, Y)
    if ax.is_infinite() or ay.is_infinite():
        raise ValueError("needs places with finite centers")
    dx = X - p1.base.const(ax.value)
    dy = Y - p1.base.const(ay.value)
    for j in range(1, max_degree + 1):
        for k in range(1, max_degree + 1):
            q = dx ** j / dy ** k
            for f in (1 + q, 1 + q ** -1):
                h1 = harrison(p1, f)
                h2 = harrison(p2, f)
                if h1 != h2:
                    return f, h1, h2
    raise LookupError("no distinguishing monomial quotient up to degree "
                      f"{max_degree}")
