"""Exact arithmetic in fields of fractions of finite Hahn sums.

An element is num/den where both parts are finite sums  sum c_g * t^g  with
coefficients in QQ or Q(sqrt(d)) and exponents in a ValueGroup.  The
denominator is kept canonical (leading exponent 0, leading coefficient 1),
which makes sign, valuation and residue read off the numerator's leading
term: "leading" always means minimum exponent, so v(x) > 0 iff x is
infinitesimal.

Fields are identified by descriptors that also record how they embed into
one another; arithmetic silently lifts along a declared embedding chain and
refuses anything else.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .coeff import Ordered, QuadExt, format_coeff
from .valgroup import (
    LEX, GroupCut, GroupElem, ValueGroup, check_mask, embed_element,
    extend_at_position, restrict_element,
)


class FieldMismatchError(Exception):
    """Operands live in fields with no declared embedding between them."""


class ExpansionBudgetError(Exception):
    """Term extraction exceeded its step budget before reaching the goal.

    `reached` is the exponent of the last extracted term when the raiser
    records it, else None."""

    def __init__(self, message: str, reached: Optional[GroupElem] = None):
        super().__init__(message)
        self.reached = reached


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()

DEFAULT_MAX_STEPS = 64


class FieldDescriptor:
    """A field H(k; Gamma) of Hahn-sum fractions, with its embedding edges.

    coeff_d: None for QQ coefficients, else the squarefree radicand d.
    Edges are added when subfields/extensions are declared; each edge keeps
    the coordinate mask injecting the smaller exponent group into the larger.
    """

    __slots__ = ("name", "coeff_d", "group", "_ups")

    def __init__(self, name: str, coeff_d: Optional[int], group: ValueGroup):
        self.name = name
        self.coeff_d = coeff_d
        self.group = group
        self._ups: list[tuple[FieldDescriptor, tuple]] = []

    def __repr__(self):
        k = "Q" if self.coeff_d is None else f"Q(sqrt{self.coeff_d})"
        return f"<field {self.name}=H({k};{self.group!r})>"

    def admits_coeff(self, c: QuadExt) -> bool:
        return c.d is None or c.d == self.coeff_d

    # -- tower construction ---------------------------------------------------

    def subfield(self, name: str, mask: Optional[Sequence[int]] = None,
                 coeff_d: Optional[int] = "same") -> "FieldDescriptor":
        """Declare the subfield on the masked exponent coordinates with an
        equal or smaller coefficient field."""
        if coeff_d == "same":
            coeff_d = self.coeff_d
        if coeff_d is not None and coeff_d != self.coeff_d:
            raise ValueError("subfield coefficients must shrink or stay")
        if mask is None:
            mask = tuple(range(self.group.rank))
        mask = check_mask(mask, self.group)
        if self.group.kind != LEX and len(mask) != self.group.rank:
            raise ValueError("weighted groups only allow full-group subfields")
        if self.group.kind == LEX:
            sub_group = ValueGroup(LEX, len(mask))
        else:
            sub_group = self.group
        sub = FieldDescriptor(name, coeff_d, sub_group)
        _add_edge(sub, self, mask)
        return sub

    def extend_coeff(self, name: str, d: int) -> "FieldDescriptor":
        if self.coeff_d is not None and self.coeff_d != d:
            raise ValueError("coefficient field already extended differently")
        big = FieldDescriptor(name, d, self.group)
        _add_edge(self, big, tuple(range(self.group.rank)))
        return big

    def extend_group(self, name: str, big_group: ValueGroup,
                     mask: Sequence[int]) -> "FieldDescriptor":
        """Declare an extension with more exponent coordinates; mask places
        this field's coordinates inside the new group."""
        mask = check_mask(mask, big_group)
        if len(mask) != self.group.rank:
            raise ValueError("mask must cover every existing coordinate")
        big = FieldDescriptor(name, self.coeff_d, big_group)
        _add_edge(self, big, mask)
        return big

    # -- embedding lookup -------------------------------------------------------

    def embedding_mask_into(self, other: "FieldDescriptor") -> Optional[tuple]:
        """Coordinate mask of the declared embedding chain self -> other."""
        if other is self:
            return tuple(range(self.group.rank))
        seen = {id(self)}
        frontier = [(self, tuple(range(self.group.rank)))]
        while frontier:
            field, mask = frontier.pop()
            for sup, edge_mask in field._ups:
                comp = tuple(edge_mask[i] for i in mask)
                if sup is other:
                    return comp
                if id(sup) not in seen:
                    seen.add(id(sup))
                    frontier.append((sup, comp))
        return None

    def join(self, other: "FieldDescriptor") -> "FieldDescriptor":
        """The larger of two fields when a declared embedding chain leads
        from one into the other."""
        if other is self:
            return self
        if self.embedding_mask_into(other) is not None:
            return other
        if other.embedding_mask_into(self) is not None:
            return self
        raise FieldMismatchError(
            f"no declared embedding relates {self.name} and {other.name}")

    def zero(self) -> "FieldElement":
        return self.const(0)

    def one(self) -> "FieldElement":
        return self.const(1)

    def const(self, c) -> "FieldElement":
        c = QuadExt.of(c)
        if not self.admits_coeff(c):
            raise ValueError(f"coefficient {c} outside the field {self.name}")
        return FieldElement(self, HahnSum.const(self.group, c),
                            HahnSum.one(self.group))

    def monomial(self, exponent: GroupElem, c=1) -> "FieldElement":
        c = QuadExt.of(c)
        if not self.admits_coeff(c):
            raise ValueError(f"coefficient {c} outside the field {self.name}")
        return FieldElement(self, HahnSum.monomial(self.group, exponent, c),
                            HahnSum.one(self.group))


def _add_edge(sub: FieldDescriptor, sup: FieldDescriptor,
              mask: tuple) -> None:
    """Record the embedding edge sub -> sup.  A coordinate injection keeps
    the order only between lexicographic groups, from a group into an
    equal one, or from a group of rank at most 1."""
    a, b = sub.group, sup.group
    if not (a.kind == b.kind == LEX or a == b or a.rank <= 1):
        raise ValueError(f"the embedding of {sub.name} in {sup.name} would "
                         "not preserve the order of the value groups")
    sub._ups.append((sup, mask))


def declare_embedding(sub: FieldDescriptor, sup: FieldDescriptor,
                      mask: Sequence[int]) -> None:
    """Record that sub sits inside sup along the coordinate mask.

    The tower factories add their edge automatically; an explicit
    declaration completes a diamond, e.g. two independently built
    extensions of one field sharing a common cover."""
    if sub is sup:
        raise ValueError("a field does not properly embed in itself")
    mask = check_mask(mask, sup.group)
    if len(mask) != sub.group.rank:
        raise ValueError("mask length must equal the subfield rank")
    if not (sub.coeff_d is None or sub.coeff_d == sup.coeff_d):
        raise ValueError("coefficient fields are incompatible")
    if sub.embedding_mask_into(sup) is not None:
        raise ValueError("embedding already declared")
    if sup.embedding_mask_into(sub) is not None:
        raise ValueError("declaration would create a cycle")
    _add_edge(sub, sup, mask)


class HahnSum:
    """Finite formal sum of monomials c * t^g; exponents are coordinate
    tuples of the group, coefficients nonzero QuadExt values."""

    __slots__ = ("group", "terms")

    def __init__(self, group: ValueGroup, terms: dict):
        self.group = group
        self.terms = terms

    @staticmethod
    def zero(group: ValueGroup) -> "HahnSum":
        return HahnSum(group, {})

    @staticmethod
    def const(group: ValueGroup, c: QuadExt) -> "HahnSum":
        if c.is_zero():
            return HahnSum.zero(group)
        return HahnSum(group, {(Fraction(0),) * group.rank: c})

    @staticmethod
    def one(group: ValueGroup) -> "HahnSum":
        return HahnSum(group, {(Fraction(0),) * group.rank: QuadExt(1)})

    @staticmethod
    def monomial(group: ValueGroup, g: GroupElem, c: QuadExt) -> "HahnSum":
        if c.is_zero():
            return HahnSum.zero(group)
        return HahnSum(group, {g.coords: c})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "HahnSum") -> "HahnSum":
        out = dict(self.terms)
        for g, c in other.terms.items():
            acc = out.get(g)
            s = c if acc is None else acc + c
            if s.is_zero():
                out.pop(g, None)
            else:
                out[g] = s
        return HahnSum(self.group, out)

    def __neg__(self) -> "HahnSum":
        return HahnSum(self.group, {g: -c for g, c in self.terms.items()})

    def __sub__(self, other: "HahnSum") -> "HahnSum":
        return self + (-other)

    def __mul__(self, other: "HahnSum") -> "HahnSum":
        out: dict = {}
        for g1, c1 in self.terms.items():
            for g2, c2 in other.terms.items():
                g = tuple(a + b for a, b in zip(g1, g2))
                c = c1 * c2
                acc = out.get(g)
                s = c if acc is None else acc + c
                if s.is_zero():
                    out.pop(g, None)
                else:
                    out[g] = s
        return HahnSum(self.group, out)

    def scale(self, c: QuadExt) -> "HahnSum":
        if c.is_zero():
            return HahnSum.zero(self.group)
        return HahnSum(self.group, {g: v * c for g, v in self.terms.items()})

    def shift(self, g: GroupElem) -> "HahnSum":
        return HahnSum(self.group, {
            tuple(a + b for a, b in zip(k, g.coords)): c
            for k, c in self.terms.items()})

    def leading(self) -> tuple[GroupElem, QuadExt]:
        """(minimum exponent, its coefficient); the dominant monomial."""
        if not self.terms:
            raise ValueError("zero sum has no leading term")
        if self.group.kind == LEX:
            g = min(self.terms)
        else:
            elems = [self.group.elem(k) for k in self.terms]
            g = min(elems).coords
        return self.group.elem(g), self.terms[g]

    def support(self) -> list[GroupElem]:
        elems = [self.group.elem(k) for k in self.terms]
        elems.sort(key=_cmp_key(self.group))
        return elems

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HahnSum):
            return NotImplemented
        return self.group == other.group and self.terms == other.terms

    def __hash__(self):
        return hash((self.group, tuple(sorted(self.terms.items(),
                                              key=lambda kv: kv[0]))))

    def __repr__(self):
        return f"HahnSum({self.terms})"


def _cmp_key(group: ValueGroup):
    if group.kind == LEX:
        return lambda e: e.coords
    return group.real_value


class FieldElement(Ordered):
    """num/den over a field descriptor, with den canonical: leading
    exponent 0 and leading coefficient 1 (so den > 0 always)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: FieldDescriptor, num: HahnSum, den: HahnSum):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = HahnSum.one(field.group)
        else:
            vd, cd = den.leading()
            if not vd.is_zero() or cd.b or cd.a != 1:
                inv = cd.inverse()
                num = num.shift(-vd).scale(inv)
                den = den.shift(-vd).scale(inv)
        self.field = field
        self.num = num
        self.den = den

    # -- coercion ---------------------------------------------------------------

    def _pair(self, other) -> tuple["FieldElement", "FieldElement"]:
        if isinstance(other, (int, Fraction, QuadExt)):
            return self, self.field.const(other)
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine with {type(other).__name__}")
        if other.field is self.field:
            return self, other
        F = self.field.join(other.field)
        return lift(self, F), lift(other, F)

    # -- ring/field operations ----------------------------------------------------

    def __add__(self, other) -> "FieldElement":
        x, y = self._pair(other)
        return FieldElement(x.field, x.num * y.den + y.num * x.den,
                            x.den * y.den)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, -self.num, self.den)

    def __sub__(self, other) -> "FieldElement":
        return self + (-self._pair(other)[1])

    def __rsub__(self, other) -> "FieldElement":
        return (-self) + other

    def __mul__(self, other) -> "FieldElement":
        x, y = self._pair(other)
        return FieldElement(x.field, x.num * y.num, x.den * y.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FieldElement":
        x, y = self._pair(other)
        if y.num.is_zero():
            raise ZeroDivisionError("division by zero")
        return FieldElement(x.field, x.num * y.den, x.den * y.num)

    def __rtruediv__(self, other) -> "FieldElement":
        x, y = self._pair(other)
        return y / x

    def __pow__(self, k: int) -> "FieldElement":
        if k < 0:
            return (self.field.one() / self) ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "FieldElement":
        return self.field.one() / self

    # -- order, valuation, residue --------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def sign(self) -> int:
        if self.num.is_zero():
            return 0
        return self.num.leading()[1].sign()

    def cmp(self, other) -> int:
        x, y = self._pair(other)
        return (x - y).sign()

    def __eq__(self, other) -> bool:
        if other is None:
            return NotImplemented
        try:
            return self.cmp(other) == 0
        except (TypeError, FieldMismatchError):
            return NotImplemented

    def __hash__(self):
        raise TypeError("field elements are not hashable")

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def val(self) -> Union[GroupElem, _Infinity]:
        """Leading-exponent valuation; v(0) = inf."""
        if self.num.is_zero():
            return INF
        return self.num.leading()[0]  # den leading exponent is 0

    def leading_coeff(self) -> QuadExt:
        if self.num.is_zero():
            return QuadExt(0)
        return self.num.leading()[1]

    def residue(self) -> Union[QuadExt, _Infinity]:
        if self.num.is_zero():
            return QuadExt(0)
        v = self.num.leading()[0]
        s = v.sign()
        if s < 0:
            return INF
        if s > 0:
            return QuadExt(0)
        return self.num.leading()[1]

    # -- expansion -------------------------------------------------------------------

    def expand(self, cutoff: GroupElem,
               max_steps: int = DEFAULT_MAX_STEPS) -> tuple[HahnSum, bool]:
        """All expansion terms with exponent <= cutoff plus a nonzero-tail
        flag.  Term extraction is monomial long division; each step yields
        the strictly next exponent.  Raises ExpansionBudgetError if more
        than max_steps terms fit under the cutoff (possible once the value
        group has rank >= 2)."""
        group = self.field.group
        out = HahnSum.zero(group)
        rem = self.num
        steps = 0
        while not rem.is_zero():
            g, c = rem.leading()
            if g.cmp(cutoff) > 0:
                return out, True
            steps += 1
            if steps > max_steps:
                raise ExpansionBudgetError(
                    f"more than {max_steps} terms at or below the cutoff; "
                    "raise max_steps to expand further")
            out = out + HahnSum.monomial(group, g, c)
            rem = rem - HahnSum.monomial(group, g, c) * self.den
        return out, False

    # -- printing -------------------------------------------------------------------

    def __str__(self) -> str:
        if self.num.is_zero():
            return "0"
        num = _format_sum(self.num)
        if len(self.den.terms) == 1 and not self.den.is_zero() \
                and self.den.leading()[0].is_zero():
            return num
        return f"({num})/({_format_sum(self.den)})"

    def __repr__(self):
        return f"<{self.field.name}: {self}>"


def _format_monomial(coords: tuple, c: QuadExt) -> str:
    cs = format_coeff(c)
    if all(q == 0 for q in coords):
        return cs
    if len(coords) == 1:
        mono = f"t^({coords[0]})"
    else:
        mono = "t^((" + ",".join(str(q) for q in coords) + "))"
    if c == QuadExt(1):
        return mono
    if c == QuadExt(-1):
        return f"-{mono}"
    if ("+" in cs[1:]) or ("-" in cs[1:]):
        cs = f"({cs})"
    return f"{cs}*{mono}"


def _format_sum(h: HahnSum) -> str:
    parts = []
    for g in h.support():
        s = _format_monomial(g.coords, h.terms[g.coords])
        if parts and not s.startswith("-"):
            parts.append("+" + s)
        else:
            parts.append(s)
    return "".join(parts)


def lift(x: FieldElement, big: FieldDescriptor) -> FieldElement:
    """Rewrite x in a declared extension of its field."""
    if x.field is big:
        return x
    mask = x.field.embedding_mask_into(big)
    if mask is None:
        raise FieldMismatchError(
            f"{x.field.name} does not embed in {big.name}")

    def move(h: HahnSum) -> HahnSum:
        out = {}
        for k, c in h.terms.items():
            g = embed_element(x.field.group.elem(k), mask, big.group)
            out[g.coords] = c
        return HahnSum(big.group, out)

    return FieldElement(big, move(x.num), move(x.den))


def adjoin_infinitesimal(F: FieldDescriptor, at: GroupCut, sign: int = 1,
                         name: Optional[str] = None
                         ) -> tuple[FieldDescriptor, FieldElement]:
    """An extension F' = F(eps) with v(eps) sitting exactly at position
    `at` of vF and eps of the requested sign."""
    if at.group != F.group:
        raise ValueError("position must live in the field's value group")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    big_group, mask, veps = extend_at_position(at)
    if name is None:
        name = f"{F.name}<eps>"
    big = F.extend_group(name, big_group, mask)
    eps = big.monomial(veps, QuadExt(sign))
    return big, eps


# -- approximation analysis relative to a subfield ---------------------------------

@dataclass(frozen=True)
class InSubfield:
    """x equals an element of the subfield."""
    approximant: FieldElement  # element of R

    @property
    def kind(self):
        return "in_subfield"


@dataclass(frozen=True)
class Obstructed:
    """Term extraction hit the first monomial not expressible over R."""
    obstruction: str            # "exponent" | "coefficient"
    gamma0: GroupElem           # exponent of the obstructing term, in vF
    coeff: QuadExt              # its coefficient
    approximant: FieldElement   # best R-approximant r*: v(x - r*) = gamma0

    @property
    def kind(self):
        return self.obstruction


@dataclass(frozen=True)
class Exhausted:
    """Budget ran out with extraction still in the subfield's range."""
    approximant: FieldElement
    steps: int

    @property
    def kind(self):
        return "exhausted"


AnalysisResult = Union[InSubfield, Obstructed, Exhausted]


def approx_analysis(x: FieldElement, R: FieldDescriptor,
                    max_steps: int = DEFAULT_MAX_STEPS) -> AnalysisResult:
    """Peel R-expressible leading terms off x until x is exhausted or the
    first non-R monomial appears.

    The approximant r* is a plain sum in R.  On Obstructed, every r in R
    satisfies v(x - r) <= gamma0, with equality attained by r*; for a
    coefficient obstruction both signs of x - r occur at distance gamma0,
    for an exponent obstruction only the sign of coeff occurs.
    """
    F = x.field
    mask = R.embedding_mask_into(F)
    if mask is None:
        raise FieldMismatchError(f"{R.name} is not a declared subfield "
                                 f"of {F.name}")
    approx = HahnSum.zero(R.group)
    residual = x
    for _ in range(max_steps):
        if residual.is_zero():
            return InSubfield(FieldElement(R, approx, HahnSum.one(R.group)))
        g, c = residual.num.leading()
        g_sub = restrict_element(g, mask, R.group)
        r_star = FieldElement(R, approx, HahnSum.one(R.group))
        if g_sub is None:
            return Obstructed("exponent", g, c, r_star)
        if not (c.d is None or c.d == R.coeff_d):
            return Obstructed("coefficient", g, c, r_star)
        approx = approx + HahnSum.monomial(R.group, g_sub, c)
        residual = residual - F.monomial(g, c)
    r_star = FieldElement(R, approx, HahnSum.one(R.group))
    if residual.is_zero():
        return InSubfield(r_star)
    return Exhausted(r_star, max_steps)


def settled_analysis(x: FieldElement, R: FieldDescriptor,
                     max_steps: int = DEFAULT_MAX_STEPS
                     ) -> Union[InSubfield, Obstructed]:
    """approx_analysis with an exhausted budget raised as
    ExpansionBudgetError; its `reached` is the exponent, in R's group, of
    the last term extracted."""
    res = approx_analysis(x, R, max_steps)
    if not isinstance(res, Exhausted):
        return res
    done = res.approximant.num.support()
    reached = done[-1] if done else None
    raise ExpansionBudgetError(
        f"analysis over {R.name} extracted {len(done)} terms without "
        f"leaving the subfield (last at exponent {reached}); "
        "raise max_steps", reached)


def obstruction(x: FieldElement, R: FieldDescriptor,
                max_steps: int = DEFAULT_MAX_STEPS) -> Obstructed:
    """The first term of x not expressible over R, with the best
    R-approximant before it.  Raises ValueError when x lies in R and
    ExpansionBudgetError when the budget runs out first."""
    res = settled_analysis(x, R, max_steps)
    if isinstance(res, InSubfield):
        raise ValueError(f"the element lies in the subfield {R.name}; "
                         "no term leaves it")
    return res


def element_in_subfield(x: FieldElement, R: FieldDescriptor,
                        max_steps: int = DEFAULT_MAX_STEPS
                        ) -> Optional[FieldElement]:
    """The element of R equal to x, if the analysis finds one."""
    res = settled_analysis(x, R, max_steps)
    return res.approximant if isinstance(res, InSubfield) else None
