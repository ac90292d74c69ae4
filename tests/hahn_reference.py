"""The Fraction/QuadExt HahnSum that preceded the integer kernel, kept
verbatim as the reference that tests/test_hahn_kernel.py compares the
kernel in rplaces.ordfield against.  Tests only; nothing in src/ uses it.

Terms are a dict {tuple of Fraction coordinates: nonzero QuadExt}."""
from __future__ import annotations

from fractions import Fraction

from rplaces.coeff import QuadExt
from rplaces.valgroup import LEX, GroupElem, ValueGroup


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

