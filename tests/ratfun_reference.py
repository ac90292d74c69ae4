"""Slow references for `rplaces.ratfun`.

`evaluate_per_term`: substitution into polynomials term by term, in
FieldElement arithmetic.  The reference that `RatFun.eval_at` and
`places.eval_place` are checked against: every term lifts its coefficient
and takes a fresh `v ** e` of each value, and the terms are added as field
elements.  Nothing is shared between terms and no common denominator is
formed.  `eval_at` builds the two sums of `ratfun._homogeneous`, while
`eval_place` reads their leading terms from leading monomials
(`ratfun._leading_sums`) and builds a sum only when those cancel, so the
two share no code on that path; tests/test_places.py also checks the
reader against the full sums directly.

`place_value_by_objects`: a realized place's value finished in objects,
as `eval_place` did before it decided in integers: `leading()` of the two
`_homogeneous` sums, `GroupElem.cmp` of the exponents and `QuadExt`
division of the coefficients.

`gauss_value_by_polys`: a Gauss place's value read from the Poly views
`RatFun.num` and `.den`, as `places._gauss_value` did before it read the
stored pair: each coefficient's `val()` and `leading_coeff()`, a residue
Poly over the residue field per side, and the public `RatFun(num, den)`,
which clears and normalises the pair.

`parse_per_token`: the parser that builds a RatFun for every token and
normalises after every operator, through the public RatFun arithmetic.
`parse_ratfun` carries one unnormalised pair instead and is checked against
it for equal stored forms and equal errors.

`tokenize_by_regex`: the tokenizer that matches one compiled regular
expression.  `ratfun._tokenize` walks the text one character at a time,
with the str methods isspace, isdecimal, isalpha and isalnum, and is
checked against it for equal tokens, positions and errors.  The per-token
parser reads its tokens from it.
"""
import re
from fractions import Fraction
from typing import Optional, Sequence

from rplaces.coeff import QuadExt
from rplaces.ordfield import FieldDescriptor, lift
from rplaces.places import PlaceValue
from rplaces.ratfun import Poly, RatFun, RatFunSyntaxError, _homogeneous


def evaluate_per_term(p, assignment, target):
    """p at the assignment, as an element of `target`."""
    values = [lift(assignment[v], target) for v in p.variables]
    total = target.zero()
    for key, c in p.terms.items():
        part = lift(c, target)
        for v, e in zip(values, key):
            if e:
                part = part * v ** e
        total = total + part
    return total


def place_value_by_objects(place, f) -> PlaceValue:
    """The value of the realized place at f from the full sums N and M."""
    top, bottom = _homogeneous(
        f, [place.realization[v] for v in f.variables], place.field)
    if bottom.is_zero():
        if top.is_zero():
            raise ArithmeticError("0/0: the function is indeterminate "
                                  "at this place")
        return PlaceValue.infinite()
    if top.is_zero():
        return PlaceValue(QuadExt(0))
    (gn, cn), (gd, cd) = top.leading(), bottom.leading()
    order = gn.cmp(gd)
    if order < 0:
        return PlaceValue.infinite()
    if order > 0:
        return PlaceValue(QuadExt(0))
    return PlaceValue(cn / cd)


def _residue_poly(p, shift, k) -> Poly:
    """The residue of p * t^(-shift), where shift is the least value of a
    coefficient: each coefficient of value shift gives its leading
    coefficient, and every other one vanishes."""
    return Poly(k, p.variables, {key: k.const(c.leading_coeff())
                                 for key, c in p.terms.items()
                                 if c.val().cmp(shift) == 0})


def gauss_value_by_polys(k: FieldDescriptor, f: RatFun) -> PlaceValue:
    """The value at f of the Gauss place with residue field k."""
    num, den = f.num, f.den
    if num.is_zero():
        return PlaceValue(RatFun.const(k, f.variables, 0))
    vn = min(c.val() for c in num.terms.values())
    vd = min(c.val() for c in den.terms.values())
    order = vn.cmp(vd)
    if order > 0:
        return PlaceValue(RatFun.const(k, f.variables, 0))
    if order < 0:
        return PlaceValue.infinite()
    return PlaceValue(RatFun(_residue_poly(num, vn, k),
                             _residue_poly(den, vd, k)))


class _PerTokenParser:
    """Recursive descent over +, -, *, /, ^ with the usual precedence;
    identifiers are the declared variables, `t` monomials, or `sqrt`.
    Every token becomes a RatFun and every operator builds, and so
    normalises, another one."""

    def __init__(self, text: str, field: FieldDescriptor,
                 variables: Sequence[str], names=None):
        self.tokens = tokenize_by_regex(text)
        self.pos = 0
        self.field = field
        self.variables = tuple(variables)
        self.names = names or {}

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def take(self, kind: Optional[str] = None) -> tuple:
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise RatFunSyntaxError(
                f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> RatFun:
        out = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise RatFunSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return out

    def expr(self) -> RatFun:
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        out = self.term()
        if negate:
            out = -out
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> RatFun:
        out = self.power()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.power()
            if op == "*":
                out = out * rhs
            else:
                if rhs.is_zero():
                    raise RatFunSyntaxError(
                        "division by zero", self.peek()[2])
                out = out / rhs
        return out

    def power(self) -> RatFun:
        kind, name, at = self.peek()
        if kind == "name" and name == "t" and \
                name not in self.variables and \
                self.tokens[self.pos + 1][0] == "^":
            return self.hahn_monomial()
        base = self.atom()
        if self.peek()[0] == "^":
            at = self.take()[2]
            n = self.signed_int()
            if n < 0 and base.is_zero():
                raise RatFunSyntaxError("division by zero", at)
            base = base ** n
        return base

    def atom(self) -> RatFun:
        kind, text, at = self.take()
        if kind == "num":
            # fractions like 7/5 arrive as divisions and normalize away
            return RatFun.const(self.field, self.variables, int(text))
        if kind == "(":
            out = self.expr()
            self.take(")")
            return out
        if kind == "name":
            if text in self.variables:
                return RatFun.var(self.field, self.variables, text)
            if text == "sqrt":
                self.take("(")
                d = int(self.take("num")[1])
                self.take(")")
                return RatFun.const(self.field, self.variables,
                                    self.field.const(QuadExt(0, 1, d)))
            if text == "t":
                if self.field.group.rank == 0:
                    raise RatFunSyntaxError(
                        "exponent rank 1 does not match the field", at)
                exp = self.field.group.elem(
                    *([Fraction(1)] + [Fraction(0)] *
                      (self.field.group.rank - 1)))
                return RatFun.const(self.field, self.variables,
                                    self.field.monomial(exp))
            if text in self.names:
                val = self.names[text]
                if val.field is not self.field:
                    val = lift(val, self.field)
                return RatFun.const(self.field, self.variables, val)
            raise RatFunSyntaxError(f"unknown name {text!r}", at)
        raise RatFunSyntaxError(f"unexpected token {text!r}", at)

    def hahn_monomial(self) -> RatFun:
        self.take("name")
        self.take("^")
        self.take("(")
        if self.peek()[0] == "(":
            self.take()
            coords = [self.fraction()]
            while self.peek()[0] == ",":
                self.take()
                coords.append(self.fraction())
            self.take(")")
        else:
            coords = [self.fraction()]
        self.take(")")
        if len(coords) != self.field.group.rank:
            raise RatFunSyntaxError(
                f"exponent rank {len(coords)} does not match the field",
                self.peek()[2])
        exp = self.field.group.elem(*coords)
        return RatFun.const(self.field, self.variables,
                            self.field.monomial(exp))

    def fraction(self) -> Fraction:
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        top = int(self.take("num")[1])
        if self.peek()[0] == "/":
            self.take()
            _, text, at = self.take("num")
            if int(text) == 0:
                raise RatFunSyntaxError("zero denominator in an exponent", at)
            return Fraction(sign * top, int(text))
        return Fraction(sign * top)

    def signed_int(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        return sign * int(self.take("num")[1])


def parse_per_token(text: str, field: FieldDescriptor,
                    variables: Sequence[str], names=None) -> RatFun:
    return _PerTokenParser(text, field, variables, names).parse()


# one match per token; whitespace matches nothing and is skipped.  The
# classes are those of the str methods: \s is isspace, \d isdecimal (the
# digits int() reads) and \w is isalnum or "_"
_TOKEN = re.compile(r"(?P<num>\d+)|(?P<name>\w+)|(?P<op>[-+*/^(),])|\S")


def tokenize_by_regex(text: str) -> list:
    """The tokens of `_tokenize`, read by one regular expression."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, tok, at = m.lastgroup, m.group(), m.start()
        # a name starts with a letter or "_"; "²" and "½" are word
        # characters that start none
        if kind is None or (kind == "name" and not (
                tok[0].isalpha() or tok[0] == "_")):
            raise RatFunSyntaxError(f"unexpected character {tok[0]!r}", at)
        tokens.append((tok if kind == "op" else kind, tok, at))
    tokens.append(("end", "", len(text)))
    return tokens
