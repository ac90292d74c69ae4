"""Substitution into polynomials term by term, in FieldElement arithmetic.

The reference that `RatFun.eval_at` and `places.eval_place` are checked
against: every term lifts its coefficient and takes a fresh `v ** e` of each
value, and the terms are added as field elements.  Nothing is shared between
terms and no common denominator is formed.
"""
from rplaces.ordfield import lift


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
