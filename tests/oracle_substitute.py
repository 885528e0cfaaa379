"""Multiply-out substitution, kept as a test oracle for ``Poly.substitute``.

This is the ``Poly.substitute`` that ``kinexpand.coeffring`` used before the
one-pass version replaced it, unchanged except that it is a function of the
polynomial.  It builds a ``Poly`` for each factor and raises each value with
``Poly.__pow__``, so it shares only ``Poly`` arithmetic with the current
code: every term is the product of its coefficient, the assigned values at
their exponents and the monomial of the unassigned parameters.
"""

from __future__ import annotations

from fractions import Fraction

from kinexpand.coeffring import ContextMismatchError, Poly


def substitute(p: Poly, assignment) -> Poly:
    if not assignment:
        return p
    ctx = p.ctx
    idx_val: dict[int, Poly] = {}
    for name, value in assignment.items():
        if name not in ctx.index:
            raise ContextMismatchError(f"unknown parameter {name!r}")
        if isinstance(value, Poly):
            if value.ctx is not ctx:
                raise ContextMismatchError("assignment value from different context")
            idx_val[ctx.index[name]] = value
        else:
            idx_val[ctx.index[name]] = Poly.const(ctx, value)
    out = Poly(ctx, {})
    for exps, coeff in p.terms.items():
        rest = list(exps)
        factor = Poly.const(ctx, coeff)
        for i, value in idx_val.items():
            e = exps[i]
            if e == 0:
                continue
            rest[i] = 0
            if e < 0:
                # negative powers only substitutable by nonzero rationals
                v = value.constant_value()
                if v == 0:
                    raise ZeroDivisionError(
                        "substituting 0 into a negative power of "
                        f"{ctx.names[i]!r}"
                    )
                factor = factor.scale(Fraction(v) ** e)
            else:
                factor = factor * value ** e
        out = out + factor * Poly(ctx, {tuple(rest): 1})
    return out
