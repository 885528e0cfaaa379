"""Parser for enveloping-algebra expressions (CLI input grammar).

Grammar::

    expr    := term (('+' | '-') term)*
    term    := ['-'] factor ('*' factor)*
    factor  := primary ['^' integer]        (integer <= MAX_EXPONENT)
    primary := rational | parameter | generator | '<' KEY '>'
             | '[' expr ',' expr ']' | '(' expr ')'

Identifiers resolve first against the algebra's generators, then against its
parameter context.  ``<W1>``, ``<C2>`` etc. are the named composite elements;
``[a,b]`` is the commutator.  The result is always normal-ordered.
Rationals are bounded as in the polynomial grammar
(``coeffring.MAX_RATIONAL_BITS``), each factor, product and sum checked as
it is formed.
"""

from __future__ import annotations

from .coeffring import ParseError, Poly, _quoted, _TokenStream
from .liealg import LieAlgebra
from .uea import UEAElement, named_element


# Largest exponent ``^`` accepts.  The degree of a power grows with its
# exponent and the size of its normal form with the degree, so an unbounded
# exponent lets one short expression exhaust time and memory.
MAX_EXPONENT = 16


class ExprParseError(ParseError):
    """An enveloping-algebra expression that does not parse."""


class _Parser(_TokenStream):
    symbols = "+-*/^()[]<>,"
    error = ExprParseError

    def __init__(self, text: str, alg: LieAlgebra):
        super().__init__(text)
        self.alg = alg

    def rationals(self, value: UEAElement):
        return (c for poly in value._terms.values() for c in poly._terms.values())

    def factor(self) -> UEAElement:
        el = self.primary()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            too_long = len(tok[1]) > len(str(MAX_EXPONENT))
            if too_long or self.integer(tok) > MAX_EXPONENT:
                raise ExprParseError(
                    f"exponent exceeds the maximum of {MAX_EXPONENT}", tok[2]
                )
            el = el ** int(tok[1])
        return el

    def primary(self) -> UEAElement:
        alg = self.alg
        tok = self.advance()
        if tok[0] == "int":
            return UEAElement.scalar(alg, self.rational(tok))
        if tok[0] == "ident":
            if tok[1] in alg.gen_index:
                return UEAElement.generator(alg, tok[1])
            if tok[1] in alg.ctx.index:
                return UEAElement.scalar(alg, Poly.var(alg.ctx, tok[1]))
            raise ExprParseError(f"unknown symbol {_quoted(tok[1])}", tok[2])
        if tok[0] == "<":
            key = self.expect("ident")[1]
            self.expect(">")
            try:
                return named_element(alg, key)
            except KeyError as exc:
                raise ExprParseError(exc.args[0], tok[2]) from None
        if tok[0] == "[":
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect("]")
            return a.commutator(b)
        if tok[0] == "(":
            el = self.expr()
            self.expect(")")
            return el
        raise self.unexpected(tok)


def parse_expression(text: str, alg: LieAlgebra) -> UEAElement:
    """Parse and normal-order an expression over the algebra's UEA."""
    return _Parser(text, alg).parse()
