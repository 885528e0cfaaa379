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
"""

from __future__ import annotations

from fractions import Fraction

from .coeffring import Poly
from .liealg import LieAlgebra
from .uea import UEAElement, named_element


# Largest exponent ``^`` accepts.  The degree of a power grows with its
# exponent and the size of its normal form with the degree, so an unbounded
# exponent lets one short expression exhaust time and memory.
MAX_EXPONENT = 16


class ExprParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        elif ch in "+-*/^()[]<>,":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ExprParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, alg: LieAlgebra):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.alg = alg

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> UEAElement:
        el = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprParseError(f"trailing input {tok[1]!r}", tok[2])
        return el

    def expr(self) -> UEAElement:
        el = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            el = el + rhs if op == "+" else el - rhs
        return el

    def term(self) -> UEAElement:
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -sign
        el = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            el = el * self.factor()
        return el if sign == 1 else -el

    def factor(self) -> UEAElement:
        el = self.primary()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            if len(tok[1]) > len(str(MAX_EXPONENT)) or int(tok[1]) > MAX_EXPONENT:
                raise ExprParseError(
                    f"exponent exceeds the maximum of {MAX_EXPONENT}", tok[2]
                )
            el = el ** int(tok[1])
        return el

    def primary(self) -> UEAElement:
        alg = self.alg
        tok = self.advance()
        if tok[0] == "int":
            num = int(tok[1])
            if self.peek()[0] == "/":
                self.advance()
                den = int(self.expect("int")[1])
                return UEAElement.scalar(alg, Fraction(num, den))
            return UEAElement.scalar(alg, num)
        if tok[0] == "ident":
            if tok[1] in alg.gen_index:
                return UEAElement.generator(alg, tok[1])
            if tok[1] in alg.ctx.index:
                return UEAElement.scalar(alg, Poly.var(alg.ctx, tok[1]))
            raise ExprParseError(f"unknown symbol {tok[1]!r}", tok[2])
        if tok[0] == "<":
            key = self.expect("ident")[1]
            self.expect(">")
            try:
                return named_element(alg, key)
            except KeyError:
                raise ExprParseError(f"unknown named element {key!r}", tok[2])
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
        raise ExprParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse_expression(text: str, alg: LieAlgebra) -> UEAElement:
    """Parse and normal-order an expression over the algebra's UEA."""
    return _Parser(text, alg).parse()
