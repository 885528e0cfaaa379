"""Exact coefficient arithmetic: rationals and sparse multivariate polynomials.

Coefficients are sparse polynomials over the rationals in a fixed, ordered set
of named commuting parameters (a ``ParamContext``).  A polynomial maps
exponent tuples to exact rationals: ``int`` when the value is integral,
``fractions.Fraction`` otherwise, so the common integer case avoids
``Fraction`` arithmetic.  Zero coefficients are never stored and floats are
refused.  One parameter may be designated the *contraction parameter*
(``eps`` by convention): it is the only slot where negative exponents are
allowed, giving Laurent behaviour for Inonu--Wigner style limits.

Terms are ordered graded-lexicographically on exponent vectors, which fixes a
canonical serialisation (see :func:`format_poly` / :func:`parse_poly`).
All values are immutable after construction (a polynomial's ``terms`` is a
read-only view) and all operations are pure.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from itertools import combinations, compress
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

Exponents = tuple  # one int per context parameter

ScalarLike = Union[int, Fraction]


class ContextMismatchError(ValueError):
    """Raised when polynomials from different parameter contexts are mixed."""


class DivergenceError(ArithmeticError):
    """A contraction limit hit a negative power of the contraction parameter.

    ``power`` carries the most negative exponent encountered.
    """

    def __init__(self, power: int):
        super().__init__(f"divergent term with contraction-parameter power {power}")
        self.power = power


class Frozen:
    """Base of shared objects whose attributes are set once, by
    :meth:`_init_slots` in ``__new__`` or ``__init__``, and then refuse
    assignment and deletion."""

    __slots__ = ()

    def _init_slots(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot delete {name!r}"
        )


class ParamContext(Frozen):
    """An ordered, immutable set of parameter names.

    Exponent tuples of every :class:`Poly` in this context are indexed by the
    declared order, and ``index`` (read-only) maps each name to its place.
    ``laurent`` names the single parameter allowed to carry negative
    exponents (or None).

    Contexts are interned: constructing a context with the names and
    ``laurent`` of a live one returns that object, so equal contexts are
    identical and the ``is`` checks below (contexts, the shared ``zero``
    exponent tuple) hold across algebras built in code and read from files.
    """

    __slots__ = ("names", "index", "laurent", "zero", "_laurent_idx", "__weakref__")

    def __new__(cls, names: Iterable[str], laurent: str | None = None):
        names = tuple(names)
        ctx = _CONTEXTS.get((names, laurent))
        if ctx is not None:
            return ctx
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        index = MappingProxyType({n: i for i, n in enumerate(names)})
        if laurent is not None and laurent not in index:
            raise ValueError(f"laurent parameter {laurent!r} not declared")
        ctx = super().__new__(cls)
        ctx._init_slots(
            names=names,
            index=index,
            laurent=laurent,
            _laurent_idx=index[laurent] if laurent is not None else -1,
            # one shared all-zero exponent tuple: the key of every constant term
            zero=(0,) * len(names),
        )
        _CONTEXTS[names, laurent] = ctx
        return ctx

    def __reduce__(self):
        # copies and unpickled values go through the interning too
        return ParamContext, (self.names, self.laurent)

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"ParamContext({self.names!r}, laurent={self.laurent!r})"


_CONTEXTS: "weakref.WeakValueDictionary[tuple, ParamContext]" = (
    weakref.WeakValueDictionary()
)


# Parameters used throughout the kinematical computations: expansion constants
# a1, a2; worldline-space curvature omega; spacetime curvature kappa; mass m
# and central-generator scalar xi; Casimir scalars c1, c2; contraction
# parameter eps.
KINEMATIC_PARAMS = ("a1", "a2", "omega", "kappa", "m", "xi", "c1", "c2", "eps")

KINEMATIC_CONTEXT = ParamContext(KINEMATIC_PARAMS, laurent="eps")


def grlex_key(exps: Exponents):
    """Graded-lexicographic sort key: total degree first, then lex."""
    return (sum(exps), exps)


def _exact(value: ScalarLike):
    """``value`` as an exact rational: ``int`` if integral, else Fraction."""
    if type(value) is int:
        return value
    if type(value) is Fraction:
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, float):
        raise TypeError(f"coefficient {value!r} is a float, not an exact rational")
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _fold(value):
    """Store an integral Fraction as ``int`` (arithmetic results)."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _accumulate(out: dict, exps: Exponents, c) -> None:
    """out[exps] += c, deleting a sum that cancels (values not yet folded).
    A first value is stored as it is, not added to 0."""
    s = out.get(exps)
    if s is not None:
        c = s + c
    if c:
        out[exps] = c
    elif s is not None:
        del out[exps]


class Poly(Frozen):
    """Sparse multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero exact rationals, ``int`` when
    integral and ``Fraction`` otherwise; it is a read-only view of a private
    dict, which the package's own arithmetic reads directly.  Use the
    constructors :meth:`const`, :meth:`var` and the operators; the raw
    constructor normalises (drops zeros, stores integral values as ``int``)
    and validates the negative-exponent rule.  ``ctx`` and the terms refuse
    assignment and deletion.
    """

    __slots__ = ("ctx", "_terms")

    def __init__(self, ctx: ParamContext, terms: Mapping[Exponents, ScalarLike] = ()):
        clean: dict = {}
        n = len(ctx)
        for exps, coeff in dict(terms).items():
            c = _exact(coeff)
            if c == 0:
                continue
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(f"exponent tuple {exps} does not fit context of size {n}")
            for i, e in enumerate(exps):
                if e < 0 and i != ctx._laurent_idx:
                    raise ValueError(
                        f"negative exponent for parameter {ctx.names[i]!r}"
                    )
            clean[ctx.zero if exps == ctx.zero else exps] = c
        _set_ctx(self, ctx)
        _set_terms(self, clean)

    @property
    def terms(self) -> Mapping[Exponents, ScalarLike]:
        return MappingProxyType(self._terms)

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, ctx: ParamContext, value: ScalarLike) -> "Poly":
        c = _exact(value)
        return cls._raw(ctx, {ctx.zero: c} if c else {})

    @classmethod
    def var(cls, ctx: ParamContext, name: str, power: int = 1) -> "Poly":
        exps = [0] * len(ctx)
        exps[ctx.index[name]] = power
        return cls(ctx, {tuple(exps): 1})

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and self.ctx.zero in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if non-constant)."""
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self._terms[self.ctx.zero])

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.ctx is not other.ctx:
            raise ContextMismatchError("polynomials from different parameter contexts")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        for exps, c in other._terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = _fold(s)
            else:
                del out[exps]
        return Poly._raw(self.ctx, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly._raw(self.ctx, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        ctx = self.ctx
        if ctx is not other.ctx:
            raise ContextMismatchError("polynomials from different parameter contexts")
        st, ot = self._terms, other._terms
        if len(st) == 1 and len(ot) == 1:
            # single term times single term: nearly every product the
            # expansion drivers and the closure checks make
            ((e1, c1),) = st.items()
            ((e2, c2),) = ot.items()
            c = c1 * c2
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            zero = ctx.zero
            if e1 is zero:
                return Poly._raw(ctx, {e2: c})
            if e2 is zero:
                return Poly._raw(ctx, {e1: c})
            e = tuple([a + b for a, b in zip(e1, e2)])
            return Poly._raw(ctx, {zero if e == zero else e: c})
        out: dict = {}
        for e1, c1 in st.items():
            for e2, c2 in ot.items():
                e = tuple([a + b for a, b in zip(e1, e2)])
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        zero = ctx.zero
        return Poly._raw(
            ctx, {zero if e == zero else e: _fold(c) for e, c in out.items()}
        )

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial powers are not supported")
        result = Poly.const(self.ctx, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, value: ScalarLike) -> "Poly":
        v = _exact(value)
        if v == 0:
            return Poly._raw(self.ctx, {})
        return Poly._raw(self.ctx, {e: _fold(c * v) for e, c in self._terms.items()})

    @classmethod
    def _raw(cls, ctx: ParamContext, terms: dict) -> "Poly":
        # internal: terms already normalised
        p = cls.__new__(cls)
        _set_ctx(p, ctx)
        _set_terms(p, terms)
        return p

    def __reduce__(self):
        return Poly, (self.ctx, self._terms)

    # -- comparison / hashing --------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx is other.ctx and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.ctx, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)

    # -- substitution and limits -----------------------------------------

    def substitute(self, assignment: Mapping[str, Union[ScalarLike, "Poly"]]) -> "Poly":
        """Replace assigned parameters by rationals or polynomials: the
        :func:`substitution` of the assignment, applied to this polynomial."""
        if not assignment:
            return self
        return substitution(self.ctx, assignment)(self)

    def substitute_power(self, name: str, power: int, value: ScalarLike) -> "Poly":
        """Reduce every occurrence of ``name ** power`` to ``value``.

        Exponents ``e`` of ``name`` become ``e mod power`` with the
        coefficient multiplied by ``value ** (e // power)``.  Used for
        constraint-aware substitution such as ``a1^2 -> -1``.
        """
        if power <= 0:
            raise ValueError("power must be positive")
        i = self.ctx.index[name]
        v = Fraction(value)
        out: dict = {}
        for exps, coeff in self._terms.items():
            q, r = divmod(exps[i], power)
            if q:
                coeff = coeff * v ** q
                exps = exps[:i] + (r,) + exps[i + 1 :]
            _accumulate(out, exps, coeff)
        return _normalised(self.ctx, out)

    def reduce(self, basis: Sequence["Poly"], order: Sequence[str] = ()) -> tuple:
        """Divide by ``basis``: ``(remainder, quotients)``, one quotient per
        basis element, with ``self == remainder + sum(q_i * g_i)``.

        Multivariate division (Cox, Little and O'Shea, *Ideals, Varieties,
        and Algorithms*, ch. 2, section 3) under the lex order of ``order``,
        parameter names from the most significant; parameters it leaves out
        follow in context order.  The leading terms of ``basis`` must be
        pairwise coprime, which makes it a Groebner basis (Buchberger's first
        criterion): the remainder is then the unique normal form, zero
        exactly when ``self`` lies in the ideal of ``basis``.  A zero basis
        element, two leading terms with a common parameter and a negative
        exponent raise ``ValueError``.  Coefficients stay exact.
        """
        ctx = self.ctx
        rank = [ctx.index[name] for name in order]
        rank += [i for i in range(len(ctx.names)) if i not in rank]

        def key(exps):
            return [exps[i] for i in rank]

        leads = []
        for g in basis:
            self._check(g)
            if not g._terms:
                raise ValueError("a zero polynomial has no leading term")
            lead = max(g._terms, key=key)
            leads.append((lead, g._terms[lead], g))
        for (a, _, g), (b, _, h) in combinations(leads, 2):
            if any(x and y for x, y in zip(a, b)):
                raise ValueError(f"the leading terms of {g} and {h} are not coprime")
        if any(e < 0 for p in (self, *basis) for exps in p._terms for e in exps):
            raise ValueError("division needs nonnegative exponents")
        rest = dict(self._terms)
        remainder: dict = {}
        quotients = [{} for _ in leads]
        while rest:
            exps = max(rest, key=key)
            for (lead, lc, g), q in zip(leads, quotients):
                shift = tuple([e - l for e, l in zip(exps, lead)])
                if all(s >= 0 for s in shift):
                    break
            else:
                remainder[exps] = rest.pop(exps)
                continue
            f = Fraction(rest[exps], lc)
            _accumulate(q, shift, f)
            for e, c in g._terms.items():
                _accumulate(rest, tuple([a + b for a, b in zip(e, shift)]), -f * c)
        return _normalised(ctx, remainder), tuple(_normalised(ctx, q) for q in quotients)

    def limit_contraction(self) -> "Poly":
        """Send the contraction parameter to zero.

        Terms with positive contraction power are dropped; any term with a
        negative power raises :class:`DivergenceError` carrying the most
        negative power present.
        """
        ctx = self.ctx
        i = ctx._laurent_idx
        if i < 0:
            raise ContextMismatchError("context has no contraction parameter")
        worst = min((e[i] for e in self._terms), default=0)
        if worst < 0:
            raise DivergenceError(worst)
        out = {e: c for e, c in self._terms.items() if e[i] == 0}
        return Poly._raw(ctx, out)


_set_ctx = Poly.ctx.__set__
_set_terms = Poly._terms.__set__


def _normalised(ctx: ParamContext, out: dict) -> Poly:
    """A polynomial of the unfolded, nonzero sums in ``out``."""
    zero = ctx.zero
    return Poly._raw(ctx, {zero if e == zero else e: _fold(c) for e, c in out.items()})


# ---------------------------------------------------------------------------
# Text grammar
#
#   poly    := term (('+' | '-') term)*
#   term    := ['-'] factor ('*' factor)*
#   factor  := rational | ident ['^' integer] | '(' poly ')'
#   rational:= integer ['/' integer]
#
# Canonical emission: terms in descending graded-lex order, explicit '*'
# between factors, '^' only for powers != 1, e.g. ``-4*a2^2*c1*c2``.
# ---------------------------------------------------------------------------


# An error message quotes at most this many characters of the input, so a
# malformed token of any length still gives one short line.
MAX_QUOTED = 60


def _quoted(text: str) -> str:
    """``repr`` of ``text``, cut to :data:`MAX_QUOTED` characters and ``...``."""
    if len(text) <= MAX_QUOTED:
        return repr(text)
    return repr(text[:MAX_QUOTED]) + "..."


class ParseError(ValueError):
    """Malformed text; ``position`` is the offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PolyParseError(ParseError):
    """A polynomial that does not parse."""


def _tokenize(text: str, symbols: str, error: type) -> list:
    """Split ``text`` into (kind, text, position) tokens.

    Kinds are ``int`` (a run of digits), ``ident``, each character of
    ``symbols``, and a final ``end``.  Anything else raises ``error``.
    """
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
        elif ch in symbols:
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise error(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


# Most ``expr`` levels one text may nest, counting the whole text as one: a
# level takes up to four Python frames, and the rest of the interpreter's
# default limit of 1000 frames is left to the normal-ordering kernel (see
# ``kinexpand.uea.MAX_DEGREE``).
MAX_NESTING = 64

# Most bits the numerator or the denominator of a rational that a parser
# forms may have.  A value's text then has at most 1,234 digits, so three
# such values multiplied still print within the 4,300 digits ``str`` writes.
MAX_RATIONAL_BITS = 4096


def _rational_too_large(c) -> bool:
    """Whether ``c``'s numerator or denominator exceeds :data:`MAX_RATIONAL_BITS`."""
    if type(c) is int:
        return c.bit_length() > MAX_RATIONAL_BITS
    return (
        c.numerator.bit_length() > MAX_RATIONAL_BITS
        or c.denominator.bit_length() > MAX_RATIONAL_BITS
    )


class _TokenStream:
    """Recursive-descent base shared by the polynomial and expression parsers.

    Parses the common sum and product levels::

        expr := term (('+' | '-') term)*
        term := ('+' | '-')* factor ('*' factor)*

    Subclasses supply ``factor``, ``rationals`` and the token set; values
    only need ``+``, ``-``, ``*`` and unary minus.  An ``expr`` nested more
    than :data:`MAX_NESTING` levels deep is an error, and so is a factor,
    product or sum with a rational past :data:`MAX_RATIONAL_BITS`: each is
    checked as it is formed, so no value grows past the bound by more than
    one operation.
    """

    symbols = ""
    error = ParseError

    def __init__(self, text: str):
        self.tokens = _tokenize(text, self.symbols, self.error)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            found = "end of input" if tok[0] == "end" else _quoted(tok[1])
            raise self.error(f"expected {kind!r}, found {found}", tok[2])
        return tok

    def unexpected(self, tok) -> ParseError:
        """The error for a token that no rule accepts."""
        if tok[0] == "end":
            return self.error("unexpected end of input", tok[2])
        return self.error(f"unexpected token {_quoted(tok[1])}", tok[2])

    def parse(self):
        """The whole text as one ``expr``; trailing tokens are an error."""
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise self.error(f"trailing input {_quoted(tok[1])}", tok[2])
        return value

    def expr(self):
        if self.depth == MAX_NESTING:
            raise self.error(
                f"nesting deeper than {MAX_NESTING} levels", self.peek()[2]
            )
        self.depth += 1
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, position = self.advance()
            rhs = self.term()
            value = self.bounded(value + rhs if op == "+" else value - rhs, position)
        self.depth -= 1
        return value

    def term(self):
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -sign
        value = self.bounded_factor()
        while self.peek()[0] == "*":
            position = self.advance()[2]
            value = self.bounded(value * self.bounded_factor(), position)
        return value if sign == 1 else -value

    def bounded_factor(self):
        position = self.peek()[2]
        return self.bounded(self.factor(), position)

    def rationals(self, value):
        """The rational coefficients of a parsed value."""
        raise NotImplementedError

    def bounded(self, value, position: int):
        """``value``, unless one of its rationals is past :data:`MAX_RATIONAL_BITS`."""
        if any(map(_rational_too_large, self.rationals(value))):
            raise self.error(
                f"rational exceeds the bound of {MAX_RATIONAL_BITS} bits", position
            )
        return value

    def integer(self, tok) -> int:
        """The value of an ``int`` token."""
        try:
            return int(tok[1])
        except ValueError:
            # beyond int()'s digit limit, or a digit int() rejects ('²')
            raise self.error("integer literal too long or malformed", tok[2]) from None

    def rational(self, tok):
        """The ``int`` token's value, or a fraction when ``'/' int`` follows."""
        num = self.integer(tok)
        if self.peek()[0] != "/":
            return num
        self.advance()
        tok = self.expect("int")
        den = self.integer(tok)
        if not den:
            raise self.error("division by zero", tok[2])
        return Fraction(num, den)


class _PolyParser(_TokenStream):
    symbols = "+-*/^()"
    error = PolyParseError

    def __init__(self, text: str, ctx: ParamContext):
        super().__init__(text)
        self.ctx = ctx

    def rationals(self, value: Poly):
        return value._terms.values()

    def factor(self) -> Poly:
        tok = self.advance()
        if tok[0] == "int":
            return Poly.const(self.ctx, self.rational(tok))
        if tok[0] == "ident":
            if tok[1] not in self.ctx.index:
                raise PolyParseError(f"unknown parameter {_quoted(tok[1])}", tok[2])
            power = 1
            if self.peek()[0] == "^":
                self.advance()
                neg = False
                if self.peek()[0] == "-":
                    self.advance()
                    neg = True
                tok_power = self.expect("int")
                power = self.integer(tok_power)
                if neg:
                    power = -power
                if power < 0 and tok[1] != self.ctx.laurent:
                    raise PolyParseError(
                        f"negative exponent for parameter {tok[1]!r}", tok_power[2]
                    )
            return Poly.var(self.ctx, tok[1], power)
        if tok[0] == "(":
            p = self.expr()
            self.expect(")")
            return p
        raise self.unexpected(tok)


def parse_poly(text: str, ctx: ParamContext) -> Poly:
    """Parse the canonical polynomial grammar."""
    return _PolyParser(text, ctx).parse()


def _format_monomial(ctx: ParamContext, exps: Exponents, coeff: Fraction) -> str:
    """Unsigned monomial string; coeff must be positive."""
    factors = []
    if coeff != 1 or not any(exps):
        factors.append(str(coeff))
    for name, e in zip(ctx.names, exps):
        if e == 0:
            continue
        factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


def substitution(ctx: ParamContext, assignment: Mapping[str, Union[ScalarLike, Poly]]):
    """The map ``p -> p.substitute(assignment)`` on polynomials of ``ctx``:
    the package's one evaluator of polynomials at a point.

    A ring homomorphism, applied in one pass over the terms.  The
    assignment is validated once, here: an unknown name or a polynomial from
    another context raises :class:`ContextMismatchError`, a float
    ``TypeError``.  A rational value (or a constant polynomial) multiplies
    each term's coefficient by its power.  The map evaluates in integers and
    visits only a term's nonzero exponents: a term's numerator and
    denominator are products of the powers' numerators and denominators,
    and a term left with no parameter is added to one integer sum over a
    common denominator, which makes the constant term's one ``Fraction`` (or
    ``int``) at the end; so a fully assigned polynomial makes no ``Fraction``
    before its value.  Each power of a value is computed once per map, on
    first use; a negative power of the laurent parameter swaps numerator and
    denominator, and raises ``ZeroDivisionError`` for 0.  A non-constant
    polynomial value multiplies the term by its power, and raises
    ``ValueError`` in a negative power.  Unassigned parameters are kept.
    """
    # per parameter: None when unassigned, {exponent: (numerator,
    # denominator)} for a rational value, filled on first use, or the Poly
    # of a non-constant value
    table: list = [None] * len(ctx.names)
    rationals = {}  # index -> rational value
    for name, value in assignment.items():
        i = ctx.index.get(name)
        if i is None:
            raise ContextMismatchError(f"unknown parameter {name!r}")
        if not isinstance(value, Poly):
            rationals[i] = _exact(value)
        elif value.ctx is not ctx:
            raise ContextMismatchError("assignment value from different context")
        elif value.is_constant():
            rationals[i] = value._terms.get(ctx.zero, 0)
        else:
            table[i] = value
    for i in rationals:
        table[i] = {}
    zero = ctx.zero
    positions = range(len(ctx.names))

    def power(i, e):
        """The value of parameter ``i`` to the ``e``, as (numerator, denominator)."""
        v = rationals[i]
        if e > 0:
            return v.numerator**e, v.denominator**e
        if v == 0:
            raise ZeroDivisionError(
                f"substituting 0 into a negative power of {ctx.names[i]!r}"
            )
        return v.denominator**-e, v.numerator**-e

    def apply(poly: Poly) -> Poly:
        if poly.ctx is not ctx:
            raise ContextMismatchError("polynomial from a different context")
        num, den = 0, 1  # the terms left with no parameter, summed
        out: dict = {}
        for exps, coeff in poly._terms.items():
            n, d = coeff.numerator, coeff.denominator
            factors = None
            kept = False  # an unassigned parameter stays in the term
            for i in compress(positions, exps):
                entry = table[i]
                if entry is None:
                    kept = True
                elif type(entry) is dict:
                    e = exps[i]
                    p = entry.get(e)
                    if p is None:
                        p = entry[e] = power(i, e)
                    n *= p[0]
                    d *= p[1]
                elif factors is None:
                    factors = [entry ** exps[i]]  # ValueError for e < 0
                else:
                    factors.append(entry ** exps[i])
            if not (kept or factors):
                if d == den:
                    num += n
                else:
                    num, den = num * d + n * den, den * d
                continue
            coeff = n if d == 1 else Fraction(n, d)
            # the term's monomial with the assigned parameters taken out
            key = tuple([0 if table[i] is not None else e for i, e in enumerate(exps)])
            if factors is None:
                _accumulate(out, key, coeff)
                continue
            term = Poly._raw(ctx, {key: coeff} if coeff else {})
            for factor in factors:
                term = term * factor
            for e, c in term._terms.items():
                _accumulate(out, e, c)
        if num:
            constant = num // den if num % den == 0 else Fraction(num, den)
            if not out:
                return Poly._raw(ctx, {zero: constant})
            _accumulate(out, zero, constant)
        return _normalised(ctx, out)

    return apply


def format_poly(p: Poly) -> str:
    """Canonical emission: descending graded-lex term order, explicit '*'."""
    if p.is_zero():
        return "0"
    out = []
    for exps in sorted(p._terms, key=grlex_key, reverse=True):
        coeff = p._terms[exps]
        mono = _format_monomial(p.ctx, exps, abs(coeff))
        if not out:
            out.append(mono if coeff > 0 else "-" + mono)
        else:
            out.append("+ " + mono if coeff > 0 else "- " + mono)
    return " ".join(out)
