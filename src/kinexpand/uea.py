"""Universal enveloping algebra with PBW normal ordering.

Elements are finite linear combinations of PBW monomials, i.e. exponent
vectors over the algebra's ordered generator basis, with polynomial
coefficients (:class:`~kinexpand.coeffring.Poly`).  The kernel has two
primitives.  The first is the product of a PBW monomial ``m`` with a
generator ``x_g`` from the right (the monomial-level multiplication of
algebras of solvable type, after Kandri-Rody and Weispfenning).  Write
``m = m'*x_k`` with ``x_k`` the last generator present in ``m``.  If
``k <= g`` the product is the monomial with the exponent of ``g`` raised by
one.  Otherwise::

    m*x_g = (m'*x_g)*x_k + sum_l c_l (m'*x_l),   [x_k, x_g] = sum_l c_l x_l

Every call on the right has a monomial of lower degree, or is a bump, so
the recursion terminates, and by the PBW theorem the result is the
canonical representative.  Every normal form is a fold over this primitive
(:func:`_fold`): a product folds its whole left factor through the letters
of each right monomial, and a word is the unit folded through its letters.

The second primitive is the adjoint action ``ad(m, g) = [m, x_g]``, with
``m = m'*x_k`` as above and ``[x_k, x_g]`` for either order of ``k`` and
``g``::

    [m'*x_k, x_g] = sum_l c_l (m'*x_l) + [m', x_g]*x_k

Its products are all the first primitive, so the top-degree term, which
cancels in ``m*x_g - x_g*m``, is never formed.  The bracket of two monomials
is ``ad`` when either is a generator, and otherwise the Leibniz rule on the
last letter of the right one, ``m2 = m2'*x_j``::

    [m1, m2'*x_j] = [m1, m2']*x_j + m2'*[m1, x_j]

with ``m2'*t`` a fold.  :meth:`UEAElement.commutator` sums these monomial
brackets over pairs of terms.

Per algebra the kernel memoises the product primitive and ``ad``, keyed by
(monomial, generator), and the brackets of monomial pairs that are not
generators; no word and no product of two monomials is stored.  Every table
entry, and the bracket table the kernel reads, is a flat dict ``{(monomial,
exponents): rational}``: a structure constant ``c * params^e`` is the
triple ``(l, e, c)``, a product of two terms multiplies the rationals and
adds the exponent tuples (skipped when either is the context's shared zero
tuple), and a rational is an ``int`` when integral and a ``Fraction``
otherwise, as in :class:`~kinexpand.coeffring.Poly`.  No ``Poly`` is made
inside the kernel.
A product, a commutator or :func:`normal_form` sums the cross terms of its
operands' coefficients into one flat dict and groups it into ``{monomial:
Poly}`` once, at the end.

The tables belong to the kernel, held weakly per algebra, and
:func:`kernel_stats` reports their sizes.  With them the kernel keeps the
algebra's Lie generating set (:func:`lie_generating_set`), on which
:func:`is_central` certifies centrality: ``[x, -]`` is a derivation, the
coefficient ring is a domain and the enveloping algebra is free over it
(PBW), so an element that commutes with a generating set commutes with
everything.  A failure names the first basis generator, in basis order,
that the element does not commute with, the witness a scan of the whole
basis gives.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Iterable, Sequence, Tuple, Union

from .coeffring import ContextMismatchError, Poly, format_poly, grlex_key
from .liealg import _CYCLIC, LieAlgebra

# A PBW monomial: exponent tuple over the generator basis; () handled as the
# all-zero tuple of the algebra's dimension.
Monomial = Tuple[int, ...]

# A word: tuple of generator indices in arbitrary order.
WordLetters = Tuple[int, ...]

CoeffLike = Union[int, Fraction, Poly]


def monomial_to_word(mono: Monomial) -> WordLetters:
    out = []
    for g, e in enumerate(mono):
        out.extend([g] * e)
    return tuple(out)


class _Tables:
    """Normal-ordering tables of one algebra.

    Every value is a flat dict ``{(monomial, exponents): rational}``.  Holds
    no reference to the algebra, so that the weak table below can drop them
    together with it.
    """

    __slots__ = (
        "dim", "zero", "letters", "brackets", "products", "ads", "commutators",
        "generating",
    )

    def __init__(self, alg: LieAlgebra):
        self.dim = alg.dim
        self.zero = alg.ctx.zero
        # the monomial x_g of each generator
        self.letters = tuple(
            tuple(int(g == k) for k in range(alg.dim)) for g in range(alg.dim)
        )
        # [x_k, x_g] for every ordered pair as (l, exponents, rational) triples
        self.brackets = {
            (k, g): [
                (l, exps, c)
                for l, p in alg.bracket_pair(k, g).items()
                for exps, c in p.terms.items()
            ]
            for k in range(alg.dim)
            for g in range(alg.dim)
        }
        self.products: dict = {}  # (monomial, g) -> normal form of m*x_g
        self.ads: dict = {}  # (monomial, g) -> normal form of [m, x_g]
        self.commutators: dict = {}  # (m1, m2) -> [m1, m2], neither a generator
        self.generating = lie_generating_set(alg)


_TABLES: "weakref.WeakKeyDictionary[LieAlgebra, _Tables]" = weakref.WeakKeyDictionary()

_KERNEL_TABLES = ("products", "ads", "commutators")


def _tables(alg: LieAlgebra) -> _Tables:
    tables = _TABLES.get(alg)
    if tables is None:
        tables = _TABLES[alg] = _Tables(alg)
    return tables


def kernel_stats(alg: LieAlgebra) -> dict:
    """Entry counts of the algebra's kernel tables (a fresh dict)."""
    tables = _TABLES.get(alg)
    return {
        name: 0 if tables is None else len(getattr(tables, name))
        for name in _KERNEL_TABLES
    }


def _exps_sum(e1: tuple, e2: tuple, zero: tuple) -> tuple:
    """Exponents of the product of two parameter monomials; ``zero`` is the
    context's shared all-zero tuple, kept by identity."""
    if e1 is zero:
        return e2
    if e2 is zero:
        return e1
    e = tuple([a + b for a, b in zip(e1, e2)])
    return zero if e == zero else e


def _add_term(out: dict, key: tuple, c) -> None:
    """out[key] += c, deleting a sum that cancels and storing an integral
    ``Fraction`` sum as ``int``, as :class:`Poly` stores them."""
    v = out.get(key, 0) + c
    if not v:
        del out[key]
    elif type(v) is Fraction and v.denominator == 1:
        out[key] = v.numerator
    else:
        out[key] = v


def _add_into(out: dict, terms: dict, exps: tuple, c, zero: tuple) -> None:
    """out += c * params^exps * terms, on flat dicts, term by term."""
    items = terms.items()
    if exps is not zero:
        items = [((m, _exps_sum(e, exps, zero)), c2) for (m, e), c2 in items]
    for key, c2 in items:
        _add_term(out, key, c * c2)


def _group(alg: LieAlgebra, flat: dict) -> dict:
    """{monomial: Poly} from a flat dict: the one place a result becomes Poly."""
    grouped: dict = {}
    for (mono, exps), c in flat.items():
        poly = grouped.get(mono)
        if poly is None:
            grouped[mono] = {exps: c}
        else:
            poly[exps] = c
    ctx = alg.ctx
    return {mono: Poly._raw(ctx, terms) for mono, terms in grouped.items()}


def _last(mono: Monomial) -> int:
    """Index of the last generator present in mono; -1 for the monomial 1."""
    k = len(mono) - 1
    while k >= 0 and not mono[k]:
        k -= 1
    return k


def _times_generator(tables: _Tables, mono: Monomial, g: int) -> dict:
    """Normal form of mono * x_g as a flat dict.

    Bumps are computed on the spot; every other product is memoised.
    """
    k = tables.dim - 1
    while k > g and not mono[k]:
        k -= 1
    if k <= g:
        return {(mono[:g] + (mono[g] + 1,) + mono[g + 1 :], tables.zero): 1}
    key = (mono, g)
    out = tables.products.get(key)
    if out is not None:
        return out
    zero = tables.zero
    lower = mono[:k] + (mono[k] - 1,) + mono[k + 1 :]
    out = {}
    for (m2, e2), c2 in _times_generator(tables, lower, g).items():
        _add_into(out, _times_generator(tables, m2, k), e2, c2, zero)
    for l, e, c in tables.brackets[k, g]:
        _add_into(out, _times_generator(tables, lower, l), e, c, zero)
    tables.products[key] = out
    return out


def _fold(tables: _Tables, flat: dict, mono: Monomial) -> dict:
    """Normal form of flat * mono, for a PBW monomial mono, as a flat dict.

    The letters of mono are multiplied in one at a time, in basis order.  A
    term whose last generator comes no later than the next letter takes the
    rest of mono as one bump of its exponents.
    """
    zero = tables.zero
    rest = list(mono)
    out: dict = {}
    for g, n in enumerate(mono):
        for _ in range(n):
            acc: dict = {}
            for key, c in flat.items():
                m, e = key
                if any(m[g + 1 :]):
                    _add_into(acc, _times_generator(tables, m, g), e, c, zero)
                else:
                    _add_term(out, (tuple([a + b for a, b in zip(m, rest)]), e), c)
            if not acc:
                return out
            flat = acc
            rest[g] -= 1
    for key, c in flat.items():
        _add_term(out, key, c)
    return out


def _ad(tables: _Tables, mono: Monomial, g: int) -> dict:
    """Normal form of [mono, x_g] as a flat dict, memoised.

    With ``mono = m'*x_k``, ``x_k`` its last generator::

        [m'*x_k, x_g] = sum_l c_l (m'*x_l) + [m', x_g]*x_k

    so no top-degree term is formed.
    """
    key = (mono, g)
    out = tables.ads.get(key)
    if out is not None:
        return out
    k = _last(mono)
    if k < 0:
        return {}
    zero = tables.zero
    lower = mono[:k] + (mono[k] - 1,) + mono[k + 1 :]
    out = {}
    for l, e, c in tables.brackets[k, g]:
        _add_into(out, _times_generator(tables, lower, l), e, c, zero)
    for (m2, e2), c2 in _ad(tables, lower, g).items():
        _add_into(out, _times_generator(tables, m2, k), e2, c2, zero)
    tables.ads[key] = out
    return out


def _bracket(tables: _Tables, m1: Monomial, m2: Monomial) -> dict:
    """Normal form of [m1, m2] as a flat dict.  Do not mutate.

    A generator on either side is an :func:`_ad` call; otherwise the
    Leibniz rule on m2's last letter, ``m2 = m2'*x_j``::

        [m1, m2'*x_j] = [m1, m2']*x_j + m2'*[m1, x_j]

    memoised by (m1, m2).
    """
    d2 = sum(m2)
    if d2 == 1:
        return _ad(tables, m1, m2.index(1))
    d1 = sum(m1)
    if not d1 or not d2:
        return {}
    key = (m1, m2)
    out = tables.commutators.get(key)
    if out is not None:
        return out
    if d1 == 1:
        out = {t: -c for t, c in _ad(tables, m2, m1.index(1)).items()}
    else:
        j = _last(m2)
        lower = m2[:j] + (m2[j] - 1,) + m2[j + 1 :]
        out = _fold(tables, _bracket(tables, m1, lower), tables.letters[j])
        zero = tables.zero
        for (t, e), c in _ad(tables, m1, j).items():
            _add_into(out, _fold(tables, {(lower, zero): 1}, t), e, c, zero)
    tables.commutators[key] = out
    return out


def normal_form_word(alg: LieAlgebra, word: WordLetters) -> dict:
    """Normal form of a single word as a fresh {monomial: Poly}."""
    return normal_form(alg, [(word, 1)]).terms


def _coefficient(alg: LieAlgebra, value: CoeffLike) -> Poly:
    """``value`` as a coefficient of the algebra's context."""
    if not isinstance(value, Poly):
        return Poly.const(alg.ctx, value)
    if value.ctx is not alg.ctx:
        raise ContextMismatchError("coefficient from a different parameter context")
    return value


class UEAElement:
    """Linear combination of PBW monomials with Poly coefficients."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: LieAlgebra, terms=()):
        self.alg = alg
        clean: dict = {}
        for mono, coeff in dict(terms).items():
            coeff = _coefficient(alg, coeff)
            if coeff.is_zero():
                continue
            clean[tuple(mono)] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, alg: LieAlgebra, terms: dict) -> "UEAElement":
        el = cls.__new__(cls)
        el.alg = alg
        el.terms = terms
        return el

    @classmethod
    def zero(cls, alg: LieAlgebra) -> "UEAElement":
        return cls._raw(alg, {})

    @classmethod
    def one(cls, alg: LieAlgebra) -> "UEAElement":
        return cls._raw(alg, {(0,) * alg.dim: Poly.const(alg.ctx, 1)})

    @classmethod
    def generator(cls, alg: LieAlgebra, name: str) -> "UEAElement":
        mono = [0] * alg.dim
        mono[alg.gen_index[name]] = 1
        return cls._raw(alg, {tuple(mono): Poly.const(alg.ctx, 1)})

    @classmethod
    def scalar(cls, alg: LieAlgebra, value: CoeffLike) -> "UEAElement":
        coeff = _coefficient(alg, value)
        if coeff.is_zero():
            return cls.zero(alg)
        return cls._raw(alg, {(0,) * alg.dim: coeff})

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def _same_algebra(self, other: "UEAElement") -> bool:
        return self.alg is other.alg or self.alg.same_structure(other.alg)

    def _check(self, other: "UEAElement") -> None:
        if not self._same_algebra(other):
            raise ValueError("elements from different algebras")

    def __eq__(self, other) -> bool:
        if not isinstance(other, UEAElement):
            return NotImplemented
        return self._same_algebra(other) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("UEAElement is not hashable")

    # -- linear operations ------------------------------------------------

    def __add__(self, other: "UEAElement") -> "UEAElement":
        self._check(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = s
        return UEAElement._raw(self.alg, out)

    def __sub__(self, other: "UEAElement") -> "UEAElement":
        return self + (-other)

    def __neg__(self) -> "UEAElement":
        return UEAElement._raw(self.alg, {m: -c for m, c in self.terms.items()})

    def smul(self, value: CoeffLike) -> "UEAElement":
        """Multiply by a scalar (rational or coefficient polynomial)."""
        coeff = _coefficient(self.alg, value)
        if coeff.is_zero():
            return UEAElement.zero(self.alg)
        out = {}
        for mono, c in self.terms.items():
            p = c * coeff
            if not p.is_zero():
                out[mono] = p
        return UEAElement._raw(self.alg, out)

    # -- multiplicative operations ---------------------------------------

    def __mul__(self, other: "UEAElement") -> "UEAElement":
        """Associative product: ``self`` folded through each right monomial."""
        self._check(other)
        tables = _tables(self.alg)
        zero = tables.zero
        left = {(m, e): c for m, p in self.terms.items() for e, c in p.terms.items()}
        flat: dict = {}
        for m2, c2 in other.terms.items():
            folded = _fold(tables, left, m2)
            for e2, b in c2.terms.items():
                _add_into(flat, folded, e2, b, zero)
        return UEAElement._raw(self.alg, _group(self.alg, flat))

    def __pow__(self, n: int) -> "UEAElement":
        if n < 0:
            raise ValueError("negative powers are not defined in the UEA")
        result = self if n else UEAElement.one(self.alg)
        for _ in range(n - 1):
            result = result * self
        return result

    def commutator(self, other: "UEAElement") -> "UEAElement":
        """[self, other] = sum c1*c2*[m1, m2] over pairs of terms.

        Each monomial bracket comes from the kernel (:func:`_bracket`), so
        the top-degree terms of ``self*other`` and ``other*self``, which
        cancel, are never formed; zero brackets are skipped.
        """
        self._check(other)
        tables = _tables(self.alg)
        zero = tables.zero
        flat: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                br = _bracket(tables, m1, m2)
                if not br:
                    continue
                for e1, a in c1.terms.items():
                    for e2, b in c2.terms.items():
                        _add_into(flat, br, _exps_sum(e1, e2, zero), a * b, zero)
        return UEAElement._raw(self.alg, _group(self.alg, flat))

    # -- display ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"UEAElement({format_element(self)!r})"

    def __str__(self) -> str:
        return format_element(self)


def normal_form(alg: LieAlgebra, words: Iterable[tuple]) -> UEAElement:
    """Normal form of a linear combination of words.

    ``words`` yields (letters, coeff) pairs where letters is a sequence of
    generator indices or names and coeff is a Poly / rational.
    """
    tables = _tables(alg)
    zero = tables.zero
    flat: dict = {}
    for letters, coeff in words:
        nf = {((0,) * alg.dim, zero): 1}
        for g in letters:
            g = g if isinstance(g, int) else alg.gen_index[g]
            nf = _fold(tables, nf, tables.letters[g])
        for e, c in _coefficient(alg, coeff).terms.items():
            _add_into(flat, nf, e, c, zero)
    return UEAElement._raw(alg, _group(alg, flat))


def lie_generating_set(alg: LieAlgebra) -> Tuple[str, ...]:
    """Names of basis generators that generate the algebra, by closure.

    A generator is *reached* when every element commuting with the set
    commutes with it.  A generator with an all-zero bracket row is reached
    from the start.  When ``[a, b] = sum_l c_l x_l`` has ``a`` and ``b``
    reached and exactly one ``x_l`` with a nonzero coefficient unreached,
    that ``x_l`` is reached: ``c_l [x, x_l]`` is then a combination of zero
    commutators, and ``c_l`` is not a zero divisor.  While a generator is
    unreached, the unreached generator whose addition reaches the most is
    added, ties going to basis order.  The result is in basis order.
    """
    dim = alg.dim
    pairs = [((i, j), tuple(comps)) for (i, j), comps in alg.brackets.items()]

    def closure(reached: set) -> set:
        grown = True
        while grown:
            grown = False
            for (i, j), comps in pairs:
                if i in reached and j in reached:
                    new = [l for l in comps if l not in reached]
                    if len(new) == 1:
                        reached.add(new[0])
                        grown = True
        return reached

    in_brackets = {g for pair, _ in pairs for g in pair}
    reached = closure({g for g in range(dim) if g not in in_brackets})
    chosen = []
    while len(reached) < dim:
        best = None
        for g in range(dim):
            if g not in reached:
                grown = closure(reached | {g})
                if best is None or len(grown) > len(best[1]):
                    best = (g, grown)
        chosen.append(best[0])
        reached = best[1]
    return tuple(alg.generators[g].name for g in sorted(chosen))


def is_central(alg: LieAlgebra, x: UEAElement):
    """Whether x commutes with every basis generator.

    Returns (True, None) or (False, name of the first basis generator, in
    basis order, that x does not commute with).  ``True`` is certified on
    the algebra's Lie generating set alone (see :func:`lie_generating_set`).
    On a failure the basis is scanned in order for the witness, reusing the
    commutators already computed, so the witness is the one a full scan
    gives.
    """
    known: dict = {}

    def commutes(name: str) -> bool:
        ok = known.get(name)
        if ok is None:
            gen = UEAElement.generator(alg, name)
            ok = known[name] = x.commutator(gen).is_zero()
        return ok

    if all(commutes(name) for name in _tables(alg).generating):
        return True, None
    return False, next(g.name for g in alg.generators if not commutes(g.name))


def format_element(el: UEAElement) -> str:
    """Canonical text form: descending graded-lex monomial order."""
    if el.is_zero():
        return "0"
    alg = el.alg
    parts = []
    for mono in sorted(el.terms, key=grlex_key, reverse=True):
        coeff = el.terms[mono]
        factors = []
        for g, e in enumerate(mono):
            if e == 0:
                continue
            name = alg.generators[g].name
            factors.append(name if e == 1 else f"{name}^{e}")
        body = "*".join(factors)
        ctext = format_poly(coeff)
        if not body:
            text = f"({ctext})" if " " in ctext else ctext
        elif ctext == "1":
            text = body
        elif ctext == "-1":
            text = f"-{body}"
        elif " " in ctext:
            text = f"({ctext})*{body}"
        else:
            text = f"{ctext}*{body}"
        if not parts:
            parts.append(text)
        elif text.startswith("-"):
            parts.append("- " + text[1:])
        else:
            parts.append("+ " + text)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Named elements: the W vector, scalar products and Casimirs per algebra
# family.  Expressions are taken literally left-to-right and then
# normal-ordered.
# ---------------------------------------------------------------------------

def _gen(alg, name):
    if name not in alg.gen_index:
        raise KeyError(
            f"family {_family(alg)!r} needs generator {name!r}, "
            f"and {alg.name} has no such generator"
        )
    return UEAElement.generator(alg, name)


def _w_flat(alg: LieAlgebra, i: int) -> UEAElement:
    # W_i = P_b K_a - P_a K_b over the cyclic triple (i, a, b)
    _, a, b = _CYCLIC[i - 1]
    return _gen(alg, f"P{b}") * _gen(alg, f"K{a}") - _gen(alg, f"P{a}") * _gen(
        alg, f"K{b}"
    )


def _dot(alg: LieAlgebra, left: Sequence[UEAElement], right: Sequence[UEAElement]):
    out = UEAElement.zero(alg)
    for x, y in zip(left, right):
        out = out + x * y
    return out


def _family(alg: LieAlgebra) -> str:
    fam = alg.metadata.get("family", alg.name)
    if fam in ("galilei", "galilei_ext"):
        return "galilei"
    if fam in ("poincare", "euclid4"):
        return "poincare"
    if fam == "newton_hooke":
        return "newton_hooke"
    raise KeyError(f"no named elements for algebra {alg.name!r}")


def named_element(alg: LieAlgebra, key: str) -> UEAElement:
    """Catalog of composite elements: W1..W3, JP, JW, KP, K2, C1, C2."""
    return _named_over(alg, key, alg)


def _named_over(alg: LieAlgebra, key: str, like: LieAlgebra) -> UEAElement:
    """The named element ``key`` of ``like``'s family, written over the
    generators of ``alg``: e.g. the Poincare Casimirs over Galilei."""
    fam = _family(like)

    def w(i: int) -> UEAElement:
        flat = _w_flat(alg, i)
        if fam == "poincare":
            omega = Poly.var(alg.ctx, "omega")
            return _gen(alg, "H").smul(omega) * _gen(alg, f"J{i}") + flat
        return flat

    if key in ("W1", "W2", "W3"):
        return w(int(key[1]))
    js = [_gen(alg, f"J{i}") for i in (1, 2, 3)]
    ps = [_gen(alg, f"P{i}") for i in (1, 2, 3)]
    ks = [_gen(alg, f"K{i}") for i in (1, 2, 3)]
    if key == "JP":
        return _dot(alg, js, ps)
    if key == "JW":
        return _dot(alg, js, [w(1), w(2), w(3)])
    if key == "KP":
        return _dot(alg, ks, ps)
    if key == "K2":
        return _dot(alg, ks, ks)
    if key == "C1":
        p2 = _dot(alg, ps, ps)
        if fam == "poincare":
            return p2 + (_gen(alg, "H") ** 2).smul(Poly.var(alg.ctx, "omega"))
        if fam == "newton_hooke":
            return p2 + _dot(alg, ks, ks).smul(Poly.var(alg.ctx, "kappa"))
        return p2
    if key == "C2":
        w2 = _dot(alg, [w(1), w(2), w(3)], [w(1), w(2), w(3)])
        if fam == "poincare":
            return w2 + (_dot(alg, js, ps) ** 2).smul(Poly.var(alg.ctx, "omega"))
        return w2
    raise KeyError(f"unknown named element {key!r}")


NAMED_ELEMENT_KEYS = ("W1", "W2", "W3", "JP", "JW", "KP", "K2", "C1", "C2")

