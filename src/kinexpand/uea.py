"""Universal enveloping algebra with PBW normal ordering.

Elements are finite linear combinations of PBW monomials, i.e. exponent
vectors over the algebra's ordered generator basis, with polynomial
coefficients (:class:`~kinexpand.coeffring.Poly`).  The kernel has two
primitives.  The first is the product of a PBW monomial ``m`` with a
generator ``x_g`` from the right (the monomial-level multiplication of
algebras of solvable type, after Kandri-Rody and Weispfenning).  Write
``m = m'*x_k`` with ``x_k`` the last generator present in ``m``.  If
``k <= g`` the product is a *bump*: the monomial with the exponent of ``g``
raised by one.  Every caller tests for a bump inline and adds it to its sum
in place, so only a true reorder reaches :func:`_add_product`.  It splits
``m = low*t``, with ``low`` the letters of ``m`` up to ``g`` and ``t`` the
letters after it, and only the tail product ``t*x_g`` is memoised
(:func:`_product`); with ``t = t'*x_k``::

    t*x_g = (t'*x_g)*x_k + sum_l c_l (t'*x_l),   [x_k, x_g] = sum_l c_l x_l

Every product on the right has a monomial of lower degree, or is a bump, so
the recursion terminates, and by the PBW theorem the result is the
canonical representative.  Then ``m*x_g = low*(t*x_g)`` takes each term
with no letter before the last letter of ``low`` as one bump onto ``low``,
among them the leading term ``x_g*t``, and folds any other into ``low``
(:func:`_fold`) without storing it.  This is how Plural builds the products
of a G-algebra from a small table (Levandovskyy and Schönemann, ISSAC
2003).  Multiplying a sum of terms by one generator is one pass of
bump-or-product over the terms (:func:`_times_letter`), and every normal
form is built from such passes: a word is the unit multiplied by its
letters in turn, and every product, of two elements or inside a commutator,
is one routine (:func:`_mul_into`) that folds its whole left factor through
the letters of each right monomial (:func:`_fold`).

The second primitive is the adjoint action ``ad(m, g) = [m, x_g]``, with
``m = m'*x_k`` as above and ``[x_k, x_g]`` for either order of ``k`` and
``g``::

    [m'*x_k, x_g] = sum_l c_l (m'*x_l) + [m', x_g]*x_k

Its products are all the first primitive, so the top-degree term, which
cancels in ``m*x_g - x_g*m``, is never formed.  ``[x, x_g]`` for an element
``x`` is one adjoint pass over ``x`` (:func:`_ad_sum`).  It groups the terms
of ``x`` by last generator, ``x = sum_k X_k*x_k``::

    [X_k*x_k, x_g] = sum_l c_l (X_k*x_l) + [X_k, x_g]*x_k

so each ``X_k*x_l`` is one pass of :func:`_times_letter` over the whole
group, and ``[X_k, x_g]`` is the same grouped pass one level down, for the
top :data:`GROUPED_LEVELS` levels, and then ``ad`` of each prefix.  So only
proper prefixes of the monomials of ``x`` enter the ``ad`` memo, and in the
top levels only those alone in their group: a monomial of a large element
is met once, while deeper prefixes repeat across groups.

Every commutator ``[x, y]`` is one recursion over ``y`` (:func:`_commute`),
grouped by last generator, ``y = sum_j Y_j*x_j``::

    [x, Y_j*x_j] = Y_j*[x, x_j] + [x, Y_j]*x_j

with one adjoint pass over ``x`` per ``j``, ``Y_j*[x, x_j]`` the product
routine below, and ``[x, Y_j]`` the same recursion times ``x_j`` in one
pass.

Per algebra the kernel memoises the tail products per generator, keyed by
tail, and ``ad`` per generator, keyed by monomial; no word, no product of
two monomials, no product with letters up to the generator and no bracket
of two monomials is stored.

**Packed keys.**  Inside the kernel a term ``c * params^e * x^m`` is one
entry ``key: c`` of a flat dict, where ``key`` is a single ``int`` that
packs the PBW exponents ``m`` and the parameter exponents ``e``.  Each
field is ``W = FIELD_BITS = 16`` bits wide: generator ``g`` owns bits
``W*g`` to ``W*g + W - 1``, and parameter ``i`` owns the field ``dim + i``
above them::

    key = sum_g m[g] << W*g  +  sum_i e[i] << W*(dim + i)

A parameter field is signed (``eps`` may carry negative powers); the sum is
taken as an exact integer, with no bias.  Because the packing is linear,
the product of two terms is ``key1 + key2``, a bump of generator ``g`` is
``key + (1 << W*g)``, ``m`` and the packed ``e`` are ``key & mask`` and
``key - (key & mask)`` with ``mask = (1 << W*dim) - 1``, "no generator
after ``g``" is ``m < 1 << W*(g + 1)`` and the last generator of ``m`` is
``(m.bit_length() - 1) // W``.  The parameter fields are read back low to
high, each as the signed ``W``-bit residue of what is left.  A structure
constant ``c * params^e`` is the triple ``(l, packed e, c)``, and a
rational is an ``int`` when integral and a ``Fraction`` otherwise, as in
:class:`~kinexpand.coeffring.Poly`.  No ``Poly`` is made inside the
kernel.  An element is packed the first time it is an operand and keeps
its packed form, a read-only tuple, since elements are immutable.  A
product, a commutator or :func:`normal_form` sums the cross terms of its
operands' coefficients into one flat dict, and unpacks it into
``{monomial: Poly}`` once, at the end (:func:`_group`); an all-zero exponent
vector becomes the context's shared ``zero`` tuple.

**The bound.**  The arithmetic above is exact only while no field leaves
its range: ``0 <= m[g] < 2^W`` and ``-2^(W-1) <= e[i] < 2^(W-1)``; past
that a carry moves into the next field silently.  So :meth:`UEAElement.__mul__`,
:meth:`UEAElement.commutator` and :func:`normal_form` check their operands
before any kernel work and raise :class:`KernelBoundError` past a bound
that no field can exceed.  Let the operands have degrees at most ``d1`` and
``d2``, coefficient exponents at most ``p1`` and ``p2`` in absolute value,
and let ``s`` be the largest absolute exponent in the algebra's structure
constants.  Every term the kernel forms is an operand term product
rewritten by reordering steps, and each step that is not a bump replaces
two letters by one letter times a structure constant: it lowers the degree
by one and changes each parameter exponent by at most ``s``.  A bump keeps
the degree.  So every term has degree at most ``D = d1 + d2``, whence every
monomial field is at most ``D``, and at most ``D`` steps lie on the way to
it, whence every parameter field is at most ``p1 + p2 + D*s`` in absolute
value.  A stored table entry for ``t*x_g`` or ``[m, x_g]`` obeys the same
bound with the degree of ``t`` or ``m`` plus one.  The check asks ``D <=``
:data:`MAX_DEGREE` and ``p1 + p2 + D*s < 2^(W-1)``.  A word of length ``n``
in :func:`normal_form` is the case ``D = n``.

``MAX_DEGREE = 256`` lies far below the ``2^W - 1`` a field holds, because
the memo misses recurse: :func:`_product`, :func:`_ad` and :func:`_commute`
each go one degree lower per call, so a miss at degree ``D`` stacks about
``D + 10`` Python frames: at most ``D + 11`` on fresh tables, over the
products ``a^n*b^n*x_g`` and brackets ``[a^n*b^n, x_g]`` of the catalog
algebras at ``D = 25``, and of the deepest of them up to ``D = 256``.
Under the interpreter's default limit of 1000 frames, that leaves room for
the frames of the caller, among them four per nesting level of the
expression parser, whose nesting is bounded too
(:data:`kinexpand.coeffring.MAX_NESTING`).

The tables belong to the kernel, held weakly per algebra, and
:func:`kernel_stats` reports their sizes.  Together they hold at most
:data:`MAX_KERNEL_ENTRIES` entries; a miss that would store one more empties
them first and goes on, so memory stays bounded and every call still gets
its answer.  Evicting mid-call is safe: a stored value is never mutated, and
a caller holds the values it has read.  Time has its own bound: one
product, commutator or normal form computes at most
:data:`MAX_CALL_PRODUCTS` products (tail misses and left-multiplications)
and raises :class:`KernelBoundError` past it, leaving the tables as they
are, since every stored entry is complete.  With them the kernel keeps the
algebra's Lie generating set (:func:`lie_generating_set`), on which
:func:`is_central` certifies centrality: ``[x, -]`` is a derivation, the
coefficient ring is a domain and the enveloping algebra is free over it
(PBW), so an element that commutes with a generating set commutes with
everything.  A failure names the first basis generator, in basis order,
that the element does not commute with, the witness a scan of the whole
basis gives.
"""

from __future__ import annotations

import struct
import weakref
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Tuple, Union

from .coeffring import ContextMismatchError, Frozen, Poly, format_poly, grlex_key
from .liealg import _CYCLIC, LieAlgebra

# A PBW monomial: exponent tuple over the generator basis; () handled as the
# all-zero tuple of the algebra's dimension.
Monomial = Tuple[int, ...]

# A word: tuple of generator indices in arbitrary order.
WordLetters = Tuple[int, ...]

CoeffLike = Union[int, Fraction, Poly]

# Width W of each exponent field of a packed kernel key (module docstring).
FIELD_BITS = 16
_FIELD = (1 << FIELD_BITS) - 1
_SIGN = 1 << (FIELD_BITS - 1)

# Most entries the kernel tables of one algebra hold together; a miss that
# would store one more empties them first.  An entry takes about 0.6 KiB
# (after <C2>^4 centrality on poincare the tables hold 95,496 entries in
# 56 MiB), so full tables take about 120 MiB.
MAX_KERNEL_ENTRIES = 200_000

# Most products one product, commutator or normal form computes: tail
# misses plus left-multiplications (:func:`_product`, :func:`_add_product`).
# On poincare the largest call of <C2>^4 (C2^3*C2) computes 1.15M and its
# centrality 0.24M, C2*(C2*(C2*C2)) 2.03M and (C2^2)*(C2^2) 3.79M, about
# 3 us each; <C2>^5 stops at the budget after about 12 s.
MAX_CALL_PRODUCTS = 3_000_000

# Largest degree sum of the operands of one product, commutator or word: the
# kernel's recursions take about one Python frame per degree (module
# docstring).
MAX_DEGREE = 256

# Levels of prefixes that :func:`_ad_sum` takes as grouped passes before it
# reads the ad memo.  Centrality of <C2>^2 on poincare leaves 3136, 1564,
# 724, 276 and 124 ad entries with 1, 2, 3, 4 and unbounded levels, and
# takes 14% longer, as long, 6% and 25% longer than with 3: deep prefixes
# repeat across groups, and only the memo shares them.
GROUPED_LEVELS = 3


class KernelBoundError(ValueError):
    """A normal form the kernel cannot compute within its bounds: a degree
    past :data:`MAX_DEGREE`, an exponent that does not fit a packed field,
    or more products in one call than :data:`MAX_CALL_PRODUCTS`."""


def _pack(fields) -> int:
    """``sum(f << W*i)`` over the fields: a packed monomial, or exponents
    before their shift.  Exact for signed fields, with no bias."""
    key = 0
    for f in reversed(fields):
        key = (key << FIELD_BITS) + f
    return key


def monomial_to_word(mono: Monomial) -> WordLetters:
    out = []
    for g, e in enumerate(mono):
        out.extend([g] * e)
    return tuple(out)


class _Tables:
    """Normal-ordering tables of one algebra, on packed keys.

    Every value is a flat dict ``{packed key: rational}``.  Holds no
    reference to the algebra, so that the weak table below can drop them
    together with it.
    """

    __slots__ = (
        "dim", "ctx", "bits", "mask", "mono_struct", "unit", "after",
        "max_exp", "brackets", "products", "ads", "entries", "budget",
        "generating",
    )

    def __init__(self, alg: LieAlgebra):
        dim = self.dim = alg.dim
        self.ctx = alg.ctx
        self.bits = FIELD_BITS * dim
        self.mask = (1 << self.bits) - 1
        # a packed monomial read back as bytes: one unsigned 16-bit field
        # (FIELD_BITS) per generator
        self.mono_struct = struct.Struct(f"<{dim}H")
        # the packed monomial x_g of each generator
        self.unit = tuple(1 << (FIELD_BITS * g) for g in range(dim))
        # the least packed monomial with a generator after g: m has one
        # exactly when m >= after[g]
        self.after = tuple(1 << (FIELD_BITS * (g + 1)) for g in range(dim))
        # [x_k, x_g] for every ordered pair as (l, packed exponents, rational)
        # triples, read as brackets[k][g]
        self.brackets = [
            [
                [
                    (l, self.pack_exps(exps), c)
                    for l, p in alg.bracket_pair(k, g).items()
                    for exps, c in p._terms.items()
                ]
                for g in range(dim)
            ]
            for k in range(dim)
        ]
        self.max_exp = max(
            (abs(e) for row in alg.brackets.values() for p in row.values()
             for exps in p._terms for e in exps),
            default=0,
        )
        # [g][t] -> normal form of t*x_g, for t with letters after g only
        self.products = [{} for _ in range(dim)]
        self.ads = [{} for _ in range(dim)]  # [g][m] -> normal form of [m, x_g]
        self.entries = 0  # stored in the two tables, against MAX_KERNEL_ENTRIES
        self.budget = MAX_CALL_PRODUCTS  # products left to the current call
        self.generating = lie_generating_set(alg)

    def pack_exps(self, exps: tuple) -> int:
        """Packed parameter exponents, already shifted above the monomial."""
        return _pack(exps) << self.bits

    def unpack_mono(self, m: int) -> Monomial:
        return self.mono_struct.unpack(m.to_bytes(self.mono_struct.size, "little"))

    def unpack_exps(self, e: int) -> tuple:
        """Exponent tuple of ``e = key >> bits``; 0 gives the shared zero."""
        if not e:
            return self.ctx.zero
        out = []
        for _ in self.ctx.zero:
            f = e & _FIELD
            if f & _SIGN:
                f -= 1 << FIELD_BITS
            out.append(f)
            e = (e - f) >> FIELD_BITS
        return tuple(out)

    def pack_coeff(self, poly: Poly, seen: dict):
        """``((packed exponents, rational), ...)`` of a coefficient, and its
        largest absolute exponent.  ``seen`` keeps each exponent tuple's
        packed form and largest absolute exponent across one call's
        coefficients, which share few exponent tuples."""
        out = []
        spread = 0
        for exps, c in poly._terms.items():
            hit = seen.get(exps)
            if hit is None:
                spread_e = max(map(abs, exps), default=0)
                hit = seen[exps] = (self.pack_exps(exps), spread_e)
            out.append((hit[0], c))
            if hit[1] > spread:
                spread = hit[1]
        return tuple(out), spread

    def packed(self, el: "UEAElement"):
        """``el`` as a tuple of ``(packed monomial, packed coefficient)``, with
        its largest degree and largest absolute coefficient exponent.

        Packed once and kept on the element, which is immutable.  The packing
        depends only on the dimension and the context, which operands of one
        product or commutator share.
        """
        cached = el._packed
        if cached is not None:
            return cached
        out = []
        seen: dict = {}
        degree = spread = 0
        for mono, poly in el._terms.items():
            coeffs, s = self.pack_coeff(poly, seen)
            out.append((_pack(mono), coeffs))
            degree = max(degree, sum(mono))
            spread = max(spread, s)
        cached = (tuple(out), degree, spread)
        _set_packed(el, cached)
        return cached

    def check_bound(self, degree: int, spread: int) -> None:
        """Raise unless every field stays in range in a computation whose
        operands have degree sum ``degree`` and whose largest absolute
        coefficient exponents sum to ``spread`` (module docstring)."""
        if degree > MAX_DEGREE:
            raise KernelBoundError(
                f"operands of total degree {degree} exceed the kernel's "
                f"bound of {MAX_DEGREE}"
            )
        if spread + degree * self.max_exp >= _SIGN:
            raise KernelBoundError(
                f"parameter exponents may reach {spread + degree * self.max_exp}, "
                f"past the kernel's bound of {_SIGN - 1}"
            )

    def store(self, table: dict, key: int, value: dict) -> None:
        if self.entries >= MAX_KERNEL_ENTRIES:
            # a cache: evict everything and go on
            for memo in (*self.products, *self.ads):
                memo.clear()
            self.entries = 0
        self.entries += 1
        table[key] = value


def _over_budget() -> KernelBoundError:
    return KernelBoundError(
        f"normal ordering needs more than {MAX_CALL_PRODUCTS} kernel products "
        "in one call"
    )


_TABLES: "weakref.WeakKeyDictionary[LieAlgebra, _Tables]" = weakref.WeakKeyDictionary()

def _tables(alg: LieAlgebra) -> _Tables:
    tables = _TABLES.get(alg)
    if tables is None:
        tables = _TABLES[alg] = _Tables(alg)
    return tables


def kernel_stats(alg: LieAlgebra) -> dict:
    """Entry counts of the algebra's kernel tables (a fresh dict)."""
    tables = _TABLES.get(alg)
    if tables is None:
        return {"products": 0, "ads": 0}
    return {
        "products": sum(map(len, tables.products)),
        "ads": sum(map(len, tables.ads)),
    }


def _add_term(out: dict, key, c) -> None:
    """out[key] += c, deleting a sum that cancels and storing an integral
    ``Fraction`` sum as ``int``, as :class:`Poly` stores them."""
    v = out.get(key, 0) + c
    if not v:
        del out[key]
    elif type(v) is Fraction and v.denominator == 1:
        out[key] = v.numerator
    else:
        out[key] = v


def _add_into(out: dict, terms: dict, shift: int, c) -> None:
    """out += c * t * terms on flat dicts, for the term t with packed key
    ``shift``: each key moves by ``shift``."""
    get = out.get
    for key, c2 in terms.items():
        key += shift
        v = get(key, 0) + c * c2
        if not v:
            del out[key]
        elif type(v) is Fraction and v.denominator == 1:
            out[key] = v.numerator
        else:
            out[key] = v


def _group(tables: _Tables, flat: dict) -> dict:
    """{monomial: Poly} from a flat dict: the one place a result is unpacked
    and becomes Poly."""
    mask, bits = tables.mask, tables.bits
    unpack = tables.unpack_exps
    grouped: dict = {}
    exps_of: dict = {}
    for key, c in flat.items():
        m = key & mask
        poly = grouped.get(m)
        if poly is None:
            poly = grouped[m] = {}
        e = key >> bits
        exps = exps_of.get(e)
        if exps is None:
            exps = exps_of[e] = unpack(e)
        poly[exps] = c
    ctx = tables.ctx
    mono = tables.unpack_mono
    return {mono(m): Poly._raw(ctx, terms) for m, terms in grouped.items()}


def _product(tables: _Tables, tail: int, g: int) -> dict:
    """Normal form of tail * x_g as a flat dict, memoised, for a packed
    monomial whose letters all come after ``g``.  Do not mutate.

    With ``tail = t'*x_k``, the product ``t'*x_g`` is a tail product of
    lower degree, and ``(t'*x_g)*x_k`` and each ``t'*x_l`` are a bump or a
    product of lower degree (:func:`_add_product`).  The leading term,
    ``x_g*tail``, has no letter before ``g``.
    """
    tables.budget -= 1
    if tables.budget < 0:
        raise _over_budget()
    memo = tables.products[g]
    k = (tail.bit_length() - 1) // FIELD_BITS
    lower = tail - tables.unit[k]
    if lower:
        out = {}
        _times_letter(tables, memo.get(lower) or _product(tables, lower, g), k, out)
    else:
        # tail is x_k: x_k*x_g = x_g*x_k + [x_k, x_g]
        out = {tail + tables.unit[g]: 1}
    _add_brackets(tables, out, lower, tables.brackets[k][g])
    tables.store(memo, tail, out)
    return out


def _add_product(
    tables: _Tables, out: dict, mono: int, g: int, shift: int, c
) -> None:
    """out += c * t * mono*x_g on flat dicts, for a packed monomial with a
    generator after ``g`` and the parameter term t with packed exponents
    ``shift``.

    A bump, ``mono`` with no generator after ``g``, is never passed here:
    every caller adds ``mono + x_g`` in place.  With ``low`` the letters of
    ``mono`` up to ``g`` and ``tail`` the letters after it, ``mono*x_g =
    low*(tail*x_g)``, and only the tail product is memoised
    (:func:`_product`).  A term of it with no letter before the last letter
    of ``low`` is one bump onto ``low``; any other is folded into ``low``
    (:func:`_fold`), and not stored.
    """
    low = mono & (tables.after[g] - 1)
    tail = mono - low
    prod = tables.products[g].get(tail) or _product(tables, tail, g)
    if not low:
        _add_into(out, prod, shift, c)
        return
    tables.budget -= 1
    if tables.budget < 0:
        raise _over_budget()
    mask = tables.mask
    before = tables.unit[(low.bit_length() - 1) // FIELD_BITS] - 1
    step = shift + low
    get = out.get
    for key, c2 in prod.items():
        if key & before:
            u = key & mask
            _add_into(out, _fold(tables, {low: 1}, u), key - u + shift, c * c2)
            continue
        key += step
        v = get(key, 0) + c * c2
        if not v:
            del out[key]
        elif type(v) is Fraction and v.denominator == 1:
            out[key] = v.numerator
        else:
            out[key] = v


def _add_brackets(tables: _Tables, out: dict, lower: int, triples) -> None:
    """out += lower * sum_l c_l x_l over the (l, packed exponents, c)
    triples of one structure constant ``[x_k, x_g]``: each ``lower*x_l`` a
    bump or a product (:func:`_add_product`)."""
    after = tables.after
    for l, e, c in triples:
        if lower >= after[l]:
            _add_product(tables, out, lower, l, e, c)
        else:
            _add_term(out, lower + tables.unit[l] + e, c)


def _times_letter(
    tables: _Tables, flat: dict, g: int, out: dict, shift: int = 0, scale=1
) -> None:
    """out += scale * t * flat * x_g on flat dicts, for the parameter term t
    with packed exponents ``shift``, in one pass over the terms: a term with
    no generator after ``g`` is a bump, added in place, and any other is a
    product (:func:`_add_product`)."""
    mask = tables.mask
    step, limit = tables.unit[g] + shift, tables.after[g]
    get = out.get
    for key, c in flat.items():
        m = key & mask
        if m >= limit:
            _add_product(tables, out, m, g, key - m + shift, c * scale)
            continue
        key += step
        v = get(key, 0) + c * scale
        if not v:
            del out[key]
        elif type(v) is Fraction and v.denominator == 1:
            out[key] = v.numerator
        else:
            out[key] = v


def _fold(tables: _Tables, flat: dict, mono: int) -> dict:
    """Normal form of flat * mono, for a packed monomial mono, as a fresh
    flat dict.

    The letters of mono are multiplied in one at a time, in basis order, the
    last by :func:`_times_letter`.  Before it, a term whose last generator
    comes no later than the next letter takes the rest of mono as one bump
    of its exponents.
    """
    if not mono:
        return dict(flat)
    mask, unit = tables.mask, tables.unit
    out: dict = {}
    while True:
        # the first letter left: the lowest nonzero field
        g = ((mono & -mono).bit_length() - 1) // FIELD_BITS
        rest = mono
        mono -= unit[g]
        if not mono:
            _times_letter(tables, flat, g, out)
            return out
        limit = tables.after[g]
        acc: dict = {}
        for key, c in flat.items():
            m = key & mask
            if m >= limit:
                _add_product(tables, acc, m, g, key - m, c)
            else:
                _add_term(out, key + rest, c)
        if not acc:
            return out
        flat = acc


def _ad(tables: _Tables, mono: int, g: int) -> dict:
    """Normal form of [mono, x_g] as a flat dict, for a packed monomial,
    memoised.  Do not mutate.

    With ``mono = m'*x_k``, ``x_k`` its last generator::

        [m'*x_k, x_g] = sum_l c_l (m'*x_l) + [m', x_g]*x_k

    so no top-degree term is formed.
    """
    memo = tables.ads[g]
    out = memo.get(mono)
    if out is not None:
        return out
    if not mono:
        return {}
    k = (mono.bit_length() - 1) // FIELD_BITS
    lower = mono - tables.unit[k]
    out = {}
    _add_brackets(tables, out, lower, tables.brackets[k][g])
    inner = memo.get(lower)
    if inner is None:
        inner = _ad(tables, lower, g)
    _times_letter(tables, inner, k, out)
    tables.store(memo, mono, out)
    return out


def _ad_sum(
    tables: _Tables, terms: dict, g: int, out: dict, scale=1, levels=GROUPED_LEVELS
) -> None:
    """out += scale * [x, x_g] on flat dicts, for the flat dict ``terms`` of
    ``x``.

    The terms are grouped by last generator, ``x = sum_k X_k*x_k``::

        [X_k*x_k, x_g] = sum_l c_l (X_k*x_l) + [X_k, x_g]*x_k

    Each ``X_k*x_l`` is one :func:`_times_letter` pass over the whole group.
    For a group of several prefixes, ``[X_k, x_g]`` is the same grouped
    pass one level down, summed and then multiplied by ``x_k`` in one more
    pass, for ``levels`` levels.  Below them, and for a group of one prefix,
    it is the memoised :func:`_ad` of each prefix times ``x_k``.  So only
    proper prefixes enter the ``ad`` memo: the deeper ones, which many
    monomials share.  A term whose monomial is memoised already is read
    from the memo.
    """
    mask, unit = tables.mask, tables.unit
    memo = tables.ads[g]
    groups: dict = {}
    for key, c in terms.items():
        m = key & mask
        hit = memo.get(m)
        if hit is not None:
            _add_into(out, hit, key - m, scale * c)
        elif m:
            k = (m.bit_length() - 1) // FIELD_BITS
            group = groups.get(k)
            if group is None:
                group = groups[k] = {}
            group[key - unit[k]] = c
    for k, group in groups.items():
        for l, e, c in tables.brackets[k][g]:
            _times_letter(tables, group, l, out, e, scale * c)
        if levels > 1 and len(group) > 1:
            inner: dict = {}
            _ad_sum(tables, group, g, inner, 1, levels - 1)
            _times_letter(tables, inner, k, out, 0, scale)
            continue
        for key, c in group.items():
            m = key & mask
            if m:
                ad = memo.get(m) or _ad(tables, m, g)
                _times_letter(tables, ad, k, out, key - m, scale * c)


def _mul_into(tables: _Tables, x: dict, y, out: dict) -> None:
    """out += x * y, for a flat dict ``x`` and ``y`` grouped by monomial as
    the ``(packed monomial, ((packed exponents, rational), ...))`` pairs of a
    packed operand: ``x`` is folded once through each monomial of ``y``
    (:func:`_fold`)."""
    for m, coeffs in y:
        folded = _fold(tables, x, m)
        for e, c in coeffs:
            _add_into(out, folded, e, c)


def _commute(tables: _Tables, x: dict, y: dict, out: dict, by_letter) -> None:
    """out += [x, y] on flat dicts, by the recursion of the module
    docstring.  ``by_letter`` keeps ``[x, x_j]`` per ``j``, grouped by
    monomial, for the whole recursion; ``Y_j*[x, x_j]`` is one
    :func:`_mul_into`."""
    mask, unit = tables.mask, tables.unit
    groups: dict = {}
    for key, c in y.items():
        m = key & mask
        if m:
            k = (m.bit_length() - 1) // FIELD_BITS
            group = groups.get(k)
            if group is None:
                group = groups[k] = {}
            group[key - unit[k]] = c
    for j, group in groups.items():
        ad = by_letter.get(j)
        if ad is None:
            flat: dict = {}
            _ad_sum(tables, x, j, flat)
            by_mono: dict = {}
            for key, c in flat.items():
                by_mono.setdefault(key & mask, []).append((key - (key & mask), c))
            ad = by_letter[j] = by_mono.items()
        _mul_into(tables, group, ad, out)
        inner: dict = {}
        _commute(tables, x, group, inner, by_letter)
        _times_letter(tables, inner, j, out)


def _flat(packed: tuple) -> dict:
    """A packed operand as one flat dict ``{packed key: rational}``."""
    return {m + e: c for m, terms in packed for e, c in terms}


def normal_form_word(alg: LieAlgebra, word: WordLetters) -> dict:
    """Normal form of a single word as a fresh {monomial: Poly}."""
    return normal_form(alg, [(word, 1)])._terms


def _coefficient(alg: LieAlgebra, value: CoeffLike) -> Poly:
    """``value`` as a coefficient of the algebra's context."""
    if not isinstance(value, Poly):
        return Poly.const(alg.ctx, value)
    if value.ctx is not alg.ctx:
        raise ContextMismatchError("coefficient from a different parameter context")
    return value


class UEAElement(Frozen):
    """Linear combination of PBW monomials with Poly coefficients.

    ``terms``, {monomial: nonzero Poly}, is a read-only view of a private
    dict that the package reads directly, so a shared element cannot be
    changed through it; ``alg`` and the terms refuse assignment and
    deletion.  The constructor checks that each monomial has ``dim``
    nonnegative ``int`` exponents and raises ``ValueError`` if not.
    """

    __slots__ = ("alg", "_terms", "_packed")

    def __init__(self, alg: LieAlgebra, terms=()):
        clean: dict = {}
        for mono, coeff in dict(terms).items():
            mono = tuple(mono)
            if len(mono) != alg.dim or not all(type(e) is int and e >= 0 for e in mono):
                raise ValueError(
                    f"monomial {mono!r} is not {alg.dim} nonnegative int exponents"
                )
            coeff = _coefficient(alg, coeff)
            if not coeff.is_zero():
                clean[mono] = coeff
        _set_alg(self, alg)
        _set_terms(self, clean)
        _set_packed(self, None)

    @property
    def terms(self) -> Mapping[Monomial, Poly]:
        return MappingProxyType(self._terms)

    @classmethod
    def _raw(cls, alg: LieAlgebra, terms: dict) -> "UEAElement":
        el = cls.__new__(cls)
        _set_alg(el, alg)
        _set_terms(el, terms)
        _set_packed(el, None)
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
        return not self._terms

    def degree(self) -> int:
        return max((sum(m) for m in self._terms), default=0)

    def _same_algebra(self, other: "UEAElement") -> bool:
        return self.alg is other.alg or self.alg.same_structure(other.alg)

    def _check(self, other: "UEAElement") -> None:
        if not self._same_algebra(other):
            raise ValueError("elements from different algebras")

    def __eq__(self, other) -> bool:
        if not isinstance(other, UEAElement):
            return NotImplemented
        return self._same_algebra(other) and self._terms == other._terms

    def __hash__(self):
        raise TypeError("UEAElement is not hashable")

    # -- linear operations ------------------------------------------------

    def __add__(self, other: "UEAElement") -> "UEAElement":
        self._check(other)
        out = dict(self._terms)
        for mono, c in other._terms.items():
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
        return UEAElement._raw(self.alg, {m: -c for m, c in self._terms.items()})

    def smul(self, value: CoeffLike) -> "UEAElement":
        """Multiply by a scalar (rational or coefficient polynomial)."""
        coeff = _coefficient(self.alg, value)
        if coeff.is_zero():
            return UEAElement.zero(self.alg)
        out = {}
        for mono, c in self._terms.items():
            p = c * coeff
            if not p.is_zero():
                out[mono] = p
        return UEAElement._raw(self.alg, out)

    # -- multiplicative operations ---------------------------------------

    def __mul__(self, other: "UEAElement") -> "UEAElement":
        """Associative product: ``self`` folded through each right monomial
        (:func:`_mul_into`)."""
        self._check(other)
        tables = _tables(self.alg)
        left, d1, p1 = tables.packed(self)
        right, d2, p2 = tables.packed(other)
        tables.check_bound(d1 + d2, p1 + p2)
        tables.budget = MAX_CALL_PRODUCTS
        flat: dict = {}
        _mul_into(tables, _flat(left), right, flat)
        return UEAElement._raw(self.alg, _group(tables, flat))

    def __pow__(self, n: int) -> "UEAElement":
        if n < 0:
            raise ValueError("negative powers are not defined in the UEA")
        result = self if n else UEAElement.one(self.alg)
        for _ in range(n - 1):
            result = result * self
        return result

    def commutator(self, other: "UEAElement") -> "UEAElement":
        """[self, other] from one grouped recursion (:func:`_commute`) over
        the terms of ``other``, with one :func:`_ad_sum` over ``self`` per
        last generator, so the top-degree terms of ``self*other`` and
        ``other*self``, which cancel, are never formed.
        """
        self._check(other)
        tables = _tables(self.alg)
        x, d1, p1 = tables.packed(self)
        y, d2, p2 = tables.packed(other)
        tables.check_bound(d1 + d2, p1 + p2)
        tables.budget = MAX_CALL_PRODUCTS
        flat: dict = {}
        _commute(tables, _flat(x), _flat(y), flat, {})
        return UEAElement._raw(self.alg, _group(tables, flat))

    # -- display ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"UEAElement({format_element(self)!r})"

    def __str__(self) -> str:
        return format_element(self)


_set_alg = UEAElement.alg.__set__
_set_terms = UEAElement._terms.__set__
_set_packed = UEAElement._packed.__set__


def normal_form(alg: LieAlgebra, words: Iterable[tuple]) -> UEAElement:
    """Normal form of a linear combination of words.

    ``words`` yields (letters, coeff) pairs where letters is a sequence of
    generator names or indices in ``range(dim)`` (not ``bool``) and coeff is
    a Poly / rational; any other letter raises ``ValueError``.
    """
    tables = _tables(alg)
    tables.budget = MAX_CALL_PRODUCTS
    flat: dict = {}
    seen: dict = {}
    for letters, coeff in words:
        letters = [_letter(alg, g) for g in letters]
        coeffs, spread = tables.pack_coeff(_coefficient(alg, coeff), seen)
        tables.check_bound(len(letters), spread)
        nf = {0: 1}
        for g in letters:
            acc: dict = {}
            _times_letter(tables, nf, g, acc)
            nf = acc
        for e, c in coeffs:
            _add_into(flat, nf, e, c)
    return UEAElement._raw(alg, _group(tables, flat))


def _letter(alg: LieAlgebra, g) -> int:
    """The generator index of a word letter: a name or an in-range index."""
    if isinstance(g, int) and not isinstance(g, bool) and 0 <= g < alg.dim:
        return g
    if isinstance(g, str) and g in alg.gen_index:
        return alg.gen_index[g]
    raise ValueError(f"word letter {g!r} is not a generator of {alg.name}")


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
    for mono in sorted(el._terms, key=grlex_key, reverse=True):
        coeff = el._terms[mono]
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
        ws = [w(i) for i in (1, 2, 3)]
        w2 = _dot(alg, ws, ws)
        if fam == "poincare":
            return w2 + (_dot(alg, js, ps) ** 2).smul(Poly.var(alg.ctx, "omega"))
        return w2
    raise KeyError(f"unknown named element {key!r}")


NAMED_ELEMENT_KEYS = ("W1", "W2", "W3", "JP", "JW", "KP", "K2", "C1", "C2")

