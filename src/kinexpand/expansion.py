"""The curvature-controlled expansion pipeline.

Four steps: (i) split each target Casimir, written over the initial algebra's
generators, into powers of the curvature parameter; (ii) combine the
curvature-linear parts into a seed with undetermined constants; (iii) obtain
expanded generators as the seed's adjoint action, keeping generators the seed
commutes with; (iv) verify that the expanded generators close onto the target
bracket table.

Closure verification is split in two.  The witness-free *certificate*
(:func:`closure_certificate`) holds, per target generator pair, the actual
commutator of the expanded generators; where the pair has a central
template, the phase-1 residual: the template is written with scalar
stand-ins c1, c2, xi for central factors (Casimirs, the central generator),
and the stand-ins are expanded to their defining elements and compared
exactly; and where the pair's target row has only constant coefficients,
whether the commutator equals the expected bracket, which is then the same
at every witness.  The *witness check* (:func:`verify_closure`) then takes a
rational witness.  Once per (certificate, target) pair it makes a plan: the
pair-order check, one shared verdict for each pair decided without a
witness (the certificate's ``exact_zero`` pairs for that row, and the
constant-row pairs without a template), and, for the rest, each pair's
target row and the distinct coefficients left to the witness; a pair whose
row is one structure constant on unit coefficients, as every curvature
pair's is, has its comparisons compiled into conditions on those
coefficients' values.  Per witness it validates the witness against the
closure constraint equations (a constraint the witness leaves open, with
one free constant, becomes a power-substitution rule), evaluates each
distinct coefficient once, and decides the checked pairs: a compiled pair
from the values alone, another by building its expected bracket from the
target structure constants, accepting an exactly equal pair, and otherwise
scalarising the template with the witness (phase 2) and comparing it with
the target (phase 3).  The certificate depends only on the seed, so each
driver family builds it once per process and every witness reuses it; what
it shares is read-only (NamedTuple records, mappings, element terms).  A
witness check is rational arithmetic that compares and does not subtract:
without power rules a residual is nonzero exactly when its operands
differ, so a mismatch's residual is formed, like every text, only when it
is read, and a compiled pair's expected bracket and scalarised template
are built only then too.
"""

from __future__ import annotations

import functools
import weakref
from fractions import Fraction
from itertools import combinations
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from .coeffring import Poly, format_poly, substitution
from .liealg import _CYCLIC, LieAlgebra, catalog
from .uea import (
    UEAElement,
    _add_term,
    _named_over,
    format_element,
    named_element,
)


def _exps_sum(e1: tuple, e2: tuple, zero: tuple) -> tuple:
    """Exponents of the product of two parameter monomials; ``zero`` is the
    context's shared all-zero tuple, kept by identity."""
    if e1 is zero:
        return e2
    if e2 is zero:
        return e1
    e = tuple([a + b for a, b in zip(e1, e2)])
    return zero if e == zero else e


class ConstraintViolationError(ValueError):
    """The witness does not satisfy a constraint equation."""


class DecompositionDegreeError(ValueError):
    """Target Casimir has curvature degree above two."""


class CasimirDecomposition(NamedTuple):
    """Curvature-power split of a target Casimir over the initial algebra."""

    base: UEAElement
    linear: UEAElement
    quadratic: UEAElement
    curvature: str


def decompose_casimir(target_casimir: UEAElement, curvature: str) -> CasimirDecomposition:
    """Split coefficients by curvature power (degree <= 2)."""
    alg = target_casimir.alg
    ctx = alg.ctx
    idx = ctx.index[curvature]
    parts = [{}, {}, {}]
    for mono, poly in target_casimir._terms.items():
        for exps, c in poly._terms.items():
            e = exps[idx]
            if e > 2:
                raise DecompositionDegreeError(
                    f"curvature degree {e} exceeds the quadratic scheme"
                )
            rest = exps[:idx] + (0,) + exps[idx + 1 :]
            bucket = parts[e].setdefault(mono, {})
            bucket[rest] = bucket.get(rest, Fraction(0)) + c
    elements = [
        UEAElement(alg, {m: Poly(ctx, t) for m, t in part.items()})
        for part in parts
    ]
    return CasimirDecomposition(
        base=elements[0], linear=elements[1], quadratic=elements[2], curvature=curvature
    )


class Seed(NamedTuple):
    """Linear combination of the curvature-linear Casimir parts."""

    element: UEAElement
    alphas: tuple


def build_seed(decomps: Sequence[CasimirDecomposition], alphas: Sequence[str]) -> Seed:
    """Sum alpha_l * linear_l over the decompositions."""
    if len(decomps) != len(alphas):
        raise ValueError("one alpha parameter per decomposition required")
    alg = decomps[0].base.alg
    ctx = alg.ctx
    element = UEAElement.zero(alg)
    for d, alpha in zip(decomps, alphas):
        element = element + d.linear.smul(Poly.var(ctx, alpha))
    return Seed(element=element, alphas=tuple(alphas))


class ExpandedGenerators(NamedTuple):
    """Adjoint-derived generator set: name -> element, plus the fixed set.

    ``elements`` is a read-only mapping, because a driver's generators are
    shared by every run of that driver in the process.
    """

    elements: Mapping[str, UEAElement]
    fixed_set: frozenset


def derive_generators(alg: LieAlgebra, seed: Seed) -> ExpandedGenerators:
    """X'_k = X_k when [seed, X_k] = 0, else [seed, X_k]."""
    elements = {}
    fixed = set()
    for g in alg.generators:
        x = UEAElement.generator(alg, g.name)
        c = seed.element.commutator(x)
        if c.is_zero():
            elements[g.name] = x
            fixed.add(g.name)
        else:
            elements[g.name] = c
    return ExpandedGenerators(
        elements=MappingProxyType(elements), fixed_set=frozenset(fixed)
    )


# ---------------------------------------------------------------------------
# Closure verification
# ---------------------------------------------------------------------------

# Scalar stand-ins appearing in template coefficients and what they expand to.
CENTRAL_SYMBOLS = ("c1", "c2", "xi")


def expand_central(template: UEAElement, mapping: Mapping[str, UEAElement]) -> UEAElement:
    """Replace powers of central stand-in parameters by their elements.

    The template is split by the stand-ins' exponents, as
    :func:`decompose_casimir` splits by curvature, and each part is
    multiplied by its powers once, on the left and in ``mapping`` order.
    """
    alg = template.alg
    ctx = alg.ctx
    idx = [ctx.index[name] for name in mapping]
    parts: dict = {}  # stand-in exponents -> {monomial: {other exponents: c}}
    for mono, poly in template._terms.items():
        for exps, c in poly._terms.items():
            rest = tuple(0 if i in idx else e for i, e in enumerate(exps))
            part = parts.setdefault(tuple(exps[i] for i in idx), {})
            part.setdefault(mono, {})[rest] = c
    out = UEAElement.zero(alg)
    for pattern, part in parts.items():
        el = UEAElement(alg, {m: Poly(ctx, t) for m, t in part.items()})
        for element, n in reversed(list(zip(mapping.values(), pattern))):
            if n:
                el = element ** n * el
        out = out + el
    return out


class PowerReduction(NamedTuple):
    """Substitution rule param**power -> value, derived from a constraint."""

    param: str
    power: int
    value: Fraction

    def apply_poly(self, p: Poly) -> Poly:
        return p.substitute_power(self.param, self.power, self.value)

    def __str__(self) -> str:
        return f"{self.param}^{self.power} -> {self.value}"


def _analyze_constraints(constraints, substitute) -> list:
    """Check the witness, applied by ``substitute``, and turn open
    constraints into power reductions."""
    reductions = []
    for c in constraints:
        r = substitute(c)
        if r.is_zero():
            continue
        ctx = r.ctx
        free = set()
        for exps in r._terms:
            for i, e in enumerate(exps):
                if e:
                    free.add(i)
        if len(free) != 1:
            raise ConstraintViolationError(
                f"witness leaves constraint {format_poly(c)} = 0 unsatisfied "
                f"(residual {format_poly(r)})"
            )
        i = free.pop()
        name = ctx.names[i]
        lead = None
        const = Fraction(0)
        for exps, coeff in r._terms.items():
            if exps[i] == 0:
                const = coeff
            elif lead is None:
                lead = (exps[i], coeff)
            else:
                raise ConstraintViolationError(
                    f"open constraint {format_poly(r)} = 0 is not of the form "
                    "a*x^n + b"
                )
        reductions.append(PowerReduction(name, lead[0], Fraction(-const, lead[1])))
    return reductions


def _reduce_poly(p: Poly, reductions) -> Poly:
    for red in reductions:
        p = red.apply_poly(p)
    return p


def _reduce_element(el: UEAElement, reductions) -> UEAElement:
    if not reductions:
        return el
    out = {}
    for mono, poly in el._terms.items():
        poly = _reduce_poly(poly, reductions)
        if not poly.is_zero():
            out[mono] = poly
    return UEAElement._raw(el.alg, out)


def _rendered(slot: str, empty):
    """A read-only property: the text of the element in ``slot`` (``empty``
    when it is None), formatted on first read and kept in ``slot + "_text"``."""
    text_slot = slot + "_text"

    def text(self):
        try:
            return getattr(self, text_slot)
        except AttributeError:
            element = self._element(slot)
            value = empty if element is None else format_element(element)
            setattr(self, text_slot, value)
            return value

    return property(text)


def _value(values: list, ref: tuple) -> Poly:
    """The value a coefficient reference ``(index, negated)`` points to."""
    index, negated = ref
    return -values[index] if negated else values[index]


def _units_element(verdict, alg, monomials, ref, values) -> UEAElement:
    """A recipe's element: the value ``ref`` points to on each of ``monomials``."""
    value = _value(values, ref)
    return UEAElement._raw(alg, dict.fromkeys(monomials, value) if value._terms else {})


def _template_element(verdict, alg, template, values) -> UEAElement:
    """A recipe's element: the template scalarised, each of its monomials
    carrying the value its coefficient reference points to."""
    terms = {}
    for m, ref in template:
        value = _value(values, ref)
        if value._terms:
            terms[m] = value
    return UEAElement._raw(alg, terms)


def _residual(verdict, minuend, reductions=()) -> UEAElement:
    """A recipe's element: ``minuend - expected``, reduced by ``reductions``;
    ``minuend`` is an element, or the name of the verdict's slot holding it."""
    if type(minuend) is str:
        minuend = verdict._element(minuend)
    return _reduce_element(minuend - verdict._element("_expected"), reductions)


class PairVerdict:
    """One pair's verdict.

    ``verdict`` is ``exact_zero``, ``template_match`` or ``mismatch``, and
    ``phase1`` is ``pass``, ``n/a`` or the phase-1 residual's text.
    ``target``, ``scalarized`` and ``residual`` are texts of the expected
    bracket, the scalarised template and the residual.  The verdict keeps
    the elements and renders each text on first read, into a slot of its
    own, so a caller that only reads verdicts formats nothing.  Each element
    may also be given as a recipe, a tuple ``(function, *args)``: the element
    is then ``function(verdict, *args)``, made on the first read of its text
    or of the verdict's equality and kept in its place.  A witness round
    gives its expected brackets and scalarised templates as recipes
    (:func:`_units_element`, :func:`_template_element`) and its residuals as
    :func:`_residual`, which reads the expected bracket from the verdict, so
    a verdict nobody reads builds no element.  It is read-only: every field
    is a property over a private slot.  A verdict decided without a witness
    is made once per :func:`verify_closure` plan and shared by every call
    on it, with any residual already formed, so that only its texts are
    filled in when first read; a verdict a witness decides is made by the
    call.  Two verdicts are equal when their fields and elements are; the
    texts play no part.
    """

    __slots__ = (
        "_pair", "_verdict", "_phase1", "_expected", "_scalarized", "_residual",
        "_expected_text", "_scalarized_text", "_residual_text",
    )

    def __init__(self, pair, verdict, phase1, expected, scalarized=None, residual=None):
        self._pair = pair
        self._verdict = verdict
        self._phase1 = phase1
        self._expected = expected
        self._scalarized = scalarized
        self._residual = residual

    pair = property(attrgetter("_pair"))
    verdict = property(attrgetter("_verdict"))
    phase1 = property(attrgetter("_phase1"))

    target = _rendered("_expected", "")
    scalarized = _rendered("_scalarized", "")
    residual = _rendered("_residual", None)

    def _element(self, slot: str):
        """The element in ``slot``, made from its recipe on first read."""
        element = getattr(self, slot)
        if type(element) is tuple:
            element = element[0](self, *element[1:])
            setattr(self, slot, element)
        return element

    def __eq__(self, other):
        if type(other) is not PairVerdict:
            return NotImplemented
        fields = self.__slots__[:3]
        elements = self.__slots__[3:6]  # the texts follow them
        return all(getattr(self, f) == getattr(other, f) for f in fields) and all(
            self._element(f) == other._element(f) for f in elements
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"PairVerdict({self._pair!r}, {self._verdict!r}, {self._phase1!r})"

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "verdict": self.verdict,
            "phase1": self.phase1,
            "scalarized": self.scalarized,
            "target": self.target,
            "residual": self.residual,
        }


class ClosureReport(NamedTuple):
    initial: str
    target: str
    fixed_set: tuple
    constraints: tuple
    witness: dict
    reductions: tuple
    pairs: tuple
    passed: bool
    mismatches: tuple

    def to_dict(self) -> dict:
        return {
            "initial": self.initial,
            "target": self.target,
            "fixed_set": list(self.fixed_set),
            "constraints": [f"{c} = 0" for c in self.constraints],
            "witness": {k: str(v) for k, v in self.witness.items()},
            "reductions": [str(r) for r in self.reductions],
            "pairs": [p.to_dict() for p in self.pairs],
            "passed": self.passed,
            "mismatches": [list(p) for p in self.mismatches],
        }


def _central_map(alg: LieAlgebra) -> dict:
    """The elements of ``alg`` that its central stand-ins expand to."""
    central_map = {}
    for sym in CENTRAL_SYMBOLS:
        if sym not in alg.ctx.index:
            continue
        if sym == "xi":
            if "Xi" in alg.gen_index:
                central_map[sym] = UEAElement.generator(alg, "Xi")
        else:
            key = "C" + sym[1]
            try:
                central_map[sym] = named_element(alg, key)
            except KeyError:
                pass
    return central_map


class PairCertificate(NamedTuple):
    """The witness-free part of one pair's closure check.

    ``actual`` is the commutator of the pair's expanded generators.  For a
    pair with a template, ``phase1`` is ``actual - expand_central(template)``
    and ``phase1_text`` is ``"pass"`` when it is zero, else its text; for a
    pair without one, ``phase1`` is None and ``phase1_text`` is ``"n/a"``.

    ``exact_for`` is the witness-free verdict.  When the pair's target row
    has only constant coefficients, its expected bracket is the same at
    every witness, so it is built once; if ``actual`` equals it,
    ``exact_for`` is ``(row, actual)``: the pair is an ``exact_zero`` for
    that row and that commutator at any witness, and each
    :func:`verify_closure` plan for a target with that row shares one
    verdict for it.  Otherwise it is None; an unequal pair without a
    template is then decided by the plan, once per target.
    """

    pair: tuple
    actual: UEAElement
    template: UEAElement | None
    phase1: UEAElement | None
    phase1_text: str
    exact_for: tuple | None


class ClosureCertificate(NamedTuple):
    """Witness-free closure data of one expanded generator set.

    ``pairs`` holds one :class:`PairCertificate` per target generator pair,
    in target basis order.
    """

    alg: LieAlgebra
    generators: ExpandedGenerators
    pairs: tuple


def _expected_bracket(alg, products) -> UEAElement:
    """The expected bracket of a target row, as one sum: ``products`` gives,
    per structure constant, the expanded element and the constant's value
    (a ``Poly``)."""
    zero = alg.ctx.zero
    grouped: dict = {}  # monomial -> {exponents: rational}
    for element, value in products:
        terms = element._terms
        for s_exps, s in value._terms.items():
            for mono, poly in terms.items():
                out = grouped.setdefault(mono, {})
                for e, c in poly._terms.items():
                    _add_term(out, _exps_sum(e, s_exps, zero), c * s)
    return UEAElement._raw(
        alg, {m: Poly._raw(alg.ctx, t) for m, t in grouped.items() if t}
    )


def closure_certificate(
    alg: LieAlgebra,
    gens: ExpandedGenerators,
    target: LieAlgebra,
    templates: Mapping[tuple, UEAElement] | None = None,
) -> ClosureCertificate:
    """Compute every commutator, phase-1 identity and verdict that needs no
    witness.

    For each pair of target generators, in target basis order, the actual
    commutator of the expanded generators is formed once; where the pair
    has a central template, the template with its stand-ins expanded is
    subtracted from it exactly (phase 1).  Where the pair's row in
    ``target`` has only constant coefficients, the expected bracket does
    not depend on the witness: it is built once here and compared with the
    commutator, and an equal pair records the row it was decided against
    (:attr:`PairCertificate.exact_for`).  ``templates`` maps ordered name
    pairs (target basis order) to elements of the initial algebra's UEA
    whose coefficients may involve the stand-ins c1, c2, xi.
    """
    templates = templates or {}
    central_map = _central_map(alg)
    names = [g.name for g in target.generators]
    pairs = []
    for na, nb in combinations(names, 2):
        actual = gens.elements[na].commutator(gens.elements[nb])
        row = target.bracket_pair(target.gen_index[na], target.gen_index[nb])
        exact_for = None
        if all(c.is_constant() for c in row.values()):
            # a constant structure constant is its own value at any witness
            products = [(gens.elements[names[k]], c) for k, c in row.items()]
            expected = _expected_bracket(alg, products)
            if actual == expected:
                exact_for = (row, actual)
        template = templates.get((na, nb))
        if template is None:
            pairs.append(
                PairCertificate((na, nb), actual, None, None, "n/a", exact_for)
            )
            continue
        phase1 = actual - expand_central(template, central_map)
        text = "pass" if phase1.is_zero() else format_element(phase1)
        pairs.append(
            PairCertificate((na, nb), actual, template, phase1, text, exact_for)
        )
    return ClosureCertificate(alg, gens, tuple(pairs))


# Constraint texts per constraints tuple, kept with the tuple so that its
# identity stays the key: each family's drivers pass the family's tuple.
_CONSTRAINT_TEXTS: dict = {}
_CONSTRAINT_TEXTS_KEPT = 16


def _constraint_texts(constraints: Sequence[Poly]) -> tuple:
    """The texts of ``constraints``, formatted once per constraints tuple."""
    entry = _CONSTRAINT_TEXTS.get(id(constraints))
    if entry is not None and entry[0] is constraints:
        return entry[1]
    texts = tuple(format_poly(c) for c in constraints)
    if type(constraints) is tuple:
        if len(_CONSTRAINT_TEXTS) == _CONSTRAINT_TEXTS_KEPT:
            del _CONSTRAINT_TEXTS[next(iter(_CONSTRAINT_TEXTS))]
        _CONSTRAINT_TEXTS[id(constraints)] = (constraints, texts)
    return texts


def _facts(conditions: tuple, values: list) -> int:
    """The plan's conditions that hold at these coefficient values, as a
    bit mask: bit ``k`` is set when condition ``k`` holds."""
    facts = 0
    for k, (index, other, opposite) in enumerate(conditions):
        terms = values[index]._terms
        if other is None:
            holds = not terms
        elif type(other) is int:
            other = values[other]
            holds = terms == (-other if opposite else other)._terms
        else:
            holds = terms == other._terms
        if holds:
            facts |= 1 << k
    return facts


class _Units(NamedTuple):
    """A checked pair compiled to conditions on coefficient values.

    The pair's target row is one structure constant, the coefficient
    ``value`` (a reference ``(index, negated)`` into
    :attr:`_Plan.coefficients`), on an element whose coefficients are all 1:
    the expected bracket is that value on each of ``monomials``.  ``exact``,
    ``matched`` and ``low`` are sets of the plan's conditions
    (:attr:`_Plan.conditions`), as bit masks.  The commutator equals the
    expected bracket exactly when every condition of ``exact`` holds;
    ``exact`` is None when no value makes them equal.  The scalarised
    template equals it exactly when every condition of ``matched`` holds,
    and has degree at most 1 exactly when every condition of ``low`` does.
    ``on`` holds the commutator's coefficient on each monomial (zero where
    it has none) and ``off`` its distinct coefficients on other monomials:
    power rules reduce these as they reduce values.
    """

    value: tuple
    monomials: tuple
    exact: int | None
    matched: int
    low: int
    on: tuple
    off: tuple


class _Check(NamedTuple):
    """A pair :func:`verify_closure` checks at each witness.

    ``row`` holds, per structure constant of the pair's target row, the
    expanded element and a reference ``(index, negated)`` to the constant
    in :attr:`_Plan.coefficients`; ``template`` holds the template's
    monomials with references to their coefficients, or is None.
    ``units`` is the pair compiled to conditions on values
    (:class:`_Units`) when its row is one structure constant on an element
    with only unit coefficients, as every curvature pair's is; otherwise it
    is None, and the pair is checked on elements.  ``linear`` is True when
    the row's elements have degree at most 1, and so has any template equal
    to the expected bracket.  ``constant`` is None, or, for a pair without
    a template whose constant row's expected bracket differs from the
    commutator, that bracket: the plan's ``mismatch`` then holds at every
    witness that gives no power rule.
    """

    index: int
    cert: PairCertificate
    row: tuple
    units: _Units | None
    linear: bool
    template: tuple | None
    constant: UEAElement | None


class _Plan(NamedTuple):
    """What :func:`verify_closure` knows of one (certificate, target) pair
    before it sees a witness.

    ``verdicts`` has one entry per pair, in target basis order: the
    shared, read-only :class:`PairVerdict` of a pair decided without a
    witness, None for a pair only a witness decides.  ``checks`` holds the
    pairs a witness decides, and the constant-row mismatches, which only a
    power rule could reduce.  ``coefficients`` are the structure constants
    and template coefficients of the checked pairs, distinct up to sign:
    each is substituted once per witness, and a coefficient that is
    another's negative is referred to as that one, negated.
    ``conditions`` are the distinct comparisons the compiled pairs need,
    each ``(index, other, opposite)``: the value of coefficient ``index``
    is zero (``other`` None), equals the value of coefficient ``other``
    (an index; its negative when ``opposite``), or equals the ``Poly``
    ``other``.  ``pairs`` and ``generators`` are the certificate's, kept so
    that the key they give stays theirs.
    """

    pairs: tuple
    generators: ExpandedGenerators
    verdicts: tuple
    checks: tuple
    coefficients: tuple
    conditions: tuple
    fixed_set: tuple


# Plans per target algebra, held weakly as ``uea._TABLES`` holds the kernel
# tables, and per certificate by the identity of its pairs and generators:
# a certificate made with ``_replace`` gets a plan of its own.  A target
# keeps its most recent few plans.
_PLANS: "weakref.WeakKeyDictionary[LieAlgebra, dict]" = weakref.WeakKeyDictionary()
_PLANS_PER_TARGET = 8


class _Compiler:
    """The coefficients and conditions of one plan, as they are collected."""

    def __init__(self):
        self.coefficients: dict = {}  # Poly -> index
        self.conditions: dict = {}  # (index, other, opposite) -> index

    def ref(self, p: Poly) -> tuple:
        """The reference ``(index, negated)`` of coefficient ``p``."""
        index = self.coefficients.get(p)
        if index is not None:
            return index, False
        index = self.coefficients.get(-p)
        if index is not None:
            return index, True
        index = self.coefficients[p] = len(self.coefficients)
        return index, False

    def condition(self, ref: tuple, other=None) -> int:
        """The condition "the value of ``ref`` is ``other``", as a bit mask:
        ``other`` is another reference, a ``Poly`` or zero (None); 0 when it
        always holds."""
        index, negated = ref
        if type(other) is tuple:
            j, opposite = other[0], negated != other[1]
            if j == index:
                if not opposite:
                    return 0
                key = (index, None, False)  # v == -v: v is zero
            else:
                key = (min(index, j), max(index, j), opposite)
        elif other is None or not other._terms:
            key = (index, None, False)
        else:
            key = (index, -other if negated else other, False)
        return 1 << self.conditions.setdefault(key, len(self.conditions))

    def units(self, cert: PairCertificate, monomials: tuple, value: tuple, template):
        """The :class:`_Units` of a pair whose expected bracket is ``value``
        on each of ``monomials``."""
        zero = Poly._raw(cert.actual.alg.ctx, {})
        actual = cert.actual._terms
        inside = set(monomials)
        on = tuple(actual.get(m, zero) for m in monomials)
        off = tuple({p: None for m, p in actual.items() if m not in inside})
        exact = None
        if not off and all(p == on[0] for p in on):
            exact = self.condition(value, on[0])
        matched = low = 0
        if template is not None:
            for m, ref in template:
                matched |= self.condition(ref, value if m in inside else None)
                if sum(m) > 1:
                    low |= self.condition(ref)
            if not inside.issubset(m for m, _ in template):
                matched |= self.condition(value)  # the expected bracket is zero
        return _Units(value, monomials, exact, matched, low, on, off)


def _plan(certificate: ClosureCertificate, target: LieAlgebra) -> _Plan:
    """The (certificate, target) plan, built on first use."""
    plans = _PLANS.get(target)
    if plans is None:
        plans = _PLANS[target] = {}
    key = (id(certificate.pairs), id(certificate.generators))
    plan = plans.get(key)
    if plan is not None:
        return plan
    names = [g.name for g in target.generators]
    if tuple(combinations(names, 2)) != tuple(p.pair for p in certificate.pairs):
        raise ValueError(
            f"target {target.name} does not have the certificate's generator pairs"
        )
    alg = certificate.alg
    elements = certificate.generators.elements
    compiler = _Compiler()
    unit = {alg.ctx.zero: 1}
    verdicts = []
    checks = []
    for index, cert in enumerate(certificate.pairs):
        na, nb = cert.pair
        row = target.bracket_pair(target.gen_index[na], target.gen_index[nb])
        # the stored verdict holds for the row and commutator it was decided
        # for; a replaced commutator or another row is decided here or per
        # witness
        if cert.exact_for is not None:
            decided_row, decided_actual = cert.exact_for
            if decided_actual is cert.actual and decided_row == row:
                verdicts.append(PairVerdict(cert.pair, "exact_zero", "n/a", cert.actual))
                continue
        if cert.template is None and all(c.is_constant() for c in row.values()):
            products = [(elements[names[k]], c) for k, c in row.items()]
            expected = _expected_bracket(alg, products)
            if cert.actual == expected:
                verdicts.append(PairVerdict(cert.pair, "exact_zero", "n/a", cert.actual))
                continue
            verdicts.append(
                PairVerdict(
                    cert.pair, "mismatch", "n/a", expected,
                    residual=cert.actual - expected,
                )
            )
            checks.append(
                _Check(
                    index, cert, row=(), units=None, linear=False, template=None,
                    constant=expected,
                )
            )
            continue
        verdicts.append(None)
        template = None
        if cert.template is not None:
            template = tuple(
                (m, compiler.ref(p)) for m, p in cert.template._terms.items()
            )
        products = tuple((elements[names[k]], compiler.ref(c)) for k, c in row.items())
        terms = [el._terms for el, _ in products]
        units = None
        if len(terms) == 1 and terms[0] and all(c._terms == unit for c in terms[0].values()):
            units = compiler.units(cert, tuple(terms[0]), products[0][1], template)
        linear = all(sum(m) <= 1 for t in terms for m in t)
        checks.append(_Check(index, cert, products, units, linear, template, None))
    plan = _Plan(
        certificate.pairs,
        certificate.generators,
        tuple(verdicts),
        tuple(checks),
        tuple(compiler.coefficients),
        tuple(compiler.conditions),
        tuple(sorted(certificate.generators.fixed_set)),
    )
    if len(plans) == _PLANS_PER_TARGET:
        del plans[next(iter(plans))]
    plans[key] = plan
    return plan


def _check_units(
    alg, cert, units, template, values, facts, reduced, reductions
) -> PairVerdict:
    """The verdict of a compiled pair (:class:`_Units`) from the witness's
    coefficient ``values`` and the ``facts`` of the plan's conditions;
    with power rules ``reductions``, ``reduced`` holds the values reduced
    and the facts at them, else it is None.  Its elements are recipes:
    nothing here builds or compares an element."""
    exact = units.exact
    if exact is not None and facts & exact == exact:
        # the commutator is the expected bracket: render the certificate's
        return PairVerdict(cert.pair, "exact_zero", "n/a", cert.actual)
    expected = (_units_element, alg, units.monomials, units.value, values)
    if reduced is not None:
        # the rules reduce the commutator's coefficients as they reduce values
        values, facts = reduced
        value = _value(values, units.value)._terms
        if all(
            _reduce_poly(p, reductions)._terms == value for p in units.on
        ) and not any(_reduce_poly(p, reductions)._terms for p in units.off):
            return PairVerdict(cert.pair, "exact_zero", "n/a", expected)
    if template is None:
        return PairVerdict(
            cert.pair, "mismatch", "n/a", expected,
            residual=(_residual, cert.actual, reductions),
        )
    # phase 2: scalarise the template with the witness; phase 3: compare it
    # with the expected bracket, value by value
    matched = facts & units.matched == units.matched
    scal = (_template_element, alg, template, values)
    p1_ok = not cert.phase1._terms
    if p1_ok and matched and facts & units.low == units.low:
        return PairVerdict(cert.pair, "template_match", "pass", expected, scal)
    # phase 3's residual, zero when it passed, or the phase-1 residual
    residual = (_residual, "_scalarized", reductions) if p1_ok else cert.phase1
    return PairVerdict(cert.pair, "mismatch", cert.phase1_text, expected, scal, residual)


def verify_closure(
    certificate: ClosureCertificate,
    target: LieAlgebra,
    constraints: Sequence[Poly] = (),
    witness: Mapping[str, Fraction] | None = None,
) -> ClosureReport:
    """Check a closure certificate against the target bracket table at a witness.

    Once per (certificate, target) pair, a plan is made and kept: it checks
    that the target's generator pairs are the certificate's, in the same
    order, and decides every pair it can without a witness.  A pair whose
    certificate holds a witness-free verdict for the very row ``target``
    gives it (the row compares equal to the recorded one, and the commutator
    is the one it was decided for: ``euclid4`` shares the ``poincare`` rows,
    so it shares those verdicts) is an ``exact_zero``.  A pair without a
    template whose row has only constant coefficients has the same expected
    bracket at every witness: the plan builds it and gives an
    ``exact_zero`` when the commutator equals it, else a ``mismatch`` that
    holds at every witness with no power rule.  Each decided pair gets one
    :class:`PairVerdict`, shared read-only by every call.  For the other
    pairs the plan collects their rows and the distinct coefficients of
    their rows and templates, a coefficient that is another's negative
    standing as that one's negation.  A pair whose row is one structure
    constant on an element with only unit coefficients (every curvature
    pair of the drivers) has its comparisons compiled into comparisons of
    coefficient values (:class:`_Units`).  A certificate whose ``pairs`` or
    ``generators`` were replaced gets a plan of its own.

    Per witness, the witness is validated against the constraints: an
    exactly satisfied constraint is consumed, an open one (single free
    constant) becomes a power-reduction rule.  Each distinct coefficient is
    substituted once, and, with power rules, reduced once.  A compiled pair
    is decided from those values alone: it is an ``exact_zero`` when the
    commutator equals the expected bracket, or, with power rules, when their
    reduced coefficients agree; otherwise its template, scalarised at the
    witness (phase 2), is compared with the expected bracket (phase 3)
    value by value.  Another pair's expected bracket is built, as one sum,
    from the expanded elements times the target structure constants at the
    witness, and compared with the commutator and the scalarised template
    as elements, with each unequal difference formed and reduced when there
    are power rules, the plan's constant-row mismatches too.  A pair is a
    ``template_match`` only if the certificate's phase-1 residual is zero,
    phase 3 passes and the scalarised template has degree at most 1, and a
    ``mismatch`` otherwise or when it has no template.  Without power rules
    ``actual - expected`` and ``scalarised - expected`` are nonzero exactly
    when their operands differ, so no difference is formed to decide a
    verdict.  No commutator, product or text is computed here, and a
    compiled pair's expected bracket, scalarised template and residual are
    recipes its :class:`PairVerdict` follows when read: a round whose pairs
    all compile builds and compares no element.
    """
    plan = _plan(certificate, target)
    alg = certificate.alg
    witness = dict(witness or {})
    # the witness is validated once; each distinct coefficient is
    # substituted once per call, and each condition decided once
    substitute = substitution(alg.ctx, witness)
    reductions = tuple(_analyze_constraints(constraints, substitute))
    values = [substitute(p) for p in plan.coefficients]
    facts = _facts(plan.conditions, values)
    reduced = None
    if reductions:
        reduced_values = [_reduce_poly(v, reductions) for v in values]
        reduced = (reduced_values, _facts(plan.conditions, reduced_values))
    pairs = list(plan.verdicts)
    mismatches = []
    for index, cert, row, units, linear, template, constant in plan.checks:
        if units is not None:
            verdict = pairs[index] = _check_units(
                alg, cert, units, template, values, facts, reduced, reductions
            )
            if verdict._verdict == "mismatch":
                mismatches.append(cert.pair)
            continue
        if constant is not None:
            if not reductions:
                # the plan's mismatch: only a power rule could reduce it
                mismatches.append(cert.pair)
                continue
            expected = constant
        else:
            expected = _expected_bracket(
                alg, [(el, _value(values, ref)) for el, ref in row]
            )
            if cert.actual == expected:
                # render the certificate's element: the verdict keeps no copy
                pairs[index] = PairVerdict(cert.pair, "exact_zero", "n/a", cert.actual)
                continue
        if reductions:
            exact_res = _reduce_element(cert.actual - expected, reductions)
            if exact_res.is_zero():
                pairs[index] = PairVerdict(cert.pair, "exact_zero", "n/a", expected)
                continue
        else:
            exact_res = (_residual, cert.actual)  # nonzero, formed when read
        if template is None:
            pairs[index] = PairVerdict(
                cert.pair, "mismatch", "n/a", expected, residual=exact_res
            )
            mismatches.append(cert.pair)
            continue
        # phase 2: scalarise the template with the witness
        scal = _reduce_element(_template_element(None, alg, template, values), reductions)
        # phase 3: compare with the target structure constants; equal to an
        # expected bracket of linear elements, the template is linear too
        if scal == expected:
            p3_res, low_degree = None, linear or scal.degree() <= 1
        elif reductions:
            p3_res = _reduce_element(scal - expected, reductions)
            if p3_res.is_zero():
                p3_res = None
            low_degree = scal.degree() <= 1
        else:
            p3_res, low_degree = (_residual, "_scalarized"), False  # formed when read
        p1_ok = cert.phase1.is_zero()
        if p1_ok and p3_res is None and low_degree:
            pairs[index] = PairVerdict(
                cert.pair, "template_match", "pass", expected, scal
            )
        else:
            if p3_res is None:
                p3_res = UEAElement.zero(alg)
            pairs[index] = PairVerdict(
                cert.pair,
                "mismatch",
                cert.phase1_text,
                expected,
                scal,
                p3_res if p1_ok else cert.phase1,
            )
            mismatches.append(cert.pair)

    return ClosureReport(
        initial=alg.name,
        target=target.name,
        fixed_set=plan.fixed_set,
        constraints=_constraint_texts(constraints),
        witness=witness,
        reductions=reductions,
        pairs=tuple(pairs),
        passed=not mismatches,
        mismatches=tuple(mismatches),
    )


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

class ExpansionRun(NamedTuple):
    """Bundle of one driver execution."""

    name: str
    seed: Seed
    generators: ExpandedGenerators
    closed_forms_match: bool
    report: ClosureReport
    expected_to_close: bool = True

    @property
    def ok(self) -> bool:
        outcome = self.report.passed if self.expected_to_close else not self.report.passed
        return outcome and self.closed_forms_match

    def to_dict(self) -> dict:
        return {
            "driver": self.name,
            "seed": format_element(self.seed.element),
            "fixed_set": sorted(self.generators.fixed_set),
            "closed_forms_match": self.closed_forms_match,
            "expected_to_close": self.expected_to_close,
            "ok": self.ok,
            "report": self.report.to_dict(),
        }


def poincare_closed_forms(alg: LieAlgebra) -> dict:
    """The published expanded-generator formulas for the Poincare expansion."""
    ctx = alg.ctx
    a1 = Poly.var(ctx, "a1")
    a2 = Poly.var(ctx, "a2")
    H = UEAElement.generator(alg, "H")
    P = {i: UEAElement.generator(alg, f"P{i}") for i in (1, 2, 3)}
    K = {i: UEAElement.generator(alg, f"K{i}") for i in (1, 2, 3)}
    W = {i: named_element(alg, f"W{i}") for i in (1, 2, 3)}
    JP = named_element(alg, "JP")
    JW = named_element(alg, "JW")
    forms = {
        "H": H,
        "J1": UEAElement.generator(alg, "J1"),
        "J2": UEAElement.generator(alg, "J2"),
        "J3": UEAElement.generator(alg, "J3"),
    }
    for i, a, b in _CYCLIC:
        forms[f"P{i}"] = (H * (P[a] * W[b] - P[b] * W[a])).smul(a2.scale(2))
        forms[f"K{i}"] = (
            (H * P[i]).smul(a1.scale(-2))
            + (JW * P[i]).smul(a2.scale(-2))
            + (H * (K[a] * W[b] - K[b] * W[a])).smul(a2.scale(2))
            + (P[a] * W[b] - P[b] * W[a]).smul(a2.scale(3))
            + (JP * W[i]).smul(a2.scale(2))
        )
    return forms


def newton_hooke_closed_forms(alg: LieAlgebra) -> dict:
    """Published expanded generators for the extended-Galilei expansion."""
    ctx = alg.ctx
    a1 = Poly.var(ctx, "a1")
    m = Poly.var(ctx, "m")
    forms = {}
    for g in alg.generators:
        forms[g.name] = UEAElement.generator(alg, g.name)
    forms["H"] = named_element(alg, "KP").smul(a1.scale(2)) + UEAElement.generator(
        alg, "Xi"
    ).smul((a1 * m).scale(3))
    for i in (1, 2, 3):
        forms[f"P{i}"] = UEAElement.generator(alg, f"K{i}").smul(
            (a1 * m).scale(-2)
        ) * UEAElement.generator(alg, "Xi")
    return forms


def _poincare_templates(alg: LieAlgebra) -> dict:
    ctx = alg.ctx
    a1 = Poly.var(ctx, "a1")
    a2 = Poly.var(ctx, "a2")
    c1 = Poly.var(ctx, "c1")
    c2 = Poly.var(ctx, "c2")
    zero = UEAElement.zero(alg)
    H = UEAElement.generator(alg, "H")
    W = {i: named_element(alg, f"W{i}") for i in (1, 2, 3)}
    J = {i: UEAElement.generator(alg, f"J{i}") for i in (1, 2, 3)}
    entries = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i < j:
                entries[(f"P{i}", f"P{j}")] = zero
            if i != j:
                entries[(f"P{i}", f"K{j}")] = zero
        entries[(f"P{i}", f"K{i}")] = H.smul((a2 * a2 * c1 * c2).scale(-4))
    for i, j, k in _CYCLIC:
        if i > j:
            continue
        body = (H * W[k]).smul((a2 * (a1 * c1 + a2 * c2)).scale(-8)) + J[k].smul(
            (a2 * a2 * c1 * c2).scale(-4)
        )
        entries[(f"K{i}", f"K{j}")] = body
    # epsilon_132 = -1: the (K1, K3) entry flips sign relative to cyclic order
    body = (H * W[2]).smul((a2 * (a1 * c1 + a2 * c2)).scale(8)) + J[2].smul(
        (a2 * a2 * c1 * c2).scale(4)
    )
    entries[("K1", "K3")] = body
    return entries


def _nh_templates(alg: LieAlgebra) -> dict:
    ctx = alg.ctx
    a1 = Poly.var(ctx, "a1")
    m = Poly.var(ctx, "m")
    xi = Poly.var(ctx, "xi")
    coeff = (a1 * a1 * m * m * xi * xi).scale(-4)
    entries = {}
    for i in (1, 2, 3):
        entries[("H", f"P{i}")] = UEAElement.generator(alg, f"K{i}").smul(coeff)
        for j in (1, 2, 3):
            if i < j:
                entries[(f"P{i}", f"P{j}")] = UEAElement.zero(alg)
    return entries


THEOREM1_WITNESS = MappingProxyType({
    "c1": Fraction(1),
    "c2": Fraction(1, 4),
    "a2": Fraction(1),
    "a1": Fraction(-1, 4),
    "omega": Fraction(-1),
})

EUCLID_WITNESS = MappingProxyType({
    "c1": Fraction(1),
    "c2": Fraction(-1, 4),
    "a2": Fraction(1),
    "a1": Fraction(1, 4),
    "omega": Fraction(1),
})

THEOREM2_WITNESS = MappingProxyType({
    "m": Fraction(1),
    "xi": Fraction(1, 2),
    "kappa": Fraction(-1),
    "a1": Fraction(1),
})

# The witness each driver uses when given none, keyed by target; a target
# missing here (negative-nh) takes no witness.  Every witness table here is
# read-only: each later run in the process starts from it.
DEFAULT_WITNESSES = MappingProxyType({
    "poincare": THEOREM1_WITNESS,
    "euclid4": EUCLID_WITNESS,
    "newton_hooke": THEOREM2_WITNESS,
})

# For positive spacetime curvature the constraint forces a negative square,
# so a1 stays formal and the constraint itself supplies the reduction rule.
THEOREM2_POSITIVE_WITNESS = MappingProxyType({
    "m": Fraction(1),
    "xi": Fraction(1, 2),
    "kappa": Fraction(1),
})


def _theorem1_constraints(ctx) -> tuple:
    a1 = Poly.var(ctx, "a1")
    a2 = Poly.var(ctx, "a2")
    c1 = Poly.var(ctx, "c1")
    c2 = Poly.var(ctx, "c2")
    omega = Poly.var(ctx, "omega")
    return (a1 * c1 + a2 * c2, (a2 * a2 * c1 * c2).scale(4) + omega)


def _theorem2_constraints(ctx) -> tuple:
    a1 = Poly.var(ctx, "a1")
    m = Poly.var(ctx, "m")
    xi = Poly.var(ctx, "xi")
    kappa = Poly.var(ctx, "kappa")
    return ((a1 * a1 * m * m * xi * xi).scale(4) + kappa,)


def _negative_nh_closed_forms(alg: LieAlgebra) -> dict:
    """The plain Galilei seed's generators: H' = 2*a1*K.P, the rest fixed."""
    forms = {g.name: UEAElement.generator(alg, g.name) for g in alg.generators}
    forms["H"] = named_element(alg, "KP").smul(Poly.var(alg.ctx, "a1").scale(2))
    return forms


class _Family(NamedTuple):
    """How one seed is built and checked; nothing in it depends on a witness.

    The seed comes from ``target``'s Casimirs C1 and C2 written over the
    ``initial`` generators.  ``target`` also fixes the order of the
    certificate's pairs; every target a family's drivers check against has
    the same generators in that order.
    """

    initial: str
    curvature: str
    closed_forms: Callable  # algebra -> {generator name: published form}
    target: str
    templates: Callable | None  # algebra -> {target name pair: template}
    constraints: Callable | None  # parameter context -> constraint polys


_FAMILIES = {
    "worldline": _Family(
        "galilei",
        "omega",
        poincare_closed_forms,
        "poincare",
        _poincare_templates,
        _theorem1_constraints,
    ),
    "spacetime": _Family(
        "galilei_ext",
        "kappa",
        newton_hooke_closed_forms,
        "newton_hooke",
        _nh_templates,
        _theorem2_constraints,
    ),
    "negative": _Family(
        "galilei",
        "kappa",
        _negative_nh_closed_forms,
        "newton_hooke",
        None,
        None,
    ),
}


class _SeedCertificate(NamedTuple):
    """The witness-free results of one family, shared by its drivers."""

    seed: Seed
    generators: ExpandedGenerators
    closed_forms_match: bool
    constraints: tuple
    certificate: ClosureCertificate


@functools.cache
def _certificate(family: str) -> _SeedCertificate:
    """Build a family's seed, generators and closure certificate.

    Cached for the life of the process: the inputs are catalog algebras,
    which are immutable and cached themselves, and the tables above.  The
    closed forms match when every derived generator equals its published
    form and exactly the generators whose form is the generator itself are
    fixed.
    """
    fam = _FAMILIES[family]
    alg = catalog(fam.initial)
    target = catalog(fam.target)
    decomps = [
        decompose_casimir(_named_over(alg, key, target), fam.curvature)
        for key in ("C1", "C2")
    ]
    seed = build_seed(decomps, ["a1", "a2"])
    gens = derive_generators(alg, seed)
    forms = fam.closed_forms(alg)
    closed_ok = all(gens.elements[k] == v for k, v in forms.items()) and (
        gens.fixed_set
        == frozenset(k for k, v in forms.items() if v == UEAElement.generator(alg, k))
    )
    templates = fam.templates(alg) if fam.templates else None
    return _SeedCertificate(
        seed,
        gens,
        closed_ok,
        fam.constraints(alg.ctx) if fam.constraints else (),
        closure_certificate(alg, gens, target, templates),
    )


# The curvature sign that selects each target: a witness on the other side
# (or at zero curvature, where the target table is Galilei's) satisfies the
# same constraints but certifies a different algebra.
_SIGNS = {"< 0": (-1,), "> 0": (1,), "!= 0": (-1, 1)}


def _require_curvature(target: str, witness: Mapping, name: str, relation: str):
    value = witness.get(name)
    sign = None if value is None else (value > 0) - (value < 0)
    if sign not in _SIGNS[relation]:
        got = f"no {name}" if value is None else f"{name} = {value}"
        raise ConstraintViolationError(
            f"the {target} expansion needs a witness with {name} {relation} "
            f"(got {got})"
        )


def _run(
    name: str, family: str, target: str, witness: Mapping, expected_to_close=True
) -> ExpansionRun:
    entry = _certificate(family)
    report = verify_closure(
        entry.certificate, catalog(target), entry.constraints, witness
    )
    return ExpansionRun(
        name,
        entry.seed,
        entry.generators,
        entry.closed_forms_match,
        report,
        expected_to_close,
    )


def run_theorem1(witness: Mapping[str, Fraction] | None = None) -> ExpansionRun:
    """Galilei -> Poincare expansion with a rational closure witness.

    The witness must fix omega < 0; a ``ConstraintViolationError`` is
    raised otherwise.
    """
    witness = dict(witness or DEFAULT_WITNESSES["poincare"])
    _require_curvature("poincare", witness, "omega", "< 0")
    return _run("theorem1", "worldline", "poincare", witness)


def run_euclid(witness: Mapping[str, Fraction] | None = None) -> ExpansionRun:
    """Galilei -> 4D Euclidean expansion (positive worldline curvature).

    The witness must fix omega > 0; a ``ConstraintViolationError`` is
    raised otherwise.
    """
    witness = dict(witness or DEFAULT_WITNESSES["euclid4"])
    _require_curvature("euclid4", witness, "omega", "> 0")
    return _run("euclid", "worldline", "euclid4", witness)


def run_theorem2(witness: Mapping[str, Fraction] | None = None) -> ExpansionRun:
    """Extended Galilei -> Newton--Hooke expansion.

    The witness must fix kappa != 0 (either sign); a
    ``ConstraintViolationError`` is raised otherwise.
    """
    witness = dict(witness or DEFAULT_WITNESSES["newton_hooke"])
    _require_curvature("newton_hooke", witness, "kappa", "!= 0")
    return _run("theorem2", "spacetime", "newton_hooke", witness)


def run_negative_nh() -> ExpansionRun:
    """The documented failure: the plain Galilei seed cannot reach NH.

    The derived generator set (H' = 2*a1*K.P, everything else fixed) must
    fail closure against Newton--Hooke; the report names the mismatching
    brackets.
    """
    return _run(
        "negative_nh",
        "negative",
        "newton_hooke",
        {"kappa": Fraction(-1)},
        expected_to_close=False,
    )


DRIVERS = {
    "poincare": run_theorem1,
    "euclid4": run_euclid,
    "newton_hooke": run_theorem2,
    "negative-nh": run_negative_nh,
}


def override_witness(target: str, overrides: Mapping[str, Fraction]) -> dict:
    """``target``'s default witness with ``overrides`` merged onto it.

    A ``newton_hooke`` override with ``kappa > 0`` starts from
    :data:`THEOREM2_POSITIVE_WITNESS` instead.  A target with no default
    witness (negative-nh) takes no overrides, and an override of a
    parameter the default witness does not set is one the target never
    reads: both raise ``ValueError``.
    """
    base = DEFAULT_WITNESSES.get(target)
    if base is None:
        raise ValueError(f"{target} has no default witness to override")
    for name in overrides:
        if name not in base:
            raise ValueError(
                f"{target} reads no witness parameter {name!r} "
                f"(it reads {', '.join(base)})"
            )
    if target == "newton_hooke" and overrides.get("kappa", 0) > 0:
        base = THEOREM2_POSITIVE_WITNESS
    return {**base, **overrides}
