"""The curvature-controlled expansion pipeline.

Four steps: (i) split each target Casimir, written over the initial algebra's
generators, into powers of the curvature parameter; (ii) combine the
curvature-linear parts into a seed with undetermined constants; (iii) obtain
expanded generators as the seed's adjoint action, keeping generators the seed
commutes with; (iv) verify that the expanded generators close onto the target
bracket table.

Closure verification is split in two.  The *certificate*
(:func:`closure_certificate`) holds, per target generator pair, the facts
that do not depend on the target: the actual commutator of the expanded
generators and, where the pair has a central template, the phase-1
residual: the template is written with scalar stand-ins c1, c2, xi for
central factors (Casimirs, the central generator), and the stand-ins are
expanded to their defining elements and compared exactly.  The *closure
check* (:func:`verify_closure`) then decides every pair on the whole
constraint variety, once per (certificate, target, constraints) in a plan
that is kept: it builds the expected bracket from the target's structure
constants with their parameters left symbolic and reduces the
coefficients of ``actual - expected``, and of ``template - expected``,
modulo the constraints by multivariate division (:meth:`Poly.reduce`).
The certificate depends only on the seed, so each driver family builds it
once per process, and the plan depends on no witness, so every witness
reuses both; what they share is read-only (NamedTuple records, mappings,
element terms).  A witness is only validated and rendered: it must satisfy
the constraints (a constraint it leaves open, with one free constant,
becomes a power-substitution rule), and the texts of a pair whose expected
bracket or scalarised template reads it are built from it when read.
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


def _expected_at(verdict, alg, row, substitute) -> UEAElement:
    """A recipe's element: the expected bracket of ``row`` (pairs of an
    expanded element and a structure constant) with the constants at the
    witness that ``substitute`` applies."""
    return _expected_bracket(alg, [(element, substitute(c)) for element, c in row])


def _scalarized_at(verdict, template, substitute, reductions) -> UEAElement:
    """A recipe's element: the template with its coefficients at the witness
    and reduced by the power rules ``reductions`` (phase 2)."""
    terms = {}
    for m, p in template._terms.items():
        value = _reduce_poly(substitute(p), reductions)
        if value._terms:
            terms[m] = value
    return UEAElement._raw(template.alg, terms)


def _residual(verdict, minuend, reductions) -> UEAElement:
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
    bracket, the scalarised template and the residual.  The verdict and
    ``phase1`` hold on the whole constraint variety; the texts are those at
    the witness of the :func:`verify_closure` call.  The verdict keeps the
    elements and renders each text on first read, into a slot of its own,
    so a caller that only reads verdicts formats nothing.  Each element may
    also be given as a recipe, a tuple ``(function, *args)``: the element is
    then ``function(verdict, *args)``, made on the first read of its text or
    of the verdict's equality and kept in its place.  A call gives the
    elements that read its witness as recipes (:func:`_expected_at`,
    :func:`_scalarized_at` and :func:`_residual`, which reads the expected
    bracket from the verdict), so a verdict nobody reads builds no element.
    It is read-only: every field is a property over a private slot.  A
    verdict whose texts need no witness is made once per plan and shared by
    every call on it, with any residual already formed, so that only its
    texts are filled in when first read.  Two verdicts are equal when their
    fields and elements are; the texts play no part.
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
    """The target-independent part of one pair's closure check.

    ``actual`` is the commutator of the pair's expanded generators.  For a
    pair with a template, ``phase1`` is ``actual - expand_central(template)``
    and ``phase1_text`` is ``"pass"`` when it is zero, else its text; for a
    pair without one, ``phase1`` is None and ``phase1_text`` is ``"n/a"``.
    No verdict is kept here: every verdict is made by the
    :func:`verify_closure` plan of a target and its constraints.
    """

    pair: tuple
    actual: UEAElement
    template: UEAElement | None
    phase1: UEAElement | None
    phase1_text: str


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
    """Compute every commutator and phase-1 identity of a generator set.

    For each pair of target generators, in target basis order, the actual
    commutator of the expanded generators is formed once; where the pair
    has a central template, the template with its stand-ins expanded is
    subtracted from it exactly (phase 1).  None of it depends on the
    target's structure constants, which only :func:`verify_closure` reads:
    ``target`` gives the pairs and their order.  ``templates`` maps ordered
    name pairs (target basis order) to elements of the initial algebra's UEA
    whose coefficients may involve the stand-ins c1, c2, xi.
    """
    templates = templates or {}
    central_map = _central_map(alg)
    names = [g.name for g in target.generators]
    pairs = []
    for na, nb in combinations(names, 2):
        actual = gens.elements[na].commutator(gens.elements[nb])
        template = templates.get((na, nb))
        phase1, text = None, "n/a"
        if template is not None:
            phase1 = actual - expand_central(template, central_map)
            text = "pass" if phase1.is_zero() else format_element(phase1)
        pairs.append(PairCertificate((na, nb), actual, template, phase1, text))
    return ClosureCertificate(alg, gens, tuple(pairs))


class _Check(NamedTuple):
    """A pair whose verdict the plan makes and whose texts read the witness.

    ``row`` holds, per structure constant of the pair's target row, the
    expanded element and the constant (a ``Poly``); ``verdict`` and
    ``phase1`` are the plan's.
    """

    index: int
    cert: PairCertificate
    row: tuple
    verdict: str
    phase1: str


class _Plan(NamedTuple):
    """The verdicts of one (certificate, target, constraints) triple.

    ``verdicts`` has one entry per pair, in target basis order: a shared,
    read-only :class:`PairVerdict` for a pair whose texts need no witness,
    None for one whose expected bracket or scalarised template reads it;
    ``checks`` describes the None entries.  ``reducible`` holds the shared
    mismatches of constant rows, whose residuals only a power rule of the
    witness changes.  ``mismatches`` are the mismatching pairs.  ``pairs``,
    ``generators`` and ``constraints`` are kept so that the key their
    identities give stays theirs.
    """

    pairs: tuple
    generators: ExpandedGenerators
    constraints: tuple
    verdicts: tuple
    checks: tuple
    reducible: tuple
    mismatches: tuple
    fixed_set: tuple


# Plans per target algebra, held weakly as ``uea._TABLES`` holds the kernel
# tables, and per certificate by the identity of its pairs and generators
# and of the constraints, or their value: a certificate made with
# ``_replace`` gets a plan of its own.  A target keeps its most recent few
# plans.
_PLANS: "weakref.WeakKeyDictionary[LieAlgebra, dict]" = weakref.WeakKeyDictionary()
_PLANS_PER_TARGET = 8


def _membership(constraints: tuple, target: LieAlgebra) -> Callable:
    """The test "``p`` lies in the ideal of ``constraints``", memoised.

    The term order is lex with the parameters of the target's structure
    constants first (``omega``, ``kappa``), then the context order, so
    that each curvature is the leading term of the rule that fixes it.
    """
    if not constraints:
        return lambda p: not p._terms
    used = {
        target.ctx.names[i] for row in target.brackets.values() for c in row.values()
        for exps in c._terms for i, e in enumerate(exps) if e
    }
    order = [name for name in constraints[0].ctx.names if name in used]
    # refuses a basis whose leading terms share a parameter
    constraints[0].reduce(constraints, order)
    memo: dict = {}

    def in_ideal(p: Poly) -> bool:
        found = memo.get(p)
        if found is None:
            found = memo[p] = not p.reduce(constraints, order)[0]._terms
        return found

    return in_ideal


def _decide(cert: PairCertificate, expected: UEAElement, in_ideal) -> tuple:
    """The verdict and phase-1 text of a pair, on the variety of the ideal
    that ``in_ideal`` tests: ``exact_zero`` when every coefficient of
    ``actual - expected`` lies in the ideal, ``template_match`` when phase 1
    passed and every coefficient of ``template - expected``, and of the
    template's monomials of degree above 1, does, else ``mismatch``."""
    if all(map(in_ideal, (cert.actual - expected)._terms.values())):
        return "exact_zero", "n/a"
    template = cert.template
    if template is None:
        return "mismatch", "n/a"
    if cert.phase1._terms or not all(
        map(in_ideal, (template - expected)._terms.values())
    ) or not all(in_ideal(p) for m, p in template._terms.items() if sum(m) > 1):
        return "mismatch", cert.phase1_text
    return "template_match", "pass"


def _plan(
    certificate: ClosureCertificate, target: LieAlgebra, constraints: tuple
) -> _Plan:
    """The (certificate, target, constraints) plan, built on first use."""
    plans = _PLANS.get(target)
    if plans is None:
        plans = _PLANS[target] = {}
    key = (id(certificate.pairs), id(certificate.generators), id(constraints))
    plan = plans.get(key)
    if plan is not None:
        return plan
    for plan in plans.values():
        # equal constraints in another tuple, such as one made from a list
        if (
            plan.pairs is certificate.pairs
            and plan.generators is certificate.generators
            and plan.constraints == constraints
        ):
            return plan
    names = [g.name for g in target.generators]
    if tuple(combinations(names, 2)) != tuple(p.pair for p in certificate.pairs):
        raise ValueError(
            f"target {target.name} does not have the certificate's generator pairs"
        )
    alg = certificate.alg
    elements = certificate.generators.elements
    in_ideal = _membership(constraints, target)
    verdicts, checks, reducible, mismatches = [], [], [], []
    for index, cert in enumerate(certificate.pairs):
        na, nb = cert.pair
        row = target.bracket_pair(target.gen_index[na], target.gen_index[nb])
        products = tuple((elements[names[k]], c) for k, c in row.items())
        expected = _expected_bracket(alg, products)
        same = cert.actual == expected
        if same:
            verdict, phase1 = "exact_zero", "n/a"
        else:
            verdict, phase1 = _decide(cert, expected, in_ideal)
        if verdict == "mismatch":
            mismatches.append(cert.pair)
        check = _Check(index, cert, products, verdict, phase1)
        if any(not c.is_constant() for c in row.values()) or (
            cert.template is not None and verdict != "exact_zero"
        ):
            # the expected bracket or the scalarised template reads the witness
            verdicts.append(None)
            checks.append(check)
        elif verdict == "exact_zero":
            # share the certificate's element when it is the expected one
            verdicts.append(
                PairVerdict(cert.pair, verdict, phase1, cert.actual if same else expected)
            )
        else:
            verdicts.append(
                PairVerdict(
                    cert.pair, verdict, phase1, expected, residual=cert.actual - expected
                )
            )
            reducible.append(check)
    plan = _Plan(
        certificate.pairs,
        certificate.generators,
        constraints,
        tuple(verdicts),
        tuple(checks),
        tuple(reducible),
        tuple(mismatches),
        tuple(sorted(certificate.generators.fixed_set)),
    )
    if len(plans) == _PLANS_PER_TARGET:
        del plans[next(iter(plans))]
    plans[key] = plan
    return plan


def verify_closure(
    certificate: ClosureCertificate,
    target: LieAlgebra,
    constraints: Sequence[Poly] = (),
    witness: Mapping[str, Fraction] | None = None,
) -> ClosureReport:
    """Check a closure certificate against the target bracket table.

    Every verdict holds on the whole constraint variety, and is made once
    per (certificate, target, constraints) in a plan that is kept.  The
    plan checks that the target's generator pairs are the certificate's, in
    the same order.  Per pair it builds the expected bracket from the
    target's structure constants, with their parameters left symbolic, and
    reduces coefficients modulo the constraints by multivariate division
    (:meth:`Poly.reduce`): the pair is an ``exact_zero`` when every
    coefficient of ``actual - expected`` lies in the ideal; a
    ``template_match`` when the certificate's phase-1 residual is zero and
    every coefficient of ``template - expected`` lies in it, and the
    template has degree at most 1 once its coefficients are reduced (the
    ``(K_i, K_j)`` templates carry a degree-3 term whose coefficient is in
    the ideal); a ``mismatch`` otherwise.  Without constraints the ideal
    is zero and a verdict holds for every value of the parameters.  The
    term order is lex with the parameters of the target's structure
    constants first (:func:`_membership`), and constraints whose leading
    terms are not pairwise coprime raise ``ValueError``.  A certificate
    whose ``pairs`` or ``generators`` were replaced, or other constraints,
    get a plan of their own.

    The witness is only validated and rendered.  It is substituted into the
    constraints: an exactly satisfied constraint is consumed, an open one
    (single free constant) becomes a power-reduction rule, and any other
    raises :class:`ConstraintViolationError`.  A pair whose texts need no
    witness, a constant row decided ``exact_zero`` or a mismatch without
    template, keeps the plan's shared :class:`PairVerdict`; any other pair
    gets a verdict of its own, with the plan's verdict and, as recipes its
    verdict follows when read, the expected bracket with the structure
    constants at the witness, the template scalarised at the witness and
    reduced by the power rules, and the residual (``actual - expected``,
    ``scalarised - expected``, or the phase-1 residual) reduced by them.
    A round builds and compares no element.
    """
    constraints = tuple(constraints)
    plan = _plan(certificate, target, constraints)
    alg = certificate.alg
    witness = dict(witness or {})
    substitute = substitution(alg.ctx, witness)
    reductions = tuple(_analyze_constraints(constraints, substitute))
    pairs = list(plan.verdicts)
    for index, cert, row, verdict, phase1 in (
        plan.checks + plan.reducible if reductions else plan.checks
    ):
        scal = residual = None
        if verdict != "exact_zero" and cert.template is not None:
            scal = (_scalarized_at, cert.template, substitute, reductions)
        if verdict == "mismatch":
            if scal is None:
                residual = (_residual, cert.actual, reductions)
            elif cert.phase1._terms:
                residual = cert.phase1
            else:
                residual = (_residual, "_scalarized", reductions)
        expected = (_expected_at, alg, row, substitute)
        pairs[index] = PairVerdict(cert.pair, verdict, phase1, expected, scal, residual)
    return ClosureReport(
        initial=alg.name,
        target=target.name,
        fixed_set=plan.fixed_set,
        constraints=constraints,
        witness=witness,
        reductions=reductions,
        pairs=tuple(pairs),
        passed=not plan.mismatches,
        mismatches=plan.mismatches,
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
    witness = witness or DEFAULT_WITNESSES["poincare"]
    _require_curvature("poincare", witness, "omega", "< 0")
    return _run("theorem1", "worldline", "poincare", witness)


def run_euclid(witness: Mapping[str, Fraction] | None = None) -> ExpansionRun:
    """Galilei -> 4D Euclidean expansion (positive worldline curvature).

    The witness must fix omega > 0; a ``ConstraintViolationError`` is
    raised otherwise.
    """
    witness = witness or DEFAULT_WITNESSES["euclid4"]
    _require_curvature("euclid4", witness, "omega", "> 0")
    return _run("euclid", "worldline", "euclid4", witness)


def run_theorem2(witness: Mapping[str, Fraction] | None = None) -> ExpansionRun:
    """Extended Galilei -> Newton--Hooke expansion.

    The witness must fix kappa != 0 (either sign); a
    ``ConstraintViolationError`` is raised otherwise.
    """
    witness = witness or DEFAULT_WITNESSES["newton_hooke"]
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
