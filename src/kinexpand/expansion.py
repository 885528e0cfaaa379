"""The curvature-controlled expansion pipeline.

Four steps: (i) split each target Casimir, written over the initial algebra's
generators, into powers of the curvature parameter; (ii) combine the
curvature-linear parts into a seed with undetermined constants; (iii) obtain
expanded generators as the seed's adjoint action, keeping generators the seed
commutes with; (iv) verify that the expanded generators close onto the target
bracket table.

Closure verification runs in three phases per generator pair.  Brackets that
stay inside the fixed subalgebra (or involve one fixed generator) must match
the target structure constants exactly as enveloping-algebra elements.  The
remaining brackets produce central factors (Casimirs, the central generator);
for these a *template* written with scalar stand-ins c1, c2, xi is checked
exactly after expanding the stand-ins to their defining elements, then
scalarised with a rational witness and compared to the target structure
constants.  Witnesses must satisfy the closure constraint equations over
the rationals; a constraint the witness leaves open (one free constant)
becomes a power-substitution rule applied during comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .coeffring import Poly, format_poly
from .liealg import _CYCLIC, LieAlgebra, catalog
from .uea import UEAElement, format_element, named_element


class ConstraintViolationError(ValueError):
    """The witness does not satisfy a constraint equation."""


class DecompositionDegreeError(ValueError):
    """Target Casimir has curvature degree above two."""


@dataclass
class CasimirDecomposition:
    """Curvature-power split of a target Casimir over the initial algebra."""

    base: UEAElement
    linear: UEAElement
    quadratic: UEAElement
    curvature: str

    def recombine(self) -> UEAElement:
        alg = self.base.alg
        w = Poly.var(alg.ctx, self.curvature)
        return self.base + self.linear.smul(w) + self.quadratic.smul(w * w)


def decompose_casimir(target_casimir: UEAElement, curvature: str) -> CasimirDecomposition:
    """Split coefficients by curvature power (degree <= 2)."""
    alg = target_casimir.alg
    ctx = alg.ctx
    idx = ctx.index[curvature]
    parts = [{}, {}, {}]
    for mono, poly in target_casimir.terms.items():
        for exps, c in poly.terms.items():
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


@dataclass
class Seed:
    """Linear combination of the curvature-linear Casimir parts."""

    element: UEAElement
    alphas: tuple

    @property
    def degenerate(self) -> bool:
        return self.element.is_zero()


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


@dataclass
class ExpandedGenerators:
    """Adjoint-derived generator set: name -> element, plus the fixed set."""

    elements: dict
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
    return ExpandedGenerators(elements=elements, fixed_set=frozenset(fixed))


# ---------------------------------------------------------------------------
# Closure verification
# ---------------------------------------------------------------------------

# Scalar stand-ins appearing in template coefficients and what they expand to.
CENTRAL_SYMBOLS = ("c1", "c2", "xi")


@dataclass
class CentralTemplate:
    """Expected commutators for generator pairs, with central stand-ins.

    ``entries`` maps ordered name pairs (target basis order) to elements of
    the initial algebra's UEA whose coefficients may involve c1, c2, xi.
    """

    entries: dict


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
    for mono, poly in template.terms.items():
        for exps, c in poly.terms.items():
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


@dataclass
class PowerReduction:
    """Substitution rule param**power -> value, derived from a constraint."""

    param: str
    power: int
    value: Fraction

    def apply_poly(self, p: Poly) -> Poly:
        return p.substitute_power(self.param, self.power, self.value)

    def __str__(self) -> str:
        return f"{self.param}^{self.power} -> {self.value}"


def _analyze_constraints(constraints, witness) -> list:
    """Check the witness and turn open constraints into power reductions."""
    reductions = []
    for c in constraints:
        r = c.substitute(witness)
        if r.is_zero():
            continue
        ctx = r.ctx
        free = set()
        for exps in r.terms:
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
        for exps, coeff in r.terms.items():
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


def _reduce_element(el: UEAElement, reductions) -> UEAElement:
    if not reductions:
        return el
    out = {}
    for mono, poly in el.terms.items():
        for red in reductions:
            poly = red.apply_poly(poly)
        if not poly.is_zero():
            out[mono] = poly
    return UEAElement(el.alg, out)


@dataclass
class PairVerdict:
    pair: tuple
    verdict: str  # exact_zero | template_match | mismatch
    phase1: str  # pass | n/a | residual text
    scalarized: str
    target: str
    residual: str | None = None

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "verdict": self.verdict,
            "phase1": self.phase1,
            "scalarized": self.scalarized,
            "target": self.target,
            "residual": self.residual,
        }


@dataclass
class ClosureReport:
    initial: str
    target: str
    fixed_set: tuple
    constraints: tuple
    witness: dict
    reductions: tuple
    pairs: list
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


def verify_closure(
    alg: LieAlgebra,
    gens: ExpandedGenerators,
    target: LieAlgebra,
    templates: CentralTemplate | None = None,
    constraints: Sequence[Poly] = (),
    witness: Mapping[str, Fraction] | None = None,
) -> ClosureReport:
    """Check the expanded generators against the target bracket table.

    The witness is validated against the constraints first; an exactly
    satisfied constraint is consumed, an open one (single free constant)
    becomes a power-reduction rule.  Every target generator pair is then
    verified: exact enveloping-algebra equality where possible, otherwise
    through its central template.
    """
    witness = dict(witness or {})
    entries = templates.entries if templates is not None else {}
    reductions = _analyze_constraints(constraints, witness)

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

    pairs = []
    mismatches = []
    names = [g.name for g in target.generators]
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            na, nb = names[a], names[b]
            actual = gens.elements[na].commutator(gens.elements[nb])
            ta, tb = target.gen_index[na], target.gen_index[nb]
            expected = UEAElement.zero(alg)
            for k, coeff in target.bracket_pair(ta, tb).items():
                expected = expected + gens.elements[names[k]].smul(
                    coeff.substitute(witness)
                )
            target_text = format_element(expected)
            exact_res = _reduce_element(actual - expected, reductions)
            if exact_res.is_zero():
                pairs.append(
                    PairVerdict((na, nb), "exact_zero", "n/a", "", target_text)
                )
                continue
            template = entries.get((na, nb))
            if template is None:
                pairs.append(
                    PairVerdict(
                        (na, nb),
                        "mismatch",
                        "n/a",
                        "",
                        target_text,
                        residual=format_element(exact_res),
                    )
                )
                mismatches.append((na, nb))
                continue
            # phase 1: exact identity with central symbols expanded
            expanded = expand_central(template, central_map)
            p1_res = actual - expanded
            phase1 = "pass" if p1_res.is_zero() else format_element(p1_res)
            # phase 2: scalarise the template with the witness
            scal = UEAElement(
                alg,
                {m: p.substitute(witness) for m, p in template.terms.items()},
            )
            scal = _reduce_element(scal, reductions)
            scal_text = format_element(scal)
            degree_ok = scal.degree() <= 1
            # phase 3: compare with the target structure constants
            p3_res = _reduce_element(scal - expected, reductions)
            ok = p1_res.is_zero() and degree_ok and p3_res.is_zero()
            if ok:
                pairs.append(
                    PairVerdict((na, nb), "template_match", "pass", scal_text, target_text)
                )
            else:
                residual = p1_res if not p1_res.is_zero() else p3_res
                pairs.append(
                    PairVerdict(
                        (na, nb),
                        "mismatch",
                        phase1,
                        scal_text,
                        target_text,
                        residual=format_element(residual),
                    )
                )
                mismatches.append((na, nb))

    return ClosureReport(
        initial=alg.name,
        target=target.name,
        fixed_set=tuple(sorted(gens.fixed_set)),
        constraints=tuple(format_poly(c) for c in constraints),
        witness=witness,
        reductions=tuple(reductions),
        pairs=pairs,
        passed=not mismatches,
        mismatches=tuple(mismatches),
    )


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

@dataclass
class ExpansionRun:
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


def _poincare_target_casimirs(alg: LieAlgebra):
    """Poincare Casimirs written over the initial (Galilei) generators."""
    ctx = alg.ctx
    omega = Poly.var(ctx, "omega")
    H = UEAElement.generator(alg, "H")
    C1 = named_element(alg, "C1")
    C2 = named_element(alg, "C2")
    JP = named_element(alg, "JP")
    W = [named_element(alg, f"W{i}") for i in (1, 2, 3)]
    J = [UEAElement.generator(alg, f"J{i}") for i in (1, 2, 3)]
    Wp = [W[i] + (H * J[i]).smul(omega) for i in range(3)]
    C1p = C1 + (H * H).smul(omega)
    C2p = sum((w * w for w in Wp), UEAElement.zero(alg)) + (JP * JP).smul(omega)
    return C1p, C2p


def _nh_target_casimirs(alg: LieAlgebra):
    """Newton--Hooke Casimirs over the initial ((extended) Galilei) basis."""
    ctx = alg.ctx
    kappa = Poly.var(ctx, "kappa")
    C1p = named_element(alg, "C1") + named_element(alg, "K2").smul(kappa)
    C2p = named_element(alg, "C2")
    return C1p, C2p


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


def _poincare_templates(alg: LieAlgebra) -> CentralTemplate:
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
    return CentralTemplate(entries)


def _nh_templates(alg: LieAlgebra) -> CentralTemplate:
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
    return CentralTemplate(entries)


THEOREM1_WITNESS = {
    "c1": Fraction(1),
    "c2": Fraction(1, 4),
    "a2": Fraction(1),
    "a1": Fraction(-1, 4),
    "omega": Fraction(-1),
}

EUCLID_WITNESS = {
    "c1": Fraction(1),
    "c2": Fraction(-1, 4),
    "a2": Fraction(1),
    "a1": Fraction(1, 4),
    "omega": Fraction(1),
}

THEOREM2_WITNESS = {
    "m": Fraction(1),
    "xi": Fraction(1, 2),
    "kappa": Fraction(-1),
    "a1": Fraction(1),
}

# For positive spacetime curvature the constraint forces a negative square,
# so a1 stays formal and the constraint itself supplies the reduction rule.
THEOREM2_POSITIVE_WITNESS = {
    "m": Fraction(1),
    "xi": Fraction(1, 2),
    "kappa": Fraction(1),
}


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


def _run_worldline_expansion(name, target_name, witness) -> ExpansionRun:
    alg = catalog("galilei")
    C1p, C2p = _poincare_target_casimirs(alg)
    d1 = decompose_casimir(C1p, "omega")
    d2 = decompose_casimir(C2p, "omega")
    seed = build_seed([d1, d2], ["a1", "a2"])
    gens = derive_generators(alg, seed)
    forms = poincare_closed_forms(alg)
    closed_ok = all(gens.elements[k] == forms[k] for k in forms)
    report = verify_closure(
        alg,
        gens,
        catalog(target_name),
        templates=_poincare_templates(alg),
        constraints=_theorem1_constraints(alg.ctx),
        witness=witness,
    )
    return ExpansionRun(name, seed, gens, closed_ok, report)


def run_theorem1(witness: Mapping[str, Fraction] | None = None) -> ExpansionRun:
    """Galilei -> Poincare expansion with a rational closure witness."""
    return _run_worldline_expansion(
        "theorem1", "poincare", dict(witness or THEOREM1_WITNESS)
    )


def run_euclid(witness: Mapping[str, Fraction] | None = None) -> ExpansionRun:
    """Galilei -> 4D Euclidean expansion (positive worldline curvature)."""
    return _run_worldline_expansion(
        "euclid", "euclid4", dict(witness or EUCLID_WITNESS)
    )


def run_theorem2(witness: Mapping[str, Fraction] | None = None) -> ExpansionRun:
    """Extended Galilei -> Newton--Hooke expansion."""
    alg = catalog("galilei_ext")
    C1p, C2p = _nh_target_casimirs(alg)
    d1 = decompose_casimir(C1p, "kappa")
    d2 = decompose_casimir(C2p, "kappa")
    seed = build_seed([d1, d2], ["a1", "a2"])
    gens = derive_generators(alg, seed)
    forms = newton_hooke_closed_forms(alg)
    closed_ok = all(gens.elements[k] == forms[k] for k in forms)
    report = verify_closure(
        alg,
        gens,
        catalog("newton_hooke"),
        templates=_nh_templates(alg),
        constraints=_theorem2_constraints(alg.ctx),
        witness=dict(witness or THEOREM2_WITNESS),
    )
    return ExpansionRun("theorem2", seed, gens, closed_ok, report)


def run_negative_nh() -> ExpansionRun:
    """The documented failure: the plain Galilei seed cannot reach NH.

    The derived generator set (H' = 2*a1*K.P, everything else fixed) must
    fail closure against Newton--Hooke; the report names the mismatching
    brackets.
    """
    alg = catalog("galilei")
    C1p, C2p = _nh_target_casimirs(alg)
    d1 = decompose_casimir(C1p, "kappa")
    d2 = decompose_casimir(C2p, "kappa")
    seed = build_seed([d1, d2], ["a1", "a2"])
    gens = derive_generators(alg, seed)
    a1 = Poly.var(alg.ctx, "a1")
    expected_h = named_element(alg, "KP").smul(a1.scale(2))
    closed_ok = gens.elements["H"] == expected_h and gens.fixed_set == frozenset(
        n for n in alg.gen_index if n != "H"
    )
    report = verify_closure(
        alg,
        gens,
        catalog("newton_hooke"),
        templates=None,
        constraints=(),
        witness={"kappa": Fraction(-1)},
    )
    return ExpansionRun(
        "negative_nh", seed, gens, closed_ok, report, expected_to_close=False
    )


DRIVERS = {
    "poincare": run_theorem1,
    "euclid4": run_euclid,
    "newton_hooke": run_theorem2,
    "negative-nh": run_negative_nh,
}
