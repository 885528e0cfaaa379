"""Batteries of exact checks: enveloping-algebra identity corpus, structural
suite and contraction round-trips.

Every check returns ``CheckResult`` records so the CLI and the test suite can
share one implementation.  All comparisons are exact (residual must vanish in
normal form); there are no tolerances anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .liealg import (
    _CYCLIC,
    _EPSILON,
    PI_SIGNS,
    PI_T_SIGNS,
    LieAlgebra,
    automorphism_check,
    catalog,
    decomposition_check,
    iw_contract,
    parameter_contract,
    spacetime_split,
    substitute_algebra,
    worldline_split,
)
from .uea import UEAElement, format_element, is_central, named_element


class CheckResult(NamedTuple):
    label: str
    passed: bool
    detail: str = ""


def identity_check(label: str, lhs: UEAElement, rhs: UEAElement) -> CheckResult:
    """Exact PBW equality ``lhs = rhs``; a failure carries the residual."""
    residual = lhs - rhs
    return CheckResult(
        label, residual.is_zero(), "" if residual.is_zero() else format_element(residual)
    )


def identity_corpus() -> list:
    """The full corpus of enveloping-algebra identities over Galilei.

    Covers the two scalar identities, their squared consequences (and the
    boost analogues), the bracket tables for W, J.P and J.W, the Casimir-
    producing commutators and the [J.W, J.P] expansion.
    """
    g = catalog("galilei")
    zero = UEAElement.zero(g)
    gen = lambda n: UEAElement.generator(g, n)
    H = gen("H")
    P = {i: gen(f"P{i}") for i in (1, 2, 3)}
    K = {i: gen(f"K{i}") for i in (1, 2, 3)}
    J = {i: gen(f"J{i}") for i in (1, 2, 3)}
    W = {i: named_element(g, f"W{i}") for i in (1, 2, 3)}
    JP = named_element(g, "JP")
    JW = named_element(g, "JW")
    KP = named_element(g, "KP")
    C1 = named_element(g, "C1")
    C2 = named_element(g, "C2")

    results = []
    add = results.append

    # scalar identities P.W = 0 and K.W = 0
    add(identity_check("A1: P.W = 0", sum((P[i] * W[i] for i in (1, 2, 3)), zero), zero))
    add(identity_check("A1: K.W = 0", sum((K[i] * W[i] for i in (1, 2, 3)), zero), zero))

    # squared consequences, for X in {P, K}
    for tag, X in (("P", P), ("K", K)):
        lhs = sum(
            ((X[i] * X[j] * W[i] * W[j]).smul(-2) for i, j in ((1, 2), (1, 3), (2, 3))),
            zero,
        )
        rhs = sum((X[i] * X[i] * W[i] * W[i] for i in (1, 2, 3)), zero)
        add(identity_check(f"A2({tag}): cross terms", lhs, rhs))
        for i, a, b in _CYCLIC:
            lhs = (
                X[i] * X[i] * W[i] * W[i]
                - X[a] * X[a] * W[a] * W[a]
                - X[b] * X[b] * W[b] * W[b]
                - (X[a] * X[b] * W[a] * W[b]).smul(2)
            )
            add(identity_check(f"A3({tag}): component {i}", lhs, zero))

    # bracket table for the W components
    for i in (1, 2, 3):
        add(identity_check(f"A4: [W{i},H] = 0", W[i].commutator(H), zero))
        for j in (1, 2, 3):
            if i != j:
                k = 6 - i - j
                sign = _EPSILON[(i, j, k)]
                add(
                    identity_check(
                        f"A4: [W{i},J{j}]", W[i].commutator(J[j]), W[k].smul(sign)
                    )
                )
            add(identity_check(f"A4: [W{i},P{j}] = 0", W[i].commutator(P[j]), zero))
            add(identity_check(f"A4: [W{i},K{j}] = 0", W[i].commutator(K[j]), zero))
        for j in range(i + 1, 4):
            add(identity_check(f"A4: [W{i},W{j}] = 0", W[i].commutator(W[j]), zero))

    # bracket table for J.P
    add(identity_check("A5: [J.P,H] = 0", JP.commutator(H), zero))
    for i, a, b in _CYCLIC:
        add(identity_check(f"A5: [J.P,J{i}] = 0", JP.commutator(J[i]), zero))
        add(identity_check(f"A5: [J.P,P{i}] = 0", JP.commutator(P[i]), zero))
        add(identity_check(f"A5: [J.P,K{i}] = W{i}", JP.commutator(K[i]), W[i]))
        add(
            identity_check(
                f"A5: [J.P,W{i}]",
                JP.commutator(W[i]),
                -(P[a] * W[b] - P[b] * W[a]),
            )
        )

    # bracket table for J.W
    add(identity_check("A6: [J.W,H] = 0", JW.commutator(H), zero))
    for i, a, b in _CYCLIC:
        add(identity_check(f"A6: [J.W,J{i}] = 0", JW.commutator(J[i]), zero))
        add(identity_check(f"A6: [J.W,W{i}] = 0", JW.commutator(W[i]), zero))
        add(
            identity_check(
                f"A6: [J.W,P{i}]", JW.commutator(P[i]), P[a] * W[b] - P[b] * W[a]
            )
        )
        add(
            identity_check(
                f"A6: [J.W,K{i}]", JW.commutator(K[i]), K[a] * W[b] - K[b] * W[a]
            )
        )

    # Casimir-producing commutators
    for i, a, b in _CYCLIC:
        add(
            identity_check(
                f"A7: [J.P, P{a}W{b}-P{b}W{a}] = C1*W{i}",
                JP.commutator(P[a] * W[b] - P[b] * W[a]),
                C1 * W[i],
            )
        )
        add(
            identity_check(
                f"A7: [J.P, K{a}W{b}-K{b}W{a}] = K.P*W{i}",
                JP.commutator(K[a] * W[b] - K[b] * W[a]),
                KP * W[i],
            )
        )
        add(
            identity_check(
                f"A8: [J.W, P{a}W{b}-P{b}W{a}] = -C2*P{i}",
                JW.commutator(P[a] * W[b] - P[b] * W[a]),
                -(C2 * P[i]),
            )
        )
        add(
            identity_check(
                f"A8: [J.W, K{a}W{b}-K{b}W{a}] = -C2*K{i}",
                JW.commutator(K[a] * W[b] - K[b] * W[a]),
                -(C2 * K[i]),
            )
        )

    # the commutator of the two rotation scalars
    rhs = sum(
        (J[i] * (P[a] * W[b] - P[b] * W[a]) for i, a, b in _CYCLIC), zero
    )
    add(identity_check("A9: [J.W, J.P]", JW.commutator(JP), rhs))
    return results


def centrality_check(alg: LieAlgebra) -> list:
    """Centrality in one algebra: of its central generator Xi when it has
    one, else of the Casimirs C1 and C2.

    Raises ``KeyError`` when the algebra has neither Xi nor a family of
    named elements.
    """
    if "Xi" in alg.gen_index:
        elements = [("Xi", UEAElement.generator(alg, "Xi"))]
    else:
        elements = [(key, named_element(alg, key)) for key in ("C1", "C2")]
    results = []
    for key, element in elements:
        ok, witness = is_central(alg, element)
        results.append(
            CheckResult(
                f"centrality: {key} in {alg.name}",
                ok,
                "" if ok else f"fails against {witness}",
            )
        )
    return results


def casimir_centrality() -> list:
    """Centrality of C1, C2 in each catalog algebra, and of the central
    generator in the extended algebra."""
    return [
        result
        for name in ("galilei", "poincare", "newton_hooke", "galilei_ext")
        for result in centrality_check(catalog(name))
    ]


def structural_suite() -> list:
    """Jacobi, involutive automorphisms and decomposition classifications."""
    results = []
    # catalog() parses each shipped table with the Jacobi check and raises
    # JacobiViolationError on a violation, so a loaded algebra has passed
    # it: the load-time result is the row, and no algebra is checked twice
    for name in ("galilei", "galilei_ext", "poincare", "newton_hooke"):
        catalog(name)
        results.append(CheckResult(f"jacobi: {name}", True, ""))
    for name in ("galilei", "poincare", "newton_hooke"):
        alg = catalog(name)
        for label, signs in (("parity", PI_SIGNS), ("parity-time", PI_T_SIGNS)):
            ok, why = automorphism_check(alg, signs)
            results.append(
                CheckResult(f"automorphism: {label} on {name}", ok, why or "")
            )
    expected_pp = {
        ("galilei", "spacetime"): "zero",
        ("galilei", "worldline"): "zero",
        ("poincare", "spacetime"): "zero",
        ("poincare", "worldline"): "subset_h",
        ("newton_hooke", "spacetime"): "subset_h",
        ("newton_hooke", "worldline"): "zero",
    }
    for (name, split), want in expected_pp.items():
        alg = catalog(name)
        d = spacetime_split(alg) if split == "spacetime" else worldline_split(alg)
        rep = decomposition_check(alg, d)
        ok = rep.hh_in_h and rep.hp_in_p and rep.pp == want
        results.append(
            CheckResult(
                f"decomposition: {name} {split} [p,p]={want}",
                ok,
                "" if ok else f"got hh={rep.hh_in_h} hp={rep.hp_in_p} pp={rep.pp}",
            )
        )
    return results


def contraction_suite() -> list:
    """The contraction edges of the expansion/contraction diagram."""
    results = []
    galilei = catalog("galilei")

    contracted = parameter_contract(catalog("poincare"), "omega")
    results.append(
        CheckResult(
            "contract: poincare at omega->0 equals galilei",
            contracted.same_structure(galilei),
        )
    )
    contracted = parameter_contract(catalog("newton_hooke"), "kappa")
    results.append(
        CheckResult(
            "contract: newton_hooke at kappa->0 equals galilei",
            contracted.same_structure(galilei),
        )
    )
    p_fixed = substitute_algebra(catalog("poincare"), {"omega": Fraction(-1)})
    contracted = iw_contract(p_fixed, worldline_split(p_fixed))
    results.append(
        CheckResult(
            "contract: IW worldline contraction of poincare(omega=-1) equals galilei",
            contracted.same_structure(galilei),
        )
    )
    nh_fixed = substitute_algebra(catalog("newton_hooke"), {"kappa": Fraction(1)})
    contracted = iw_contract(nh_fixed, spacetime_split(nh_fixed))
    results.append(
        CheckResult(
            "contract: IW spacetime contraction of newton_hooke(kappa=1) equals galilei",
            contracted.same_structure(galilei),
        )
    )
    return results
