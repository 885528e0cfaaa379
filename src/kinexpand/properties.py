"""Randomized property checks with an explicit, reportable seed.

These back both the test suite and the CLI report: ring axioms for the
coefficient polynomials, PBW canonicity of normal ordering, associativity of
the enveloping-algebra product and the Jacobi identity for commutators.
Sampling is driven by a caller-supplied ``random.Random`` so every run is
reproducible from its printed seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .coeffring import ParamContext, Poly
from .liealg import LieAlgebra
from .uea import UEAElement, monomial_to_word, normal_form


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def random_poly(rng: random.Random, ctx: ParamContext, max_terms: int = 3, max_deg: int = 2) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * len(ctx)
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(len(ctx))] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + random_rational(rng)
    return Poly(ctx, terms)


def random_element(
    rng: random.Random, alg: LieAlgebra, max_terms: int = 3, max_deg: int = 3
) -> UEAElement:
    words = []
    for _ in range(rng.randint(1, max_terms)):
        length = rng.randint(0, max_deg)
        word = tuple(rng.randrange(alg.dim) for _ in range(length))
        words.append((word, random_rational(rng)))
    return normal_form(alg, words)


def check_ring_axioms(rng: random.Random, ctx: ParamContext, samples: int) -> list:
    """Associativity, commutativity, distributivity on random triples."""
    failures = []
    for n in range(samples):
        a = random_poly(rng, ctx)
        b = random_poly(rng, ctx)
        c = random_poly(rng, ctx)
        if (a * b) * c != a * (b * c):
            failures.append(f"mul associativity sample {n}")
        if a * b != b * a:
            failures.append(f"mul commutativity sample {n}")
        if a * (b + c) != a * b + a * c:
            failures.append(f"distributivity sample {n}")
        if (a + b) + c != a + (b + c):
            failures.append(f"add associativity sample {n}")
    return failures


def check_pbw_canonicity(rng: random.Random, alg: LieAlgebra, samples: int) -> list:
    """Idempotence and transposition invariance of normal ordering."""
    failures = []
    for n in range(samples):
        length = rng.randint(2, 5)
        word = tuple(rng.randrange(alg.dim) for _ in range(length))
        nf = normal_form(alg, [(word, 1)])
        renf = normal_form(alg, [(monomial_to_word(m), c) for m, c in nf._terms.items()])
        if nf != renf:
            failures.append(f"idempotence sample {n}: word {word}")
        # x_a x_b at position p equals x_b x_a + [x_a, x_b]
        p = rng.randrange(length - 1)
        a, b = word[p], word[p + 1]
        swapped = word[:p] + (b, a) + word[p + 2 :]
        corrections = [(swapped, 1)]
        for k, c in alg.bracket_pair(a, b).items():
            corrections.append((word[:p] + (k,) + word[p + 2 :], c))
        if nf != normal_form(alg, corrections):
            failures.append(f"transposition sample {n}: word {word} pos {p}")
    return failures


def check_associativity(rng: random.Random, alg: LieAlgebra, samples: int) -> list:
    failures = []
    for n in range(samples):
        a = random_element(rng, alg)
        b = random_element(rng, alg)
        c = random_element(rng, alg)
        if (a * b) * c != a * (b * c):
            failures.append(f"product associativity sample {n}")
    return failures


def check_uea_jacobi(rng: random.Random, alg: LieAlgebra, samples: int) -> list:
    failures = []
    for n in range(samples):
        a = random_element(rng, alg, max_deg=2)
        b = random_element(rng, alg, max_deg=2)
        c = random_element(rng, alg, max_deg=2)
        s = (
            a.commutator(b).commutator(c)
            + b.commutator(c).commutator(a)
            + c.commutator(a).commutator(b)
        )
        if not s.is_zero():
            failures.append(f"UEA Jacobi sample {n}")
    return failures
