"""Normal-ordering kernel: differential checks of products and commutators
against the word-rewriting oracle (with single- and multi-term
coefficients), the Casimir-power path on an algebra loaded from a file, the
centrality certificate on a Lie generating set, the flat tables on packed
integer keys, and the kernel's bounds."""

import inspect
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import oracle_kernel
from kinexpand import expansion, uea
from kinexpand.algfile import parse_algebra_file, parse_algebra_text
from kinexpand.cli import main
from kinexpand.coeffring import Poly
from kinexpand.exprparse import parse_expression
from kinexpand.liealg import catalog, catalog_names
from kinexpand.uea import (
    UEAElement,
    is_central,
    NAMED_ELEMENT_KEYS,
    kernel_stats,
    lie_generating_set,
    named_element,
    normal_form,
    normal_form_word,
)

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "kinexpand" / "data"

# Distinct words the seed's word-memo kernel cached for <C2>^2 on poincare.
SEED_KERNEL_WORDS = 69951

# Kernel entries after <C2>^2 on poincare when the commutator was the
# difference of two products (products and words tables only).
PRODUCT_DIFFERENCE_KERNEL_ENTRIES = 12226

# Kernel entries after <C2>^2 on poincare while products and normal forms
# still memoised every requested word.
WORD_MEMO_KERNEL_ENTRIES = 9867

KERNEL_TABLES = ("products", "ads")

ALGEBRAS = [*catalog_names(), "poincare.alg"]

FILE_ALGEBRAS = sorted(path.name for path in DATA_DIR.glob("*.alg"))

# The five catalog algebras, data/*.alg and sl2_aff1 (defined below).
ALL_ALGEBRAS = [*catalog_names(), *FILE_ALGEBRAS, "sl2_aff1"]

# sl2 + aff(1) in the basis A = e, B = f, C = h + z, D = h - z, E = w, with
# [e, f] = h, [h, e] = 2e, [h, f] = -2f, [z, w] = w.  C and D appear on the
# right only in [A, B] = C/2 + D/2, so neither follows from A and B alone:
# E commutes with A, B and E but not with C.
SL2_AFF1 = """\
name sl2_aff1
generators A B C D E
bracket A B = (1/2)*C + (1/2)*D
bracket A C = (-2)*A
bracket A D = (-2)*A
bracket B C = 2*B
bracket B D = 2*B
bracket C E = 1*E
bracket D E = (-1)*E
"""

GENERATING_SETS = {
    "galilei": ("H", "K1", "J1", "J2"),
    "galilei_ext": ("H", "K1", "J1", "J2"),
    "poincare": ("H", "K1", "K2", "K3"),
    "euclid4": ("H", "K1", "K2", "K3"),
    "newton_hooke": ("H", "P1", "J1", "J2"),
}


def load(name):
    if name == "sl2_aff1":
        return parse_algebra_text(SL2_AFF1)
    if name.endswith(".alg"):
        return parse_algebra_file(DATA_DIR / name)
    return catalog(name)


def full_scan(alg, x):
    """Centrality by commuting with every basis generator in order."""
    for g in alg.generators:
        if not x.commutator(UEAElement.generator(alg, g.name)).is_zero():
            return False, g.name
    return True, None


def random_elements(rng, alg, central, count=6):
    """Seeded elements: combinations of the given central elements and of a
    product of two of them; every second one plus a random word of length
    1-3 with a parameter coefficient."""
    ctx = alg.ctx
    for n in range(count):
        x = UEAElement.zero(alg)
        for c in central:
            x = x + c.smul(rng.randint(-3, 3))
        if central and rng.random() < 0.5:
            x = x + (central[0] * central[-1]).smul(Fraction(rng.randint(1, 4), 3))
        if n % 2:
            word = tuple(rng.randrange(alg.dim) for _ in range(rng.randint(1, 3)))
            coeff = Poly.var(ctx, rng.choice(ctx.names)) if ctx.names else 1
            x = x + normal_form(alg, [(word, coeff)])
        yield n % 2 == 0, x


def structure_at(alg, point):
    """Structure constants at a rational point: (i, j) -> {k: Fraction}."""
    return {
        (i, j): {
            k: c.substitute(point).constant_value()
            for k, c in alg.bracket_pair(i, j).items()
        }
        for i in range(alg.dim)
        for j in range(alg.dim)
    }


def generated_rank(alg, names, point):
    """Dimension of the span of the iterated brackets of ``names`` and of the
    generators with an all-zero bracket row, at ``point``, by exact
    elimination over right-normed brackets [s1, [s2, ... [sk-1, sk]]]."""
    consts = structure_at(alg, point)
    dim = alg.dim
    free = [g for g in range(dim) if not any(consts[g, h] for h in range(dim))]
    seeds = [[Fraction(int(i == g)) for i in range(dim)] for g in free]
    seeds += [
        [Fraction(int(i == alg.gen_index[n])) for i in range(dim)] for n in names
    ]
    pivots = {}  # pivot column -> reduced row

    def insert(v):
        v = list(v)
        for col, row in pivots.items():
            if v[col]:
                f = v[col]
                v = [a - f * b for a, b in zip(v, row)]
        col = next((i for i, a in enumerate(v) if a), None)
        if col is None:
            return False
        v = [a / v[col] for a in v]
        for other, row in pivots.items():
            if row[col]:
                f = row[col]
                pivots[other] = [a - f * b for a, b in zip(row, v)]
        pivots[col] = v
        return True

    def bracket(u, v):
        out = [Fraction(0)] * dim
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                if a and b:
                    for k, c in consts[i, j].items():
                        out[k] += a * b * c
        return out

    queue = [v for v in seeds if insert(v)]
    while queue:
        v = queue.pop()
        for s in seeds:
            w = bracket(s, v)
            if insert(w):
                queue.append(w)
    return len(pivots)


def random_point(rng, ctx):
    return {
        name: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        for name in ctx.names
    }


def random_words(rng, dim, per_length=20, max_length=8):
    for length in range(max_length + 1):
        for _ in range(per_length):
            yield tuple(rng.randrange(dim) for _ in range(length))


def leading_term(el):
    mono = max(el.terms, key=lambda m: (sum(m), m))
    return UEAElement(el.alg, {mono: el.terms[mono]})


def random_element(rng, alg, max_terms=4, max_length=4):
    """Seeded element: up to ``max_terms`` random words of length 0 to
    ``max_length``, each with a nonzero rational or parameter coefficient."""
    ctx = alg.ctx
    words = []
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.randrange(alg.dim) for _ in range(rng.randint(0, max_length)))
        value = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
        coeff = Poly.const(ctx, value)
        if ctx.names and rng.random() < 0.5:
            coeff = coeff * Poly.var(ctx, rng.choice(ctx.names))
        words.append((word, coeff))
    return normal_form(alg, words)


def commutator_pairs(rng, alg, count=12):
    """Random pairs; a generator on either side; scalars against scalars."""
    for _ in range(count):
        yield random_element(rng, alg), random_element(rng, alg)
    for g in alg.generators:
        x = UEAElement.generator(alg, g.name)
        yield x, random_element(rng, alg)
        yield random_element(rng, alg), x
    two = UEAElement.scalar(alg, 2)
    yield two, UEAElement.scalar(alg, Fraction(-1, 3))
    yield two, random_element(rng, alg)
    yield random_element(rng, alg) + two, UEAElement.one(alg)
    yield UEAElement.zero(alg), random_element(rng, alg)


def random_monomials(rng, dim, per_degree=8, max_degree=5):
    for degree in range(max_degree + 1):
        for _ in range(per_degree):
            mono = [0] * dim
            for _ in range(degree):
                mono[rng.randrange(dim)] += 1
            yield tuple(mono)


# Rationals whose products are often integral (2/3 * 3/2), so that sums and
# products exercise the folding of integral Fractions back to int.
MULTI_TERM_VALUES = (
    Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2), Fraction(5, 4),
    Fraction(-4, 5), 2, -1,
)


def multi_term_coefficient(rng, ctx):
    """A coefficient of 2-3 terms, mostly non-integral rationals.  Where the
    context has a Laurent parameter, about half carry both ``eps`` and
    ``eps^-1``, so products of two have cross terms at exponent zero."""
    if not ctx.names:
        return Poly.const(ctx, rng.choice(MULTI_TERM_VALUES))
    terms = {}
    if ctx.laurent and rng.random() < 0.5:
        for power in (-1, 1):
            exps = [0] * len(ctx)
            exps[ctx.index[ctx.laurent]] = power
            terms[tuple(exps)] = rng.choice(MULTI_TERM_VALUES)
    size = rng.randint(2, 3)
    while len(terms) < size:
        exps = [0] * len(ctx)
        if rng.random() < 0.75:
            exps[rng.randrange(len(ctx))] = rng.randint(1, 2)
        terms[tuple(exps)] = rng.choice(MULTI_TERM_VALUES)
    return Poly(ctx, terms)


def multi_term_words(rng, alg, max_terms=3, max_length=4):
    return [
        (
            tuple(rng.randrange(alg.dim) for _ in range(rng.randint(0, max_length))),
            multi_term_coefficient(rng, alg.ctx),
        )
        for _ in range(rng.randint(1, max_terms))
    ]


def oracle_normal_form(alg, words):
    """sum coeff * word, normal-ordered by the oracle with Poly arithmetic."""
    out = UEAElement.zero(alg)
    for word, coeff in words:
        nf = UEAElement(alg, oracle_kernel.normal_form_word(alg, word))
        out = out + nf.smul(coeff)
    return out


def assert_rational(c):
    """A stored coefficient: a nonzero int, or a Fraction that is not one."""
    assert (type(c) is int and c) or (
        type(c) is Fraction and c.denominator != 1
    ), repr(c)


def assert_canonical(el):
    """Coefficients in the algebra's context, stored as Poly stores them."""
    ctx = el.alg.ctx
    for poly in el.terms.values():
        assert poly.ctx is ctx and poly.terms
        for exps, c in poly.terms.items():
            assert len(exps) == len(ctx)
            assert exps is ctx.zero or exps != ctx.zero, exps
            assert_rational(c)


class TestDifferentialOracle:
    @pytest.mark.parametrize("name", ALGEBRAS)
    def test_random_words(self, seed, name):
        alg = load(name)
        rng = random.Random(f"{seed}-{name}")
        for word in random_words(rng, alg.dim):
            assert normal_form_word(alg, word) == oracle_kernel.normal_form_word(
                alg, word
            ), f"word {word}"

    @pytest.mark.parametrize("name", ALGEBRAS)
    @pytest.mark.parametrize("left,right", [("C1", "C2"), ("JW", "C1"), ("C2", "JW")])
    def test_named_products(self, name, left, right):
        alg = load(name)
        a, b = named_element(alg, left), named_element(alg, right)
        assert a * b == oracle_kernel.product(a, b)
        a1, b1 = leading_term(a), leading_term(b)
        assert a1 * b1 == oracle_kernel.product(a1, b1)
        assert b1 * a1 == oracle_kernel.product(b1, a1)


class TestCasimirPower:
    def test_c2_squared_is_central_in_file_algebra(self):
        alg = parse_algebra_file(DATA_DIR / "poincare.alg")
        assert kernel_stats(alg) == dict.fromkeys(KERNEL_TABLES, 0)
        element = parse_expression("<C2>^2", alg)
        assert is_central(alg, element) == (True, None)
        stats = kernel_stats(alg)
        assert set(stats) == set(KERNEL_TABLES)
        assert 0 < sum(stats.values()) < SEED_KERNEL_WORDS // 2, stats
        # monomial brackets leave fewer entries than two products per pair
        assert sum(stats.values()) < PRODUCT_DIFFERENCE_KERNEL_ENTRIES, stats
        # products fold through the generator product and keep no words
        assert sum(stats.values()) < WORD_MEMO_KERNEL_ENTRIES, stats
        # the certificate leaves fewer kernel entries than a full basis scan
        full = parse_algebra_file(DATA_DIR / "poincare.alg")
        assert full_scan(full, parse_expression("<C2>^2", full)) == (True, None)
        full_stats = kernel_stats(full)
        assert sum(stats.values()) < sum(full_stats.values()), (stats, full_stats)

    def test_c2_times_boost_is_not_central(self):
        alg = parse_algebra_file(DATA_DIR / "poincare.alg")
        central, witness = is_central(alg, parse_expression("<C2>*K1", alg))
        assert not central
        # [K1, H] = P1 in poincare, so H is the first generator that fails
        assert witness == "H"

    def test_kernel_stats_is_read_only(self):
        alg = catalog("galilei")
        stats = kernel_stats(alg)
        stats["products"] = -1
        assert kernel_stats(alg)["products"] != -1

    def test_repeated_product_adds_no_entry(self):
        alg = parse_algebra_file(DATA_DIR / "poincare.alg")
        c2 = named_element(alg, "C2")
        first = c2 * c2
        stats = kernel_stats(alg)
        assert first == oracle_kernel.product(c2, c2)
        assert c2 * c2 == first
        assert kernel_stats(alg) == stats


class TestGeneratingSet:
    @pytest.mark.parametrize("name", [*catalog_names(), *FILE_ALGEBRAS])
    def test_catalog_sets(self, name):
        family = name.removesuffix(".alg")
        assert lie_generating_set(load(name)) == GENERATING_SETS[family]

    @pytest.mark.parametrize("name", [*catalog_names(), *FILE_ALGEBRAS, "sl2_aff1"])
    def test_set_generates_and_is_irredundant(self, seed, name):
        alg = load(name)
        point = random_point(random.Random(f"{seed}-{name}"), alg.ctx)
        names = lie_generating_set(alg)
        assert generated_rank(alg, names, point) == alg.dim
        for dropped in names:
            rest = [n for n in names if n != dropped]
            assert generated_rank(alg, rest, point) < alg.dim, dropped

    def test_two_term_bracket_reaches_one_generator_at_most(self):
        alg = load("sl2_aff1")
        assert lie_generating_set(alg) == ("A", "B", "C", "E")
        assert is_central(alg, UEAElement.generator(alg, "E")) == (False, "C")


class TestCentralityCertificate:
    """is_central gives exactly the (verdict, witness) of a full scan."""

    @pytest.mark.parametrize("name", [*catalog_names(), *FILE_ALGEBRAS])
    def test_named_elements(self, name):
        alg = load(name)
        for key in NAMED_ELEMENT_KEYS:
            x = named_element(alg, key)
            assert is_central(alg, x) == full_scan(alg, x), key
        x = parse_expression("<C2>*K1", alg)
        assert is_central(alg, x) == full_scan(alg, x)

    @pytest.mark.parametrize("name", [*catalog_names(), *FILE_ALGEBRAS, "sl2_aff1"])
    def test_generators_and_random_elements(self, seed, name):
        alg = load(name)
        for g in alg.generators:
            x = UEAElement.generator(alg, g.name)
            assert is_central(alg, x) == full_scan(alg, x), g.name
        if "Xi" in alg.gen_index:
            central = [UEAElement.generator(alg, "Xi")]
        elif name == "sl2_aff1":
            central = []
        else:
            central = [named_element(alg, "C1"), named_element(alg, "C2")]
        rng = random.Random(f"{seed}-{name}")
        for built_central, x in random_elements(rng, alg, central):
            verdict = is_central(alg, x)
            assert verdict == full_scan(alg, x), str(x)
            assert verdict[0] or not built_central, str(x)

    def test_first_failure_outside_the_set(self):
        alg = catalog("poincare")
        assert "P2" not in lie_generating_set(alg)
        assert is_central(alg, UEAElement.generator(alg, "J1")) == (False, "P2")


class TestCommutatorKernel:
    """[a, b] from the grouped recursion over ``b`` (``uea._commute``) equals
    a*b - b*a, computed both by the product path and by the word-rewriting
    oracle, and -[b, a]: on random pairs, on deep multi-term pairs (the 45
    worldline pairs, ``<C2>*<C1>`` with ``<JW>*<KP>``, random degree-4
    operands), and ``ad`` alone."""

    def assert_commutator(self, a, b):
        actual = a.commutator(b)
        assert actual == oracle_commutator(a, b), (str(a), str(b))
        assert actual == a * b - b * a, (str(a), str(b))
        assert b.commutator(a) == -actual, (str(a), str(b))
        assert_canonical(actual)

    @pytest.mark.parametrize("name", [*catalog_names(), *FILE_ALGEBRAS, "sl2_aff1"])
    def test_random_elements(self, seed, name):
        alg = load(name)
        rng = random.Random(f"{seed}-commutator-{name}")
        for a, b in commutator_pairs(rng, alg):
            actual = a.commutator(b)
            assert actual == a * b - b * a, (str(a), str(b))
            oracle = oracle_kernel.product(a, b) - oracle_kernel.product(b, a)
            assert actual == oracle, (str(a), str(b))

    @pytest.mark.parametrize("name", [*catalog_names(), *FILE_ALGEBRAS, "sl2_aff1"])
    def test_ad_alone(self, seed, name):
        alg = load(name)
        tables = uea._tables(alg)
        rng = random.Random(f"{seed}-ad-{name}")
        for mono in random_monomials(rng, alg.dim):
            m = UEAElement(alg, {mono: 1})
            packed = uea._pack(mono)
            for g in alg.generators:
                x = UEAElement.generator(alg, g.name)
                ad = uea._ad(tables, packed, alg.gen_index[g.name])
                assert_flat(tables, ad)
                grouped = uea._group(tables, ad)
                assert grouped == (m * x - x * m).terms, (str(m), g.name)
                # the top-degree term of m*x_g is never formed
                assert all(sum(t) <= sum(mono) for t in grouped), (str(m), g.name)

    def test_worldline_pairs(self):
        elements = expansion._certificate("worldline").generators.elements
        names = [g.name for g in catalog("poincare").generators]
        assert len(list(combinations(names, 2))) == 45
        for na, nb in combinations(names, 2):
            self.assert_commutator(elements[na], elements[nb])

    def test_casimir_product_with_rotation_scalars(self):
        alg = catalog("poincare")
        a = parse_expression("<C2>*<C1>", alg)
        b = parse_expression("<JW>*<KP>", alg)
        assert (len(a.terms), a.degree(), len(b.terms), b.degree()) == (102, 6, 43, 5)
        self.assert_commutator(a, b)
        assert a.commutator(b).is_zero()

    @pytest.mark.parametrize("name", ALL_ALGEBRAS)
    def test_random_degree_four_operands(self, seed, name):
        alg = load(name)
        rng = random.Random(f"{seed}-degree-four-{name}")
        for _ in range(4):
            a, b = (
                oracle_normal_form(
                    alg,
                    [((), multi_term_coefficient(rng, alg.ctx))]
                    + multi_term_words(rng, alg, max_terms=6, max_length=4)
                    + [(tuple(rng.randrange(alg.dim) for _ in range(4)), 1)],
                )
                for _ in range(2)
            )
            assert a.degree() == b.degree() == 4
            self.assert_commutator(a, b)


class TestLeftGeneratorProduct:
    """A left factor of one generator term, with a unit or a multi-term
    coefficient, times a multi-term right factor."""

    @pytest.mark.parametrize("name", list(catalog_names()))
    def test_against_the_oracle(self, seed, name):
        alg = catalog(name)
        rng = random.Random(f"{seed}-left-generator-{name}")
        for g in alg.generators:
            x = UEAElement.generator(alg, g.name)
            for left in (x, x.smul(multi_term_coefficient(rng, alg.ctx))):
                words = multi_term_words(rng, alg, max_terms=4, max_length=5)
                right = oracle_normal_form(alg, words)
                product = left * right
                assert product == oracle_kernel.product(left, right), (
                    str(left), str(right),
                )
                assert_canonical(product)


def prefixes(mono):
    """The proper prefixes of a PBW monomial: its word with the last letters
    taken off, one at a time, as monomials."""
    word = uea.monomial_to_word(mono)
    out = set()
    for i in range(len(word)):
        prefix = [0] * len(mono)
        for g in word[:i]:
            prefix[g] += 1
        out.add(tuple(prefix))
    return out


def oracle_commutator(x, y):
    return oracle_kernel.product(x, y) - oracle_kernel.product(y, x)


class TestGroupedAdjointPass:
    """``[x, x_g]`` as one grouped pass over the terms of ``x``
    (``uea._ad_sum``), and commutators and products of a generator term with
    a wide element on either side, against the word-rewriting oracle."""

    ALGEBRAS = [*catalog_names(), "poincare.alg"]

    def wide_element(self, rng, alg):
        """A product of two oracle-built elements: many monomials of degree up
        to six that share prefixes, with multi-term coefficients."""
        a = oracle_normal_form(alg, multi_term_words(rng, alg, max_length=3))
        b = oracle_normal_form(alg, multi_term_words(rng, alg, max_length=3))
        return oracle_kernel.product(a, b)

    @pytest.mark.parametrize("name", FILE_ALGEBRAS)
    def test_ad_sum_at_every_depth(self, seed, name):
        rng = random.Random(f"{seed}-ad-sum-{name}")
        depths = ((1, 1), (2, -1), (uea.GROUPED_LEVELS, Fraction(2, 3)), (99, 1))
        for levels, scale in depths:
            # a fresh algebra each time, so that every depth starts from
            # empty tables
            alg = load(name)
            tables = uea._tables(alg)
            x = self.wide_element(rng, alg)
            flat = uea._flat(tables.packed(x)[0])
            for g in alg.generators:
                out = {}
                uea._ad_sum(tables, flat, alg.gen_index[g.name], out, scale, levels)
                assert_flat(tables, out)
                got = UEAElement._raw(alg, uea._group(tables, out))
                gen = UEAElement.generator(alg, g.name)
                assert got == oracle_commutator(x, gen).smul(scale), (levels, g.name)

    @pytest.mark.parametrize("name", ALGEBRAS)
    def test_generator_commutators_on_either_side(self, seed, name):
        alg = load(name)
        rng = random.Random(f"{seed}-generator-commutator-{name}")
        for g in alg.generators:
            x = UEAElement.generator(alg, g.name)
            gens = (x, x.smul(multi_term_coefficient(rng, alg.ctx)))
            for gen in gens:
                for y in (self.wide_element(rng, alg), random_element(rng, alg)):
                    expected = oracle_commutator(y, gen)
                    assert y.commutator(gen) == expected, (str(y), str(gen))
                    assert gen.commutator(y) == -expected, (str(gen), str(y))
                    assert_canonical(y.commutator(gen))

    @pytest.mark.parametrize("name", ALGEBRAS)
    def test_left_generator_products(self, seed, name):
        alg = load(name)
        rng = random.Random(f"{seed}-left-generator-wide-{name}")
        for g in alg.generators:
            x = UEAElement.generator(alg, g.name)
            for left in (x, x.smul(multi_term_coefficient(rng, alg.ctx))):
                right = self.wide_element(rng, alg)
                product = left * right
                assert product == oracle_kernel.product(left, right), (
                    str(left), str(right),
                )
                assert_canonical(product)

    def test_only_proper_prefixes_enter_the_memo(self, seed):
        alg = load("poincare.alg")
        tables = uea._tables(alg)
        rng = random.Random(f"{seed}-prefix-memo")
        x = self.wide_element(rng, alg)
        for g in alg.generators:
            x.commutator(UEAElement.generator(alg, g.name))
        allowed = {uea._pack(p) for mono in x.terms for p in prefixes(mono)}
        stored = {m for memo in tables.ads for m in memo}
        assert stored and stored <= allowed

    def test_memoised_monomials_are_read_not_recomputed(self):
        alg = load("poincare.alg")
        tables = uea._tables(alg)
        x = parse_expression("<C2>^2", alg)
        h = UEAElement.generator(alg, "H")
        assert x.commutator(h).is_zero()
        stored = dict(tables.ads[alg.gen_index["H"]])
        # an element made of memoised monomials: every term is a lookup
        y = UEAElement(alg, {tables.unpack_mono(m): 1 for m in list(stored)[::7]})
        size = sum(kernel_stats(alg).values())
        assert y.commutator(h) == oracle_commutator(y, h)
        assert sum(kernel_stats(alg).values()) == size

    def test_centrality_witnesses(self):
        alg = load("poincare.alg")
        for text, witness in (
            ("<C2>^2*P1", "K1"), ("<C1>*K1", "H"), ("<C2>*J3", "P1"),
        ):
            x = parse_expression(text, alg)
            assert is_central(alg, x) == (False, witness) == full_scan(alg, x), text
        galilei = catalog("galilei")
        jw = parse_expression("<JW>", galilei)
        assert is_central(galilei, jw) == (False, "P1") == full_scan(galilei, jw)


class TestMixedOperands:
    """Operands of one structure from distinct algebra objects: a catalog
    algebra and the same algebra read from its file.  Each element is
    packed first on its own algebra, then combined with the other."""

    def test_products_and_commutators(self, seed):
        cat = catalog("poincare")
        fil = parse_algebra_file(DATA_DIR / "poincare.alg")
        assert cat is not fil and cat.same_structure(fil)
        rng = random.Random(f"{seed}-mixed")
        a = oracle_normal_form(cat, multi_term_words(rng, cat, max_terms=4))
        b = oracle_normal_form(fil, multi_term_words(rng, fil, max_terms=4))
        j3 = UEAElement.generator(cat, "J3")
        k1 = UEAElement.generator(fil, "K1")
        for x in (a, b, j3, k1):
            assert x * x == oracle_kernel.product(x, x)
            assert x.commutator(x).is_zero()
        for x, y in ((a, b), (j3, b), (k1, a), (j3, k1)):
            for left, right in ((x, y), (y, x)):
                ab = oracle_kernel.product(left, right)
                ba = oracle_kernel.product(right, left)
                assert left * right == ab, (str(left), str(right))
                assert left.commutator(right) == ab - ba, (str(left), str(right))


class TestMultiTermCoefficients:
    """Coefficients of several terms: exponent addition, cancellation and the
    folding of integral sums, against the oracle's Poly arithmetic."""

    @pytest.mark.parametrize("name", ALL_ALGEBRAS)
    def test_products_and_commutators(self, seed, name):
        alg = load(name)
        rng = random.Random(f"{seed}-multi-{name}")
        for _ in range(8):
            a = oracle_normal_form(alg, multi_term_words(rng, alg))
            b = oracle_normal_form(alg, multi_term_words(rng, alg))
            ab, ba = a * b, b * a
            assert ab == oracle_kernel.product(a, b), (str(a), str(b))
            assert ba == oracle_kernel.product(b, a), (str(a), str(b))
            commutator = a.commutator(b)
            assert commutator == ab - ba, (str(a), str(b))
            for el in (ab, ba, commutator):
                assert_canonical(el)

    @pytest.mark.parametrize("name", ALL_ALGEBRAS)
    def test_normal_form_of_random_words(self, seed, name):
        alg = load(name)
        rng = random.Random(f"{seed}-multi-nf-{name}")
        for _ in range(12):
            words = multi_term_words(rng, alg, max_terms=4, max_length=6)
            nf = normal_form(alg, words)
            assert nf == oracle_normal_form(alg, words), words
            assert_canonical(nf)

    def test_cross_terms_cancel_and_fold(self):
        alg = load("poincare.alg")
        ctx = alg.ctx
        eps, inv = Poly.var(ctx, "eps"), Poly.var(ctx, "eps", -1)
        j1, j2 = UEAElement.generator(alg, "J1"), UEAElement.generator(alg, "J2")
        j3 = UEAElement.generator(alg, "J3")
        # (eps + eps^-1)(eps - eps^-1): the eps^0 cross terms cancel
        bracket = j1.smul(eps + inv).commutator(j2.smul(eps - inv))
        assert bracket == j3.smul(eps * eps - inv * inv)
        (poly,) = bracket.terms.values()
        assert ctx.zero not in poly.terms
        # (3/2 eps + 1/2 eps^-1)(2/3 eps - 2 eps^-1) = eps^2 - 8/3 - eps^-2
        c1 = eps.scale(Fraction(3, 2)) + inv.scale(Fraction(1, 2))
        c2 = eps.scale(Fraction(2, 3)) - inv.scale(2)
        for el in (
            j1.smul(c1).commutator(j2.smul(c2)),
            normal_form(alg, [(("J1", "J2"), c1 * c2), (("J2", "J1"), -(c1 * c2))]),
        ):
            (poly,) = el.terms.values()
            by_power = {e[ctx.index["eps"]]: (e, c) for e, c in poly.terms.items()}
            assert set(by_power) == {2, 0, -2}
            assert by_power[0][0] is ctx.zero
            assert [by_power[p][1] for p in (2, 0, -2)] == [1, Fraction(-8, 3), -1]
            assert_canonical(el)


def assert_flat(tables, value):
    """A kernel table value: {packed key: rational}, each key the packing of
    a monomial and of an exponent vector of the context's width.  A borrow
    out of a field would leave a monomial field near 2^16 or a negative
    exponent on a parameter other than the Laurent one."""
    assert type(value) is dict
    ctx = tables.ctx
    for key, c in value.items():
        assert type(key) is int
        mono = tables.unpack_mono(key & tables.mask)
        exps = tables.unpack_exps(key >> tables.bits)
        assert len(mono) == tables.dim and sum(mono) < 1 << (uea.FIELD_BITS - 1)
        assert type(exps) is tuple and len(exps) == len(ctx)
        assert all(e >= 0 or n == ctx.laurent for n, e in zip(ctx.names, exps))
        assert uea._pack(mono) + tables.pack_exps(exps) == key
        assert_rational(c)


class TestFlatKernel:
    """The kernel holds flat rationals on packed keys and builds one Poly per
    result term."""

    def test_every_table_value_after_c2_squared(self):
        alg = parse_algebra_file(DATA_DIR / "poincare.alg")
        assert is_central(alg, parse_expression("<C2>^2", alg)) == (True, None)
        tables = uea._tables(alg)
        width = len(alg.ctx)
        assert len(tables.brackets) == alg.dim
        for k, row in enumerate(tables.brackets):
            assert len(row) == alg.dim
            for g, triples in enumerate(row):
                expected = {
                    (l, exps): c
                    for l, p in alg.bracket_pair(k, g).items()
                    for exps, c in p.terms.items()
                }
                got = {}
                for l, e, c in triples:
                    assert 0 <= l < alg.dim
                    assert type(e) is int and not e & tables.mask
                    exps = tables.unpack_exps(e >> tables.bits)
                    assert len(exps) == width
                    assert_rational(c)
                    got[l, exps] = c
                assert got == expected and len(triples) == len(expected), (k, g)
        checked = 0
        for name in KERNEL_TABLES:
            for values in getattr(tables, name):
                for value in values.values():
                    assert_flat(tables, value)
                    checked += 1
        assert checked == sum(kernel_stats(alg).values()) > 0
        # every stored product and ad is the oracle's normal form of its key
        for g, x in enumerate(alg.generators):
            x = UEAElement.generator(alg, x.name)
            for m, value in list(tables.products[g].items())[::31]:
                m = UEAElement(alg, {tables.unpack_mono(m): 1})
                assert uea._group(tables, value) == oracle_kernel.product(m, x).terms
            for m, value in list(tables.ads[g].items())[::31]:
                m = UEAElement(alg, {tables.unpack_mono(m): 1})
                oracle = oracle_kernel.product(m, x) - oracle_kernel.product(x, m)
                assert uea._group(tables, value) == oracle.terms

    def test_kernel_creates_no_poly(self, seed, monkeypatch):
        alg = parse_algebra_file(DATA_DIR / "poincare.alg")
        tables = uea._tables(alg)
        rng = random.Random(f"{seed}-no-poly")
        monomials = [
            uea._pack(m)
            for m in random_monomials(rng, alg.dim, per_degree=4, max_degree=4)
        ]
        a = oracle_normal_form(alg, multi_term_words(rng, alg))
        b = oracle_normal_form(alg, multi_term_words(rng, alg))
        words = multi_term_words(rng, alg, max_terms=4)
        h = UEAElement.generator(alg, "H").smul(multi_term_coefficient(rng, alg.ctx))
        jw_k2 = parse_expression("<JW>*<K2>", alg)
        jp_kp_h = parse_expression("<JP>*<KP>*H", alg).smul(
            multi_term_coefficient(rng, alg.ctx)
        )
        created = []
        raw, init = Poly._raw, Poly.__init__

        def counting_raw(cls, ctx, terms):
            created.append(terms)
            return raw(ctx, terms)

        def counting_init(self, *args):
            created.append(args)
            init(self, *args)

        monkeypatch.setattr(Poly, "_raw", classmethod(counting_raw))
        monkeypatch.setattr(Poly, "__init__", counting_init)
        for m1 in monomials:
            for g in range(alg.dim):
                if m1 >> uea.FIELD_BITS * (g + 1):
                    out = {}
                    uea._add_product(tables, out, m1, g, 0, 1)
                    assert_flat(tables, out)
                out = {}
                uea._times_letter(tables, {m1: 1}, g, out)
                assert_flat(tables, out)
                assert_flat(tables, uea._ad(tables, m1, g))
            assert_flat(tables, uea._fold(tables, {m1: 1}, m1))
        assert not created
        # one Poly per term of each result, and nothing else
        for compute in (
            lambda: a * b,
            lambda: a.commutator(b),
            lambda: normal_form(alg, words),
            lambda: a.commutator(h),
            lambda: h * b,
            lambda: jw_k2.commutator(jp_kp_h),
        ):
            created.clear()
            result = compute()
            assert len(created) == len(result.terms), (str(a), str(b))


def random_exponents(rng, ctx):
    """Seeded exponent vector: each parameter 0..3 (0 twice as often), the
    Laurent parameter -3..3."""
    return tuple(
        rng.randint(-3, 3) if name == ctx.laurent else rng.choice((0, 0, 1, 2, 3))
        for name in ctx.names
    )


class TestTailMemo:
    """The product memo holds ``t*x_g`` under the letters ``t`` of a monomial
    after ``g``; ``m*x_g`` is the letters of ``m`` up to ``g`` times it."""

    def test_every_key_is_a_tail(self):
        alg = parse_algebra_file(DATA_DIR / "poincare.alg")
        assert is_central(alg, parse_expression("<C2>^2", alg)) == (True, None)
        tables = uea._tables(alg)
        checked = 0
        for g, memo in enumerate(tables.products):
            for m in memo:
                # no letter at or before g, and some letter after it
                assert m >= tables.after[g], (g, tables.unpack_mono(m))
                assert not m & (tables.after[g] - 1), (g, tables.unpack_mono(m))
                checked += 1
        assert checked == kernel_stats(alg)["products"] > 0

    @pytest.mark.parametrize("name", list(catalog_names()))
    def test_split_products_against_the_oracle(self, seed, name):
        # fresh tables: every tail product is computed here, not read
        alg = load(f"{name}.alg")
        tables = uea._tables(alg)
        rng = random.Random(f"{seed}-split-{name}")
        checked = 0
        for mono in random_monomials(rng, alg.dim, per_degree=6, max_degree=6):
            m = uea._pack(mono)
            for g, gen in enumerate(alg.generators):
                low = m & (tables.after[g] - 1)
                if not (low and m - low):
                    continue
                coeff = rng.choice((1, multi_term_coefficient(rng, alg.ctx)))
                left = UEAElement(alg, {mono: coeff})
                x = UEAElement.generator(alg, gen.name)
                assert left * x == oracle_kernel.product(left, x), (mono, gen.name)
                checked += 1
        assert checked > 20
        for g, memo in enumerate(tables.products):
            assert all(not m & (tables.after[g] - 1) for m in memo)

    def test_left_multiplication_at_the_degree_bound(self):
        # K3^128*J2^127*K2: [K3, K2] = -omega*J1 puts a letter before K3
        # into the tail products, so the left factor takes folds at every
        # depth; fresh tables, so every recursion runs to its full depth
        def power(alg, k3, j2):
            mono = [0] * alg.dim
            mono[alg.gen_index["K3"]] = k3
            mono[alg.gen_index["J2"]] = j2
            return UEAElement(alg, {tuple(mono): 1})

        small = power(load("poincare.alg"), 10, 9)
        k2 = UEAElement.generator(small.alg, "K2")
        assert small * k2 == oracle_kernel.product(small, k2)
        alg = load("poincare.alg")
        k2 = UEAElement.generator(alg, "K2")
        top = uea.MAX_DEGREE
        # the module docstring's frame count, with a few frames to spare
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + top + 16)
        try:
            product = power(alg, top // 2, top // 2 - 1) * k2
            # the adjoint route, on fresh tables too
            fresh = load("poincare.alg")
            bracket = power(fresh, top // 2, top // 2 - 1).commutator(
                UEAElement.generator(fresh, "K2")
            )
        finally:
            sys.setrecursionlimit(limit)
        assert product.degree() == top and len(product.terms) == top // 2 + 1
        # K2 comes before K3 and J2, so K2*K3^128*J2^127 is one monomial
        bump = [0] * alg.dim
        bump[alg.gen_index["K2"]] = 1
        bump[alg.gen_index["K3"]] = top // 2
        bump[alg.gen_index["J2"]] = top // 2 - 1
        assert product - UEAElement(alg, {tuple(bump): 1}) == bracket


class TestPackedKeys:
    """One int per (monomial, exponents): exact round trip, and linear, so a
    product of terms is an integer add."""

    @pytest.mark.parametrize("name", ALL_ALGEBRAS)
    def test_round_trip(self, seed, name):
        alg = load(name)
        tables = uea._tables(alg)
        ctx = alg.ctx
        rng = random.Random(f"{seed}-pack-{name}")
        terms = [
            (mono, random_exponents(rng, ctx))
            for mono in random_monomials(rng, alg.dim, max_degree=6)
        ]
        if ctx.laurent:
            eps = ctx.index[ctx.laurent]
            assert {e[eps] for _, e in terms} == set(range(-3, 4))
        for mono, exps in terms:
            key = uea._pack(mono) + tables.pack_exps(exps)
            assert tables.unpack_mono(key & tables.mask) == mono
            assert tables.unpack_exps(key >> tables.bits) == exps
            assert key - (key & tables.mask) == tables.pack_exps(exps)
        for (m1, e1), (m2, e2) in zip(terms, terms[::-1]):
            k1 = uea._pack(m1) + tables.pack_exps(e1)
            k2 = uea._pack(m2) + tables.pack_exps(e2)
            mono = tuple(a + b for a, b in zip(m1, m2))
            exps = tuple(a + b for a, b in zip(e1, e2))
            assert tables.unpack_mono((k1 + k2) & tables.mask) == mono
            assert tables.unpack_exps((k1 + k2) >> tables.bits) == exps

    @pytest.mark.parametrize("name", ALL_ALGEBRAS)
    def test_zero_exponents_unpack_to_the_shared_tuple(self, name):
        alg = load(name)
        tables = uea._tables(alg)
        zero = alg.ctx.zero
        assert tables.pack_exps(zero) == 0
        assert tables.unpack_exps(0) is zero
        if alg.ctx.laurent:
            # the exponents of eps * eps^-1 add up to the shared tuple
            i = alg.ctx.index[alg.ctx.laurent]
            up, down = ([0] * len(zero) for _ in range(2))
            up[i], down[i] = 1, -1
            e = tables.pack_exps(tuple(up)) + tables.pack_exps(tuple(down))
            assert tables.unpack_exps(e >> tables.bits) is zero

    def test_last_generator_and_bump(self):
        alg = load("poincare.alg")
        tables = uea._tables(alg)
        width = uea.FIELD_BITS
        for g in range(alg.dim):
            mono = tuple(int(k <= g) * (k + 1) for k in range(alg.dim))
            packed = uea._pack(mono)
            assert (packed.bit_length() - 1) // width == g
            assert not packed >> (width * (g + 1))
            bumped = list(mono)
            bumped[g] += 1
            assert packed + tables.unit[g] == uea._pack(tuple(bumped))


def run_python(*argv, timeout=120):
    """A fresh interpreter with this checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(DATA_DIR.parents[1]), env.get("PYTHONPATH")])
    )
    env.pop("KINEXPAND_OUTPUT_DIR", None)
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True,
        timeout=timeout,
    )


class TestKernelBounds:
    """The field-width guard and the table-entry cap end a computation with
    KernelBoundError, which the CLI reports as a one-line exit 2."""

    def test_overflowing_power_exits_2(self, capsys):
        # H^256 * H is one degree past the bound
        assert uea.MAX_DEGREE == 256
        code = main(["normal-form", "galilei", "(H^16)^16*H"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "kinexpand normal-form: operands of total degree 257 exceed the "
            "kernel's bound of 256\n"
        )

    def test_largest_degree_sum_matches_the_oracle(self):
        alg = catalog("galilei")
        h = UEAElement.generator(alg, "H")
        top = uea.MAX_DEGREE
        # H^(top-2)*K1 + H^(top-1), built without the kernel
        powers = [[0] * alg.dim, [0] * alg.dim]
        powers[0][alg.gen_index["H"]] = top - 2
        powers[0][alg.gen_index["K1"]] = 1
        powers[1][alg.gen_index["H"]] = top - 1
        left = UEAElement(alg, {tuple(m): 1 for m in powers})
        assert left.degree() == top - 1
        product = left * h
        assert product == oracle_kernel.product(left, h)
        assert max(max(m) for m in product.terms) == top
        stats = kernel_stats(alg)
        with pytest.raises(uea.KernelBoundError):
            product * h
        with pytest.raises(uea.KernelBoundError):
            left.commutator(h * h)
        with pytest.raises(uea.KernelBoundError):
            normal_form(alg, [((0,) * (top + 1), 1)])
        assert kernel_stats(alg) == stats

    def test_commutator_at_the_degree_bound(self, capsys):
        # fresh tables, so every kernel recursion runs to its full depth
        alg = load("galilei.alg")
        top = uea.MAX_DEGREE
        k1, h = (UEAElement.generator(alg, name) for name in ("K1", "H"))
        power = h ** (top - 1)
        # [K1, H] = P1, which commutes with H
        mono = [0] * alg.dim
        mono[alg.gen_index["H"]] = top - 2
        mono[alg.gen_index["P1"]] = 1
        assert k1.commutator(power) == UEAElement(alg, {tuple(mono): top - 1})
        with pytest.raises(uea.KernelBoundError):
            k1.commutator(power * h)
        assert main(["normal-form", "galilei", "[K1, (H^16)^16]"]) == 2
        assert capsys.readouterr().err == (
            "kinexpand normal-form: operands of total degree 257 exceed the "
            "kernel's bound of 256\n"
        )

    def test_nested_brackets_around_a_deep_operand(self):
        # 60 nested commutators, four parser frames each, above a kernel
        # recursion of degree 251 on fresh tables
        alg = load("galilei.alg")
        text = "[" * 60 + "K1, (H^16)^15*H^10]" + ", K1]" * 59
        # [K1, H^250] = 250*H^249*P1, and [H^n, K1] = -n*H^(n-1)*P1
        coeff = 250
        for n in range(249, 190, -1):
            coeff *= -n
        mono = [0] * alg.dim
        mono[alg.gen_index["H"]] = 190
        mono[alg.gen_index["P1"]] = 60
        assert parse_expression(text, alg) == UEAElement(alg, {tuple(mono): coeff})

    def test_deep_input_exits_2_from_the_command_line(self):
        # in-process, the golden records normal-form-deep-* and
        # normal-form-nested-* pin the same runs
        for text in (
            "K1*((H^16)^16)^4",
            "((K1^16)^16)^4*H",
            "[K1, ((H^16)^16)^4]",
            "(" * 300 + "H" + ")" * 300,
            "[" * 300 + "H" + ", H]" * 300,
        ):
            proc = run_python("-m", "kinexpand.cli", "normal-form", "galilei", text)
            assert proc.returncode == 2, proc.stderr
            assert proc.stdout == ""
            assert proc.stderr.count("\n") == 1, proc.stderr

    def test_largest_parameter_exponent_matches_the_oracle(self):
        alg = load("poincare.alg")
        tables = uea._tables(alg)
        assert tables.max_exp == 1
        ctx = alg.ctx
        limit = (1 << (uea.FIELD_BITS - 1)) - 1
        k1 = UEAElement.generator(alg, "K1")
        hp = normal_form(alg, [(("H", "P1", "K2"), 1)])
        # p1 + p2 + D*s == limit, with D = 1 + 3 and s = 1: allowed
        for name, power in (("omega", limit - 5), ("eps", 5 - limit)):
            x = k1.smul(Poly.var(ctx, name, power))
            y = hp.smul(Poly.var(ctx, "omega"))
            assert x * y == oracle_kernel.product(x, y)
            assert y.commutator(x) == oracle_kernel.product(
                y, x
            ) - oracle_kernel.product(x, y)
            stats = kernel_stats(alg)
            over = x.smul(Poly.var(ctx, name, 1 if power > 0 else -1))
            with pytest.raises(uea.KernelBoundError):
                over * y
            with pytest.raises(uea.KernelBoundError):
                y.commutator(over)
            assert kernel_stats(alg) == stats
        with pytest.raises(uea.KernelBoundError):
            normal_form(alg, [(("K1", "H"), Poly.var(ctx, "omega", limit - 1))])

    def test_c2_squared_entry_counts(self):
        alg = parse_algebra_file(DATA_DIR / "poincare.alg")
        assert is_central(alg, parse_expression("<C2>^2", alg)) == (True, None)
        assert kernel_stats(alg) == {"products": 393, "ads": 724}

    def test_c2_cubed_is_under_the_cap(self):
        # the --slow benchmark row, in a process of its own
        script = (
            "from kinexpand.algfile import parse_algebra_file\n"
            "from kinexpand.exprparse import parse_expression\n"
            "from kinexpand.uea import is_central, kernel_stats\n"
            f"alg = parse_algebra_file({str(DATA_DIR / 'poincare.alg')!r})\n"
            "print(is_central(alg, parse_expression('<C2>^3', alg)), kernel_stats(alg))\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "(True, None) {'products': 3523, 'ads': 9196}\n"
        )

    def test_galilei_tables_after_certificate_and_report(self):
        # fresh process: the catalog algebras and their tables are shared
        # by the whole process; a memo of monomial-pair brackets, or an ad
        # entry per monomial, would show here
        script = (
            "import contextlib, io\n"
            "from kinexpand import expansion\n"
            "from kinexpand.cli import main\n"
            "from kinexpand.liealg import catalog\n"
            "from kinexpand.uea import kernel_stats\n"
            "galilei = catalog('galilei')\n"
            "expansion._certificate('worldline')\n"
            "print(kernel_stats(galilei))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['--format', 'json', '--seed', '1', 'report'])\n"
            "print(kernel_stats(galilei))\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "{'products': 157, 'ads': 160}\n{'products': 244, 'ads': 190}\n"
        )

    def test_c2_to_the_fourth_is_central(self):
        # a process of its own: about 110 MiB at its peak
        script = (
            "from kinexpand.algfile import parse_algebra_file\n"
            "from kinexpand.exprparse import parse_expression\n"
            "from kinexpand.uea import is_central\n"
            f"alg = parse_algebra_file({str(DATA_DIR / 'poincare.alg')!r})\n"
            "x = parse_expression('<C2>^4', alg)\n"
            "print(len(x.terms), x.degree(), is_central(alg, x))\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "33751 16 (True, None)\n"

    def test_c2_to_the_fifth_exits_2_at_the_budget(self):
        start = time.monotonic()
        proc = run_python("-m", "kinexpand.cli", "normal-form", "poincare", "<C2>^5")
        elapsed = time.monotonic() - start
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            f"kinexpand normal-form: normal ordering needs more than "
            f"{uea.MAX_CALL_PRODUCTS} kernel products in one call\n"
        )
        assert elapsed < 60, elapsed

    def test_cap_is_checked_where_a_miss_stores(self, monkeypatch):
        alg = parse_algebra_file(DATA_DIR / "poincare.alg")
        c2 = named_element(alg, "C2")
        h = UEAElement.generator(alg, "H")
        c2_h = c2 * h
        cap = sum(kernel_stats(alg).values())
        monkeypatch.setattr(uea, "MAX_KERNEL_ENTRIES", cap)
        # full tables: a product made only of hits stores nothing and passes
        assert c2 * h == c2_h
        assert sum(kernel_stats(alg).values()) == cap
        # ten entries of room: storing stops at exactly the cap, then raises
        cap += 10
        monkeypatch.setattr(uea, "MAX_KERNEL_ENTRIES", cap)
        sizes = []
        store = uea._Tables.store

        def counting_store(tables, table, key, value):
            store(tables, table, key, value)
            sizes.append(sum(kernel_stats(alg).values()))

        monkeypatch.setattr(uea._Tables, "store", counting_store)
        with pytest.raises(uea.KernelBoundError):
            c2 * c2
        assert sizes == list(range(cap - 9, cap + 1))
        # the tables are emptied at the cap; the product is formed again
        assert kernel_stats(alg) == dict.fromkeys(KERNEL_TABLES, 0)
        assert c2 * h == c2_h

    def test_cap_releases_the_tables(self, monkeypatch):
        # after one normal form stops at the cap, the next on the same
        # algebra (as on a catalog algebra, shared by the whole process)
        # starts from empty tables and gets its answer; the tables never
        # pass the cap
        alg = parse_algebra_file(DATA_DIR / "poincare.alg")
        # <C2>^2 stores 238 entries
        cap = 200
        monkeypatch.setattr(uea, "MAX_KERNEL_ENTRIES", cap)
        sizes = []
        store = uea._Tables.store

        def counting_store(tables, table, key, value):
            store(tables, table, key, value)
            sizes.append(sum(kernel_stats(alg).values()))

        monkeypatch.setattr(uea._Tables, "store", counting_store)
        with pytest.raises(uea.KernelBoundError):
            parse_expression("<C2>^2", alg)
        assert kernel_stats(alg) == dict.fromkeys(KERNEL_TABLES, 0)
        got = parse_expression("K3^3*P1^2*H", alg)
        word = tuple(alg.gen_index[n] for n in ("K3",) * 3 + ("P1",) * 2 + ("H",))
        assert got.terms == oracle_kernel.normal_form_word(alg, word)
        assert sizes and max(sizes) <= cap
        assert 0 < sum(kernel_stats(alg).values()) <= cap

    def test_budget_counts_misses_and_left_multiplications(self, monkeypatch):
        # fresh tables, so C2*C2 computes tail products and left-multiplies
        alg = parse_algebra_file(DATA_DIR / "poincare.alg")
        c2 = named_element(alg, "C2")
        tables = uea._tables(alg)
        counts = {"misses": 0, "left": 0}
        product, add_product = uea._product, uea._add_product

        def counting_product(tables, tail, g):
            counts["misses"] += 1
            return product(tables, tail, g)

        def counting_add_product(tables, out, mono, g, shift, c):
            if mono & (tables.after[g] - 1):
                counts["left"] += 1
            add_product(tables, out, mono, g, shift, c)

        monkeypatch.setattr(uea, "_product", counting_product)
        monkeypatch.setattr(uea, "_add_product", counting_add_product)
        square = c2 * c2
        spent = uea.MAX_CALL_PRODUCTS - tables.budget
        assert spent == counts["misses"] + counts["left"]
        assert counts["misses"] and counts["left"]
        assert square == oracle_kernel.product(c2, c2)

    def test_budget_is_per_call(self, monkeypatch):
        def fresh():
            alg = parse_algebra_file(DATA_DIR / "poincare.alg")
            return alg, named_element(alg, "C2"), UEAElement.generator(alg, "H")

        alg, c2, h = fresh()
        square = c2 * c2
        spent = uea.MAX_CALL_PRODUCTS - uea._tables(alg).budget
        # exactly the budget C2*C2 needs: it passes, and so does each
        # following call, which starts with the whole budget again
        alg, c2, h = fresh()
        monkeypatch.setattr(uea, "MAX_CALL_PRODUCTS", spent)
        assert c2 * c2 == square
        assert c2 * c2 == square
        assert c2.commutator(h).is_zero()
        assert normal_form(alg, [(("K3", "P1", "H"), 1)]).terms == (
            oracle_kernel.normal_form_word(alg, (6, 1, 0))
        )
        # one product less: C2*C2 raises, and leaves exact tables behind
        alg, c2, h = fresh()
        monkeypatch.setattr(uea, "MAX_CALL_PRODUCTS", spent - 1)
        with pytest.raises(uea.KernelBoundError) as raised:
            c2 * c2
        assert str(raised.value) == (
            f"normal ordering needs more than {spent - 1} kernel products in "
            "one call"
        )
        assert sum(kernel_stats(alg).values()) > 0
        monkeypatch.setattr(uea, "MAX_CALL_PRODUCTS", spent)
        assert c2 * c2 == square
        # a commutator and a normal form stop at the budget too
        alg, c2, h = fresh()
        square = c2 * c2
        monkeypatch.setattr(uea, "MAX_CALL_PRODUCTS", 10)
        with pytest.raises(uea.KernelBoundError):
            square.commutator(h)
        with pytest.raises(uea.KernelBoundError):
            normal_form(alg, [(("J3",) * 4 + ("K1",) * 4 + ("P2",) * 4, 1)])
