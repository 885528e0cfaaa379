"""Normal-ordering kernel: differential check against the word-rewriting
oracle, and the Casimir-power path on an algebra loaded from a file."""

import random
from pathlib import Path

import pytest

import oracle_kernel
from kinexpand.algfile import parse_algebra_file
from kinexpand.exprparse import parse_expression
from kinexpand.liealg import catalog, catalog_names
from kinexpand.uea import (
    UEAElement,
    is_central,
    kernel_stats,
    named_element,
    normal_form_word,
)

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "kinexpand" / "data"

# Distinct words the seed's word-memo kernel cached for <C2>^2 on poincare.
SEED_KERNEL_WORDS = 69951

ALGEBRAS = [*catalog_names(), "poincare.alg"]


def load(name):
    if name.endswith(".alg"):
        return parse_algebra_file(DATA_DIR / name)
    return catalog(name)


def random_words(rng, dim, per_length=20, max_length=8):
    for length in range(max_length + 1):
        for _ in range(per_length):
            yield tuple(rng.randrange(dim) for _ in range(length))


def leading_term(el):
    mono = max(el.terms, key=lambda m: (sum(m), m))
    return UEAElement(el.alg, {mono: el.terms[mono]})


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
        assert kernel_stats(alg) == {"products": 0, "words": 0}
        element = parse_expression("<C2>^2", alg)
        assert is_central(alg, element) == (True, None)
        stats = kernel_stats(alg)
        assert 0 < sum(stats.values()) < SEED_KERNEL_WORDS // 2, stats

    def test_c2_times_boost_is_not_central(self):
        alg = parse_algebra_file(DATA_DIR / "poincare.alg")
        central, witness = is_central(alg, parse_expression("<C2>*K1", alg))
        assert not central
        # [K1, H] = P1 in poincare, so H is the first generator that fails
        assert witness == "H"

    def test_kernel_stats_is_read_only(self):
        alg = catalog("galilei")
        stats = kernel_stats(alg)
        stats["words"] = -1
        assert kernel_stats(alg)["words"] != -1
