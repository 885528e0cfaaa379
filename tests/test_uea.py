"""Enveloping algebra: normal ordering, named elements, identity corpus."""

import re
from pathlib import Path

import pytest

from kinexpand.algfile import parse_algebra_file, parse_algebra_text
from kinexpand.checks import casimir_centrality, identity_check, identity_corpus
from kinexpand.coeffring import (
    MAX_NESTING,
    MAX_RATIONAL_BITS,
    ContextMismatchError,
    ParamContext,
    Poly,
)
from kinexpand.exprparse import MAX_EXPONENT, ExprParseError, parse_expression
from kinexpand.liealg import catalog
from kinexpand.properties import (
    check_associativity,
    check_pbw_canonicity,
    check_uea_jacobi,
)
from kinexpand.uea import (
    NAMED_ELEMENT_KEYS,
    UEAElement,
    format_element,
    is_central,
    named_element,
    normal_form,
)


DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "kinexpand" / "data"


def gen(alg, name):
    return UEAElement.generator(alg, name)


class TestNormalOrdering:
    def test_swap_produces_bracket_correction(self):
        ge = catalog("galilei_ext")
        K1, P1 = gen(ge, "K1"), gen(ge, "P1")
        assert format_element(K1 * P1) == "P1*K1 - m*Xi"

    def test_rotation_swap(self):
        g = catalog("galilei")
        J1, J2 = gen(g, "J1"), gen(g, "J2")
        assert format_element(J2 * J1) == "J1*J2 - J3"

    def test_already_ordered_is_fixed(self):
        g = catalog("galilei")
        el = gen(g, "H") * gen(g, "P1") * gen(g, "K1")
        assert format_element(el) == "H*P1*K1"

    def test_scalar_coefficients_commute(self):
        g = catalog("galilei")
        el = gen(g, "K1").smul(3) * gen(g, "P1").smul(2)
        expected = (gen(g, "P1") * gen(g, "K1")).smul(6)
        assert el == expected

    def test_commutator_of_basis_matches_structure_constants(self):
        p = catalog("poincare")
        lhs = gen(p, "K1").commutator(gen(p, "K2"))
        assert format_element(lhs) == "omega*J3"

    def test_power(self):
        g = catalog("galilei")
        P1 = gen(g, "P1")
        assert P1**3 == P1 * P1 * P1

    def test_degree(self):
        g = catalog("galilei")
        el = gen(g, "H") * gen(g, "P1") + gen(g, "K1")
        assert el.degree() == 2


class TestAlgebraIdentity:
    def test_equality_needs_the_same_structure_not_the_same_name(self):
        text = (DATA_DIR / "galilei.alg").read_text(encoding="utf-8")
        renamed = parse_algebra_text(text.replace("name galilei", "name poincare", 1))
        assert renamed.name == "poincare"
        h_galilei, h_poincare = gen(renamed, "H"), gen(catalog("poincare"), "H")
        assert h_galilei != h_poincare
        with pytest.raises(ValueError, match="different algebras"):
            h_galilei + h_poincare

    def test_equal_structure_from_a_file_compares_equal(self):
        loaded = parse_algebra_file(DATA_DIR / "poincare.alg")
        assert loaded is not catalog("poincare")
        assert gen(loaded, "H") == gen(catalog("poincare"), "H")

    def test_coefficients_from_another_context_are_refused(self):
        alg = catalog("poincare")
        foreign = Poly.var(ParamContext(("x",)), "x")
        mono = (0,) * alg.dim
        with pytest.raises(ContextMismatchError):
            UEAElement(alg, {mono: foreign})
        with pytest.raises(ContextMismatchError):
            UEAElement.scalar(alg, foreign)
        with pytest.raises(ContextMismatchError):
            gen(alg, "H").smul(foreign)
        with pytest.raises(ContextMismatchError):
            normal_form(alg, [(("H", "P1"), foreign)])


class TestMalformedInput:
    """A word letter that is not a generator name or an in-range ``int``, and
    a monomial that is not ``dim`` nonnegative ``int`` exponents, raise
    ``ValueError`` naming them instead of wrapping, reading ``True`` as an
    index or failing deep in the kernel."""

    @pytest.mark.parametrize("letter", [-1, 10, True, False, 1.0, None, "Q1", ("H",)])
    def test_normal_form_refuses_a_bad_letter(self, letter):
        alg = catalog("galilei")
        assert alg.dim == 10
        with pytest.raises(ValueError, match=re.escape(f"word letter {letter!r}")):
            normal_form(alg, [((0, letter), 1)])

    def test_normal_form_takes_names_and_indices(self):
        alg = catalog("galilei")
        p1 = alg.gen_index["P1"]
        by_index = normal_form(alg, [((p1, 0), 1), ((9,), 2)])
        assert by_index == normal_form(alg, [(("P1", "H"), 1), (("J3",), 2)])
        assert by_index == gen(alg, "P1") * gen(alg, "H") + gen(alg, "J3").smul(2)

    @pytest.mark.parametrize(
        "mono",
        [(1, 0, 0), (0,) * 11, (-1,) + (0,) * 9, (True,) + (0,) * 9, (1.0,) + (0,) * 9],
    )
    def test_constructor_refuses_a_malformed_monomial(self, mono):
        alg = catalog("galilei")
        with pytest.raises(ValueError, match=re.escape(f"monomial {mono!r}")):
            UEAElement(alg, {mono: 1})

    def test_constructor_takes_exponent_vectors(self):
        alg = catalog("galilei")
        h = (1,) + (0,) * 9
        assert UEAElement(alg, {h: 1}) == gen(alg, "H")
        assert UEAElement(alg, [(h, 1), ((0,) * 10, 0)]) == gen(alg, "H")
        assert UEAElement(alg, {h: 1}) * gen(alg, "H") == gen(alg, "H") ** 2


class TestExpressionBounds:
    def test_exponent_at_the_bound_parses(self):
        g = catalog("galilei")
        assert parse_expression(f"H^{MAX_EXPONENT}", g) == gen(g, "H") ** MAX_EXPONENT

    @pytest.mark.parametrize(
        "exponent",
        [str(MAX_EXPONENT + 1), "100000", "9" * 5000],
        ids=["bound+1", "100000", "5000-digits"],
    )
    def test_exponent_above_the_bound_is_rejected(self, exponent):
        with pytest.raises(ExprParseError, match="exponent"):
            parse_expression(f"H^{exponent}", catalog("galilei"))

    @pytest.mark.parametrize(
        "opening,closing", [("(", ")"), ("[", ", H]")], ids=["parens", "brackets"]
    )
    def test_nesting_bound(self, opening, closing):
        g = catalog("galilei")
        # the whole text is one level, so MAX_NESTING - 1 pairs parse
        depth = MAX_NESTING - 1
        el = parse_expression(opening * depth + "H" + closing * depth, g)
        assert el == (gen(g, "H") if opening == "(" else UEAElement.zero(g))
        with pytest.raises(ExprParseError, match="nesting deeper than 64 levels"):
            parse_expression(opening * (depth + 1) + "H" + closing * (depth + 1), g)

    def test_rational_bound(self):
        # the bound of the polynomial grammar holds for powers, products and
        # commutators of expressions too, each checked as it is formed
        g = catalog("galilei")
        assert parse_expression("(2^16)^16*H", g) == gen(g, "H").smul(2**256)
        top = str(2**MAX_RATIONAL_BITS - 1)
        assert parse_expression(f"{top}*K1", g) == gen(g, "K1").smul(int(top))
        for text in (
            "((2^16)^16)^16*H",
            "((((2^16)^16)^16)^16)*H",
            f"K1*{top}*2",
            f"[{top}*H, 2*K1]",
            "9" * 700 + "*" + "9" * 700,
        ):
            with pytest.raises(ExprParseError, match="bound of 4096 bits"):
                parse_expression(text, g)


class TestNamedElements:
    def test_keys(self):
        assert set(NAMED_ELEMENT_KEYS) == {
            "W1", "W2", "W3", "JP", "JW", "KP", "K2", "C1", "C2",
        }

    def test_w_component(self):
        g = catalog("galilei")
        W1 = named_element(g, "W1")
        expected = gen(g, "P3") * gen(g, "K2") - gen(g, "P2") * gen(g, "K3")
        assert W1 == expected

    def test_galilei_casimirs(self):
        g = catalog("galilei")
        P = [gen(g, f"P{i}") for i in (1, 2, 3)]
        assert named_element(g, "C1") == sum((p * p for p in P), UEAElement.zero(g))
        W = [named_element(g, f"W{i}") for i in (1, 2, 3)]
        assert named_element(g, "C2") == sum((w * w for w in W), UEAElement.zero(g))

    def test_poincare_casimirs_carry_curvature(self):
        p = catalog("poincare")
        from kinexpand.coeffring import Poly

        omega = Poly.var(p.ctx, "omega")
        H = gen(p, "H")
        P = [gen(p, f"P{i}") for i in (1, 2, 3)]
        c1 = sum((x * x for x in P), (H * H).smul(omega))
        assert named_element(p, "C1") == c1

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            named_element(catalog("galilei"), "Q9")


class TestCentrality:
    @pytest.mark.parametrize("name", ["galilei", "poincare", "newton_hooke"])
    @pytest.mark.parametrize("key", ["C1", "C2"])
    def test_casimirs_central(self, name, key):
        alg = catalog(name)
        ok, witness = is_central(alg, named_element(alg, key))
        assert ok, f"{key} fails against {witness}"

    def test_xi_central_in_extension(self):
        ge = catalog("galilei_ext")
        ok, _ = is_central(ge, gen(ge, "Xi"))
        assert ok

    def test_non_central_element_named(self):
        g = catalog("galilei")
        ok, witness = is_central(g, gen(g, "H"))
        assert not ok
        assert witness in {x.name for x in g.generators}

    def test_full_centrality_suite(self):
        assert all(r.passed for r in casimir_centrality())


class TestIdentityCorpus:
    def test_every_identity_holds(self):
        results = identity_corpus()
        failed = [r for r in results if not r.passed]
        assert not failed, [f"{r.label}: {r.detail}" for r in failed]

    def test_corpus_is_substantial(self):
        assert len(identity_corpus()) > 60

    def test_identity_check_reports_residual(self):
        g = catalog("galilei")
        result = identity_check("H = H", gen(g, "H"), gen(g, "H"))
        assert result.passed and result.detail == ""
        result = identity_check("H = P1", gen(g, "H"), gen(g, "P1"))
        assert not result.passed and result.detail == "H - P1"


class TestProperties:
    @pytest.mark.parametrize("name", ["galilei", "galilei_ext", "poincare", "newton_hooke"])
    def test_pbw_canonicity(self, rng, name):
        assert check_pbw_canonicity(rng, catalog(name), samples=100) == []

    @pytest.mark.parametrize("name", ["galilei", "galilei_ext", "poincare", "newton_hooke"])
    def test_associativity(self, rng, name):
        assert check_associativity(rng, catalog(name), samples=100) == []

    def test_uea_jacobi(self, rng):
        assert check_uea_jacobi(rng, catalog("galilei"), samples=100) == []
