"""Coefficient ring: exact polynomial arithmetic, grammar, Laurent rule."""

import copy
import pickle
from fractions import Fraction

import pytest

import oracle_substitute
from kinexpand.coeffring import (
    KINEMATIC_CONTEXT,
    MAX_NESTING,
    MAX_RATIONAL_BITS,
    ContextMismatchError,
    DivergenceError,
    ParamContext,
    Poly,
    PolyParseError,
    format_poly,
    parse_poly,
    substitution,
)
from kinexpand.properties import check_ring_axioms, random_poly, random_rational

CTX = KINEMATIC_CONTEXT


def var(name: str) -> Poly:
    return Poly.var(CTX, name)


def const(value) -> Poly:
    return Poly.const(CTX, value)


class TestArithmetic:
    def test_add_cancels(self):
        a = var("a1") + const(2)
        b = -var("a1") + const(3)
        assert a + b == const(5)

    def test_mul_expands(self):
        p = (var("a1") + var("a2")) * (var("a1") - var("a2"))
        assert p == var("a1") * var("a1") - var("a2") * var("a2")

    def test_pow(self):
        p = var("omega") + const(1)
        assert p**3 == p * p * p
        assert p**0 == const(1)

    def test_zero_is_falsy_term_dict(self):
        p = var("m") - var("m")
        assert p.is_zero()
        assert not p.terms

    def test_scale(self):
        assert var("kappa").scale(Fraction(-1, 2)) == const(Fraction(-1, 2)) * var(
            "kappa"
        )

    def test_integral_coefficients_are_stored_as_int(self):
        for p in (
            const(Fraction(1, 2)) * const(4),
            const(Fraction(3, 2)) + const(Fraction(1, 2)),
            var("m").scale(Fraction(4, 2)),
            Poly(CTX, {CTX.zero: Fraction(6, 3)}),
        ):
            assert all(type(c) is int for c in p.terms.values()), p.terms

    def test_float_coefficients_are_refused(self):
        with pytest.raises(TypeError, match="float"):
            const(0.5)
        with pytest.raises(TypeError, match="float"):
            var("m").scale(0.25)

    def test_context_mismatch(self):
        other = ParamContext(("x", "y"))
        with pytest.raises(ContextMismatchError):
            var("a1") + Poly.var(other, "x")


class TestInternedContexts:
    def test_equal_contexts_are_one_object(self):
        assert ParamContext(list(CTX.names), laurent="eps") is CTX
        xy = ParamContext(("x", "y"), laurent="y")
        assert ParamContext(iter(("x", "y")), "y") is xy
        assert ParamContext(("x", "y"), laurent="y").zero is xy.zero

    def test_copies_are_the_interned_context(self):
        assert copy.deepcopy(CTX) is CTX
        assert pickle.loads(pickle.dumps(CTX)) is CTX
        p = var("a1") * var("eps") + const(Fraction(1, 3))
        q = copy.deepcopy(p)
        assert q.ctx is CTX and q == p

    @pytest.mark.parametrize(
        "left,right",
        [
            ((("x", "y"), None), (("y", "x"), None)),
            ((("x", "y"), None), (("x", "y"), "y")),
            ((("x", "y"), "x"), (("x", "y"), "y")),
            ((("x", "y"), None), (("x", "y", "z"), None)),
        ],
        ids=["order", "laurent-or-not", "laurent-name", "names"],
    )
    def test_distinct_contexts_stay_distinct(self, left, right):
        a, b = ParamContext(*left), ParamContext(*right)
        assert a is not b and a != b
        x, y = Poly.var(a, "x"), Poly.var(b, "x")
        assert x != y
        for op in (lambda: x + y, lambda: x * y, lambda: y - x):
            with pytest.raises(ContextMismatchError):
                op()
        with pytest.raises(ContextMismatchError):
            x.substitute({"y": y})


class TestLaurent:
    def test_eps_may_go_negative(self):
        eps = var("eps")
        inv = Poly(CTX, {tuple(-1 if n == "eps" else 0 for n in CTX.names): 1})
        assert eps * inv == const(1)

    def test_other_params_may_not(self):
        bad = {tuple(-1 if n == "a1" else 0 for n in CTX.names): 1}
        with pytest.raises(ValueError):
            Poly(CTX, bad)

    def test_limit_drops_positive_powers(self):
        p = var("eps") * var("m") + var("kappa")
        assert p.limit_contraction() == var("kappa")

    def test_limit_diverges_on_negative_powers(self):
        inv = Poly(CTX, {tuple(-2 if n == "eps" else 0 for n in CTX.names): 1})
        with pytest.raises(DivergenceError) as exc:
            inv.limit_contraction()
        assert exc.value.power == -2


class TestSubstitution:
    def test_full_evaluation(self):
        p = parse_poly("4*a2^2*c1*c2 + omega", CTX)
        value = p.substitute(
            {
                "a2": Fraction(1),
                "c1": Fraction(1),
                "c2": Fraction(1, 4),
                "omega": Fraction(-1),
            }
        )
        assert value.is_zero()

    def test_partial_substitution_keeps_rest(self):
        p = parse_poly("a1*c1 + a2*c2", CTX)
        q = p.substitute({"a1": Fraction(2)})
        assert q == parse_poly("2*c1 + a2*c2", CTX)

    def test_power_reduction(self):
        p = parse_poly("a1^2*m + a1*m + 3", CTX)
        q = p.substitute_power("a1", 2, Fraction(-1))
        assert q == parse_poly("-m + a1*m + 3", CTX)


def laurent_poly(rng) -> Poly:
    """A random polynomial whose terms carry eps powers from -2 to 2."""
    eps = CTX.index["eps"]
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exps = [0] * len(CTX)
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(len(CTX))] += 1
        exps[eps] = rng.randint(-2, 2)
        terms[tuple(exps)] = random_rational(rng)
    return Poly(CTX, terms)


def nonzero_rational(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6))


class TestSubstituteAgainstOracle:
    """``Poly.substitute`` against the multiply-out oracle on seeded input."""

    NAMES = [n for n in CTX.names if n != "eps"]

    def assert_same(self, p, assignment):
        got = p.substitute(assignment)
        want = oracle_substitute.substitute(p, assignment)
        assert got == want, (p, assignment)
        assert {e: type(c) for e, c in got.terms.items()} == {
            e: type(c) for e, c in want.terms.items()
        }
        assert all(e is CTX.zero for e in got.terms if e == CTX.zero)

    def assignment(self, rng, value):
        names = rng.sample(self.NAMES, rng.randint(1, 4))
        return {name: value(rng) for name in names}

    def test_rational_values(self, rng):
        for _ in range(300):
            a = self.assignment(rng, random_rational)
            if rng.random() < 0.5:
                a["eps"] = nonzero_rational(rng)
            self.assert_same(laurent_poly(rng), a)

    def test_integer_and_integral_values(self, rng):
        for _ in range(200):
            a = self.assignment(
                rng, lambda r: r.choice((r.randint(-3, 3), Fraction(4, 2)))
            )
            a["eps"] = rng.choice((2, -1, Fraction(6, 3)))
            self.assert_same(laurent_poly(rng), a)

    def test_poly_values(self, rng):
        for _ in range(300):
            a = self.assignment(rng, lambda r: random_poly(r, CTX))
            self.assert_same(laurent_poly(rng), a)

    def test_mixed_values(self, rng):
        def value(r):
            return random_poly(r, CTX) if r.random() < 0.5 else random_rational(r)

        for _ in range(300):
            a = self.assignment(rng, value)
            if rng.random() < 0.5:
                # a constant polynomial into negative eps powers
                a["eps"] = const(nonzero_rational(rng))
            self.assert_same(laurent_poly(rng), a)

    def test_negative_eps_powers(self, rng):
        for _ in range(200):
            p = laurent_poly(rng) * Poly.var(CTX, "eps", -rng.randint(1, 3))
            self.assert_same(p, {"eps": nonzero_rational(rng)})
            self.assert_same(p, {"eps": nonzero_rational(rng), "m": const(0)})

    def test_one_map_over_fraction_coefficients_and_negative_eps_powers(self, rng):
        # one map is applied to many polynomials, so the powers it computes
        # on first use serve later ones; a negative value in a negative power
        # gives a negative denominator
        for _ in range(60):
            a = self.assignment(rng, nonzero_rational)
            a["eps"] = nonzero_rational(rng)
            apply = substitution(CTX, a)
            for _ in range(5):
                p = laurent_poly(rng) * Poly.var(CTX, "eps", -rng.randint(1, 3))
                p = p.scale(Fraction(rng.randint(1, 5), rng.randint(2, 7)))
                got, want = apply(p), oracle_substitute.substitute(p, a)
                assert got == want, (p, a)
                assert {e: type(c) for e, c in got.terms.items()} == {
                    e: type(c) for e, c in want.terms.items()
                }

    def test_empty_assignment_is_identity(self, rng):
        p = laurent_poly(rng)
        assert p.substitute({}) is p

    @pytest.mark.parametrize(
        "assignment, error",
        [
            ({"a1": 0.5}, TypeError),
            ({"a1": 1, "nope": 1}, ContextMismatchError),
            ({"a1": Poly.var(ParamContext(("a1",)), "a1")}, ContextMismatchError),
            ({"eps": 0}, ZeroDivisionError),
            ({"eps": Poly.var(CTX, "m")}, ValueError),
        ],
        ids=[
            "float",
            "unknown-name",
            "foreign-context",
            "zero-into-negative",
            "poly-into-negative",
        ],
    )
    def test_errors_match_the_oracle(self, assignment, error):
        p = var("a1") * Poly.var(CTX, "eps", -1) + var("m")
        for substitute in (p.substitute, lambda a: oracle_substitute.substitute(p, a)):
            with pytest.raises(error) as exc:
                substitute(assignment)
            assert type(exc.value) is error


class TestEvaluatorAgainstOracle:
    """``substitution``, the one evaluator, against the multiply-out oracle:
    fully assigned polynomials are summed in integers, partly assigned ones
    keep their other parameters, on one map applied to many polynomials."""

    def assert_same(self, apply, p, assignment):
        got = apply(p)
        want = oracle_substitute.substitute(p, assignment)
        assert got == want, (p, assignment)
        assert {e: type(c) for e, c in got.terms.items()} == {
            e: type(c) for e, c in want.terms.items()
        }
        assert all(e is CTX.zero for e in got.terms if e == CTX.zero)
        return got

    def full(self, rng, value):
        a = {name: value(rng) for name in CTX.names if name != "eps"}
        a["eps"] = nonzero_rational(rng) if rng.random() < 0.5 else rng.choice((2, -1))
        return a

    def test_full_assignments_give_constants(self, rng):
        for value in (random_rational, nonzero_rational, lambda r: r.randint(-4, 4)):
            for _ in range(60):
                a = self.full(rng, value)
                apply = substitution(CTX, a)
                for _ in range(4):
                    p = laurent_poly(rng)
                    assert self.assert_same(apply, p, a).is_constant()

    def test_full_assignments_with_integral_fractions(self, rng):
        for _ in range(100):
            a = self.full(rng, lambda r: r.choice((Fraction(4, 2), r.randint(-3, 3))))
            apply = substitution(CTX, a)
            p = laurent_poly(rng).scale(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            self.assert_same(apply, p, a)

    def test_cancelling_terms_give_zero(self, rng):
        for _ in range(50):
            a = self.full(rng, nonzero_rational)
            p = laurent_poly(rng)
            value = substitution(CTX, a)(p)
            assert substitution(CTX, a)(p - value) == Poly(CTX)

    def test_partial_assignments(self, rng):
        names = [n for n in CTX.names if n != "eps"]
        for _ in range(200):
            a = {n: random_rational(rng) for n in rng.sample(names, rng.randint(1, 7))}
            if rng.random() < 0.5:
                a["eps"] = nonzero_rational(rng)
            apply = substitution(CTX, a)
            for _ in range(3):
                self.assert_same(apply, laurent_poly(rng), a)

    @pytest.mark.parametrize(
        "bad, error",
        [
            ({"a1": 0.5}, TypeError),
            ({"nope": 1}, ContextMismatchError),
            ({"a1": Poly.var(ParamContext(("a1",)), "a1")}, ContextMismatchError),
            ({"eps": 0}, ZeroDivisionError),
            ({"eps": Poly.var(CTX, "m")}, ValueError),
        ],
        ids=[
            "float",
            "unknown-name",
            "foreign-context",
            "zero-into-negative",
            "poly-into-negative",
        ],
    )
    def test_errors_match_the_oracle_on_full_assignments(self, rng, bad, error):
        p = var("a1") * Poly.var(CTX, "eps", -2) + var("m") * var("c2")
        a = {**self.full(rng, nonzero_rational), **bad}
        for substitute in (
            lambda a: substitution(CTX, a)(p),
            lambda a: oracle_substitute.substitute(p, a),
        ):
            with pytest.raises(error) as exc:
                substitute(a)
            assert type(exc.value) is error


class TestGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "1",
            "-1",
            "2/3",
            "a1",
            "-4*a2^2*c1*c2",
            "a1*c1 + a2*c2",
            "4*a1^2*m^2*xi^2 + kappa",
            "omega - 1/2*kappa",
        ],
    )
    def test_round_trip_is_canonical(self, text):
        p = parse_poly(text, CTX)
        assert parse_poly(format_poly(p), CTX) == p

    def test_canonical_form_examples(self):
        assert format_poly(parse_poly("-4*c2*c1*a2*a2", CTX)) == "-4*a2^2*c1*c2"
        assert format_poly(parse_poly("a1*a1 + 2*a1*a2 + a2*a2", CTX)) == (
            "a1^2 + 2*a1*a2 + a2^2"
        )
        assert format_poly(Poly(CTX)) == "0"

    def test_graded_lex_term_order(self):
        # higher total degree first; ties broken lexicographically
        p = parse_poly("a1 + a2^2 + a1*a2 + 1", CTX)
        assert format_poly(p) == "a1*a2 + a2^2 + a1 + 1"

    def test_parse_errors(self):
        with pytest.raises(PolyParseError):
            parse_poly("a1 +", CTX)
        with pytest.raises(PolyParseError):
            parse_poly("q7", CTX)
        with pytest.raises(PolyParseError):
            parse_poly("a1^", CTX)
        with pytest.raises(PolyParseError):
            parse_poly("a1^-1", CTX)
        assert parse_poly("eps^-1", CTX) * var("eps") == const(1)

    def test_nesting_bound(self):
        inner = "(" * (MAX_NESTING - 1) + "a1" + ")" * (MAX_NESTING - 1)
        assert parse_poly(inner, CTX) == var("a1")
        with pytest.raises(PolyParseError, match="nesting deeper than 64"):
            parse_poly("(" + inner + ")", CTX)
        with pytest.raises(PolyParseError, match="nesting deeper than 64"):
            parse_poly("(" * 400 + "a1" + ")" * 400, CTX)

    @pytest.mark.parametrize(
        "text",
        ["9" * 5000, "a1^" + "9" * 5000, "1/0"],
        ids=["5000-digit-constant", "5000-digit-exponent", "zero-denominator"],
    )
    def test_unreadable_number_is_a_parse_error(self, text):
        with pytest.raises(PolyParseError):
            parse_poly(text, CTX)

    def test_rational_bound(self):
        top = 2**MAX_RATIONAL_BITS - 1
        assert parse_poly(f"{top}*a1", CTX) == var("a1").scale(top)
        assert parse_poly(f"1/{top}", CTX) == const(Fraction(1, top))
        # a literal, a denominator, a product and a sum past the bound
        for text in (
            f"{top + 1}",
            f"1/{top + 1}",
            f"a1*{top}*2",
            f"{top} + {top}",
            f"{top}*a1 + a1*{top}",
        ):
            with pytest.raises(PolyParseError, match="bound of 4096 bits"):
                parse_poly(text, CTX)


def check_substitution_homomorphism(rng, ctx, samples: int) -> list:
    """Substitution commutes with products and sums on random pairs."""
    failures = []
    for n in range(samples):
        a = random_poly(rng, ctx)
        b = random_poly(rng, ctx)
        names = [p for p in ctx.names if p != ctx.laurent]
        assignment = {
            rng.choice(names): random_rational(rng)
            for _ in range(rng.randint(1, 3))
        }
        sa, sb = a.substitute(assignment), b.substitute(assignment)
        if (a * b).substitute(assignment) != sa * sb:
            failures.append(f"substitute(a*b) != substitute(a)*substitute(b) sample {n}")
        if (a + b).substitute(assignment) != sa + sb:
            failures.append(f"substitute(a+b) mismatch sample {n}")
    return failures


class TestRingAxioms:
    def test_axioms_randomized(self, rng):
        failures = check_ring_axioms(rng, CTX, samples=200)
        assert failures == []

    def test_substitution_is_homomorphism(self, rng):
        failures = check_substitution_homomorphism(rng, CTX, samples=100)
        assert failures == []
