"""Exactness: no float reaches a coefficient, a reduction rule or a report.

Coefficients are stored as ``int`` when integral, so every division and
every negative power has to go through ``Fraction`` explicitly; these tests
pin the places where plain ``/`` or ``**`` on ints would give a float.
"""

import re
from fractions import Fraction

import pytest

from kinexpand.coeffring import KINEMATIC_CONTEXT, Poly
from kinexpand.expansion import (
    THEOREM2_POSITIVE_WITNESS,
    run_euclid,
    run_negative_nh,
    run_theorem1,
    run_theorem2,
)

CTX = KINEMATIC_CONTEXT

# A decimal point between digits: how a float prints inside report text.
FLOAT_TEXT = re.compile(r"\d\.\d|\binf\b|\bnan\b")


def eps_power(power: int) -> Poly:
    return Poly.var(CTX, "eps", power)


@pytest.fixture(scope="module")
def runs():
    return [
        run_theorem1(),
        run_euclid(),
        run_theorem2(),
        run_theorem2(THEOREM2_POSITIVE_WITNESS),
        run_negative_nh(),
    ]


def walk(value, path=()):
    """Yield (path, leaf) for every leaf of a report document."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from walk(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from walk(v, path + (i,))
    else:
        yield path, value


def coefficients(element):
    for poly in element.terms.values():
        yield from poly.terms.values()


class TestExactRationals:
    def test_positive_curvature_reduction_is_a_fraction(self, runs):
        (reduction,) = runs[3].report.reductions
        assert (reduction.param, reduction.power) == ("a1", 2)
        assert type(reduction.value) is Fraction
        assert reduction.value == -1
        assert str(reduction) == "a1^2 -> -1"

    def test_constant_value_is_a_fraction(self):
        for value in (0, 3, -7, Fraction(1, 2), Fraction(8, 4)):
            got = Poly.const(CTX, value).constant_value()
            assert type(got) is Fraction
            assert got == value

    @pytest.mark.parametrize("value", [3, -5, Fraction(2, 3)])
    def test_negative_laurent_power_substitutes_exactly(self, value):
        p = eps_power(-2) * Poly.var(CTX, "m") + eps_power(-1)
        q = p.substitute({"eps": value})
        v = Fraction(value)
        assert q == Poly.var(CTX, "m").scale(1 / v**2) + Poly.const(CTX, 1 / v)
        assert all(type(c) in (int, Fraction) for c in q.terms.values())

    def test_no_float_in_any_driver_report(self, runs):
        for run in runs:
            doc = run.to_dict()
            for path, leaf in walk(doc):
                assert not isinstance(leaf, float), (run.name, path)
                if isinstance(leaf, str):
                    assert not FLOAT_TEXT.search(leaf), (run.name, path, leaf)
            for value in run.report.witness.values():
                assert type(value) in (int, Fraction), run.name
            for reduction in run.report.reductions:
                assert type(reduction.value) is Fraction, run.name

    def test_no_float_in_elements_or_residuals(self, runs):
        for run in runs:
            elements = [run.seed.element, *run.generators.elements.values()]
            for element in elements:
                for c in coefficients(element):
                    assert type(c) in (int, Fraction), run.name
        # the negative control's residuals are the only nonzero ones
        mismatched = [p for p in runs[-1].report.pairs if p.verdict == "mismatch"]
        assert mismatched
        for pair in mismatched:
            assert pair.residual and not FLOAT_TEXT.search(pair.residual)
