"""Curvature expansions: Casimir decomposition, seeds, closure drivers."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import oracle_substitute
from kinexpand import expansion, uea
from kinexpand.algfile import parse_algebra_text
from kinexpand.cli import main
from kinexpand.coeffring import Poly
from kinexpand.expansion import (
    DRIVERS,
    EUCLID_WITNESS,
    THEOREM1_WITNESS,
    THEOREM2_POSITIVE_WITNESS,
    THEOREM2_WITNESS,
    ConstraintViolationError,
    PairVerdict,
    build_seed,
    decompose_casimir,
    derive_generators,
    newton_hooke_closed_forms,
    override_witness,
    poincare_closed_forms,
    run_euclid,
    run_negative_nh,
    run_theorem1,
    run_theorem2,
    verify_closure,
)
from kinexpand.liealg import catalog
from kinexpand.uea import UEAElement, _named_over, format_element, named_element

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "kinexpand" / "data"


def gen(alg, name):
    return UEAElement.generator(alg, name)


def target_casimirs(alg, target):
    """The Casimirs C1, C2 of ``target``'s family over ``alg``'s generators."""
    return [_named_over(alg, key, catalog(target)) for key in ("C1", "C2")]


class TestCasimirDecomposition:
    def test_worldline_split_parts(self):
        g = catalog("galilei")
        C1p, C2p = target_casimirs(g, "poincare")
        d1 = decompose_casimir(C1p, "omega")
        # omega-constant part is the flat Casimir P^2; linear part is H^2
        assert d1.base == named_element(g, "C1")
        assert d1.linear == gen(g, "H") * gen(g, "H")
        assert d1.quadratic.is_zero()

        d2 = decompose_casimir(C2p, "omega")
        H = gen(g, "H")
        JW = named_element(g, "JW")
        JP = named_element(g, "JP")
        assert d2.base == named_element(g, "C2")
        assert d2.linear == (H * JW).smul(2) + JP * JP
        J2 = sum(
            (gen(g, f"J{i}") * gen(g, f"J{i}") for i in (1, 2, 3)),
            UEAElement.zero(g),
        )
        assert d2.quadratic == H * H * J2

    def test_recombine_round_trip(self):
        g = catalog("galilei")
        for casimir in target_casimirs(g, "poincare"):
            d = decompose_casimir(casimir, "omega")
            w = Poly.var(g.ctx, "omega")
            assert d.base + d.linear.smul(w) + d.quadratic.smul(w * w) == casimir

    def test_spacetime_split_parts(self):
        ge = catalog("galilei_ext")
        C1p, C2p = target_casimirs(ge, "newton_hooke")
        d1 = decompose_casimir(C1p, "kappa")
        assert d1.base == named_element(ge, "C1")
        assert d1.linear == named_element(ge, "K2")
        assert d1.quadratic.is_zero()
        d2 = decompose_casimir(C2p, "kappa")
        assert d2.linear.is_zero() and d2.quadratic.is_zero()


class TestSeed:
    def test_worldline_seed(self):
        g = catalog("galilei")
        decomps = [
            decompose_casimir(c, "omega") for c in target_casimirs(g, "poincare")
        ]
        seed = build_seed(decomps, ["a1", "a2"])
        H = gen(g, "H")
        a1 = Poly.var(g.ctx, "a1")
        a2 = Poly.var(g.ctx, "a2")
        expected = (H * H).smul(a1) + (
            (H * named_element(g, "JW")).smul(2) + named_element(g, "JP") ** 2
        ).smul(a2)
        assert seed.element == expected
        assert not seed.element.is_zero()

    def test_degenerate_seed(self):
        g = catalog("galilei")
        decomps = [
            decompose_casimir(c, "kappa") for c in target_casimirs(g, "newton_hooke")
        ]
        seed = build_seed(decomps, ["a1", "a2"])
        # plain Galilei: only the K^2 part survives, C2' has no kappa term
        assert seed.element == named_element(g, "K2").smul(Poly.var(g.ctx, "a1"))


class TestDerivedGenerators:
    def test_fixed_sets(self):
        run = run_theorem1()
        assert set(run.generators.fixed_set) == {"H", "J1", "J2", "J3"}
        run2 = run_theorem2()
        assert set(run2.generators.fixed_set) == {
            "Xi", "K1", "K2", "K3", "J1", "J2", "J3",
        }

    def test_worldline_closed_forms(self):
        g = catalog("galilei")
        decomps = [
            decompose_casimir(c, "omega") for c in target_casimirs(g, "poincare")
        ]
        gens = derive_generators(g, build_seed(decomps, ["a1", "a2"]))
        forms = poincare_closed_forms(g)
        for name, expected in forms.items():
            assert gens.elements[name] == expected, name

    def test_spacetime_closed_forms(self):
        ge = catalog("galilei_ext")
        decomps = [
            decompose_casimir(c, "kappa") for c in target_casimirs(ge, "newton_hooke")
        ]
        gens = derive_generators(ge, build_seed(decomps, ["a1", "a2"]))
        forms = newton_hooke_closed_forms(ge)
        for name, expected in forms.items():
            assert gens.elements[name] == expected, name

    def test_rotation_subalgebra_untouched(self):
        run = run_theorem1()
        for name in ("J1", "J2", "J3"):
            alg = catalog("galilei")
            assert run.generators.elements[name] == gen(alg, name)


class TestDrivers:
    def test_theorem1_closes(self):
        run = run_theorem1()
        assert run.ok
        assert run.report.passed
        assert run.closed_forms_match
        verdicts = {tuple(p.pair): p.verdict for p in run.report.pairs}
        assert len(verdicts) == 45
        assert verdicts[("P1", "K1")] == "template_match"
        assert verdicts[("K1", "K2")] == "template_match"
        assert verdicts[("P1", "P2")] == "exact_zero"

    def test_euclid_closes(self):
        run = run_euclid()
        assert run.ok
        assert run.report.target == "euclid4"

    def test_theorem2_closes(self):
        run = run_theorem2()
        assert run.ok
        verdicts = {tuple(p.pair): p.verdict for p in run.report.pairs}
        assert verdicts[("H", "P1")] == "template_match"

    def test_theorem2_positive_curvature_uses_reduction(self):
        run = run_theorem2(THEOREM2_POSITIVE_WITNESS)
        assert run.ok
        assert run.report.reductions, "expected a recorded power-reduction rule"

    def test_negative_control_fails_closure(self):
        run = run_negative_nh()
        assert run.ok  # failure is the expected outcome
        assert not run.report.passed
        mismatch_pairs = {tuple(p) for p in run.report.mismatches}
        assert ("H", "P1") in mismatch_pairs

    def test_bad_witness_rejected(self):
        bad = dict(THEOREM1_WITNESS)
        bad["omega"] = Fraction(5)
        with pytest.raises(ConstraintViolationError):
            run_theorem1(bad)

    def test_override_witness(self):
        omega = {"omega": Fraction(-2)}
        assert override_witness("poincare", omega) == {**THEOREM1_WITNESS, **omega}
        kappa = {"kappa": Fraction(3)}
        assert override_witness("newton_hooke", kappa) == {
            **THEOREM2_POSITIVE_WITNESS, **kappa
        }
        assert override_witness("newton_hooke", {"kappa": Fraction(-3)})["a1"] == 1
        with pytest.raises(ValueError, match="^negative-nh has no default witness"):
            override_witness("negative-nh", kappa)
        unread = "^poincare reads no witness parameter 'kappa'"
        with pytest.raises(ValueError, match=unread):
            override_witness("poincare", kappa)

    def test_alternate_valid_witness(self):
        witness = {
            "c1": Fraction(2),
            "c2": Fraction(1, 8),
            "a2": Fraction(1),
            "a1": Fraction(-1, 16),
            "omega": Fraction(-1),
        }
        assert run_theorem1(witness).ok

    @pytest.mark.parametrize(
        "driver, witness",
        [
            (run_theorem1, THEOREM1_WITNESS),
            (run_euclid, EUCLID_WITNESS),
            (run_theorem2, THEOREM2_WITNESS),
        ],
        ids=["theorem1", "euclid", "theorem2"],
    )
    def test_a_run_keeps_its_own_copy_of_the_witness(self, driver, witness):
        given = dict(witness)
        run = driver(given)
        given["a1"] = Fraction(99)
        del given["kappa" if "kappa" in given else "omega"]
        assert run.report.witness == dict(witness)
        assert run.ok

    def test_default_witnesses_satisfy_constraints(self):
        w = THEOREM1_WITNESS
        assert w["a1"] * w["c1"] + w["a2"] * w["c2"] == 0
        assert 4 * w["a2"] ** 2 * w["c1"] * w["c2"] + w["omega"] == 0
        w = EUCLID_WITNESS
        assert w["a1"] * w["c1"] + w["a2"] * w["c2"] == 0
        assert 4 * w["a2"] ** 2 * w["c1"] * w["c2"] + w["omega"] == 0
        w = THEOREM2_WITNESS
        assert 4 * w["a1"] ** 2 * w["m"] ** 2 * w["xi"] ** 2 + w["kappa"] == 0

    def test_report_serializes(self):
        doc = run_theorem1().to_dict()
        assert doc["ok"] is True
        assert doc["report"]["passed"] is True
        assert len(doc["report"]["pairs"]) == 45

    @pytest.mark.parametrize(
        "driver,witness",
        [
            (run_euclid, THEOREM1_WITNESS),
            (run_theorem1, EUCLID_WITNESS),
            (run_theorem1, {**THEOREM1_WITNESS, "a1": 0, "a2": 0, "omega": 0}),
            (run_theorem1, {k: v for k, v in THEOREM1_WITNESS.items() if k != "omega"}),
            (run_theorem2, {**THEOREM2_WITNESS, "a1": 0, "kappa": 0}),
        ],
        ids=[
            "euclid-omega<0",
            "poincare-omega>0",
            "poincare-omega=0",
            "poincare-no-omega",
            "newton_hooke-kappa=0",
        ],
    )
    def test_curvature_sign_selects_the_target(self, driver, witness):
        # each witness satisfies the closure constraints (or leaves omega
        # open), but its curvature does not give the driver's target
        with pytest.raises(ConstraintViolationError, match="needs a witness"):
            driver(witness)


def _nonzero(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))


def _witnesses_on_the_varieties(rng) -> dict:
    """Witnesses solved onto the closure constraints of each driver.

    Worldline: a1 = -a2*c2/c1 and omega = -4*a2^2*c1*c2, with c1*c2 > 0 for
    poincare (omega < 0) and c1*c2 < 0 for euclid4.  Spacetime:
    kappa = -4*a1^2*m^2*xi^2.
    """
    out = {}
    for driver, sign in (("theorem1", 1), ("euclid", -1)):
        c1, c2, a2 = _nonzero(rng), _nonzero(rng), _nonzero(rng)
        if (c1 * c2 > 0) != (sign > 0):
            c2 = -c2
        a1, omega = -a2 * c2 / c1, -4 * a2 * a2 * c1 * c2
        out[driver] = {"c1": c1, "c2": c2, "a2": a2, "a1": a1, "omega": omega}
    m, xi, a1 = _nonzero(rng), _nonzero(rng), _nonzero(rng)
    kappa = -4 * a1 * a1 * m * m * xi * xi
    out["theorem2"] = {"m": m, "xi": xi, "a1": a1, "kappa": kappa}
    return out


WITNESS_DRIVERS = {
    "theorem1": run_theorem1,
    "euclid": run_euclid,
    "theorem2": run_theorem2,
}
FAMILIES = ("worldline", "spacetime", "negative")


class TestSharedCertificate:
    def test_poincare_and_euclid_share_one_generator_set(self):
        assert run_theorem1().generators is run_euclid().generators
        assert run_theorem1().seed is run_euclid().seed

    def test_witness_round_computes_no_commutator(self, monkeypatch):
        for driver in DRIVERS.values():
            driver()

        def boom(*args, **kwargs):
            raise AssertionError("witness round recomputed a certificate")

        monkeypatch.setattr(UEAElement, "commutator", boom)
        monkeypatch.setattr(expansion, "expand_central", boom)
        poincare = {
            "c1": Fraction(2),
            "c2": Fraction(1, 8),
            "a2": Fraction(1),
            "a1": Fraction(-1, 16),
            "omega": Fraction(-1),
        }
        euclid = {
            **poincare,
            "c2": Fraction(-1, 8),
            "a1": Fraction(1, 16),
            "omega": Fraction(1),
        }
        newton_hooke = {**THEOREM2_WITNESS, "a1": Fraction(-1)}
        for run in (
            run_theorem1(poincare),
            run_euclid(euclid),
            run_theorem2(newton_hooke),
            run_theorem2(THEOREM2_POSITIVE_WITNESS),
        ):
            assert run.ok and run.report.passed
            assert len(run.report.pairs) == 45
        negative = run_negative_nh()
        assert negative.ok and ("H", "P1") in negative.report.mismatches

    def test_constraint_violation_after_caching(self):
        run_theorem1()
        bad = {**THEOREM1_WITNESS, "omega": Fraction(-5)}
        with pytest.raises(ConstraintViolationError, match="unsatisfied"):
            run_theorem1(bad)

    def test_reduction_applies_to_a_pairs_residual(self):
        # verdicts hold on the variety: K1 times the spacetime constraint,
        # added to a pair without a template, reduces to zero modulo it, so
        # the pair stays exact; a1^2*K1 does not, and at kappa > 0, where a1
        # stays formal, the power rule a1^2 -> -1 reduces its residual text
        entry = expansion._certificate("spacetime")
        cert = entry.certificate
        target = catalog("newton_hooke")
        report = verify_closure(
            cert, target, entry.constraints, THEOREM2_POSITIVE_WITNESS
        )
        assert [str(r) for r in report.reductions] == ["a1^2 -> -1"]
        index = next(
            i for i, p in enumerate(cert.pairs)
            if p.template is None and report.pairs[i].verdict == "exact_zero"
        )
        alg = cert.alg
        a1 = Poly.var(alg.ctx, "a1")
        pair = cert.pairs[index]

        def shifted_by(coefficient):
            pairs = list(cert.pairs)
            extra = gen(alg, "K1").smul(coefficient)
            pairs[index] = pair._replace(actual=pair.actual + extra)
            return cert._replace(pairs=tuple(pairs))

        (constraint,) = entry.constraints
        in_ideal = shifted_by(constraint * a1)
        for witness in (THEOREM2_POSITIVE_WITNESS, THEOREM2_WITNESS):
            again = verify_closure(in_ideal, target, entry.constraints, witness)
            assert again.pairs[index].verdict == "exact_zero", pair.pair
            assert again.passed
        # without the constraint the same residual is a mismatch
        unreduced = verify_closure(in_ideal, target, (), {**THEOREM2_POSITIVE_WITNESS})
        assert unreduced.pairs[index].verdict == "mismatch"
        outside = verify_closure(
            shifted_by(a1 * a1), target, entry.constraints, THEOREM2_POSITIVE_WITNESS
        )
        assert outside.mismatches == (pair.pair,)
        assert outside.pairs[index].residual == "-K1"

    def test_certificate_checks_the_target_pairs(self):
        certificate = expansion._certificate("worldline").certificate
        with pytest.raises(ValueError, match="generator pairs"):
            verify_closure(certificate, catalog("galilei_ext"))

    def test_memoised_certificate_matches_a_fresh_one(self, monkeypatch):
        rng = random.Random(8)
        rounds = [_witnesses_on_the_varieties(rng) for _ in range(10)]

        def one_pass():
            docs = [run_negative_nh().to_dict()]
            for witnesses in rounds:
                for name, driver in WITNESS_DRIVERS.items():
                    docs.append(driver(witnesses[name]).to_dict())
            return docs

        memoised = one_pass()
        fresh = {f: expansion._certificate.__wrapped__(f) for f in FAMILIES}
        for family in FAMILIES:
            assert fresh[family] is not expansion._certificate(family)
        monkeypatch.setattr(expansion, "_certificate", fresh.__getitem__)
        assert one_pass() == memoised

    @pytest.mark.parametrize(
        "family, count", [("worldline", 30), ("spacetime", 39), ("negative", 45)]
    )
    def test_pairs_with_a_fixed_generator_follow_from_jacobi(self, family, count):
        # for a fixed f, [f, seed] = 0, so Jacobi gives [f, Y'] = [seed, [f, Y]]
        # for a moved Y: with [A, B] = sum c_l x_l in the initial algebra,
        # [A', B'] is sum c_l x_l' over the moved l; for two fixed
        # generators it is [A, B] itself.  Built from structure constants
        # and the expanded generators alone, with no product formed.
        entry = expansion._certificate(family)
        alg = entry.certificate.alg
        elements = entry.generators.elements
        fixed = entry.generators.fixed_set
        checked = 0
        for cert in entry.certificate.pairs:
            a, b = cert.pair
            if a not in fixed and b not in fixed:
                continue
            row = alg.bracket_pair(alg.gen_index[a], alg.gen_index[b])
            want = UEAElement.zero(alg)
            for l, c in row.items():
                name = alg.generators[l].name
                if a in fixed and b in fixed:
                    want = want + gen(alg, name).smul(c)
                elif name not in fixed:
                    want = want + elements[name].smul(c)
            assert cert.actual == want, cert.pair
            checked += 1
        assert checked == count

    def test_shared_objects_are_read_only(self):
        run = run_theorem1()
        with pytest.raises(TypeError):
            run.generators.elements["H"] = run.generators.elements["J1"]
        with pytest.raises(AttributeError):
            run.generators.elements = {}
        assert isinstance(expansion._certificate("worldline").certificate.pairs, tuple)
        with pytest.raises(TypeError):
            expansion.DEFAULT_WITNESSES["poincare"]["omega"] = Fraction(-5)
        with pytest.raises(TypeError):
            catalog("poincare").gen_index["K1"] = 0

    def test_runs_on_the_same_inputs_compare_equal(self):
        # verdicts, reports and runs compare field by field, not by identity;
        # a pair decided without a witness keeps one verdict across calls,
        # a pair the witness decides gets a verdict of its own per call
        entry = expansion._certificate("worldline")
        first, second = (
            verify_closure(
                entry.certificate, catalog("poincare"), entry.constraints,
                THEOREM1_WITNESS,
            )
            for _ in range(2)
        )
        plan = expansion._plan(
            entry.certificate, catalog("poincare"), entry.constraints
        )
        decided = [v is not None for v in plan.verdicts]
        assert decided.count(False) == 6
        for is_decided, p, q in zip(decided, first.pairs, second.pairs):
            assert (p is q) == is_decided, p.pair
        assert first.pairs == second.pairs and first == second
        assert first.pairs[0] != first.pairs[1]
        assert run_theorem1() == run_theorem1()
        assert run_negative_nh() == run_negative_nh()
        assert run_theorem1() != run_euclid()
        with pytest.raises(TypeError):
            hash(first.pairs[0])
        assert repr(first.pairs[0]) == (
            f"PairVerdict({first.pairs[0].pair!r}, 'exact_zero', 'n/a')"
        )

    def test_shared_terms_are_read_only(self, capsys):
        # a driver's generators and a catalog bracket table are shared by
        # the whole process: clearing their terms must raise and change
        # nothing later runs see
        docs = run_theorem1().to_dict(), run_euclid().to_dict()
        with pytest.raises(AttributeError):
            run_theorem1().generators.elements["P1"].terms.clear()
        poincare = catalog("poincare")
        row = poincare.brackets[poincare.gen_index["K1"], poincare.gen_index["K2"]]
        with pytest.raises(AttributeError):
            next(iter(row.values())).terms.clear()
        assert (run_theorem1().to_dict(), run_euclid().to_dict()) == docs
        assert run_theorem1().ok and run_euclid().ok
        assert main(["bracket", "poincare", "K1", "K2"]) == 0
        assert capsys.readouterr().out == "omega*J3\n"


def _eager_pairs(certificate, target, constraints, witness) -> list:
    """Each pair's ``to_dict()``, rendered eagerly by the subtract-first check.

    Every expected bracket is a sum of ``smul`` terms, every comparison a
    subtraction, every text is formatted at once, and coefficients go
    through the multiply-out substitution oracle.
    """

    def subst(p):
        return oracle_substitute.substitute(p, witness)

    reductions = expansion._analyze_constraints(constraints, subst)

    def reduce(el):
        return expansion._reduce_element(el, reductions)

    alg = certificate.alg
    names = [g.name for g in target.generators]
    out = []
    for cert in certificate.pairs:
        ta, tb = (target.gen_index[n] for n in cert.pair)
        expected = UEAElement.zero(alg)
        for k, coeff in target.bracket_pair(ta, tb).items():
            element = certificate.generators.elements[names[k]]
            expected = expected + element.smul(subst(coeff))
        doc = {
            "pair": list(cert.pair),
            "verdict": "mismatch",
            "phase1": "n/a",
            "scalarized": "",
            "target": format_element(expected),
            "residual": None,
        }
        exact = reduce(cert.actual - expected)
        if exact.is_zero():
            doc["verdict"] = "exact_zero"
        elif cert.template is None:
            doc["residual"] = format_element(exact)
        else:
            terms = {m: subst(p) for m, p in cert.template.terms.items()}
            scal = reduce(UEAElement(alg, terms))
            p3 = reduce(scal - expected)
            doc["scalarized"] = format_element(scal)
            if cert.phase1.is_zero() and scal.degree() <= 1 and p3.is_zero():
                doc.update(verdict="template_match", phase1="pass")
            else:
                residual = p3 if cert.phase1.is_zero() else cert.phase1
                doc.update(phase1=cert.phase1_text, residual=format_element(residual))
        out.append(doc)
    return out


class TestVariety:
    """Verdicts decided on the constraint variety, by division modulo the
    closure constraints."""

    def test_flipped_curvature_rules_give_the_negative_control(self):
        # omega - 4*a2^2*c1*c2 and kappa - 4*a1^2*m^2*xi^2: every curvature
        # pair mismatches, and nothing else does
        worldline = expansion._certificate("worldline")
        spacetime = expansion._certificate("spacetime")
        ctx = worldline.certificate.alg.ctx
        names = ("a1", "a2", "c1", "c2", "omega", "kappa", "m", "xi")
        a1, a2, c1, c2, omega, kappa, m, xi = (Poly.var(ctx, n) for n in names)
        flipped = (a1 * c1 + a2 * c2, omega - (a2 * a2 * c1 * c2).scale(4))
        witness = {**THEOREM1_WITNESS, "omega": Fraction(1)}
        curvature_pairs = [(f"P{i}", f"K{i}") for i in (1, 2, 3)] + [
            ("K1", "K2"), ("K1", "K3"), ("K2", "K3")
        ]
        for target in ("poincare", "euclid4"):
            report = verify_closure(
                worldline.certificate, catalog(target), flipped, witness
            )
            assert sorted(report.mismatches) == sorted(curvature_pairs)
            others = {p.verdict for p in report.pairs if p.pair not in curvature_pairs}
            assert others == {"exact_zero"}
            kept = verify_closure(
                worldline.certificate, catalog(target), worldline.constraints,
                THEOREM1_WITNESS if target == "poincare" else EUCLID_WITNESS,
            )
            assert kept.passed
        flipped = (kappa - (a1 * a1 * m * m * xi * xi).scale(4),)
        witness = {**THEOREM2_WITNESS, "kappa": Fraction(1)}
        report = verify_closure(
            spacetime.certificate, catalog("newton_hooke"), flipped, witness
        )
        assert report.mismatches == (("H", "P1"), ("H", "P2"), ("H", "P3"))

    @pytest.mark.parametrize("degree, verdict", [(1, "template_match"), (2, "mismatch")])
    def test_a_template_match_needs_degree_at_most_one(self, degree, verdict):
        # [B, C] = omega*A, and the template -4*a2^2*c1*c2*A equals the
        # expected bracket on the worldline variety; a template of degree 2
        # still mismatches, with a residual that is zero at the witness
        alg = catalog("galilei")
        ctx = alg.ctx
        a2, c1, c2 = (Poly.var(ctx, n) for n in ("a2", "c1", "c2"))
        element = gen(alg, "H") if degree == 1 else gen(alg, "H") * gen(alg, "P1")
        elements = {"A": element, "B": gen(alg, "P2"), "C": gen(alg, "K1")}
        target = expansion.LieAlgebra(
            "toy", list(elements), ctx, {(1, 2): {0: Poly.var(ctx, "omega")}}
        )
        zero = UEAElement.zero(alg)
        template = element.smul((a2 * a2 * c1 * c2).scale(-4))
        pairs = (
            expansion.PairCertificate(("A", "B"), zero, None, None, "n/a"),
            expansion.PairCertificate(("A", "C"), zero, None, None, "n/a"),
            expansion.PairCertificate(("B", "C"), zero, template, zero, "pass"),
        )
        gens = expansion.ExpandedGenerators(elements, frozenset())
        certificate = expansion.ClosureCertificate(alg, gens, pairs)
        worldline = expansion._certificate("worldline")
        args = (certificate, target, worldline.constraints, THEOREM1_WITNESS)
        report = verify_closure(*args)
        assert report.pairs[2].verdict == verdict
        assert [p.to_dict() for p in report.pairs] == _eager_pairs(*args)
        if verdict == "mismatch":
            assert report.pairs[2].residual == "0"

    def test_constraints_given_as_a_list_reuse_the_plan(self, monkeypatch):
        # the plan is found by the constraints' value when their tuple is new
        worldline = expansion._certificate("worldline")
        target = catalog("poincare")
        run_theorem1()
        decided = []
        decide = expansion._decide
        monkeypatch.setattr(
            expansion, "_decide", lambda *args: decided.append(args) or decide(*args)
        )
        reports = [
            verify_closure(
                worldline.certificate, target, list(worldline.constraints),
                THEOREM1_WITNESS,
            )
            for _ in range(2 * expansion._PLANS_PER_TARGET)
        ]
        assert decided == []
        assert all(r == run_theorem1().report for r in reports)

    def test_the_curvature_leads_the_term_order(self):
        # against galilei, whose table has no curvature, the order is the
        # context's: a1*c1 and a2^2*c1*c2 lead, and they share c1
        worldline = expansion._certificate("worldline")
        with pytest.raises(ValueError, match="not coprime"):
            verify_closure(
                worldline.certificate, catalog("galilei"), worldline.constraints,
                THEOREM1_WITNESS,
            )


class TestWarmRound:
    """A witness round on a built certificate only validates its witness
    against the constraints, and its verdict texts are rendered when read,
    as the eager path would."""

    def witness_runs(self):
        rng = random.Random(11)
        witnesses = _witnesses_on_the_varieties(rng)
        return [
            run_theorem1(witnesses["theorem1"]),
            run_euclid(witnesses["euclid"]),
            run_theorem2(witnesses["theorem2"]),
            run_theorem2(THEOREM2_POSITIVE_WITNESS),
            run_negative_nh(),
        ]

    def test_no_kernel_work_and_no_text_until_read(self, monkeypatch):
        for driver in DRIVERS.values():
            driver()
        algebras = [catalog("galilei"), catalog("galilei_ext")]
        stats = [uea.kernel_stats(alg) for alg in algebras]

        def boom(*args, **kwargs):
            raise AssertionError("witness round multiplied UEA elements")

        monkeypatch.setattr(UEAElement, "commutator", boom)
        monkeypatch.setattr(UEAElement, "__mul__", boom)

        def validating(*args, **kwargs):
            raise AssertionError("witness round checked monomials it already held")

        monkeypatch.setattr(UEAElement, "__init__", validating)
        formatted = []

        def counting(el):
            formatted.append(el)
            return format_element(el)

        monkeypatch.setattr(expansion, "format_element", counting)
        monkeypatch.setattr(uea, "format_element", counting)
        runs = self.witness_runs()
        assert [uea.kernel_stats(alg) for alg in algebras] == stats
        assert formatted == []
        assert [run.ok for run in runs] == [True] * 5
        assert runs[3].report.reductions and runs[4].report.mismatches
        mismatch = next(p for p in runs[4].report.pairs if p.verdict == "mismatch")
        assert mismatch.target == format_element(mismatch._expected)
        assert len(formatted) == 1
        assert mismatch.target and mismatch.residual and len(formatted) == 2
        assert mismatch.scalarized == "" and len(formatted) == 2

    def test_a_warm_round_substitutes_only_the_constraints(self, monkeypatch):
        for driver in DRIVERS.values():
            driver()
        made, applied, calls = [], [], []
        substitution = expansion.substitution

        def counting(ctx, witness):
            made.append(dict(witness))
            apply = substitution(ctx, witness)

            def counted(p):
                applied.append(p)
                return apply(p)

            return counted

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(expansion, "substitution", counting)
        monkeypatch.setattr(UEAElement, "__eq__", counted("eq", UEAElement.__eq__))
        monkeypatch.setattr(UEAElement, "__sub__", counted("sub", UEAElement.__sub__))
        monkeypatch.setattr(
            UEAElement, "_raw", classmethod(counted("raw", UEAElement._raw.__func__))
        )
        monkeypatch.setattr(Poly, "reduce", counted("reduce", Poly.reduce))
        runs = self.witness_runs()
        assert [run.ok for run in runs] == [True] * 5
        # one validated witness per call, each constraint substituted once,
        # and no element built, compared or subtracted, no division made
        assert made == [dict(run.report.witness) for run in runs]
        constraints = [c for run in runs for c in run.report.constraints]
        assert len(applied) == len(constraints) == 2 + 2 + 1 + 1
        assert all(a is c for a, c in zip(applied, constraints))
        assert calls == []

    def test_rendered_texts_equal_the_eager_path(self):
        # 25 seeded rounds give 50 worldline and 25 spacetime witnesses on
        # the varieties; then the positive-kappa witness, the negative
        # control and a witness off the variety, checked without constraints
        rng = random.Random(11)
        families = {"theorem1": "worldline", "euclid": "worldline"}
        cases = []
        for _ in range(25):
            witnesses = _witnesses_on_the_varieties(rng)
            for name, driver in WITNESS_DRIVERS.items():
                run = driver(witnesses[name])
                cases.append((run.report, families.get(name, "spacetime"), True))
        positive = run_theorem2(THEOREM2_POSITIVE_WITNESS).report
        cases.append((positive, "spacetime", True))
        cases.append((run_negative_nh().report, "negative", True))
        off = {**THEOREM1_WITNESS, "omega": Fraction(-5)}
        worldline = expansion._certificate("worldline").certificate
        off_report = verify_closure(worldline, catalog("poincare"), (), off)
        cases.append((off_report, "worldline", False))
        for report, family, constrained in cases:
            entry = expansion._certificate(family)
            constraints = entry.constraints if constrained else ()
            target = catalog(report.target)
            want = _eager_pairs(entry.certificate, target, constraints, report.witness)
            doc = report.to_dict()
            assert doc["pairs"] == want, (report.target, report.witness)
            mismatches = [p["pair"] for p in want if p["verdict"] == "mismatch"]
            assert doc["mismatches"] == mismatches
            assert doc["passed"] == (not mismatches)
        verdicts = {p.verdict for report, _, _ in cases for p in report.pairs}
        assert verdicts == {"exact_zero", "template_match", "mismatch"}
        assert cases[-1][0].mismatches and cases[-2][0].mismatches

    def test_a_warm_round_builds_and_compares_no_element(self, monkeypatch):
        # every verdict is the plan's: a checked pair's expected bracket,
        # scalarised template and residual are recipes that its verdict
        # follows only when read
        for driver in DRIVERS.values():
            driver()
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(UEAElement, "__eq__", counted("eq", UEAElement.__eq__))
        monkeypatch.setattr(
            UEAElement, "_raw", classmethod(counted("raw", UEAElement._raw.__func__))
        )
        monkeypatch.setattr(
            expansion, "_expected_bracket", counted("expected", expansion._expected_bracket)
        )
        for module in (expansion, uea):
            monkeypatch.setattr(module, "format_element", counted("format", format_element))
        rng = random.Random(13)
        runs = []
        for _ in range(5):
            witnesses = _witnesses_on_the_varieties(rng)
            runs += [driver(witnesses[name]) for name, driver in WITNESS_DRIVERS.items()]
        runs.append(run_negative_nh())
        assert [run.ok for run in runs] == [True] * 16
        assert calls == []
        # reading a verdict builds its elements, once
        mismatch = next(
            p for p in runs[-1].report.pairs
            if p.verdict == "mismatch" and type(p._residual) is tuple
        )
        assert type(mismatch._expected) is tuple
        assert mismatch.residual and "raw" in calls and "format" in calls
        assert type(mismatch._expected) is UEAElement
        assert type(mismatch._residual) is UEAElement
        del calls[:]
        assert mismatch.residual and mismatch.target and calls == ["format"]
        match = next(p for p in runs[0].report.pairs if p.verdict == "template_match")
        assert match == match and "raw" in calls
        assert type(match._expected) is type(match._scalarized) is UEAElement

    def test_verdicts_on_the_variety_equal_the_eager_path(self):
        # the plan's verdicts, with texts rendered at the witness, against
        # the subtract-first check at 75 witnesses solved onto the
        # varieties, the default witnesses and kappa = 1, where a1 stays
        # formal; every field of every pair
        rng = random.Random(28)
        families = {
            "theorem1": "worldline", "euclid": "worldline",
            "theorem2": "spacetime", "negative": "negative",
        }
        runs = []
        for _ in range(25):
            witnesses = _witnesses_on_the_varieties(rng)
            runs += [
                (name, driver(witnesses[name]))
                for name, driver in WITNESS_DRIVERS.items()
            ]
        runs += [(name, driver()) for name, driver in WITNESS_DRIVERS.items()]
        positive = override_witness("newton_hooke", {"kappa": Fraction(1)})
        runs.append(("theorem2", run_theorem2(positive)))
        runs.append(("negative", run_negative_nh()))
        verdicts = {}
        for name, run in runs:
            report = run.report
            entry = expansion._certificate(families[name])
            want = _eager_pairs(
                entry.certificate, catalog(report.target), entry.constraints,
                report.witness,
            )
            assert [p.to_dict() for p in report.pairs] == want, (name, report.witness)
            mismatches = [tuple(p["pair"]) for p in want if p["verdict"] == "mismatch"]
            assert list(report.mismatches) == mismatches
            for p in want:
                verdicts[p["verdict"]] = verdicts.get(p["verdict"], 0) + 1
        assert len(runs) == 75 + 3 + 2
        assert runs[-2][1].report.reductions
        assert verdicts == {
            "exact_zero": 39 * 50 + 42 * 25 + 39 * 2 + 42 * 2 + 39,
            "template_match": 6 * 50 + 3 * 25 + 6 * 2 + 3 * 2,
            "mismatch": 6,
        }
        # off the variety the witness is refused, with the same message
        off = {**THEOREM1_WITNESS, "omega": Fraction(-5)}
        message = (
            "witness leaves constraint 4*a2^2*c1*c2 + omega = 0 unsatisfied "
            "(residual -4)"
        )
        with pytest.raises(ConstraintViolationError) as raised:
            run_theorem1(off)
        assert str(raised.value) == message

    def test_a_changed_constant_row_takes_the_full_path(self):
        # poincare's table with the sign of [P1, J2] = P3 flipped: the plan
        # for that table decides the pair against the new row, and it
        # mismatches
        text = (DATA_DIR / "poincare.alg").read_text(encoding="utf-8")
        flipped_text = text.replace("bracket P1 J2 = 1*P3", "bracket P1 J2 = (-1)*P3")
        assert flipped_text != text
        flipped = parse_algebra_text(flipped_text, allow_non_lie=True)
        entry = expansion._certificate("worldline")
        args = (entry.certificate, flipped, entry.constraints, THEOREM1_WITNESS)
        report = verify_closure(*args)
        assert [p.to_dict() for p in report.pairs] == _eager_pairs(*args)
        assert report.mismatches == (("P1", "J2"),)
        verdict = next(p for p in report.pairs if p.pair == ("P1", "J2"))
        assert verdict.verdict == "mismatch" and verdict.residual

    def test_witness_free_pairs_build_no_expected_bracket(self, monkeypatch):
        for driver in DRIVERS.values():
            driver()
        plans = [
            expansion._plan(
                expansion._certificate(family).certificate, catalog(target),
                expansion._certificate(family).constraints,
            )
            for family, target in (
                ("worldline", "poincare"), ("worldline", "euclid4"),
                ("spacetime", "newton_hooke"),
            )
        ]
        decided = [
            [(p, v) for p, v in zip(plan.pairs, plan.verdicts) if v is not None]
            for plan in plans
        ]
        # only the curvature pairs are left to the witness; each pair the
        # plan decides is an exact_zero sharing the certificate's commutator
        assert [len(pairs) for pairs in decided] == [39, 39, 42]
        assert all(
            v.verdict == "exact_zero" and v._expected is p.actual
            for pairs in decided for p, v in pairs
        )
        decided_actuals = {id(p.actual) for pairs in decided for p, _ in pairs}
        actuals = {id(p.actual) for plan in plans for p in plan.pairs}
        compared = []
        eq = UEAElement.__eq__

        def counting(self, other):
            compared.append((self, other))
            return eq(self, other)

        monkeypatch.setattr(UEAElement, "__eq__", counting)
        witnesses = _witnesses_on_the_varieties(random.Random(3))
        runs = [driver(witnesses[name]) for name, driver in WITNESS_DRIVERS.items()]
        assert [run.ok for run in runs] == [True] * 3
        assert not any(
            id(a) in decided_actuals or id(b) in decided_actuals for a, b in compared
        )
        # a pair left to the witness is decided on coefficient values: no
        # commutator, and no other element, is compared
        assert sum(id(a) in actuals for a, _ in compared) == 0
        assert compared == []

    def test_a_round_without_power_rules_subtracts_nothing(self, monkeypatch):
        for driver in DRIVERS.values():
            driver()
        subtracted = []
        sub = UEAElement.__sub__

        def counting(self, other):
            subtracted.append((self, other))
            return sub(self, other)

        monkeypatch.setattr(UEAElement, "__sub__", counting)
        witnesses = _witnesses_on_the_varieties(random.Random(3))
        runs = [driver(witnesses[name]) for name, driver in WITNESS_DRIVERS.items()]
        runs.append(run_negative_nh())
        assert [run.ok for run in runs] == [True] * 4
        assert not any(run.report.reductions for run in runs)
        assert len(subtracted) == 0
        # a mismatch the witness decides forms its residual when its text is
        # read, once; the plan's constant-row mismatches, [H, K1..3], hold
        # the residual formed when the plan was made
        mismatched = [p for p in runs[-1].report.pairs if p.verdict == "mismatch"]
        shared = [
            p for p, q in zip(runs[-1].report.pairs, run_negative_nh().report.pairs)
            if p.verdict == "mismatch" and p is q
        ]
        assert [p.pair for p in shared] == [("H", f"K{i}") for i in (1, 2, 3)]
        assert not any(type(p._residual) is tuple for p in shared)
        assert all(p.residual for p in mismatched)
        assert all(p.residual for p in mismatched)
        assert len(subtracted) == len(mismatched) - len(shared) == 3

    def test_residuals_formed_on_read_equal_the_eager_ones(self):
        # the negative control forms actual - expected, the off-variety
        # witness scalarised - expected for its template pairs
        worldline = expansion._certificate("worldline").certificate
        off = {**THEOREM1_WITNESS, "omega": Fraction(-5)}

        def reports():
            return [
                run_negative_nh().report,
                verify_closure(worldline, catalog("poincare"), (), off),
            ]

        certificates = [expansion._certificate("negative").certificate, worldline]
        lazy_left, lazy_right = reports(), reports()
        checked = shared = 0
        for certificate, left, right in zip(certificates, lazy_left, lazy_right):
            for cert, p, q in zip(certificate.pairs, left.pairs, right.pairs):
                if p.verdict != "mismatch":
                    continue
                if p is q:
                    # a constant-row mismatch, decided and formed by the plan
                    assert type(p._residual) is not tuple
                    shared += 1
                else:
                    assert type(p._residual) is tuple and type(q._residual) is tuple
                # the expected bracket and scalarised template are recipes too
                expected, scal = p._element("_expected"), p._element("_scalarized")
                minuend = cert.actual if cert.template is None else scal
                residual = minuend - expected
                assert not residual.is_zero()
                eager = PairVerdict(p.pair, p.verdict, p.phase1, expected, scal, residual)
                assert p == eager and eager == q
                assert p.residual == q.residual == format_element(residual)
                checked += 1
        assert checked == 6 + 6 and shared == 3

    def test_a_warm_round_makes_verdicts_only_for_checked_pairs(self, monkeypatch):
        for driver in DRIVERS.values():
            driver()
        made = []
        init = PairVerdict.__init__

        def counting(self, *args, **kwargs):
            made.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(PairVerdict, "__init__", counting)
        witnesses = _witnesses_on_the_varieties(random.Random(7))
        counts = []
        for name, driver in WITNESS_DRIVERS.items():
            del made[:]
            assert driver(witnesses[name]).ok
            counts.append(len(made))
        del made[:]
        assert run_negative_nh().ok
        counts.append(len(made))
        # the P-K and K-K template pairs, [H, P1..3] twice
        assert counts == [6, 6, 3, 3]
        assert made == [("H", f"P{i}") for i in (1, 2, 3)]

    def test_a_shared_verdict_refuses_assignment(self):
        first, second = run_negative_nh().report, run_negative_nh().report
        shared = [p for p, q in zip(first.pairs, second.pairs) if p is q]
        assert len(shared) == 45 - 3
        verdict = next(p for p in shared if p.verdict == "mismatch")
        doc = verdict.to_dict()
        for field in ("pair", "verdict", "phase1", "target", "scalarized", "residual"):
            with pytest.raises(AttributeError):
                setattr(verdict, field, None)
        with pytest.raises(AttributeError):
            verdict.note = "changed"
        again = next(p for p in run_negative_nh().report.pairs if p.pair == verdict.pair)
        assert again is verdict and again.to_dict() == doc

    def test_power_rules_and_changed_rows_equal_the_eager_path(self):
        # with power rules every pair left to the witness, the plan's
        # constant-row mismatches too, goes through the reduced path
        cases = []
        spacetime = expansion._certificate("spacetime")
        witness = override_witness("newton_hooke", {"kappa": Fraction(1)})
        run = run_theorem2(witness)
        assert run.report.reductions and run.report.passed
        cases.append(
            (run.report, (spacetime.certificate, catalog("newton_hooke"),
                          spacetime.constraints, witness))
        )
        negative = expansion._certificate("negative").certificate
        ctx = negative.alg.ctx
        a1, kappa = Poly.var(ctx, "a1"), Poly.var(ctx, "kappa")
        rule = (a1 * a1 * kappa + Poly.const(ctx, 1),)
        target, kappa_one = catalog("newton_hooke"), {"kappa": Fraction(1)}
        args = (negative, target, rule, kappa_one)
        cases.append((verify_closure(*args), args))
        # [H, K1] = -P1 + (a1^2 + 1)*K1: an exact zero on the variety of
        # a1^2 + 1, and a constant-row mismatch without constraints; on the
        # variety of a1^2*kappa + 1, where a1^2 + 1 vanishes only at
        # kappa = 1, it is a mismatch at every witness
        index = next(i for i, p in enumerate(negative.pairs) if p.pair == ("H", "K1"))
        pairs = list(negative.pairs)
        pairs[index] = pairs[index]._replace(
            actual=gen(negative.alg, "K1").smul(a1 * a1 + Poly.const(ctx, 1))
            - gen(negative.alg, "P1")
        )
        shifted = negative._replace(pairs=tuple(pairs))
        unreduced = verify_closure(shifted, target, (), kappa_one)
        assert unreduced.pairs[index].verdict == "mismatch"
        assert verify_closure(shifted, target, rule, kappa_one).pairs[index].verdict == (
            "mismatch"
        )
        args = (shifted, target, (a1 * a1 + Poly.const(ctx, 1),), kappa_one)
        cases.append((verify_closure(*args), args))
        assert cases[-1][0].reductions
        assert cases[-1][0].pairs[index].verdict == "exact_zero"
        # [H, K1] = a1^2*K1: a constant-row mismatch on the variety of
        # a1^2*kappa + 1, whose residual text a1^2 -> -1 reduces
        pairs[index] = pairs[index]._replace(
            actual=gen(negative.alg, "K1").smul(a1 * a1)
        )
        args = (negative._replace(pairs=tuple(pairs)), target, rule, kappa_one)
        cases.append((verify_closure(*args), args))
        assert cases[-1][0].pairs[index].residual == "P1 - K1"
        text = (DATA_DIR / "poincare.alg").read_text(encoding="utf-8")
        flipped = parse_algebra_text(
            text.replace("bracket P1 J2 = 1*P3", "bracket P1 J2 = (-1)*P3"),
            allow_non_lie=True,
        )
        # off the variety, where the checked rows stay symbolic
        worldline = expansion._certificate("worldline").certificate
        args = (worldline, flipped, (), {"c1": Fraction(1), "c2": Fraction(1)})
        cases.append((verify_closure(*args), args))
        for report, args in cases:
            assert [p.to_dict() for p in report.pairs] == _eager_pairs(*args)
            mismatches = [p.pair for p in report.pairs if p.verdict == "mismatch"]
            assert list(report.mismatches) == mismatches
        assert cases[1][0].reductions and cases[1][0].mismatches

    def test_plans_of_two_families_on_one_target_do_not_collide(self):
        # spacetime and negative check against the same newton_hooke object
        target = catalog("newton_hooke")
        rng = random.Random(5)
        for _ in range(3):
            witness = _witnesses_on_the_varieties(rng)["theorem2"]
            for family, run in (
                ("spacetime", run_theorem2(witness)),
                ("negative", run_negative_nh()),
            ):
                entry = expansion._certificate(family)
                report = run.report
                assert report.target == target.name and run.ok
                want = _eager_pairs(
                    entry.certificate, target, entry.constraints, report.witness
                )
                assert [p.to_dict() for p in report.pairs] == want

    @pytest.mark.parametrize(
        "target,witness",
        [
            ("poincare", {}),
            ("poincare", {"omega": Fraction(-1)}),
            ("euclid4", {"c1": Fraction(1), "c2": Fraction(1)}),
        ],
        ids=["no-witness", "omega-only", "off-the-variety"],
    )
    def test_symbolic_expected_brackets_equal_the_eager_path(self, target, witness):
        # with no constraints, parameters the witness leaves open stay in the
        # expected brackets, and the template pairs mismatch in phase 3
        certificate = expansion._certificate("worldline").certificate
        report = verify_closure(certificate, catalog(target), (), witness)
        want = _eager_pairs(certificate, catalog(target), (), witness)
        assert [p.to_dict() for p in report.pairs] == want
        assert report.mismatches
