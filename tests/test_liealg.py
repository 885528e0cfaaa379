"""Lie algebras: catalog structure, Jacobi, automorphisms, contractions."""

from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from kinexpand.algfile import parse_algebra_text
from kinexpand.checks import structural_suite
from kinexpand.cli import main
from kinexpand.coeffring import KINEMATIC_CONTEXT, Poly
from kinexpand.liealg import (
    PI_SIGNS,
    PI_T_SIGNS,
    Decomposition,
    LieAlgebra,
    automorphism_check,
    catalog,
    catalog_names,
    decomposition_check,
    iw_contract,
    jacobi_check,
    parameter_contract,
    spacetime_split,
    substitute_algebra,
    worldline_split,
)
from kinexpand.uea import UEAElement

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "kinexpand" / "data"


class TestCatalog:
    def test_names(self):
        assert set(catalog_names()) == {
            "galilei",
            "galilei_ext",
            "poincare",
            "euclid4",
            "newton_hooke",
        }

    def test_instances_are_cached(self):
        assert catalog("galilei") is catalog("galilei")

    @pytest.mark.parametrize("name", list(catalog_names()))
    def test_surface(self, name):
        alg = catalog(name)
        assert alg.name == name
        assert alg.ctx is KINEMATIC_CONTEXT
        assert catalog(name) is alg

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog("nope")

    def test_names_are_the_shipped_files(self):
        shipped = {path.stem for path in DATA_DIR.glob("*.alg")}
        assert set(catalog_names()) == shipped
        assert len(catalog_names()) == len(shipped) == 5

    def test_generator_order(self):
        g = catalog("galilei")
        assert [x.name for x in g.generators] == [
            "H", "P1", "P2", "P3", "K1", "K2", "K3", "J1", "J2", "J3",
        ]
        ge = catalog("galilei_ext")
        assert ge.generators[0].name == "Xi"

    def test_bracket_lookup_and_antisymmetry(self):
        g = catalog("galilei")
        i, j = g.gen_index["H"], g.gen_index["K1"]
        forward = g.bracket_pair(i, j)
        backward = g.bracket_pair(j, i)
        assert set(forward) == {g.gen_index["P1"]}
        assert forward[g.gen_index["P1"]] == Poly.const(g.ctx, -1)
        assert backward[g.gen_index["P1"]] == Poly.const(g.ctx, 1)

    def test_curved_brackets(self):
        p = catalog("poincare")
        omega = Poly.var(p.ctx, "omega")
        pk = p.bracket_pair(p.gen_index["P1"], p.gen_index["K1"])
        assert pk == {p.gen_index["H"]: omega}
        kk = p.bracket_pair(p.gen_index["K1"], p.gen_index["K2"])
        assert kk == {p.gen_index["J3"]: omega}
        nh = catalog("newton_hooke")
        hp = nh.bracket_pair(nh.gen_index["H"], nh.gen_index["P1"])
        assert hp == {nh.gen_index["K1"]: Poly.var(nh.ctx, "kappa")}

    def test_extended_central_bracket(self):
        ge = catalog("galilei_ext")
        pk = ge.bracket_pair(ge.gen_index["P1"], ge.gen_index["K1"])
        assert pk == {ge.gen_index["Xi"]: Poly.var(ge.ctx, "m")}

    def test_tables_are_read_only(self, capsys):
        p = catalog("poincare")
        row = p.bracket_pair(p.gen_index["K1"], p.gen_index["K2"])
        for table in (p.brackets, p.metadata, row):
            with pytest.raises(AttributeError):
                table.clear()
            with pytest.raises(TypeError):
                table["key"] = "value"
        assert main(["bracket", "poincare", "K1", "K2"]) == 0
        assert capsys.readouterr().out == "omega*J3\n"

    def test_euclid_shares_poincare_table(self):
        assert catalog("euclid4").same_structure(catalog("poincare"))
        assert catalog("euclid4").metadata["worldline_curv"] == "omega>0"


class TestJacobi:
    @pytest.mark.parametrize("name", list(catalog_names()))
    def test_catalog_passes(self, name):
        assert jacobi_check(catalog(name)) == []

    def test_fault_injection_is_caught(self):
        g = catalog("galilei")
        brackets = {k: dict(v) for k, v in g.brackets.items()}
        # flip the sign of [H, K1]: now +P1 instead of -P1
        key = (g.gen_index["H"], g.gen_index["K1"])
        brackets[key] = {g.gen_index["P1"]: Poly.const(g.ctx, 1)}
        broken = LieAlgebra(
            "broken", [x.name for x in g.generators], g.ctx, brackets
        )
        violations = jacobi_check(broken)
        assert violations
        names = {
            tuple(broken.generators[i].name for i in v.triple) for v in violations
        }
        assert any("H" in t and "K1" in t for t in names)


class TestAutomorphisms:
    @pytest.mark.parametrize("name", ["galilei", "poincare", "newton_hooke"])
    def test_parity(self, name):
        alg = catalog(name)
        ok, why = automorphism_check(alg, PI_SIGNS)
        assert ok, why

    @pytest.mark.parametrize("name", ["galilei", "galilei_ext", "poincare", "newton_hooke"])
    def test_parity_time(self, name):
        alg = catalog(name)
        ok, why = automorphism_check(alg, PI_T_SIGNS)
        assert ok, why

    def test_wrong_signs_rejected(self):
        g = catalog("galilei")
        # flipping only P breaks [H, K_i] = -P_i
        ok, why = automorphism_check(g, {"P1": -1, "P2": -1, "P3": -1})
        assert not ok
        assert why

    def test_non_involution_rejected(self):
        g = catalog("galilei")
        ok, why = automorphism_check(g, {name.name: 2 for name in g.generators})
        assert not ok
        assert why == "f∘f != id on generator H"

    def test_sign_tables_are_read_only(self):
        for signs in (PI_SIGNS, PI_T_SIGNS):
            with pytest.raises(TypeError):
                signs["H"] = -signs["H"]
            with pytest.raises(TypeError):
                del signs["P1"]
        assert PI_SIGNS["H"] == 1 and PI_T_SIGNS["H"] == -1
        assert all(r.passed for r in structural_suite())


class TestDecompositions:
    CASES = {
        ("galilei", "spacetime"): "zero",
        ("galilei", "worldline"): "zero",
        ("poincare", "spacetime"): "zero",
        ("poincare", "worldline"): "subset_h",
        ("newton_hooke", "spacetime"): "subset_h",
        ("newton_hooke", "worldline"): "zero",
    }

    @pytest.mark.parametrize("name,split", list(CASES))
    def test_classification(self, name, split):
        alg = catalog(name)
        d = spacetime_split(alg) if split == "spacetime" else worldline_split(alg)
        rep = decomposition_check(alg, d)
        assert rep.hh_in_h
        assert rep.hp_in_p
        assert rep.pp == self.CASES[(name, split)]

    def test_split_contents(self):
        g = catalog("galilei")

        def names(indices):
            return {g.generators[i].name for i in indices}

        assert names(worldline_split(g).p) == {"P1", "P2", "P3", "K1", "K2", "K3"}
        assert names(spacetime_split(g).p) == {"H", "P1", "P2", "P3"}


class TestContractions:
    def test_parameter_contraction_poincare(self):
        contracted = parameter_contract(catalog("poincare"), "omega")
        assert contracted.same_structure(catalog("galilei"))

    def test_parameter_contraction_newton_hooke(self):
        contracted = parameter_contract(catalog("newton_hooke"), "kappa")
        assert contracted.same_structure(catalog("galilei"))

    def test_iw_worldline_contraction(self):
        p = substitute_algebra(catalog("poincare"), {"omega": Fraction(-1)})
        contracted = iw_contract(p, worldline_split(p))
        assert contracted.same_structure(catalog("galilei"))

    def test_iw_spacetime_contraction(self):
        nh = substitute_algebra(catalog("newton_hooke"), {"kappa": Fraction(1)})
        contracted = iw_contract(nh, spacetime_split(nh))
        assert contracted.same_structure(catalog("galilei"))

    def test_iw_rejects_non_subalgebra_h(self):
        g = catalog("galilei")
        # h = {H, K, J} is not closed: [H, K1] = -P1 lands in p
        bad = Decomposition.from_names(g, ["P1", "P2", "P3"])
        with pytest.raises(ValueError):
            iw_contract(g, bad)

    def test_same_structure_is_discriminating(self):
        assert not catalog("poincare").same_structure(catalog("galilei"))
        assert not catalog("galilei_ext").same_structure(catalog("galilei"))


# ---------------------------------------------------------------------------
# Oracle: the UEA kernel's commutators of generators.  They are degree-1
# brackets, so they assume neither PBW nor Jacobi and use their own
# arithmetic, not the structure-constant loops of the checks.
# ---------------------------------------------------------------------------

# the 3-generator non-Lie table of test_cli
NON_LIE = (
    "name bad\ngenerators A B C\n"
    "bracket A B = 1*C\nbracket A C = 1*B\nbracket B C = 1*B\n"
)


def perturbed_poincare():
    text = (DATA_DIR / "poincare.alg").read_text(encoding="utf-8")
    bent = text.replace("bracket K1 K2 = omega*J3", "bracket K1 K2 = omega*J3 + 1*H")
    assert bent != text
    return parse_algebra_text(bent, allow_non_lie=True)


def as_vector(element):
    """A degree-1 enveloping-algebra element as {generator index: Poly}."""
    out = {}
    for mono, coeff in element.terms.items():
        assert sum(mono) == 1
        out[mono.index(1)] = coeff
    return out


def generators(alg):
    return [UEAElement.generator(alg, g.name) for g in alg.generators]


def oracle_jacobi(alg):
    x = generators(alg)
    out = []
    for i, j, k in combinations(range(alg.dim), 3):
        res = (
            x[i].commutator(x[j].commutator(x[k]))
            + x[j].commutator(x[k].commutator(x[i]))
            + x[k].commutator(x[i].commutator(x[j]))
        )
        if not res.is_zero():
            out.append(((i, j, k), as_vector(res)))
    return out


def oracle_automorphism_failure(alg, s):
    """The first pair (i < j) with f([x_i, x_j]) != [f x_i, f x_j], or None."""
    x = generators(alg)
    for i, j in combinations(range(alg.dim), 2):
        lhs = {k: c.scale(s[k]) for k, c in as_vector(x[i].commutator(x[j])).items()}
        rhs = as_vector(x[i].smul(s[i]).commutator(x[j].smul(s[j])))
        if lhs != rhs:
            return alg.generators[i].name, alg.generators[j].name
    return None


class TestAgainstKernelOracle:
    @pytest.mark.parametrize(
        "alg",
        [catalog(name) for name in catalog_names()]
        + [parse_algebra_text(NON_LIE, allow_non_lie=True), perturbed_poincare()],
        ids=list(catalog_names()) + ["non_lie", "perturbed_poincare"],
    )
    def test_jacobi_violations_and_residuals(self, alg):
        got = [(v.triple, v.residual) for v in jacobi_check(alg)]
        assert got == oracle_jacobi(alg)

    def test_oracle_sees_the_perturbation(self):
        assert oracle_jacobi(perturbed_poincare())
        assert oracle_jacobi(parse_algebra_text(NON_LIE, allow_non_lie=True))

    @pytest.mark.parametrize("name", list(catalog_names()))
    def test_automorphism_verdicts(self, name):
        alg = catalog(name)
        blocks = {"H": ["H"], "Xi": ["Xi"]}
        for letter in "PKJ":
            blocks[letter] = [f"{letter}{i}" for i in (1, 2, 3)]
        blocks = {b: gens for b, gens in blocks.items() if gens[0] in alg.gen_index}
        verdicts = set()
        for signs in product((1, -1), repeat=len(blocks)):
            scales = {
                g: sign for sign, gens in zip(signs, blocks.values()) for g in gens
            }
            s = [scales[g.name] for g in alg.generators]
            failure = oracle_automorphism_failure(alg, s)
            ok, why = automorphism_check(alg, scales)
            assert ok == (failure is None), scales
            if failure:
                assert why == f"f([x,y]) != [f(x),f(y)] on {failure}"
            verdicts.add(ok)
        assert verdicts == {True, False}


class TestSharedObjectsCannotBeRebound:
    """Catalog algebras and contexts are shared by the whole process: their
    attributes refuse assignment and deletion, so no caller can change a
    later verdict through them."""

    def test_poincare_bracket_after_rebinding(self, capsys):
        with pytest.raises(AttributeError):
            catalog("poincare").brackets = {}
        assert main(["bracket", "poincare", "K1", "K2"]) == 0
        assert capsys.readouterr().out == "omega*J3\n"

    def test_theorem1_after_rebinding(self):
        from kinexpand.expansion import run_theorem1

        with pytest.raises(AttributeError):
            catalog("galilei").brackets = {}
        assert run_theorem1().ok

    @pytest.mark.parametrize("name", list(catalog_names()))
    def test_every_attribute(self, name):
        alg = catalog(name)
        for obj in (alg, alg.ctx):
            for attr in (*type(obj).__slots__, "extra"):
                if attr == "__weakref__":
                    continue
                before = getattr(obj, attr, None)
                with pytest.raises(AttributeError):
                    setattr(obj, attr, None)
                with pytest.raises(AttributeError):
                    delattr(obj, attr)
                assert getattr(obj, attr, None) is before
        assert alg.ctx is KINEMATIC_CONTEXT
