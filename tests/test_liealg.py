"""Lie algebras: catalog structure, Jacobi, automorphisms, contractions."""

from fractions import Fraction
from pathlib import Path

import pytest

from kinexpand.coeffring import KINEMATIC_CONTEXT, Poly
from kinexpand.liealg import (
    Decomposition,
    LieAlgebra,
    automorphism_check,
    catalog,
    catalog_names,
    decomposition_check,
    iw_contract,
    jacobi_check,
    parameter_contract,
    parity_map,
    parity_time_map,
    spacetime_split,
    substitute_algebra,
    worldline_split,
)

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
        ok, why = automorphism_check(alg, parity_map(alg))
        assert ok, why

    @pytest.mark.parametrize("name", ["galilei", "galilei_ext", "poincare", "newton_hooke"])
    def test_parity_time(self, name):
        alg = catalog(name)
        ok, why = automorphism_check(alg, parity_time_map(alg))
        assert ok, why

    def test_wrong_signs_rejected(self):
        from kinexpand.liealg import LinearMap

        g = catalog("galilei")
        # flipping only P breaks [H, K_i] = -P_i
        bad = LinearMap.diagonal(g, {"P1": -1, "P2": -1, "P3": -1})
        ok, why = automorphism_check(g, bad)
        assert not ok
        assert why

    def test_non_involution_rejected(self):
        from kinexpand.liealg import LinearMap

        g = catalog("galilei")
        two = LinearMap.diagonal(g, {name.name: 2 for name in g.generators})
        ok, why = automorphism_check(g, two)
        assert not ok


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
