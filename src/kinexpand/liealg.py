"""Finite-dimensional Lie algebras given by structure constants.

An algebra stores an ordered generator basis and a sparse bracket table with
polynomial coefficients; only pairs (i, j) with i < j are stored, so
antisymmetry holds by construction; the table is read-only.  The structural
checks (Jacobi, diagonal involutive automorphisms, Cartan-style
decompositions) read the structure constants straight from that table.
Inonu--Wigner contraction, parameter contraction and the catalog of
kinematical algebras live here too; the catalog's bracket tables are the
shipped ``kinexpand/data/*.alg`` files.
"""

from __future__ import annotations

from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .coeffring import DivergenceError, Frozen, ParamContext, Poly, format_poly


class GeneratorId(NamedTuple):
    index: int
    name: str


class LieAlgebra(Frozen):
    """Lie algebra over exact polynomial coefficients.

    ``brackets`` maps (i, j) with i < j to {k: Poly}; lookups with i > j
    negate.  The table, each of its rows, ``gen_index`` and ``metadata``
    are read-only mappings, the generators are immutable records and each
    coefficient's ``terms`` is a read-only view, so a shared (catalog)
    instance cannot be changed through them.  The normal-ordering kernel
    keeps its tables outside the instance, held weakly per algebra (see
    :mod:`kinexpand.uea`).  No attribute can be rebound or deleted after
    ``__init__``.
    """

    __slots__ = (
        "name", "generators", "gen_index", "ctx", "brackets", "metadata", "__weakref__",
    )

    def __init__(
        self,
        name: str,
        generator_names: Sequence[str],
        ctx: ParamContext,
        brackets: Mapping[tuple, Mapping[int, Poly]] | None = None,
        metadata: Mapping[str, str] | None = None,
    ):
        generators = tuple(GeneratorId(i, n) for i, n in enumerate(generator_names))
        if len({g.name for g in generators}) != len(generators):
            raise ValueError("duplicate generator names")
        table = {}
        for (i, j), comps in (brackets or {}).items():
            if not 0 <= i < j < len(generators):
                raise ValueError(f"bad bracket key ({i}, {j})")
            clean = {k: p for k, p in comps.items() if not p.is_zero()}
            if clean:
                table[(i, j)] = MappingProxyType(clean)
        self._init_slots(
            name=name,
            generators=generators,
            gen_index=MappingProxyType({g.name: g.index for g in generators}),
            ctx=ctx,
            brackets=MappingProxyType(table),
            metadata=MappingProxyType(dict(metadata or {})),
        )

    @property
    def dim(self) -> int:
        return len(self.generators)

    def __repr__(self) -> str:
        return f"LieAlgebra({self.name!r}, dim={self.dim})"

    def bracket_pair(self, i: int, j: int) -> Mapping:
        """[X_i, X_j] as a sparse vector {k: Poly}; the stored row when i < j."""
        if i <= j:  # (i, i) is never stored
            return self.brackets.get((i, j), {})
        return {k: -p for k, p in self.brackets.get((j, i), {}).items()}

    # -- equality of structure -------------------------------------------

    def same_structure(self, other: "LieAlgebra") -> bool:
        """Coefficient-exact equality of bases and bracket tables."""
        if tuple(g.name for g in self.generators) != tuple(
            g.name for g in other.generators
        ):
            return False
        if self.ctx is not other.ctx:
            return False
        return self.brackets == other.brackets


def format_vector(alg: LieAlgebra, v: Mapping) -> str:
    """Human-readable form of a basis vector, e.g. ``J3`` or ``-1*P1``."""
    if not v:
        return "0"
    parts = []
    for k in sorted(v):
        coeff = v[k]
        name = alg.generators[k].name
        text = format_poly(coeff)
        parts.append(name if text == "1" else f"({text})*{name}" if " " in text else f"{text}*{name}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


class JacobiViolation(NamedTuple):
    triple: tuple
    residual: dict


def jacobi_check(alg: LieAlgebra) -> list:
    """Exhaustively check the Jacobi identity on all basis triples.

    For i < j < k the residual is [x_i, [x_j, x_k]] plus its two cyclic
    shifts, summed straight from the structure constants.  Returns a list
    of :class:`JacobiViolation`; empty means pass.
    """
    violations = []
    pair = alg.bracket_pair
    n = alg.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                res = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, x in pair(b, c).items():
                        for m, y in pair(a, l).items():
                            res[m] = res[m] + x * y if m in res else x * y
                res = {m: p for m, p in res.items() if not p.is_zero()}
                if res:
                    violations.append(JacobiViolation((i, j, k), res))
    return violations


def automorphism_check(alg: LieAlgebra, scales: Mapping[str, int]):
    """Check that the diagonal map x_i -> scales[x_i] * x_i (a missing name
    scales by 1) is an involutive Lie-algebra automorphism.

    That holds exactly when every scale squares to 1 and every nonzero
    structure constant c_ij^k has s_k == s_i * s_j.  Returns (True, None) or
    (False, description-of-first-violation).
    """
    s = [scales.get(g.name, 1) for g in alg.generators]
    for g in alg.generators:
        if s[g.index] * s[g.index] != 1:
            return False, f"f∘f != id on generator {g.name}"
    for i, j in sorted(alg.brackets):
        if any(s[k] != s[i] * s[j] for k in alg.brackets[i, j]):
            pair = (alg.generators[i].name, alg.generators[j].name)
            return False, f"f([x,y]) != [f(x),f(y)] on {pair}"
    return True, None


class Decomposition(NamedTuple):
    """Partition of the basis into subalgebra part h and complement p."""

    h: frozenset
    p: frozenset
    label: str = ""

    @classmethod
    def from_names(cls, alg: LieAlgebra, p_names, label: str = "") -> "Decomposition":
        p = frozenset(alg.gen_index[n] for n in p_names)
        h = frozenset(range(alg.dim)) - p
        return cls(h=h, p=p, label=label)


class DecompositionReport(NamedTuple):
    hh_in_h: bool
    hp_in_p: bool
    pp: str  # "zero", "subset_h" or "other"


def decomposition_check(alg: LieAlgebra, d: Decomposition) -> DecompositionReport:
    if d.h | d.p != frozenset(range(alg.dim)) or d.h & d.p:
        raise ValueError("h and p must partition the basis")

    def contained(pairs, allowed) -> bool:
        for i, j in pairs:
            for k in alg.bracket_pair(i, j):
                if k not in allowed:
                    return False
        return True

    def all_zero(pairs) -> bool:
        return all(not alg.bracket_pair(i, j) for i, j in pairs)

    hh = [(i, j) for i in d.h for j in d.h if i < j]
    hp = [(i, j) for i in d.h for j in d.p]
    pp = [(i, j) for i in d.p for j in d.p if i < j]

    if all_zero(pp):
        pp_verdict = "zero"
    elif contained(pp, d.h):
        pp_verdict = "subset_h"
    else:
        pp_verdict = "other"
    return DecompositionReport(
        hh_in_h=contained(hh, d.h),
        hp_in_p=contained(hp, d.p),
        pp=pp_verdict,
    )


# ---------------------------------------------------------------------------
# Contractions
# ---------------------------------------------------------------------------


def iw_contract(alg: LieAlgebra, d: Decomposition) -> LieAlgebra:
    """Simple Inonu--Wigner contraction along the split ``d``.

    The p-generators are rescaled by the contraction parameter and the limit
    is taken on every structure constant.  Raises :class:`DivergenceError`
    when the split is not contractible (a coefficient diverges).
    """
    report = decomposition_check(alg, d)
    if not report.hh_in_h:
        raise ValueError("h is not a subalgebra; contraction undefined")
    eps_name = alg.ctx.laurent
    if eps_name is None:
        raise ValueError("context has no contraction parameter")
    new_brackets: dict = {}
    for (i, j), comps in alg.brackets.items():
        weight_ij = (i in d.p) + (j in d.p)
        out = {}
        for k, coeff in comps.items():
            power = weight_ij - (k in d.p)
            scaled = coeff * Poly.var(alg.ctx, eps_name, power)
            limited = scaled.limit_contraction()
            if not limited.is_zero():
                out[k] = limited
        if out:
            new_brackets[(i, j)] = out
    return LieAlgebra(
        name=f"{alg.name}_contracted",
        generator_names=[g.name for g in alg.generators],
        ctx=alg.ctx,
        brackets=new_brackets,
        metadata={**alg.metadata, "contracted_from": alg.name, "split": d.label},
    )


def parameter_contract(alg: LieAlgebra, param: str) -> LieAlgebra:
    """Set a curvature parameter to zero in all structure constants.

    Raises :class:`DivergenceError` when a structure constant has a negative
    power of the parameter.
    """
    i = alg.ctx.index[param]
    coeffs = [c for comps in alg.brackets.values() for c in comps.values()]
    worst = min((e[i] for c in coeffs for e in c._terms), default=0)
    if worst < 0:
        raise DivergenceError(worst)
    return substitute_algebra(alg, {param: 0})


def substitute_algebra(alg: LieAlgebra, assignment) -> LieAlgebra:
    """Algebra with the assignment applied to every structure constant."""
    new_brackets: dict = {}
    for (i, j), comps in alg.brackets.items():
        out = {}
        for k, coeff in comps.items():
            c = coeff.substitute(assignment)
            if not c.is_zero():
                out[k] = c
        if out:
            new_brackets[(i, j)] = out
    label = ",".join(f"{k}={v}" for k, v in sorted(assignment.items()))
    return LieAlgebra(
        name=f"{alg.name}[{label}]",
        generator_names=[g.name for g in alg.generators],
        ctx=alg.ctx,
        brackets=new_brackets,
        metadata=dict(alg.metadata),
    )


# ---------------------------------------------------------------------------
# Catalog of kinematical algebras, read from the shipped kinexpand/data/*.alg
#
# Basis order follows the PBW convention: central generator first, then H,
# translations P, boosts K, rotations J.
# ---------------------------------------------------------------------------

# Levi-Civita symbol on index triples, and the cyclic triples (i, a, b).
_EPSILON = {
    (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
    (2, 1, 3): -1, (3, 2, 1): -1, (1, 3, 2): -1,
}
_CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))

_DATA_DIR = Path(__file__).resolve().parent / "data"

_CATALOG_NAMES = ("galilei", "galilei_ext", "poincare", "euclid4", "newton_hooke")

_catalog_cache: dict = {}


def catalog(name: str) -> LieAlgebra:
    """Return a catalog kinematical algebra, read from ``kinexpand/data``.

    The table is parsed from the shipped ``<name>.alg`` file, which runs
    the Jacobi check, on first load.  Instances are cached and shared; they
    are immutable.
    """
    if name not in _CATALOG_NAMES:
        raise KeyError(f"unknown catalog algebra {name!r}")
    if name not in _catalog_cache:
        from .algfile import parse_algebra_file  # algfile imports this module

        _catalog_cache[name] = parse_algebra_file(_DATA_DIR / f"{name}.alg")
    return _catalog_cache[name]


def catalog_names():
    return _CATALOG_NAMES


# Sign patterns of the two involutive automorphisms: parity and parity*time
# reversal.  The central generator of the extended algebra is even under both.
# Read-only: every structural check in the process reads them.

PI_SIGNS = MappingProxyType(
    {"H": 1, "P1": -1, "P2": -1, "P3": -1, "K1": -1, "K2": -1, "K3": -1}
)
PI_T_SIGNS = MappingProxyType({"H": -1, "P1": -1, "P2": -1, "P3": -1, "Xi": -1})


def worldline_split(alg: LieAlgebra) -> Decomposition:
    """p = (P, K), h = (H, J) (+ central): the space-of-worldlines split."""
    return Decomposition.from_names(
        alg, ["P1", "P2", "P3", "K1", "K2", "K3"], label="worldline"
    )


def spacetime_split(alg: LieAlgebra) -> Decomposition:
    """p = (H, P), h = (K, J) (+ central): the spacetime split."""
    return Decomposition.from_names(
        alg, ["H", "P1", "P2", "P3"], label="spacetime"
    )
