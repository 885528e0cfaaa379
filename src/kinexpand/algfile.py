"""Algebra definition files: a line-oriented text format.

Example::

    name galilei
    parameters a1 a2 omega kappa m xi c1 c2 eps
    laurent eps
    generators H P1 P2 P3 K1 K2 K3 J1 J2 J3
    bracket J1 J2 = 1*J3
    bracket H K1 = (-1)*P1
    metadata family galilei

Bracket right-hand sides are ``coeff*gen`` terms joined by ``+``; each
coefficient uses the canonical polynomial grammar and is parenthesised
whenever it is not a single product term.  A pair of generators takes at
most one ``bracket`` line, in either order, and a file at most one ``name``,
``parameters``, ``laurent`` and ``generators`` line.  ``emit_algebra``
produces the canonical form and reproduces canonical files byte-identically.
"""

from __future__ import annotations

from .coeffring import (
    ParamContext,
    Poly,
    PolyParseError,
    _quoted,
    format_poly,
    parse_poly,
)
from .liealg import LieAlgebra, jacobi_check


class AlgebraFileError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class JacobiViolationError(ValueError):
    def __init__(self, violations):
        triples = [v.triple for v in violations]
        super().__init__(f"Jacobi identity fails on triples {triples}")
        self.violations = violations


def _split_terms(text: str, line: int):
    """Split a bracket RHS on top-level '+' (parenthesis aware).

    An empty term, such as an empty right-hand side or a '+' with nothing
    after it, is an error: a zero bracket is written ``0``.
    """
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise AlgebraFileError("unbalanced parentheses", line)
        if ch == "+" and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth:
        raise AlgebraFileError("unbalanced parentheses", line)
    parts.append("".join(current))
    terms = [p.strip() for p in parts]
    if not all(terms):
        raise AlgebraFileError(
            f"empty bracket term in {_quoted(text.strip())}; write 0 for a zero bracket",
            line,
        )
    return terms


def _names(text: str, what: str, line: int) -> list:
    """Whitespace-separated names, each at most once."""
    names = text.split()
    seen = set()
    for n in names:
        if n in seen:
            raise AlgebraFileError(f"duplicate {what} name {_quoted(n)}", line)
        seen.add(n)
    return names


def parse_algebra_text(text: str, allow_non_lie: bool = False) -> LieAlgebra:
    name = None
    params: list = []
    laurent = None
    generators: list | None = None
    bracket_lines = []
    metadata = {}
    once: dict = {}  # directive allowed once -> its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key in ("name", "parameters", "laurent", "generators"):
            if key in once:
                raise AlgebraFileError(
                    f"second {key!r} directive (first on line {once[key]})", lineno
                )
            once[key] = lineno
        if key == "name":
            name = rest
        elif key == "parameters":
            params = _names(rest, "parameter", lineno)
        elif key == "laurent":
            laurent = rest
        elif key == "generators":
            generators = _names(rest, "generator", lineno)
        elif key == "bracket":
            bracket_lines.append((lineno, rest))
        elif key == "metadata":
            mkey, _, mval = rest.partition(" ")
            metadata[mkey] = mval.strip()
        else:
            raise AlgebraFileError(f"unknown directive {_quoted(key)}", lineno)
    if name is None:
        raise AlgebraFileError("missing 'name'", 1)
    if generators is None:
        raise AlgebraFileError("missing 'generators'", 1)
    if laurent is not None and laurent not in params:
        raise AlgebraFileError(
            f"laurent parameter {_quoted(laurent)} not declared in 'parameters'",
            once["laurent"],
        )
    ctx = ParamContext(params, laurent=laurent)
    gen_index = {g: i for i, g in enumerate(generators)}

    brackets: dict = {}
    declared: dict = {}  # unordered pair -> line of its bracket
    for lineno, rest in bracket_lines:
        head, eq, rhs = rest.partition("=")
        if not eq:
            raise AlgebraFileError("bracket line missing '='", lineno)
        pair = head.split()
        if len(pair) != 2:
            raise AlgebraFileError("bracket needs exactly two generators", lineno)
        for g in pair:
            if g not in gen_index:
                raise AlgebraFileError(f"unknown generator {_quoted(g)}", lineno)
        i, j = gen_index[pair[0]], gen_index[pair[1]]
        if i == j:
            raise AlgebraFileError("bracket of a generator with itself", lineno)
        sign = 1
        if i > j:
            i, j = j, i
            sign = -1
        if (i, j) in declared:
            raise AlgebraFileError(
                f"second bracket for {pair[0]} {pair[1]} "
                f"(first declared on line {declared[i, j]})",
                lineno,
            )
        declared[i, j] = lineno
        comps = brackets.setdefault((i, j), {})
        for term in _split_terms(rhs, lineno):
            if term == "0":
                continue
            coeff_text, star, gen_name = term.rpartition("*")
            if not star:
                coeff_text, gen_name = "1", term
            gen_name = gen_name.strip()
            if not gen_name:
                raise AlgebraFileError(
                    f"expected a generator after '*' in {_quoted(term)}, "
                    "found end of input",
                    lineno,
                )
            if gen_name not in gen_index:
                raise AlgebraFileError(f"unknown generator {_quoted(gen_name)}", lineno)
            try:
                coeff = parse_poly(coeff_text, ctx)
            except PolyParseError as exc:
                raise AlgebraFileError(
                    f"bad coefficient {_quoted(coeff_text)}: {exc}", lineno
                )
            k = gen_index[gen_name]
            s = comps.get(k, Poly(ctx)) + coeff.scale(sign)
            if s.is_zero():
                comps.pop(k, None)
            else:
                comps[k] = s

    alg = LieAlgebra(name, generators, ctx, brackets, metadata)
    if not allow_non_lie:
        violations = jacobi_check(alg)
        if violations:
            raise JacobiViolationError(violations)
    return alg


def parse_algebra_file(path, allow_non_lie: bool = False) -> LieAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_text(fh.read(), allow_non_lie=allow_non_lie)


def _emit_coeff(p: Poly) -> str:
    text = format_poly(p)
    # parenthesise unless the coefficient is a single non-negative product
    if " " in text or text.startswith("-"):
        return f"({text.replace(' ', '')})" if " " in text else f"({text})"
    return text


def emit_algebra(alg: LieAlgebra) -> str:
    lines = [f"name {alg.name}"]
    if alg.ctx.names:
        lines.append("parameters " + " ".join(alg.ctx.names))
    if alg.ctx.laurent:
        lines.append(f"laurent {alg.ctx.laurent}")
    lines.append("generators " + " ".join(g.name for g in alg.generators))
    for (i, j) in sorted(alg.brackets):
        comps = alg.brackets[(i, j)]
        terms = [
            f"{_emit_coeff(comps[k])}*{alg.generators[k].name}" for k in sorted(comps)
        ]
        lines.append(
            f"bracket {alg.generators[i].name} {alg.generators[j].name} = "
            + " + ".join(terms)
        )
    for key in sorted(alg.metadata):
        lines.append(f"metadata {key} {alg.metadata[key]}")
    return "\n".join(lines) + "\n"
