"""Command-line interface.

Subcommands::

    check-jacobi ALGEBRA            Jacobi identity on a catalog or file algebra
    bracket ALGEBRA GEN GEN         one structure-constant lookup
    normal-form ALGEBRA EXPR        normal-order an expression
    casimir-check ALGEBRA           centrality of C1 and C2, or of Xi
    identity ALGEBRA LHS RHS        exact identity check
    expand TARGET                   run an expansion driver
    contract ALGEBRA                contraction round-trips
    corpus                          identity corpus + Casimir centrality
    report                          everything, as one document

``ALGEBRA`` is a catalog name (galilei, galilei_ext, poincare, newton_hooke,
euclid4) or a path to an algebra definition file.  Reports are emitted as
text or JSON (``--format``); JSON reports carry a ``schema_version`` field.
Exit status is 0 exactly when every expected verdict holds, including the
expected closure *failure* of the ``negative-nh`` driver.  Malformed input
(a command line, an algebra file or name, an expression, a witness, a
generator or parameter name, an unwritable ``KINEXPAND_OUTPUT_DIR``) ends
with one line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .algfile import AlgebraFileError, JacobiViolationError, parse_algebra_file
from .checks import (
    CheckResult,
    casimir_centrality,
    centrality_check,
    contraction_suite,
    identity_check,
    identity_corpus,
    structural_suite,
)
from .coeffring import KINEMATIC_CONTEXT, DivergenceError, ParseError, _quoted
from .expansion import (
    DEFAULT_WITNESSES,
    DRIVERS,
    ConstraintViolationError,
    override_witness,
)
from .exprparse import parse_expression
from .liealg import (
    catalog,
    catalog_names,
    format_vector,
    jacobi_check,
    parameter_contract,
)
from .properties import (
    check_associativity,
    check_pbw_canonicity,
    check_ring_axioms,
    check_uea_jacobi,
)
from .uea import KernelBoundError, format_element

SCHEMA_VERSION = 1

OUTPUT_DIR_ENV = "KINEXPAND_OUTPUT_DIR"


class InputError(ValueError):
    """Malformed command-line input: an algebra, a name or a witness."""


class UsageError(Exception):
    """A command line that does not parse: unknown command, choice or option."""


class _Parser(argparse.ArgumentParser):
    """Raises :class:`UsageError` where argparse would print its usage block."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# The errors that mean the input was malformed or past the kernel's bounds.
# :func:`main` reports each on one stderr line and returns 2; any other
# exception is a fault of the program.
_INPUT_ERRORS = (InputError, ParseError, ConstraintViolationError, KernelBoundError)


def _load_algebra(ref: str, allow_non_lie: bool = False):
    if ref in catalog_names():
        return catalog(ref)
    try:
        return parse_algebra_file(ref, allow_non_lie=allow_non_lie)
    except OSError as exc:
        raise InputError(
            f"{ref!r} is neither a catalog algebra ({', '.join(catalog_names())}) "
            f"nor a readable file: {exc.strerror}"
        ) from None
    except (AlgebraFileError, JacobiViolationError, UnicodeDecodeError) as exc:
        raise InputError(f"{ref!r}: {exc}") from None


# Most decimal digits a ``--witness`` value may carry, its exponent counted
# in.  A closure report holds products of up to six witness values, and up
# to about ten times a value's digits once a power rule divides by them;
# all of it must print within the 4,300 digits ``str`` writes.
MAX_WITNESS_DIGITS = 256


def _witness_digits(text: str) -> int:
    """The digits of ``text`` plus its decimal exponent: a bound on the
    digits of the numerator and denominator ``Fraction(text)`` would form,
    read without forming them."""
    digits = sum(ch.isdigit() for ch in text)
    _, e, exponent = text.upper().rpartition("E")
    if e and digits <= MAX_WITNESS_DIGITS:
        try:
            digits += abs(int(exponent))
        except ValueError:
            pass  # not an exponent: Fraction refuses the text
    return digits


def _parse_witness(pairs):
    witness = {}
    for item in pairs or ():
        name, eq, value = item.partition("=")
        if not eq:
            raise InputError(
                f"bad witness override {_quoted(item)}: expected name=rational"
            )
        if name not in KINEMATIC_CONTEXT.index:
            raise InputError(f"unknown witness parameter {_quoted(name)}")
        if name in witness:
            raise InputError(f"witness parameter {name} is given more than once")
        if _witness_digits(value) > MAX_WITNESS_DIGITS:
            raise InputError(
                f"witness value {_quoted(value)} for {name} has more than "
                f"{MAX_WITNESS_DIGITS} digits"
            )
        try:
            witness[name] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(
                f"bad rational {_quoted(value)} in witness override"
            ) from None
    return witness


def _emit(args, fields: dict, text: str | None = None) -> None:
    """Print the report on ``fields``; also write it when an output directory
    is set.

    The report opens with the command's name and the schema version.
    ``text`` replaces the rendered document in text format.
    """
    doc = {"command": args.command, "schema_version": SCHEMA_VERSION, **fields}
    if args.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=False) + "\n"
    elif text is None:
        text = _render_text(doc)
    sys.stdout.write(text)
    outdir = os.environ.get(OUTPUT_DIR_ENV)
    if outdir:
        path = Path(outdir) / f"{doc['command']}.{args.format}"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        except OSError as exc:
            where = f"{path.name} to {OUTPUT_DIR_ENV}={outdir!r}"
            raise InputError(f"cannot write {where}: {exc.strerror}") from None


def _render_text(doc: dict) -> str:
    lines = []

    def walk(value, key, depth):
        pad = "  " * depth
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k, v in value.items():
                walk(v, k, depth + 1)
        elif isinstance(value, list):
            lines.append(f"{pad}{key}:")
            for v in value:
                if isinstance(v, dict):
                    label = v.get("label") or v.get("pair") or v.get("driver") or ""
                    status = v.get("passed", v.get("verdict", v.get("ok", "")))
                    detail = v.get("detail") or v.get("residual") or ""
                    extra = f"  {detail}" if detail else ""
                    lines.append(f"{pad}  {label}: {status}{extra}")
                else:
                    lines.append(f"{pad}  {v}")
        else:
            lines.append(f"{pad}{key}: {value}")

    for k, v in doc.items():
        walk(v, k, 0)
    return "\n".join(lines) + "\n"


def _check_section(results):
    return {
        "passed": all(r.passed for r in results),
        "checks": [r._asdict() for r in results],
    }


# -- subcommand implementations ---------------------------------------------


def cmd_check_jacobi(args) -> int:
    alg = _load_algebra(args.algebra, allow_non_lie=True)
    violations = jacobi_check(alg)
    fields = {
        "algebra": alg.name,
        "passed": not violations,
        "violations": [
            {
                "triple": [alg.generators[i].name for i in v.triple],
                "residual": format_vector(alg, v.residual),
            }
            for v in violations
        ],
    }
    _emit(args, fields)
    return 0 if not violations else 1


def cmd_bracket(args) -> int:
    alg = _load_algebra(args.algebra, allow_non_lie=args.allow_non_lie)
    for name in (args.left, args.right):
        if name not in alg.gen_index:
            raise InputError(f"unknown generator {name!r} in {alg.name}")
    result = alg.bracket_pair(alg.gen_index[args.left], alg.gen_index[args.right])
    text = format_vector(alg, result)
    fields = {
        "algebra": alg.name,
        "left": args.left,
        "right": args.right,
        "bracket": text,
    }
    _emit(args, fields, text + "\n")
    return 0


def cmd_normal_form(args) -> int:
    alg = _load_algebra(args.algebra, allow_non_lie=args.allow_non_lie)
    text = format_element(parse_expression(args.expression, alg))
    fields = {
        "algebra": alg.name,
        "expression": args.expression,
        "normal_form": text,
    }
    _emit(args, fields, text + "\n")
    return 0


def cmd_casimir_check(args) -> int:
    alg = _load_algebra(args.algebra)
    try:
        section = _check_section(centrality_check(alg))
    except KeyError as exc:
        raise InputError(exc.args[0]) from None
    fields = {
        "algebra": alg.name,
        **section,
    }
    _emit(args, fields)
    return 0 if section["passed"] else 1


def cmd_identity(args) -> int:
    alg = _load_algebra(args.algebra, allow_non_lie=args.allow_non_lie)
    lhs = parse_expression(args.lhs, alg)
    rhs = parse_expression(args.rhs, alg)
    result = identity_check(f"{args.lhs} = {args.rhs}", lhs, rhs)
    fields = {
        "algebra": alg.name,
        "passed": result.passed,
        "residual": result.detail or "0",
    }
    _emit(args, fields)
    return 0 if result.passed else 1


def cmd_expand(args) -> int:
    driver = DRIVERS[args.target]
    overrides = _parse_witness(args.witness)
    if not overrides:
        run = driver()
    else:
        if args.target not in DEFAULT_WITNESSES:
            raise InputError(f"{args.target} takes no --witness")
        try:
            witness = override_witness(args.target, overrides)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        run = driver(witness)
    _emit(args, run.to_dict())
    return 0 if run.ok else 1


def cmd_contract(args) -> int:
    alg = _load_algebra(args.algebra)
    if args.param:
        if args.param not in alg.ctx.index:
            raise InputError(f"unknown parameter {args.param!r} in {alg.name}")
        try:
            contracted = parameter_contract(alg, args.param)
        except DivergenceError as exc:
            ok, detail = False, str(exc)
        else:
            ok, detail = contracted.same_structure(catalog("galilei")), ""
        label = f"{alg.name} at {args.param}->0 equals catalog galilei"
        section = _check_section([CheckResult(label, ok, detail)])
    else:
        section = _check_section(contraction_suite())
    _emit(args, section)
    return 0 if section["passed"] else 1


def cmd_corpus(args) -> int:
    corpus = identity_corpus()
    centrality = casimir_centrality()
    passed = all(r.passed for r in corpus + centrality)
    fields = {
        "passed": passed,
        "identities": _check_section(corpus),
        "centrality": _check_section(centrality),
    }
    _emit(args, fields)
    return 0 if passed else 1


def cmd_report(args) -> int:
    rng = random.Random(args.seed)
    galilei = catalog("galilei")
    prop_failures = (
        check_ring_axioms(rng, galilei.ctx, 25)
        + check_pbw_canonicity(rng, galilei, 10)
        + check_associativity(rng, galilei, 5)
        + check_uea_jacobi(rng, galilei, 5)
    )
    drivers = [driver().to_dict() for driver in DRIVERS.values()]
    sections = {
        "structural": _check_section(structural_suite()),
        "corpus": _check_section(identity_corpus()),
        "centrality": _check_section(casimir_centrality()),
        "contractions": _check_section(contraction_suite()),
        "expansions": drivers,
        "properties": {
            "seed": args.seed,
            "passed": not prop_failures,
            "failures": prop_failures,
        },
    }
    passed = all(d["ok"] for d in drivers) and all(
        section["passed"] for key, section in sections.items() if key != "expansions"
    )
    fields = {
        "version": __version__,
        "seed": args.seed,
        "passed": passed,
        **sections,
    }
    _emit(args, fields)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kinexpand",
        description="Exact symbolic engine for kinematical Lie algebra "
        "expansions and contractions.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    parser.add_argument(
        "--seed", type=int, default=20240901, help="random seed for property sampling"
    )
    parser.add_argument(
        "--allow-non-lie",
        action="store_true",
        help="load algebra files even when the Jacobi identity fails",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-jacobi", help="Jacobi identity check")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_check_jacobi)

    p = sub.add_parser("bracket", help="structure-constant lookup")
    p.add_argument("algebra")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("normal-form", help="normal-order an expression")
    p.add_argument("algebra")
    p.add_argument("expression")
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("casimir-check", help="Casimir centrality")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_casimir_check)

    p = sub.add_parser("identity", help="exact identity check")
    p.add_argument("algebra")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("expand", help="run an expansion driver")
    p.add_argument("target", choices=tuple(DRIVERS))
    p.add_argument(
        "--witness",
        action="append",
        metavar="NAME=RATIONAL",
        help="override witness values (repeatable)",
    )
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("contract", help="contraction round-trips")
    p.add_argument("algebra")
    p.add_argument("--param", help="curvature parameter to send to zero")
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("corpus", help="identity corpus and centrality checks")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("report", help="run every check and emit one document")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"kinexpand {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
