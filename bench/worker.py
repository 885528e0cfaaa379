"""Child process of the benchmark: one kinexpand job per process.

Usage (from the root of a checkout; ``run.py`` starts it)::

    python3 bench/worker.py cli [--trace FILE] -- KINEXPAND-ARGS...
    python3 bench/worker.py casimir [--trace FILE] ALG-FILE EXPRESSION
    python3 bench/worker.py warm [--trace FILE] [--setup-only]

Each mode writes ``bench-setup <monotonic time>`` to stderr once set-up is
done, so the parent can time set-up from its own spawn time (both clocks are
``CLOCK_MONOTONIC``).

* ``cli`` runs ``kinexpand.cli.main`` on the arguments, exactly as the
  ``kinexpand`` console script does.  Set-up ends when ``kinexpand.cli`` is
  imported.
* ``casimir`` loads an ``.alg`` file, parses the expression and prints
  ``{"central": ..., "witness": ...}`` from ``uea.is_central``.  Set-up ends
  after the file is parsed.
* ``warm`` imports kinexpand and runs one priming round of the four
  expansion drivers with their default witnesses; that ends set-up.  It then
  answers one JSON request per stdin line with one JSON reply per stdout
  line: a request names the witnesses of one round and whether to trace it;
  the reply gives the round's wall time and each driver's verdicts.  A
  ``{"ready": true}`` line comes first, once set-up is done.  End of input
  ends the process.  ``--setup-only`` exits after set-up.

With ``--trace FILE`` the tracer is installed before any kinexpand call; at
exit the spans and per-sample layer metrics are written to FILE as JSON.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _mark_setup():
    sys.stderr.write(f"bench-setup {time.monotonic()!r}\n")
    sys.stderr.flush()


def _import_kinexpand():
    sys.path.insert(0, str(SRC))
    import kinexpand
    import kinexpand.cli  # noqa: F401  (the CLI module is part of set-up)

    if Path(kinexpand.__file__).resolve().parent != SRC / "kinexpand":
        raise SystemExit(f"kinexpand imported from {kinexpand.__file__}, not {SRC}")
    return kinexpand


def _new_tracer(trace_path):
    if trace_path is None:
        return None
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _dump_trace(tracer, path, samples):
    doc = {"samples": samples, "spans": tracer.spans}
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def _driver_summary(run) -> dict:
    report = run.report
    return {
        "name": run.name,
        "ok": run.ok,
        "passed": report.passed,
        "pairs": len(report.pairs),
        "mismatches": [list(p) for p in report.mismatches],
    }


def _round(kx, witnesses) -> list:
    """One round of the four drivers, through the public API."""
    return [
        kx.run_theorem1(witnesses and witnesses["theorem1"]),
        kx.run_euclid(witnesses and witnesses["euclid"]),
        kx.run_theorem2(witnesses and witnesses["theorem2"]),
        kx.run_negative_nh(),
    ]


def mode_cli(argv, trace_path):
    _import_kinexpand()
    import kinexpand.cli

    _mark_setup()
    tracer = _new_tracer(trace_path)
    if tracer is None:
        return kinexpand.cli.main(argv)
    tracer.sample = 0
    try:
        return kinexpand.cli.main(argv)
    finally:
        _dump_trace(tracer, trace_path, [tracer.sample_metrics()])


def mode_casimir(alg_path, expression, trace_path):
    kx = _import_kinexpand()
    tracer = _new_tracer(trace_path)
    if tracer is not None:
        tracer.sample = 0
    alg = kx.parse_algebra_file(alg_path)
    _mark_setup()
    element = kx.parse_expression(expression, alg)
    central, witness = kx.is_central(alg, element)
    print(json.dumps({"central": central, "witness": witness}))
    if tracer is not None:
        _dump_trace(tracer, trace_path, [tracer.sample_metrics()])
    return 0


def mode_warm(trace_path, setup_only):
    kx = _import_kinexpand()
    tracer = _new_tracer(trace_path)
    if tracer is not None:
        tracer.sample = "setup"
    _round(kx, None)
    _mark_setup()
    if setup_only:
        return 0
    sys.stdout.write(json.dumps({"ready": True}) + "\n")
    sys.stdout.flush()
    samples = []
    installed = tracer is not None
    for line in sys.stdin:
        request = json.loads(line)
        traced = bool(request["trace"])
        if tracer is not None and traced != installed:
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
            installed = traced
        witnesses = {
            driver: {k: Fraction(v) for k, v in values.items()}
            for driver, values in request["witnesses"].items()
        }
        if traced:
            tracer.reset()
            tracer.sample = request["sample"]
        t0 = time.perf_counter()
        runs = _round(kx, witnesses)
        wall = time.perf_counter() - t0
        reply = {"wall_s": wall, "drivers": [_driver_summary(r) for r in runs]}
        if traced:
            samples.append(tracer.sample_metrics())
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    if tracer is not None:
        _dump_trace(tracer, trace_path, samples)
    return 0


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    trace_path = None
    if rest[:1] == ["--trace"]:
        trace_path, rest = rest[1], rest[2:]
    if mode == "cli":
        return mode_cli(rest[1:] if rest[:1] == ["--"] else rest, trace_path)
    if mode == "casimir":
        return mode_casimir(rest[0], rest[1], trace_path)
    if mode == "warm":
        return mode_warm(trace_path, rest[:1] == ["--setup-only"])
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
