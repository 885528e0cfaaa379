"""kinexpand benchmark: three workloads, end-to-end metrics, traced layers.

Run from the root of a checkout::

    python3 bench/run.py --workload report-cold --seed 1 --seconds 35 --trace 0

One orchestrating process runs the workload as a closed loop with one
client: one job at a time and at most one child process alive.  Every
sample's output is checked against answers known from the paper; a sample
that exits nonzero, times out or gives a wrong verdict counts as failed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from ``tracer.py`` plus ``trace.overhead_frac``.

``--slow`` runs the opt-in scaling row instead: one ``casimir-power`` sample
on ``<C2>^3`` (91 s and 1.24M cached words on the seed commit),
reported with the end-to-end metrics.  No workload runs it.

See ``bench/README.md`` for the workloads, the metrics and why.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import random
import select
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracer import LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
EXPECTED_REPORT = BENCH / "expected" / "report.json"
POINCARE_ALG = SRC / "kinexpand" / "data" / "poincare.alg"

# Answers known from the paper, not from the program: ten generators give
# 45 bracket pairs per closure table; the three expansions close and the
# plain-Galilei seed fails against Newton--Hooke, first at [H, P1].
PAIRS_PER_DRIVER = 45
CLOSES = {"theorem1": True, "euclid": True, "theorem2": True, "negative_nh": False}
NEGATIVE_MISMATCH = ["H", "P1"]

# Set-up of expand-warm (import plus one priming round) is repeated in this
# many extra processes so that its median is stable.
WARM_EXTRA_SETUPS = 4
# Past the end of the measured time, a run gets this long to finish.
GRACE_S = 100.0
SLOW_TIMEOUT_S = 1800.0

E2E_UNITS = {"wall_s": "s", "wall_s_tail": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class SampleError(Exception):
    """A sample exited nonzero, timed out or gave a wrong answer."""


# -- child processes -------------------------------------------------------


class Child:
    """One child process started with posix_spawn, reaped with wait4."""

    def __init__(self, argv, stdout, stderr, stdin=None):
        create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(stdout), create, 0o644)
            if isinstance(stdout, Path)
            else (os.POSIX_SPAWN_DUP2, stdout, 1),
            (os.POSIX_SPAWN_OPEN, 2, str(stderr), create, 0o644),
        ]
        if stdin is not None:
            actions.append((os.POSIX_SPAWN_DUP2, stdin, 0))
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)
        argv = [sys.executable, str(WORKER), *argv]
        self.spawned = time.monotonic()
        self.pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
        self.pidfd = os.pidfd_open(self.pid)
        self.status = None
        self.maxrss_kb = None
        self.exited = None

    def wait(self, deadline) -> int:
        """Wait for exit; kill the child at ``deadline`` (monotonic)."""
        timeout = max(0.0, deadline - time.monotonic())
        ready, _, _ = select.select([self.pidfd], [], [], timeout)
        self.exited = time.monotonic()
        if not ready:
            self.kill()
            raise SampleError("timed out")
        return self._reap()

    def _reap(self) -> int:
        _, status, usage = os.wait4(self.pid, 0)
        os.close(self.pidfd)
        self.status = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        return self.status

    def kill(self):
        if self.status is None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()


def setup_time(child: Child, stderr: Path) -> float:
    for line in stderr.read_text(encoding="utf-8").splitlines():
        if line.startswith("bench-setup "):
            return float(line.split()[1]) - child.spawned
    raise SampleError("child never finished set-up")


def cold_sample(args, deadline, trace_file=None) -> dict:
    """One fresh worker process from spawn to exit."""
    out, err = OUT / "child.out", OUT / "child.err"
    argv = [args[0], *(["--trace", str(trace_file)] if trace_file else []), *args[1:]]
    child = Child(argv, out, err)
    try:
        code = child.wait(deadline)
    finally:
        child.kill()
    if code != 0:
        lines = err.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        raise SampleError(f"exit code {code}: {' '.join(lines[-1:])}")
    return {
        "wall_s": child.exited - child.spawned,
        "setup_s": setup_time(child, err),
        "peak_rss_mb": child.maxrss_kb / 1024,
        "stdout": out.read_text(encoding="utf-8"),
    }


# -- correctness -----------------------------------------------------------


def check_drivers(drivers) -> None:
    """Known verdicts for the four expansion drivers (report or summary)."""
    names = [d["name"] for d in drivers]
    if names != list(CLOSES):
        raise SampleError(f"drivers {names}, expected {list(CLOSES)}")
    for d in drivers:
        if d["ok"] is not True:
            raise SampleError(f"driver {d['name']} not ok")
        if d["pairs"] != PAIRS_PER_DRIVER:
            raise SampleError(f"driver {d['name']} checked {d['pairs']} pairs")
        if d["passed"] is not CLOSES[d["name"]]:
            raise SampleError(f"driver {d['name']} closure passed={d['passed']}")
    if NEGATIVE_MISMATCH not in drivers[-1]["mismatches"]:
        raise SampleError(f"negative control lacks mismatch {NEGATIVE_MISMATCH}")


def canonical_report(text: str, seed: int) -> str:
    """The report document without its timings and with the seed blanked.

    ``elapsed_s`` is the only timing in the document.  The seed appears
    twice and is checked, then replaced by null, so one stored copy serves
    every seed.  The parsed document must re-serialise to the exact bytes
    the CLI printed, so comparing the canonical text compares the bytes.
    """
    doc = json.loads(text)
    if json.dumps(doc, indent=2) + "\n" != text:
        raise SampleError("report is not canonical JSON")
    if doc.get("seed") != seed or doc.get("properties", {}).get("seed") != seed:
        raise SampleError("report does not echo the seed")
    doc["seed"] = doc["properties"]["seed"] = None
    for expansion in doc.get("expansions", ()):
        expansion.get("report", {}).pop("elapsed_s", None)
    return json.dumps(doc, indent=2) + "\n"


def check_report(text: str, seed: int, expected: str) -> None:
    canon = canonical_report(text, seed)
    doc = json.loads(text)
    if doc["passed"] is not True:
        raise SampleError("report passed is not true")
    check_drivers(
        [
            {
                "name": e["driver"],
                "ok": e["ok"],
                "passed": e["report"]["passed"],
                "pairs": len(e["report"]["pairs"]),
                "mismatches": e["report"]["mismatches"],
            }
            for e in doc["expansions"]
        ]
    )
    if canon != expected:
        raise SampleError("report differs from the expected copy")


def check_central(text: str) -> None:
    if json.loads(text) != {"central": True, "witness": None}:
        raise SampleError(f"<C2>^n not central: {text.strip()}")


# -- workloads -------------------------------------------------------------


class Results:
    """Samples of one run: walls, set-ups, peaks, failures, layer metrics."""

    def __init__(self, spans_path):
        self.spans_path = spans_path
        self.walls = {False: [], True: []}  # traced? -> wall times
        self.setups = []
        self.peaks = []
        self.layers = []
        self.attempted = 0
        self.failures = []

    def fail(self, exc):
        self.failures.append(str(exc))
        print(f"sample {self.attempted} failed: {exc}", file=sys.stderr)

    def add_spans(self, spans, sample=None):
        """Append the spans one worker process kept in memory until it ended.

        A cold worker is one sample: ``sample`` gives its id.  The
        long-lived worker tags each span with its round.
        """
        with open(self.spans_path, "a", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, round_id in spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "sample": round_id if sample is None else sample,
                }
                fh.write(json.dumps(record) + "\n")


def run_cold(args, check, seconds, trace, results, grace=GRACE_S):
    """report-cold and casimir-power: one fresh process per sample.

    ``check`` raises :class:`SampleError` unless the child's stdout is right.
    """
    end = time.monotonic() + seconds
    deadline = end + grace
    trace_file = OUT / "child.trace.json"
    while time.monotonic() < end or results.attempted == 0:
        traced = bool(trace) and results.attempted % 2 == 0
        results.attempted += 1
        try:
            s = cold_sample(args, deadline, trace_file if traced else None)
            check(s["stdout"])
        except SampleError as exc:
            results.fail(exc)
            if time.monotonic() >= deadline:
                break
            continue
        results.walls[traced].append(s["wall_s"])
        if traced:
            doc = json.loads(trace_file.read_text(encoding="utf-8"))
            results.layers.extend(doc["samples"])
            results.add_spans(doc["spans"], sample=results.attempted - 1)
        else:
            results.setups.append(s["setup_s"])
            results.peaks.append(s["peak_rss_mb"])


def _nonzero(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))


def draw_witnesses(rng) -> dict:
    """Witnesses solved onto the closure constraint varieties.

    Worldline: a1 = -a2*c2/c1, omega = -4*a2^2*c1*c2; c1*c2 > 0 gives the
    poincare target (omega < 0), c1*c2 < 0 the euclid4 one.  Spacetime:
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
    return {d: {k: str(v) for k, v in w.items()} for d, w in out.items()}


def run_warm(seed, seconds, trace, results):
    """expand-warm: rounds of the four drivers in one long-lived process."""
    err = OUT / "child.err"
    deadline = time.monotonic() + seconds + GRACE_S
    for _ in range(0 if trace else WARM_EXTRA_SETUPS):
        child = Child(["warm", "--setup-only"], OUT / "child.out", err)
        try:
            code = child.wait(deadline)
        finally:
            child.kill()
        if code != 0:
            raise SampleError(f"set-up process exited with {code}")
        results.setups.append(setup_time(child, err))
    rng = random.Random(seed)
    trace_file = OUT / "child.trace.json"
    req_r, req_w = os.pipe()
    rep_r, rep_w = os.pipe()
    argv = ["warm", *(["--trace", str(trace_file)] if trace else [])]
    child = Child(argv, rep_w, err, stdin=req_r)
    os.close(req_r)
    os.close(rep_w)
    with os.fdopen(req_w, "w") as requests, os.fdopen(rep_r, "r") as replies:

        def reply():
            timeout = max(0.0, deadline - time.monotonic())
            ready, _, _ = select.select([replies], [], [], timeout)
            return replies.readline() if ready else ""

        try:
            if not reply():
                raise SampleError("worker never finished set-up")
            results.setups.append(setup_time(child, err))
            end = time.monotonic() + seconds
            while time.monotonic() < end:
                traced = bool(trace) and results.attempted % 2 == 0
                request = {
                    "witnesses": draw_witnesses(rng),
                    "trace": traced,
                    "sample": results.attempted,
                }
                requests.write(json.dumps(request) + "\n")
                requests.flush()
                line = reply()
                results.attempted += 1
                if not line:
                    results.fail(SampleError("worker stopped answering"))
                    break
                answer = json.loads(line)
                try:
                    check_drivers(answer["drivers"])
                except SampleError as exc:
                    results.fail(exc)
                    continue
                results.walls[traced].append(answer["wall_s"])
            requests.close()
            if child.wait(deadline) != 0:
                results.fail(SampleError(f"worker exited with {child.status}"))
        finally:
            child.kill()
    results.peaks.append(child.maxrss_kb / 1024)
    if trace and child.status == 0:
        doc = json.loads(trace_file.read_text(encoding="utf-8"))
        results.layers.extend(doc["samples"])
        results.add_spans(doc["spans"])


# -- output ----------------------------------------------------------------

def tail_percentile(n: int) -> int:
    """Highest percentile with at least ten samples beyond it, not below 50."""
    return max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50


def percentile(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(results) -> tuple:
    walls = results.walls[False]
    p = tail_percentile(len(walls))
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": statistics.median(walls) if p == 50 else percentile(walls, p),
        "setup_s": statistics.median(results.setups),
        "peak_rss_mb": statistics.median(results.peaks),
    }
    notes = {
        "wall_s": f"median of {len(walls)} samples",
        "wall_s_tail": f"p{p} of {len(walls)} samples",
        "setup_s": f"median of {len(results.setups)} set-ups",
        "peak_rss_mb": f"median of {len(results.peaks)} processes",
    }
    return metrics, notes


def per_layer(results) -> tuple:
    """Medians over the traced samples, and the tracing overhead."""
    metrics = {
        name: statistics.median_low(s[name] for s in results.layers)
        for name in LAYER_UNITS
    }
    walls = results.walls
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
    metrics["trace.overhead_frac"] = overhead
    return metrics, {**LAYER_UNITS, "trace.overhead_frac": "ratio"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=("report-cold", "expand-warm", "casimir-power")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--slow", action="store_true", help="run the <C2>^3 scaling row"
    )
    args = parser.parse_args(argv)
    if not args.slow and args.workload is None:
        parser.error("--workload is required unless --slow is given")
    if not (SRC / "kinexpand" / "__init__.py").is_file():
        print(f"error: no kinexpand sources under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so that every child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC), quiet=1)
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": args.seed,
        "workload": "scaling-c2-cubed" if args.slow else args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_1m_start": os.getloadavg()[0],
    }
    label = env["workload"] + f"-seed{args.seed}-trace{args.trace}"
    results = Results(OUT / f"{label}-spans.jsonl")
    results.spans_path.unlink(missing_ok=True)
    casimir = ["casimir", str(POINCARE_ALG)]
    try:
        if args.slow:
            # one sample, however long it takes
            run_cold([*casimir, "<C2>^3"], check_central, 0, 0, results, SLOW_TIMEOUT_S)
        elif args.workload == "expand-warm":
            run_warm(args.seed, args.seconds, args.trace, results)
        elif args.workload == "casimir-power":
            run_cold(
                [*casimir, "<C2>^2"], check_central, args.seconds, args.trace, results
            )
        else:
            expected = EXPECTED_REPORT.read_text(encoding="utf-8")
            run_cold(
                ["cli", "--", "--format", "json", "--seed", str(args.seed), "report"],
                lambda stdout: check_report(stdout, args.seed, expected),
                args.seconds,
                args.trace,
                results,
            )
    except SampleError as exc:
        results.attempted = max(1, results.attempted)
        results.fail(exc)
    env["loadavg_1m_end"] = os.getloadavg()[0]

    walls = results.walls
    ok = not results.failures and walls[False] and (walls[True] or not args.trace)
    if ok and args.trace:
        metrics, units = per_layer(results)
        notes = {}
    elif ok:
        metrics, notes = end_to_end(results)
        units = E2E_UNITS
    else:
        metrics, units, notes = {}, {}, {}
    print("env " + json.dumps(env))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value!r} {units[name]}{note}")
    failed = len(results.failures)
    frac = failed / max(1, results.attempted)
    print(f"failed_frac = {frac!r} ({failed} of {results.attempted} samples)")
    result = {
        "correct": bool(ok),
        "attempted": results.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"{label}.json").write_text(
        json.dumps(
            {
                "env": env,
                "result": result,
                "failures": results.failures,
                "samples": {
                    "wall_s": results.walls[False],
                    "wall_s_traced": results.walls[True],
                    "setup_s": results.setups,
                    "peak_rss_mb": results.peaks,
                },
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
