"""boxgap benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

A single closed-loop caller runs iterations one after another. Each
iteration is a fresh ``python3 benchmarks/worker.py`` process that imports
``boxgap`` from ``src/``, builds the seeded corpus of the workload through
the public API, writes it as a manifest and calls ``boxgap.cli.main`` once
per workload command with the default single worker. After each iteration
this process checks every output against the corpus (``check.py``).

Workloads (see ``corpus.py``):

- ``scan-large``: Margulis n = 48, 128 and triangular tori m = 48, 96;
  ``spectrum``, ``cheeger``, ``zuk``. Big-graph construction, iterative
  eigensolves, the Fiedler sweep and link certificates; never reaches the
  exhaustive scans or the decomposition.
- ``pipeline``: three bridged Margulis pairs (n = 16, 24, 32) with a junk
  cycle and a random graph each; ``expanderize`` then ``approx-iso`` against
  its own output. Sweep-cut search and K-step Markov smoothing.
- ``exact-cap``: graphs around the 24-vertex exact cap; ``cheeger`` and
  ``expanderize``. Exhaustive bitmask scans and many tiny dense solves.

With ``--trace 0`` iterations repeat while another one fits in ``--seconds``
(at least one), and the medians are reported: ``setup_s`` (interpreter
start, ``import boxgap``, building and writing the corpus, timed from
outside the worker; extra set-up-only workers run until there are at least
five samples), ``total_s`` (all CLI commands after set-up) and
``peak_rss_mb`` (``ru_maxrss`` of the worker).

With ``--trace 1`` untraced and traced iterations alternate in pairs within
the same budget. The traced worker wraps the public functions of every
layer (``tracing.py``) and reports ``<layer>.<fn>.calls``/``.self_s`` and
work counters; ``cli.<command>.wall_s`` are the untraced per-command times
and ``trace.overhead_s`` is traced minus untraced ``total_s``.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
record with the corpus (graphs, n, edges, hash), the seed, the environment,
every sample and every failure. Operations are (graph, command) pairs;
``failed / attempted`` is the failed fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)
import check  # noqa: E402
import tracing  # noqa: E402

DEADLINE_S = 170.0  # a run must end within 180 s
MIN_SETUP_SAMPLES = 5
COMMANDS = ("spectrum", "cheeger", "zuk", "expanderize", "approx-iso")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_iteration(workload: str, seed: int, *, trace: bool = False,
                  setup_only: bool = False, smoke: bool = False,
                  timeout: float = DEADLINE_S) -> dict:
    """One worker process, checked. Returns its report plus ``setup_s``,
    ``total_s``, ``attempted`` and ``failures``."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--workdir", workdir]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--smoke"] * smoke
    try:
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} iteration exceeded {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}): "
                             f"{proc.stderr.strip()[-2000:]}")
        with open(os.path.join(workdir, "report.json")) as fh:
            report = json.load(fh)
        report["setup_s"] = report["setup_end"] - start
        if not setup_only:
            report["total_s"] = sum(op["seconds"] for op in report["ops"])
            report["attempted"] = len(report["ops"]) * len(report["corpus"])
            report["failures"] = check.check_iteration(workdir, report["ops"])
            report["stderr"] = proc.stderr[-2000:]
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _repeat(step, seconds: float, deadline: float) -> list:
    """Call step() while another call fits in the budget; at least once."""
    start = time.monotonic()
    out = []
    while True:
        out.append(step(deadline - time.monotonic()))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(out) > seconds:
            return out


def _cmd_times(report: dict) -> dict:
    times = dict.fromkeys(COMMANDS, 0.0)
    for op in report["ops"]:
        times[op["command"]] += op["seconds"]
    return times


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """(checked iteration reports, metrics, set-up samples) for one run."""
    deadline = time.monotonic() + DEADLINE_S
    med = statistics.median
    if not trace:
        reports = _repeat(
            lambda left: run_iteration(workload, seed, timeout=left),
            seconds, deadline)
        setups = [r["setup_s"] for r in reports]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run_iteration(
                workload, seed, setup_only=True,
                timeout=deadline - time.monotonic())["setup_s"])
        metrics = {
            "setup_s": (med(setups), "s"),
            "total_s": (med(r["total_s"] for r in reports), "s"),
            "peak_rss_mb": (med(r["peak_rss_mb"] for r in reports), "MiB"),
        }
        return reports, metrics, setups

    def pair(left):
        plain = run_iteration(workload, seed, timeout=left)
        traced = run_iteration(workload, seed, trace=True,
                               timeout=deadline - time.monotonic())
        return plain, traced

    pairs = _repeat(pair, seconds, deadline)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    metrics = {}
    for name in tracing.metric_names():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = (med(t["trace"][name] for t in traced), unit)
    cmd_times = [_cmd_times(r) for r in plain]
    for command in COMMANDS:
        metrics[f"cli.{command}.wall_s"] = (med(c[command] for c in cmd_times), "s")
    metrics["trace.overhead_s"] = (
        med(t["total_s"] for t in traced) - med(p["total_s"] for p in plain), "s")
    return plain + traced, metrics, [r["setup_s"] for r in plain + traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "boxgap", "__init__.py")):
        print(f"benchmark: no boxgap sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        reports, metrics, setups = measure(args.workload, args.seed,
                                           args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    hashes = sorted({r["corpus_hash"] for r in reports})
    first = reports[0]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "corpus": first["corpus"],
        "corpus_hash": hashes[0] if len(hashes) == 1 else hashes,
        "environment": first["environment"],
        "iterations": len(reports),
        "samples": [
            {"traced": "trace" in r, "total_s": r["total_s"],
             "setup_s": r["setup_s"], "peak_rss_mb": r["peak_rss_mb"],
             "commands": {op["command"]: [op["exit"], op["seconds"]]
                          for op in r["ops"]}}
            for r in reports
        ],
        "setup_samples": setups,
        "failed_frac": len(failures) / attempted,
        "failures": [list(f) for f in failures[:50]],
        "stderr": sorted({r["stderr"] for r in reports if r["stderr"]})[:5],
    }
    result = {
        # A corpus that differs between iterations of one seed is a defect
        # of the generators, so the run is not correct.
        "correct": not failures and len(hashes) == 1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
