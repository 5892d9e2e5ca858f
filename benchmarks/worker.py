"""One benchmark iteration in a fresh interpreter.

Builds the seeded corpus through the public ``boxgap`` API, writes it as a
manifest, then calls ``boxgap.cli.main(argv)`` once per workload command,
in order, with the default single worker. Each call is timed from outside
the CLI. The report (timings, exit codes, corpus description, peak RSS,
environment and, with ``--trace``, per-layer metrics) is written as JSON to
``<workdir>/report.json``; outputs stay in ``<workdir>`` for the checker.

Usage: python3 benchmarks/worker.py --workload NAME --seed N --workdir DIR
       [--trace] [--setup-only] [--smoke]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_boxgap():
    """Import boxgap from this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, SRC)
    import boxgap
    import boxgap.cli  # noqa: F401  (loaded here so set-up time includes it)

    if os.path.dirname(os.path.dirname(os.path.abspath(boxgap.__file__))) != SRC:
        raise ImportError(f"boxgap imported from {boxgap.__file__}, not {SRC}")
    return boxgap


def corpus_hash(directory: str, manifest: str) -> str:
    """sha256 over the manifest and its edge-list files, in manifest order."""
    digest = hashlib.sha256()
    with open(manifest, "rb") as fh:
        blob = fh.read()
    digest.update(blob)
    for entry in json.loads(blob):
        with open(os.path.join(directory, entry["path"]), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def command_argv(name: str, extra: list, manifest: str, out: str) -> list:
    argv = [name, "--input", manifest, "--out", os.path.join(out, name), *extra]
    if name == "approx-iso":
        produced = os.path.join(out, "expanderize")
        argv += [
            "--input2", os.path.join(produced, "graphs", "manifest.json"),
            "--witness", os.path.join(produced, "witness.json"),
        ]
    return argv


def _git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    boxgap = import_boxgap()
    import corpus

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    corpus_dir = os.path.join(args.workdir, "corpus")
    box = corpus.build(args.workload, args.seed, smoke=args.smoke)
    manifest = boxgap.write_manifest(box, corpus_dir)
    setup_end = time.monotonic()

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "setup_end": setup_end,
        "ops": [],
    }
    if not args.setup_only:
        report["corpus"] = [
            {"label": json.loads(label), "n": g.n, "edges": g.num_edges}
            for g, label in zip(box.graphs, box.labels)
        ]
        report["corpus_hash"] = corpus_hash(corpus_dir, manifest)
        out = os.path.join(args.workdir, "out")
        for name, extra in corpus.commands(args.workload):
            cmd = command_argv(name, extra, manifest, out)
            start = time.perf_counter()
            try:
                code = boxgap.cli.main(cmd)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an uncaught error fails the operation, not the run
                traceback.print_exc()
                code = "uncaught exception"
            seconds = time.perf_counter() - start
            report["ops"].append({"command": name, "argv": cmd, "exit": code,
                                  "seconds": seconds})
        report["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        report["environment"] = environment()
        if tracer is not None:
            report["trace"] = tracer.metrics()

    tmp = os.path.join(args.workdir, "report.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(args.workdir, "report.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
