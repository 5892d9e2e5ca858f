"""Tests of the benchmark itself: smoke-sized workloads pass the checker,
corrupted outputs are counted as failed, and the traced run reports every
per-layer metric.

Run from the repository root: python -m pytest -q benchmarks
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from corpus import WORKLOADS  # noqa: E402


def _smoke(tmp_path, workload, seed=3):
    """Run one smoke-sized iteration in-process; returns (workdir, report)."""
    workdir = str(tmp_path / workload)
    os.makedirs(workdir)
    assert worker.main(["--workload", workload, "--seed", str(seed),
                        "--workdir", workdir, "--smoke"]) == 0
    with open(os.path.join(workdir, "report.json")) as fh:
        return workdir, json.load(fh)


def _rewrite_json(path, edit):
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_workload_passes_checker(tmp_path, workload):
    workdir, report = _smoke(tmp_path, workload)
    assert [op["exit"] for op in report["ops"]] == [0] * len(report["ops"])
    assert check.check_iteration(workdir, report["ops"]) == []
    assert len(report["corpus_hash"]) == 64
    assert all(g["n"] > 0 and g["edges"] > 0 for g in report["corpus"])


def test_corpus_depends_only_on_seed(tmp_path):
    _, a = _smoke(tmp_path / "a", "exact-cap", seed=5)
    _, b = _smoke(tmp_path / "b", "exact-cap", seed=5)
    _, c = _smoke(tmp_path / "c", "exact-cap", seed=6)
    assert a["corpus_hash"] == b["corpus_hash"] != c["corpus_hash"]
    # The seed relabels vertices only: sizes are the same on every seed.
    assert [(g["n"], g["edges"]) for g in a["corpus"]][:3] == [
        (g["n"], g["edges"]) for g in c["corpus"]
    ][:3]


def test_wrong_h_is_counted_failed(tmp_path):
    workdir, report = _smoke(tmp_path, "exact-cap")
    path = os.path.join(workdir, "out", "cheeger", "cheeger_0000.json")

    def corrupt(rep):
        rep["h"] += 1e-6

    _rewrite_json(path, corrupt)
    failures = check.check_iteration(workdir, report["ops"])
    assert [(c, i) for c, i, _ in failures] == [("cheeger", 0)]


def test_witness_edge_missing_on_one_side_is_counted_failed(tmp_path):
    workdir, report = _smoke(tmp_path, "pipeline")
    base = os.path.join(workdir, "out", "expanderize")
    with open(os.path.join(base, "witness.json")) as fh:
        entry = json.load(fh)["entries"][0]
    vmap = dict(zip(entry["vertices_x"], entry["vertices_x2"]))
    u, v = entry["edges_x"][0]
    gone = {f"{min(vmap[u], vmap[v])} {max(vmap[u], vmap[v])}"}
    graph = os.path.join(base, "graphs", "graph_0000.txt")
    with open(graph) as fh:
        lines = fh.read().splitlines()
    with open(graph, "w") as fh:
        fh.write("\n".join(line for line in lines if line not in gone) + "\n")

    failures = check.check_iteration(workdir, report["ops"])
    assert {(c, i) for c, i, _ in failures} == {("expanderize", 0), ("approx-iso", 0)}
    assert "missing in the output graph" in failures[0][2]


def test_nonzero_exit_fails_every_graph(tmp_path):
    workdir, report = _smoke(tmp_path, "scan-large")
    ops = [dict(op, exit=3) if op["command"] == "zuk" else op for op in report["ops"]]
    failures = check.check_iteration(workdir, ops)
    assert [(c, i) for c, i, _ in failures] == [
        ("zuk", i) for i in range(len(report["corpus"]))
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_reports_every_layer(workload):
    report = run.run_iteration(workload, 3, trace=True, smoke=True, timeout=120)
    assert report["failures"] == []
    metrics = report["trace"]
    assert sorted(metrics) == sorted(tracing.metric_names())
    assert metrics["cli.main.calls"] == len(report["ops"])
    if workload == "scan-large":
        bypassed = [k for k in metrics if k.startswith(("exhaustive.", "decompose."))]
        assert bypassed and all(metrics[k] == 0 for k in bypassed)
    else:
        assert metrics["decompose.kun_partition.calls"] == len(report["corpus"])


def test_self_time_excludes_wrapped_children():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.05)

    wrapped_inner = tracer.wrap("zuk.link_graph", inner)

    def outer():
        wrapped_inner()
        wrapped_inner()

    tracer.wrap("zuk.zuk_certificate", outer)()
    assert tracer.calls["zuk.link_graph"] == 2
    assert tracer.calls["zuk.zuk_certificate"] == 1
    assert tracer.self_s["zuk.link_graph"] >= 0.1
    assert tracer.self_s["zuk.zuk_certificate"] < 0.05


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
