"""Batch front-end: load or generate graph sequences, run analyses, emit
machine-readable reports.

Each subcommand registers only the flags it reads (``_COMMANDS``). The
per-graph commands (spectrum, cheeger, decompose, zuk, expanderize) share one
report loop, ``_report``: the command supplies ``analyze(i, item)``, which
returns the graph's JSON payload and its summary row, and the loop writes
``{command}_{i:04d}.json`` and ``summary.csv``. For spectrum, cheeger,
decompose and zuk the items are the manifest's edge-list files, of which the
parent reads only the header lines: each graph is parsed by the process that
analyses it. Graphs above DENSE_LIMIT are analysed in forked worker
processes (``_worker_count``), largest first; ``main`` pins OpenBLAS to one
thread first, so results do not depend on the worker or BLAS thread count.

Outputs are deterministic given the inputs and flags: JSON files are written
with sorted keys, the CSV summaries are plain tables, and every output embeds
a hash of the resolved configuration, in which input files enter by their
contents. Wall-clock metadata goes to a separate run_metadata.json so reruns
stay byte-identical. Exit codes: 0 success (including negative findings), 1
I/O failure or a worker process lost, 2 validation failure, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import functools
import hashlib
import json
import math
import multiprocessing
import os
import sys
import time
from concurrent.futures import BrokenExecutor
from itertools import chain, starmap
from typing import NamedTuple

from . import generators
from .cheeger import cheeger_report
from .decompose import KunParams, kun_partition
from .errors import BoxgapError, DisconnectedLink, NoConvergence
from .generators import ApproxIsoWitness, PermAction, approx_iso_check, cyclic_action
from .graph import (
    BoxSpace,
    _ROW_BLOCK,
    _manifest_entries,
    _read_header,
    _Spec,
    ball,
    connected_components,
    expect,
    expect_items,
    read_edge_list,
    read_manifest,
    write_manifest,
)
from .rewire import alpha_feasible, expanderize, separation_radius
from .spectral import DENSE_LIMIT, graph_spectrum, markov, spectrum
from .zuk import delta_tau_spectrum, zuk_certificate

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# Commands whose --input is a spec file; every other --input is a manifest.
_SPEC_INPUT = ("generate", "sofic")


def _file_digest(path, manifest: bool) -> str:
    """Hex sha256 of the bytes of the file at path, followed for a manifest
    by those of each edge-list file it lists, in manifest order."""
    digest = hashlib.sha256()
    paths = [path] + ([p for p, _ in _manifest_entries(path)] if manifest else [])
    for p in paths:
        with open(p, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _config_hash(args: argparse.Namespace) -> str:
    # The output directory is where files land, not part of what was
    # computed, so reruns into a fresh directory stay byte-identical. Input
    # files enter by their contents, not their paths, so one input gives one
    # hash wherever it lies.
    payload = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")
    }
    is_manifest = {"input": args.command not in _SPEC_INPUT, "input2": True,
                   "witness": False}
    for key, manifest in is_manifest.items():
        if key in payload:
            payload[key] = _file_digest(payload[key], manifest)
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _key_text(key) -> str:
    """A dict key coerced to a string and encoded, as json does both. A
    string key is encoded as a string value is, without the one-item dict."""
    if isinstance(key, str):
        return json.dumps(key)
    return json.dumps({key: 0})[1:-4]


_SCALAR_TYPES = {str, type(None), bool, int, float}


def _json_chunks(obj, level: int = 0):
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)``, as a stream of
    pieces.

    json's indented encoder runs in pure Python, one generator step per
    value, while its C encoder runs only without ``indent``. A container
    whose values are all scalars has no nesting, so one C-encoder call with
    the item separator ``","`` plus the newline and indent gives its body,
    and json itself sorts, coerces keys and raises (where the C module is
    missing, json's Python encoder gives the same text). A list or tuple of
    2-int lists or tuples (an edge list) yields one ``%`` format per block
    of _ROW_BLOCK pairs, so no string is made per pair and no piece holds
    more than a block; ``%d`` prints an exact int as json does. Any other
    container yields its brackets, separators and keys and recurses, so no
    piece holds the text of a nested container. A cyclic container raises
    RecursionError where json raises ValueError.
    """
    if not isinstance(obj, (list, tuple, dict)):
        yield json.dumps(obj)
        return
    inner = "\n" + "  " * (level + 1)
    sep = "," + inner
    is_dict = isinstance(obj, dict)
    opening, closing = "{}" if is_dict else "[]"
    types = set(map(type, obj.values() if is_dict else obj))
    if types <= _SCALAR_TYPES:
        text = json.dumps(obj, sort_keys=True, separators=(sep, ": "))
        yield (opening + inner + text[1:-1] + inner[:-2] + closing
               if obj else text)
        return
    if is_dict:
        items = sorted(obj.items())
        values = [v for _, v in items]
    else:
        values = obj
    yield opening + inner
    if (not is_dict and types <= {list, tuple} and set(map(len, obj)) == {2}
            and set(map(type, chain.from_iterable(obj))) == {int}):
        deeper = inner + "  "
        pair = "[" + deeper + "%d," + deeper + "%d" + inner + "]"
        for lo in range(0, len(obj), _ROW_BLOCK):
            if lo:
                yield sep
            rows = obj[lo:lo + _ROW_BLOCK]
            yield sep.join([pair] * len(rows)) % tuple(chain.from_iterable(rows))
    else:
        for j, v in enumerate(values):
            if j:
                yield sep
            if is_dict:
                yield _key_text(items[j][0]) + ": "
            yield from _json_chunks(v, level + 1)
    yield inner[:-2] + closing


def _write_json(path, obj, config_hash) -> None:
    data = dict(obj)
    data["config_hash"] = config_hash
    with open(path, "w") as fh:
        fh.writelines(_json_chunks(data))
        fh.write("\n")


def _write_csv(path, header, rows, config_hash) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_metadata(outdir, args, config_hash, workers) -> None:
    meta = {
        "blas": list(_pin_blas()),
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "config_hash": config_hash,
        "timestamp": time.time(),
        "workers": workers,
    }
    with open(os.path.join(outdir, "run_metadata.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _prepare(args, workers=1):
    os.makedirs(args.out, exist_ok=True)
    h = _config_hash(args)
    _write_metadata(args.out, args, h, workers)
    return h


# OpenBLAS's C thread-count functions: as numpy's (64-bit interface) and
# scipy's bundled copies name them, then as a plain build names them.
_OPENBLAS_THREADS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


def _pin_openblas(path):
    """Set the OpenBLAS at path to one thread. Returns the count read back,
    or "unpinned" where the library cannot be opened or exports no setter
    and getter."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return "unpinned"
    for name in _OPENBLAS_THREADS:
        setter = getattr(lib, name.format("set"), None)
        getter = getattr(lib, name.format("get"), None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter(1)
            return getter()
    return "unpinned"


@functools.cache
def _pin_blas() -> tuple:
    """Pin every OpenBLAS loaded in this process to one thread, once.

    One thread makes dense results independent of the machine's core count
    and lets one worker process per CPU run without oversubscription.
    Returns a {"library", "threads"} record (see _pin_openblas) per library
    found in /proc/self/maps, and none where that file does not exist.
    """
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        fields = []
    paths = sorted({f[5].strip() for f in fields
                    if len(f) == 6 and "openblas" in os.path.basename(f[5])})
    return tuple({"library": path, "threads": _pin_openblas(path)}
                 for path in paths)


class _GraphFile(NamedTuple):
    """A manifest's edge-list file and its header's vertex count n and
    degree bound d. The graph itself is read by the process analysing it."""

    path: str
    n: int
    d: int


def _graph_files(manifest) -> tuple:
    """(the _GraphFile of each manifest entry, the largest header d). That d,
    1 for no graphs, is read_manifest's degree bound, since a graph's
    degree bound is its header d."""
    files = [_GraphFile(path, *_read_header(path))
             for path, _ in _manifest_entries(manifest)]
    return files, max((f.d for f in files), default=1)


def _size(item) -> int:
    """A _report item's vertex count: a _GraphFile's header n, else 0 (a
    finished result)."""
    return item.n if isinstance(item, _GraphFile) else 0


def _worker_count(items) -> int:
    """Worker processes for _report's items: one per graph file above
    DENSE_LIMIT, at most one per CPU.

    Smaller graphs take less time than starting a worker, and other items
    are finished results. Workers are forked, so there are none where fork
    is missing, nor from Python 3.12 on, where forking a process that has
    threads (OpenBLAS keeps some) warns.
    """
    if (sys.version_info >= (3, 12)
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    large = sum(_size(item) > DENSE_LIMIT for item in items)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(large, cpus))


_task = None  # (analyze, items) inside a worker process of _analyses


def _start_worker(analyze, items) -> None:
    # Runs in the forked child, which inherits analyze and items as they are:
    # nothing is pickled but indices and results.
    global _task
    _task = (analyze, items)


def _run_task(i):
    analyze, items = _task
    return analyze(i, items[i])


@contextlib.contextmanager
def _analyses(analyze, items, workers):
    """Yield analyze(i, item) for every item in index order, computed in
    `workers` forked processes when that is 2 or more.

    The pool takes the items largest first (_size; ties by index), so the
    slowest graph does not start last while the other workers idle (Graham's
    LPT rule); the results still come in index order. A worker that dies,
    even one killed from outside, makes reading the next pending result
    raise BrokenProcessPool at once. On any exception the workers are
    terminated, so the items they hold are not waited for. When the block
    ends, queued items are cancelled and the pool is shut down; no worker
    outlives the block.
    """
    if workers < 2:
        yield starmap(analyze, enumerate(items))
        return
    # Imported here, so that a serial run does not pay for it.
    from concurrent.futures import ProcessPoolExecutor

    others = set(multiprocessing.active_children())  # not this pool's workers
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               _start_worker, (analyze, items))
    try:
        order = sorted(range(len(items)), key=lambda i: -_size(items[i]))
        futures = {i: pool.submit(_run_task, i) for i in order}
        yield (futures[i].result() for i in range(len(items)))
    except BaseException:
        # shutdown() alone would wait for the items the workers already hold.
        for proc in set(multiprocessing.active_children()) - others:
            proc.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)


def _report(args, name, items, analyze, header) -> str:
    """Write {name}_{i:04d}.json for each item and summary.csv, one row per
    item, where analyze(i, item) returns (JSON payload, summary row).

    An item is a _GraphFile, which analyze reads itself, or a finished
    result. Large graphs are analysed in parallel (_worker_count), largest
    first (_analyses); the files are written here, in index order, so they
    do not depend on the worker count or order, and an item that fails,
    a malformed edge-list body included, leaves the files of those before
    it.

    Returns the configuration hash, for any further files of the command.
    """
    workers = _worker_count(items)
    h = _prepare(args, workers)
    rows = []
    with _analyses(analyze, items, workers) as results:
        for i, (payload, row) in enumerate(results):
            _write_json(os.path.join(args.out, f"{name}_{i:04d}.json"),
                        payload, h)
            rows.append(row)
    _write_csv(os.path.join(args.out, "summary.csv"), header, rows, h)
    return h


# ---------------------------------------------------------------------------
# Commands


def cmd_spectrum(args) -> int:
    files, d = _graph_files(args.input)

    def analyze(i, item):
        g = read_edge_list(item.path)
        delta_rep = graph_spectrum(g, tol=args.tol)
        k_markov = g.n if g.n <= DENSE_LIMIT else 8
        # The Markov operator has no kernel to pin. Like the Laplacian, it is
        # solved one component at a time above DENSE_LIMIT, so a value
        # shared by components is listed per copy.
        m_rep = spectrum(
            g, markov(g, d), k_markov, args.tol, kernel_dim=0
        ) if g.n else None
        payload = {
            "index": i,
            "n": g.n,
            "components": len(connected_components(g)),
            "delta": delta_rep.to_dict(),
            "markov": m_rep.to_dict() if m_rep else None,
            "delta_tau": delta_tau_spectrum(g, tol=args.tol).to_dict(),
        }
        return payload, [i, g.n, delta_rep.gap]

    _report(args, "spectrum", files, analyze, ["index", "n", "gap"])
    return EXIT_OK


def cmd_cheeger(args) -> int:
    files, _ = _graph_files(args.input)

    def analyze(i, item):
        g = read_edge_list(item.path)
        rep = cheeger_report(g, tol=args.tol)
        return {"index": i, "n": g.n, **rep.to_dict()}, [i, g.n, rep.h, rep.method]

    _report(args, "cheeger", files, analyze, ["index", "n", "h", "method"])
    return EXIT_OK


def cmd_decompose(args) -> int:
    files, d = _graph_files(args.input)
    params = KunParams(c=args.gap, d=d, alpha=args.alpha)

    def analyze(i, item):
        g = read_edge_list(item.path)
        decomp, cert = kun_partition(g, params)
        payload = {
            "index": i,
            "n": g.n,
            "params": params.to_dict(),
            "decomposition": decomp.to_dict(),
            "certificate": cert.to_dict(),
        }
        return payload, [i, g.n, cert.junk_ratio, len(decomp.pieces), cert.passed]

    _report(args, "decompose", files, analyze,
            ["index", "n", "junk_ratio", "pieces", "passed"])
    return EXIT_OK


def cmd_expanderize(args) -> int:
    box = read_manifest(args.input)
    params = KunParams(c=args.gap, d=box.d, alpha=args.alpha)
    if not args.allow_infeasible_alpha and not alpha_feasible(
        params.alpha, params.C, params.d
    ):
        r = separation_radius(params.C)
        print(
            f"alpha={params.alpha} is not below 1/d^(r+1) for r={r}; the "
            "separated-edge selection has no feasibility certificate "
            "(pass --allow-infeasible-alpha to proceed)",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    result = expanderize(box, params, min_component=args.min_component)

    def analyze(i, rep):
        n = box.graphs[i].n
        kept = len(result.witness.entries[i].vertices_x)
        return rep.to_dict(), [i, n, kept, kept / n if n else 1.0]

    h = _report(args, "expanderize", result.reports, analyze,
                ["index", "n", "kept", "vertex_ratio"])
    write_manifest(result.boxspace, os.path.join(args.out, "graphs"))
    _write_json(
        os.path.join(args.out, "witness.json"), result.witness.to_dict(), h
    )
    return EXIT_OK


def cmd_zuk(args) -> int:
    files, _ = _graph_files(args.input)

    def analyze(i, item):
        g = read_edge_list(item.path)
        try:
            cert = zuk_certificate(g).to_dict()
        except DisconnectedLink as exc:
            cert = {
                "valid": False,
                "all_links_connected": False,
                "min_lambda": None,
                "c": None,
                "coverage": None,
                "diagnostic": str(exc),
            }
        payload = {"index": i, "n": g.n, **cert}
        return payload, [i, g.n, cert["valid"], cert["min_lambda"], cert["c"]]

    _report(args, "zuk", files, analyze,
            ["index", "n", "valid", "min_lambda", "c"])
    return EXIT_OK


# Graph generation from {family, params, seed} specs.

_GROUPS = {
    "cyclic": lambda spec: generators.CyclicGroup(spec["n"]),
    "product": lambda spec: generators.ProductGroup(
        expect_items(spec["moduli"], int, "params.group.moduli")),
    "sym": lambda spec: generators.SymmetricGroup(spec["k"]),
    "sl2": lambda spec: generators.SL2Prime(spec["p"]),
}


def _spec_object(value, what):
    """value as a _Spec if it is an object whose size and vertex entries are
    integers."""
    value = _Spec(value, what)
    for key in ("n", "m", "k", "p", "v1", "v2", "t_center", "t_radius"):
        if key in value:
            expect(value[key], int, f"{what}.{key}")
    return value


def _generate_one(spec, what):
    spec = _Spec(spec, what)
    family = spec["family"]
    params = _spec_object(spec.get("params", {}), "params")
    seed = expect(spec.get("seed", 0), int, "seed")
    if family == "margulis":
        return generators.margulis_graph(params["n"])
    if family == "complete":
        return generators.complete_graph(params["n"])
    if family == "cycle":
        return generators.cycle_graph(params["n"])
    if family == "path":
        return generators.path_graph(params["n"])
    if family == "octahedron":
        return generators.octahedron()
    if family == "triangular_torus":
        return generators.triangular_torus(params["m"])
    if family == "cayley":
        group_spec = _spec_object(params["group"], "params.group")
        kind = expect(group_spec["kind"], str, "params.group.kind")
        if kind not in _GROUPS:
            raise ValueError(f"params.group.kind must be one of "
                             f"{', '.join(_GROUPS)}, got {kind!r}")
        group = _GROUPS[kind](group_spec)
        gens = params.get("gens")
        if gens == "elementary" and kind == "sl2":
            gens = generators.sl2_elementary_generators(group_spec["p"])
        elif kind == "cyclic":
            expect_items(gens, int, "params.gens")
        else:
            gens = [tuple(expect_items(g, int, f"params.gens[{j}]"))
                    for j, g in enumerate(expect_items(gens, list, "params.gens"))]
        return generators.cayley_graph(group, gens)
    if family == "bridged_margulis_pair":
        g = generators.margulis_graph(params["n"])
        return generators.glue_pair(
            g, g, params.get("v1", 0), params.get("v2", 0), d=8
        )
    if family == "glued_expander":
        x_prime = _generate_one(params["x_prime"], "params.x_prime")
        y = _generate_one(params["y"], "params.y")
        t_set = ball(y, params.get("t_center", 0), params.get("t_radius", 0))
        return generators.glued_expander(x_prime, y, t_set, seed=seed).graph
    raise ValueError(f"unknown family {family!r}")


def cmd_generate(args) -> int:
    with open(args.input) as fh:
        specs = json.load(fh)
    if not isinstance(specs, list):
        specs = [specs]
    h = _prepare(args)
    graphs = []
    labels = []
    for i, spec in enumerate(specs):
        expect(spec, dict, f"spec {i}")
        if args.seed is not None:
            spec = {**spec, "seed": spec.get("seed", args.seed)}
        graphs.append(_generate_one(spec, f"spec {i}"))
        labels.append(json.dumps(spec, sort_keys=True))
    d = max((g.degree_bound for g in graphs), default=1)
    box = BoxSpace(graphs=graphs, d=d, labels=labels)
    write_manifest(box, args.out)
    rows = [[i, g.n, g.degree_bound] for i, g in enumerate(graphs)]
    _write_csv(
        os.path.join(args.out, "summary.csv"), ["index", "n", "d"], rows, h
    )
    return EXIT_OK


def _words(value, what) -> list:
    """value if it is a list of words, each a list of generator labels."""
    for j, word in enumerate(expect(value, list, what)):
        expect_items(word, str, f"{what}[{j}]")
    return value


def cmd_sofic(args) -> int:
    with open(args.input) as fh:
        spec = _Spec(json.load(fh), "sofic spec")
    if "action" in spec:
        act = _Spec(spec["action"], "action")
        kind = expect(act["kind"], str, "action.kind")
        if kind != "cyclic":
            raise ValueError(f"action.kind must be 'cyclic', got {kind!r}")
        action = cyclic_action(expect(act["m"], int, "action.m"),
                               expect_items(act["shifts"], int, "action.shifts"))
    else:
        inverses = expect(spec["inverses"], dict, "inverses")
        action = PermAction(
            m=expect(spec["m"], int, "m"),
            perms={k: expect_items(v, int, f"perms.{k}")
                   for k, v in expect(spec["perms"], dict, "perms").items()},
            inverses={k: expect(v, str, f"inverses.{k}")
                      for k, v in inverses.items()},
            check_inverses=expect(spec.get("check_inverses", True), bool,
                                  "check_inverses"),
        )
    relations = expect(spec.get("relations", []), list, "relations")
    for j, triple in enumerate(relations):
        if len(_words(triple, f"relations[{j}]")) != 3:
            raise ValueError(f"relations[{j}] must hold 3 words (g, h, gh), "
                             f"got {len(triple)}")
    check_fixed = _words(spec.get("check_fixed", []), "check_fixed")
    h = _prepare(args)
    report = generators.sofic_verify(action, relations, check_fixed)
    _write_json(os.path.join(args.out, "sofic.json"), report.to_dict(), h)
    return EXIT_OK


def cmd_approx_iso(args) -> int:
    box = read_manifest(args.input)
    box2 = read_manifest(args.input2)
    with open(args.witness) as fh:
        witness = ApproxIsoWitness.from_dict(json.load(fh))
    h = _prepare(args)
    report = approx_iso_check(box, box2, witness, tolerance=args.tol_ratio)
    _write_json(os.path.join(args.out, "approx_iso.json"), report.to_dict(), h)
    rows = [
        [i, r["vertices_x"], r["vertices_x2"], r["edges_x"], r["edges_x2"]]
        for i, r in enumerate(report.ratios)
    ]
    _write_csv(
        os.path.join(args.out, "summary.csv"),
        ["index", "vx", "vx2", "ex", "ex2"],
        rows,
        h,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------


def _float_in(text: str, top: float, rule: str) -> float:
    """text as a finite float in [0, top]; else an argparse error citing
    rule."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(x) and 0 <= x <= top):
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
    return abs(x)  # -0 is written as 0.0


def _tol(text: str) -> float:
    """A --tol value: a finite float, 0 or more."""
    return _float_in(text, math.inf, "finite and >= 0")


def _tol_ratio(text: str) -> float:
    """A --tol-ratio value: a float in [0, 1]."""
    return _float_in(text, 1.0, "in [0, 1]")


# Each flag's definition; a subcommand registers only the flags it reads.
_FLAGS = {
    "--tol": dict(type=_tol, default=1e-9, help="eigensolver tolerance"),
    "--alpha": dict(type=float, required=True),
    "--gap": dict(type=float, required=True, help="assumed Laplacian gap c"),
    "--min-component": dict(type=int, default=0,
                            help="drop output components smaller than this"),
    "--allow-infeasible-alpha": dict(action="store_true",
                                     help="run even when alpha >= 1/d^(r+1)"),
    "--seed": dict(type=int, default=None,
                   help="seed for specs that do not set their own"),
    "--input2": dict(required=True, help="second manifest"),
    "--witness": dict(required=True, help="witness JSON"),
    "--tol-ratio": dict(type=_tol_ratio, default=0.05),
}

_PIPELINE = ("--alpha", "--gap")

_COMMANDS = (
    ("spectrum", cmd_spectrum, "Laplacian / Markov / triangle spectra",
     ("--tol",)),
    ("cheeger", cmd_cheeger, "exact or sweep Cheeger constants",
     ("--tol",)),
    ("decompose", cmd_decompose, "level-set decomposition with certificates",
     _PIPELINE),
    ("expanderize", cmd_expanderize, "decompose, rewire and prune",
     _PIPELINE + ("--min-component", "--allow-infeasible-alpha")),
    ("zuk", cmd_zuk, "link-graph gap certificates", ()),
    ("generate", cmd_generate, "emit graphs from {family, params, seed}",
     ("--seed",)),
    ("sofic", cmd_sofic, "good-set count of a partial action", ()),
    ("approx-iso", cmd_approx_iso, "verify a matched-subgraph witness",
     ("--input2", "--witness", "--tol-ratio")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxgap", description="Spectral-gap analyses for graph sequences"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="manifest or spec file")
        p.add_argument("--out", required=True, help="output directory")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _pin_blas()
    try:
        return args.func(args)
    except NoConvergence as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, BoxgapError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except BrokenExecutor as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
