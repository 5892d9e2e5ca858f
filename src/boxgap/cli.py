"""Batch front-end: load or generate graph sequences, run analyses, emit
machine-readable reports.

Outputs are deterministic given the seed: JSON files are written with sorted
keys, the CSV summaries are plain tables, and every output embeds a hash of
the resolved configuration. Wall-clock metadata goes to a separate
run_metadata.json so reruns stay byte-identical. Exit codes: 0 success
(including negative findings), 1 I/O failure, 2 validation failure, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from . import generators
from .cheeger import EXACT_CAP, cheeger_report
from .decompose import KunParams, kun_partition
from .errors import (
    BoxgapError,
    DisconnectedLink,
    EmptyLink,
    NoConvergence,
    NotAnIsomorphism,
)
from .generators import ApproxIsoWitness, PermAction, approx_iso_check, cyclic_action
from .graph import BoxSpace, connected_components, read_manifest, write_manifest
from .rewire import alpha_feasible, expanderize
from .spectral import DENSE_LIMIT, graph_spectrum, markov, spectrum
from .zuk import delta_tau_spectrum, zuk_certificate

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _config_hash(args: argparse.Namespace) -> str:
    # The output directory is where files land, not part of what was
    # computed, so reruns into a fresh directory stay byte-identical.
    payload = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_json(path, obj, config_hash) -> None:
    data = dict(obj)
    data["config_hash"] = config_hash
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows, config_hash) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_metadata(outdir, args, config_hash) -> None:
    meta = {
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "config_hash": config_hash,
        "timestamp": time.time(),
    }
    with open(os.path.join(outdir, "run_metadata.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _prepare(args):
    os.makedirs(args.out, exist_ok=True)
    h = _config_hash(args)
    _write_metadata(args.out, args, h)
    return h


def _pmap(fn, items, workers):
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Commands


def cmd_spectrum(args) -> int:
    box = read_manifest(args.input)
    h = _prepare(args)

    def analyze(item):
        i, g = item
        delta_rep = graph_spectrum(g, tol=args.tol)
        comps = len(connected_components(g))
        k_markov = g.n if g.n <= DENSE_LIMIT else 8
        m_rep = spectrum(
            markov(g, box.d), k=k_markov, tol=args.tol, kernel_dim=0
        ) if g.n else None
        dt_rep = delta_tau_spectrum(g, tol=args.tol)
        payload = {
            "index": i,
            "n": g.n,
            "components": comps,
            "delta": delta_rep.to_dict(),
            "markov": m_rep.to_dict() if m_rep else None,
            "delta_tau": dt_rep.to_dict(),
        }
        return payload

    results = _pmap(analyze, list(enumerate(box.graphs)), args.workers)
    rows = []
    for res in results:
        _write_json(
            os.path.join(args.out, f"spectrum_{res['index']:04d}.json"), res, h
        )
        rows.append([res["index"], res["n"], res["delta"]["gap"]])
    _write_csv(os.path.join(args.out, "summary.csv"), ["index", "n", "gap"], rows, h)
    return EXIT_OK


def cmd_cheeger(args) -> int:
    box = read_manifest(args.input)
    h = _prepare(args)

    def analyze(item):
        i, g = item
        return i, g.n, cheeger_report(g, tol=args.tol, exact_cap=args.exact_cap)

    results = _pmap(analyze, list(enumerate(box.graphs)), args.workers)
    rows = []
    for i, n, rep in results:
        _write_json(
            os.path.join(args.out, f"cheeger_{i:04d}.json"),
            {"index": i, "n": n, **rep.to_dict()},
            h,
        )
        rows.append([i, n, rep.h, rep.method])
    _write_csv(
        os.path.join(args.out, "summary.csv"), ["index", "n", "h", "method"], rows, h
    )
    return EXIT_OK


def _params_for(args, d) -> KunParams:
    return KunParams(c=args.gap, d=d, alpha=args.alpha)


def cmd_decompose(args) -> int:
    box = read_manifest(args.input)
    params = _params_for(args, box.d)
    h = _prepare(args)

    def analyze(item):
        i, g = item
        decomp, cert = kun_partition(g, params, exact_cap=args.exact_cap)
        return i, g.n, decomp, cert

    results = _pmap(analyze, list(enumerate(box.graphs)), args.workers)
    rows = []
    for i, n, decomp, cert in results:
        _write_json(
            os.path.join(args.out, f"decompose_{i:04d}.json"),
            {
                "index": i,
                "n": n,
                "params": params.to_dict(),
                "decomposition": decomp.to_dict(),
                "certificate": cert.to_dict(),
            },
            h,
        )
        rows.append([i, n, cert.junk_ratio, len(decomp.pieces), cert.passed])
    _write_csv(
        os.path.join(args.out, "summary.csv"),
        ["index", "n", "junk_ratio", "pieces", "passed"],
        rows,
        h,
    )
    return EXIT_OK


def cmd_expanderize(args) -> int:
    box = read_manifest(args.input)
    params = _params_for(args, box.d)
    if not args.allow_infeasible_alpha and not alpha_feasible(
        params.alpha, params.C, params.d
    ):
        r = math.ceil(4.0 / params.C)
        print(
            f"alpha={params.alpha} is not below 1/d^(r+1) for r={r}; the "
            "separated-edge selection has no feasibility certificate "
            "(pass --allow-infeasible-alpha to proceed)",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    h = _prepare(args)
    result = expanderize(
        box, params, min_component=args.min_component, exact_cap=args.exact_cap
    )
    graphs_dir = os.path.join(args.out, "graphs")
    write_manifest(result.boxspace, graphs_dir)
    _write_json(
        os.path.join(args.out, "witness.json"), result.witness.to_dict(), h
    )
    rows = []
    for rep in result.reports:
        _write_json(
            os.path.join(args.out, f"expanderize_{rep.index:04d}.json"),
            rep.to_dict(),
            h,
        )
        entry = result.witness.entries[rep.index]
        g = box.graphs[rep.index]
        vr = len(entry.vertices_x) / g.n if g.n else 1.0
        rows.append([rep.index, g.n, len(entry.vertices_x), vr])
    _write_csv(
        os.path.join(args.out, "summary.csv"),
        ["index", "n", "kept", "vertex_ratio"],
        rows,
        h,
    )
    return EXIT_OK


def cmd_rewire(args) -> int:
    # Same pipeline as expanderize, reported per piece without emitting the
    # output box space.
    box = read_manifest(args.input)
    params = _params_for(args, box.d)
    h = _prepare(args)
    result = expanderize(
        box, params, min_component=args.min_component, exact_cap=args.exact_cap
    )
    rows = []
    for rep in result.reports:
        edits = [o["edits"] for o in rep.piece_outcomes]
        _write_json(
            os.path.join(args.out, f"rewire_{rep.index:04d}.json"),
            {
                "index": rep.index,
                "piece_outcomes": rep.piece_outcomes,
                "skipped_pieces": rep.skipped_pieces,
                "edit_log": [e for log in edits for e in log],
            },
            h,
        )
        rows.append(
            [rep.index, len(rep.piece_outcomes), len(rep.skipped_pieces)]
        )
    _write_csv(
        os.path.join(args.out, "summary.csv"),
        ["index", "pieces_rewired", "pieces_skipped"],
        rows,
        h,
    )
    return EXIT_OK


def cmd_zuk(args) -> int:
    box = read_manifest(args.input)
    h = _prepare(args)

    def analyze(item):
        i, g = item
        try:
            cert = zuk_certificate(g, tol=args.tol)
            return i, g.n, cert.to_dict()
        except (DisconnectedLink, EmptyLink) as exc:
            return i, g.n, {
                "valid": False,
                "min_lambda": None,
                "c": None,
                "coverage": None,
                "diagnostic": str(exc),
            }

    results = _pmap(analyze, list(enumerate(box.graphs)), args.workers)
    rows = []
    for i, n, cert in results:
        _write_json(
            os.path.join(args.out, f"zuk_{i:04d}.json"),
            {"index": i, "n": n, **cert},
            h,
        )
        rows.append([i, n, cert["valid"], cert["min_lambda"], cert["c"]])
    _write_csv(
        os.path.join(args.out, "summary.csv"),
        ["index", "n", "valid", "min_lambda", "c"],
        rows,
        h,
    )
    return EXIT_OK


# Graph generation from {family, params, seed} specs.

_GROUPS = {
    "cyclic": lambda spec: generators.CyclicGroup(spec["n"]),
    "product": lambda spec: generators.ProductGroup(spec["moduli"]),
    "sym": lambda spec: generators.SymmetricGroup(spec["k"]),
    "sl2": lambda spec: generators.SL2Prime(spec["p"]),
}


def _generate_one(spec):
    family = spec["family"]
    params = spec.get("params", {})
    seed = spec.get("seed", 0)
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
        group = _GROUPS[params["group"]["kind"]](params["group"])
        gens = params.get("gens")
        if gens == "elementary" and params["group"]["kind"] == "sl2":
            gens = generators.sl2_elementary_generators(params["group"]["p"])
        else:
            gens = [tuple(g) if isinstance(g, list) else g for g in gens]
        return generators.cayley_graph(group, gens)
    if family == "bridged_margulis_pair":
        g = generators.margulis_graph(params["n"])
        return generators.glue_pair(
            g, g, params.get("v1", 0), params.get("v2", 0), d=8
        )
    if family == "glued_expander":
        x_prime = _generate_one(params["x_prime"])
        y = _generate_one(params["y"])
        from .graph import ball

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
    for spec in specs:
        if args.seed is not None:
            spec = {**spec, "seed": spec.get("seed", args.seed)}
        graphs.append(_generate_one(spec))
        labels.append(json.dumps(spec, sort_keys=True))
    d = max((g.degree_bound for g in graphs), default=1)
    box = BoxSpace(graphs=graphs, d=d, labels=labels)
    write_manifest(box, args.out)
    rows = [[i, g.n, g.degree_bound] for i, g in enumerate(graphs)]
    _write_csv(
        os.path.join(args.out, "summary.csv"), ["index", "n", "d"], rows, h
    )
    return EXIT_OK


def cmd_sofic(args) -> int:
    with open(args.input) as fh:
        spec = json.load(fh)
    h = _prepare(args)
    if "action" in spec and spec["action"].get("kind") == "cyclic":
        action = cyclic_action(spec["action"]["m"], spec["action"]["shifts"])
    else:
        action = PermAction(
            m=spec["m"],
            perms={k: tuple(v) for k, v in spec["perms"].items()},
            inverses=spec["inverses"],
            check_inverses=spec.get("check_inverses", True),
        )
    report = generators.sofic_verify(
        action, spec.get("relations", []), spec.get("check_fixed", [])
    )
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


def _add_common(p, needs_input=True):
    if needs_input:
        p.add_argument("--input", required=True, help="manifest or spec file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--exact-cap", dest="exact_cap", type=int, default=EXACT_CAP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxgap", description="Spectral-gap analyses for graph sequences"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="Laplacian / Markov / triangle spectra")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("cheeger", help="exact or sweep Cheeger constants")
    _add_common(p)
    p.set_defaults(func=cmd_cheeger)

    for name, fn in (
        ("decompose", cmd_decompose),
        ("rewire", cmd_rewire),
        ("expanderize", cmd_expanderize),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--gap", type=float, required=True,
                       help="assumed Laplacian gap c")
        p.add_argument("--min-component", dest="min_component", type=int, default=0)
        if name == "expanderize":
            p.add_argument(
                "--allow-infeasible-alpha",
                action="store_true",
                help="run even when alpha >= 1/d^(r+1)",
            )
        p.set_defaults(func=fn)

    p = sub.add_parser("zuk", help="link-graph gap certificates")
    _add_common(p)
    p.set_defaults(func=cmd_zuk)

    p = sub.add_parser("generate", help="emit graphs from {family, params, seed}")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sofic", help="good-set count of a partial action")
    _add_common(p)
    p.set_defaults(func=cmd_sofic)

    p = sub.add_parser("approx-iso", help="verify a matched-subgraph witness")
    _add_common(p)
    p.add_argument("--input2", required=True)
    p.add_argument("--witness", required=True)
    p.add_argument("--tol-ratio", dest="tol_ratio", type=float, default=0.05)
    p.set_defaults(func=cmd_approx_iso)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoConvergence as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FileNotFoundError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except IsADirectoryError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except NotAnIsomorphism as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, KeyError, BoxgapError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
