"""Batch front-end: load or generate graph sequences, run analyses, emit
machine-readable reports.

Each subcommand registers only the flags it reads (``_COMMANDS``). The
per-graph commands (spectrum, cheeger, decompose, zuk, expanderize) share one
report loop, ``_report``: the command supplies ``analyze(i, item)``, which
returns the graph's JSON payload and its summary row, and the loop writes
``{command}_{i:04d}.json`` and ``summary.csv``.

Outputs are deterministic given the inputs and flags: JSON files are written
with sorted keys, the CSV summaries are plain tables, and every output embeds
a hash of the resolved configuration. Wall-clock metadata goes to a separate
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
from itertools import chain, starmap
from json.encoder import encode_basestring_ascii

from . import generators
from .cheeger import EXACT_CAP, cheeger_report
from .decompose import KunParams, kun_partition
from .errors import BoxgapError, DisconnectedLink, EmptyLink, NoConvergence
from .generators import ApproxIsoWitness, PermAction, approx_iso_check, cyclic_action
from .graph import (
    BoxSpace,
    ball,
    connected_components,
    expect,
    expect_items,
    read_manifest,
    write_manifest,
)
from .rewire import alpha_feasible, expanderize, separation_radius
from .spectral import DENSE_LIMIT, graph_spectrum, markov, pinned_spectrum
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


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _scalar_text(x) -> str | None:
    """json's text for a str, None, bool, int or float; None for others."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float_text(x)
    return None


def _key_text(key) -> str:
    """A dict key coerced to a string as json coerces it, then encoded."""
    text = key if isinstance(key, str) else _scalar_text(key)
    if text is None:
        raise TypeError(
            "keys must be str, int, float, bool or None, "
            f"not {key.__class__.__name__}"
        )
    return encode_basestring_ascii(text)


def _json_text(obj, level: int = 0) -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)``, built with one
    ``str.join`` per container.

    json's indented encoder runs in pure Python, one generator step per
    value. Here a list of exact ints, a list of 2-int lists or tuples (edge
    lists) and a dict from str keys to ints and floats are each joined at
    once; everything else recurses. A cyclic container raises
    RecursionError where json raises ValueError.
    """
    text = _scalar_text(obj)
    if text is not None:
        return text
    inner = "\n" + "  " * (level + 1)
    sep = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        types = set(map(type, obj))
        if types == {int}:
            body = sep.join(map(int.__repr__, obj))
        elif (types <= {list, tuple} and set(map(len, obj)) == {2}
              and set(map(type, chain.from_iterable(obj))) == {int}):
            deeper = inner + "  "
            pair = "[" + deeper + "{}," + deeper + "{}" + inner + "]"
            body = sep.join(starmap(pair.format, obj))
        else:
            body = sep.join([_json_text(v, level + 1) for v in obj])
        return "[" + inner + body + inner[:-2] + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted(obj.items())
        if set(map(type, obj)) == {str} and set(map(type, obj.values())) <= {
            int, float
        }:
            body = sep.join([
                encode_basestring_ascii(k) + ": "
                + (int.__repr__(v) if type(v) is int else _float_text(v))
                for k, v in items
            ])
        else:
            body = sep.join([
                _key_text(k) + ": " + _json_text(v, level + 1) for k, v in items
            ])
        return "{" + inner + body + inner[:-2] + "}"
    raise TypeError(
        f"Object of type {obj.__class__.__name__} is not JSON serializable"
    )


def _write_json(path, obj, config_hash) -> None:
    data = dict(obj)
    data["config_hash"] = config_hash
    with open(path, "w") as fh:
        fh.write(_json_text(data))
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


def _report(args, name, items, analyze, header) -> str:
    """Write {name}_{i:04d}.json for each item and summary.csv, one row per
    item, where analyze(i, item) returns (JSON payload, summary row).

    Returns the configuration hash, for any further files of the command.
    """
    h = _prepare(args)
    rows = []
    for i, item in enumerate(items):
        payload, row = analyze(i, item)
        _write_json(os.path.join(args.out, f"{name}_{i:04d}.json"), payload, h)
        rows.append(row)
    _write_csv(os.path.join(args.out, "summary.csv"), header, rows, h)
    return h


# ---------------------------------------------------------------------------
# Commands


def cmd_spectrum(args) -> int:
    box = read_manifest(args.input)

    def analyze(i, g):
        delta_rep = graph_spectrum(g, tol=args.tol)
        k_markov = g.n if g.n <= DENSE_LIMIT else 8
        # Above DENSE_LIMIT one component at a time, as graph_spectrum solves
        # the Laplacian, so a value shared by components is listed per copy.
        m_rep = pinned_spectrum(
            g, markov(g, box.d), k_markov, args.tol, kernel_dim=0
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

    _report(args, "spectrum", box.graphs, analyze, ["index", "n", "gap"])
    return EXIT_OK


def cmd_cheeger(args) -> int:
    box = read_manifest(args.input)

    def analyze(i, g):
        rep = cheeger_report(g, tol=args.tol, exact_cap=args.exact_cap)
        return {"index": i, "n": g.n, **rep.to_dict()}, [i, g.n, rep.h, rep.method]

    _report(args, "cheeger", box.graphs, analyze, ["index", "n", "h", "method"])
    return EXIT_OK


def cmd_decompose(args) -> int:
    box = read_manifest(args.input)
    params = KunParams(c=args.gap, d=box.d, alpha=args.alpha)

    def analyze(i, g):
        decomp, cert = kun_partition(g, params, exact_cap=args.exact_cap)
        payload = {
            "index": i,
            "n": g.n,
            "params": params.to_dict(),
            "decomposition": decomp.to_dict(),
            "certificate": cert.to_dict(),
        }
        return payload, [i, g.n, cert.junk_ratio, len(decomp.pieces), cert.passed]

    _report(args, "decompose", box.graphs, analyze,
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
    result = expanderize(
        box, params, min_component=args.min_component, exact_cap=args.exact_cap
    )

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
    box = read_manifest(args.input)

    def analyze(i, g):
        try:
            cert = zuk_certificate(g, tol=args.tol).to_dict()
        except (DisconnectedLink, EmptyLink) as exc:
            cert = {
                "valid": False,
                "min_lambda": None,
                "c": None,
                "coverage": None,
                "diagnostic": str(exc),
            }
        payload = {"index": i, "n": g.n, **cert}
        return payload, [i, g.n, cert["valid"], cert["min_lambda"], cert["c"]]

    _report(args, "zuk", box.graphs, analyze,
            ["index", "n", "valid", "min_lambda", "c"])
    return EXIT_OK


# Graph generation from {family, params, seed} specs.

_GROUPS = {
    "cyclic": lambda spec: generators.CyclicGroup(spec["n"]),
    "product": lambda spec: generators.ProductGroup(spec["moduli"]),
    "sym": lambda spec: generators.SymmetricGroup(spec["k"]),
    "sl2": lambda spec: generators.SL2Prime(spec["p"]),
}


def _spec_object(value, what):
    """value if it is an object whose size and vertex entries are integers."""
    expect(value, dict, what)
    for key in ("n", "m", "k", "p", "v1", "v2", "t_center", "t_radius"):
        if key in value:
            expect(value[key], int, f"{what}.{key}")
    return value


def _generate_one(spec):
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
        group = _GROUPS[group_spec["kind"]](group_spec)
        gens = params.get("gens")
        if gens == "elementary" and group_spec["kind"] == "sl2":
            gens = generators.sl2_elementary_generators(group_spec["p"])
        else:
            gens = [tuple(g) if isinstance(g, list) else g
                    for g in expect(gens, list, "params.gens")]
        return generators.cayley_graph(group, gens)
    if family == "bridged_margulis_pair":
        g = generators.margulis_graph(params["n"])
        return generators.glue_pair(
            g, g, params.get("v1", 0), params.get("v2", 0), d=8
        )
    if family == "glued_expander":
        x_prime = _generate_one(expect(params["x_prime"], dict, "params.x_prime"))
        y = _generate_one(expect(params["y"], dict, "params.y"))
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


def _words(value, what) -> list:
    """value if it is a list of words, each a list of generator labels."""
    for j, word in enumerate(expect(value, list, what)):
        expect_items(word, str, f"{what}[{j}]")
    return value


def cmd_sofic(args) -> int:
    with open(args.input) as fh:
        spec = expect(json.load(fh), dict, "sofic spec")
    act = expect(spec.get("action", {}), dict, "action")
    if act.get("kind") == "cyclic":
        action = cyclic_action(expect(act["m"], int, "action.m"),
                               expect_items(act["shifts"], int, "action.shifts"))
    else:
        inverses = expect(spec["inverses"], dict, "inverses")
        action = PermAction(
            m=expect(spec["m"], int, "m"),
            perms={k: tuple(expect_items(v, int, f"perms.{k}"))
                   for k, v in expect(spec["perms"], dict, "perms").items()},
            inverses={k: expect(v, str, f"inverses.{k}")
                      for k, v in inverses.items()},
            check_inverses=spec.get("check_inverses", True),
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


# Each flag's definition; a subcommand registers only the flags it reads.
_FLAGS = {
    "--tol": dict(type=float, default=1e-9, help="eigensolver tolerance"),
    "--exact-cap": dict(type=int, default=EXACT_CAP,
                        help="largest vertex count for exhaustive scans"),
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
    "--tol-ratio": dict(type=float, default=0.05),
}

_PIPELINE = ("--exact-cap", "--alpha", "--gap")

_COMMANDS = (
    ("spectrum", cmd_spectrum, "Laplacian / Markov / triangle spectra",
     ("--tol",)),
    ("cheeger", cmd_cheeger, "exact or sweep Cheeger constants",
     ("--tol", "--exact-cap")),
    ("decompose", cmd_decompose, "level-set decomposition with certificates",
     _PIPELINE),
    ("expanderize", cmd_expanderize, "decompose, rewire and prune",
     _PIPELINE + ("--min-component", "--allow-infeasible-alpha")),
    ("zuk", cmd_zuk, "link-graph gap certificates", ("--tol",)),
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


if __name__ == "__main__":
    sys.exit(main())
