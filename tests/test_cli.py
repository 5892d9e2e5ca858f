import contextlib
import ctypes.util
import json
import math
import multiprocessing
import os
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import boxgap as bg
from boxgap import cli
from boxgap.cli import _json_text, build_parser, main
from boxgap.errors import DegreeExceeded, NoConvergence
from boxgap.exhaustive import MASK_BITS
from boxgap.spectral import DENSE_LIMIT, pinned_spectrum


def make_box(tmp_path, graphs, d, name="box"):
    box = bg.BoxSpace(graphs=graphs, d=d)
    return bg.write_manifest(box, tmp_path / name)


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# config_hash=")
    return lines[1:]


def test_spectrum_complete_graphs(tmp_path):
    manifest = make_box(
        tmp_path, [bg.complete_graph(n) for n in (4, 5, 6)], d=5
    )
    out = tmp_path / "out"
    assert main(["spectrum", "--input", manifest, "--out", str(out)]) == 0
    rows = read_csv(out / "summary.csv")
    assert rows[0] == "index,n,gap"
    gaps = [float(r.split(",")[2]) for r in rows[1:]]
    assert gaps == pytest.approx([4, 5, 6], abs=1e-9)
    data = json.loads((out / "spectrum_0000.json").read_text())
    assert "delta" in data and "markov" in data and "delta_tau" in data
    assert "config_hash" in data


def test_spectrum_markov_lists_each_component_block(tmp_path):
    # Two torus copies above DENSE_LIMIT: each Markov eigenvalue appears in
    # both blocks, so 0.4375 has multiplicity four. The connected Margulis
    # graph keeps the one-block solve of the whole operator.
    torus = bg.triangular_torus(24)
    pair = bg.disjoint_union(torus, torus, d=8)
    margulis = bg.margulis_graph(24)
    assert pair.n > DENSE_LIMIT and margulis.n > DENSE_LIMIT
    manifest = make_box(tmp_path, [pair, margulis], d=8)
    out = tmp_path / "out"
    assert main(["spectrum", "--input", manifest, "--out", str(out)]) == 0
    got = json.loads((out / "spectrum_0000.json").read_text())["markov"]
    want = np.linalg.eigvalsh(bg.markov(pair, 8).toarray())[:8]
    assert np.allclose(got["eigenvalues"], want, rtol=0, atol=1e-9)
    assert np.sum(np.abs(want - 0.4375) <= 1e-9) == 4
    assert got["kernel_dim"] == 0 and got["gap"] == got["eigenvalues"][0]
    whole = bg.spectrum(bg.markov(margulis, 8), k=8, kernel_dim=0).to_dict()
    got = json.loads((out / "spectrum_0001.json").read_text())["markov"]
    assert got == json.loads(json.dumps(whole))


def test_spectrum_markov_record_is_pinned_spectrum_without_kernel(tmp_path):
    # The CLI's Markov report is pinned_spectrum with kernel_dim=0: on a
    # disconnected graph above DENSE_LIMIT, one block at a time.
    torus = bg.triangular_torus(17)
    pair = bg.disjoint_union(torus, torus, d=8)
    assert pair.n > DENSE_LIMIT and len(pair.components) == 2
    manifest = make_box(tmp_path, [pair], d=8)
    out = tmp_path / "out"
    assert main(["spectrum", "--input", manifest, "--out", str(out)]) == 0
    got = json.loads((out / "spectrum_0000.json").read_text())["markov"]
    want = pinned_spectrum(pair, bg.markov(pair, 8), k=8, kernel_dim=0)
    # Each 289-vertex block is small enough for a dense solve of its own.
    assert want.kernel_dim == 0 and want.method == "exact-dense"
    assert got == json.loads(json.dumps(want.to_dict()))


def test_spectrum_empty_manifest(tmp_path):
    mpath = tmp_path / "empty.json"
    mpath.write_text("[]\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--input", str(mpath), "--out", str(out)]) == 0
    assert read_csv(out / "summary.csv") == ["index,n,gap"]


def test_spectrum_malformed_edge_line(tmp_path):
    gpath = tmp_path / "bad.txt"
    gpath.write_text("3 2\n0 1\n1 x\n")
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps([{"path": "bad.txt", "label": None}]))
    assert main(["spectrum", "--input", str(mpath), "--out",
                 str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("kind", ["missing-file", "directory"])
def test_missing_input_is_io_error(tmp_path, kind):
    path = tmp_path / "nope.json"
    if kind == "directory":
        path.mkdir()
    assert main(["spectrum", "--input", str(path),
                 "--out", str(tmp_path / "o")]) == 1


def test_each_subcommand_takes_only_the_flags_it_reads():
    pipeline = {"--exact-cap", "--alpha", "--gap"}
    expected = {
        "spectrum": {"--tol"},
        "zuk": {"--tol"},
        "cheeger": {"--tol", "--exact-cap"},
        "decompose": pipeline,
        "expanderize": pipeline | {"--min-component", "--allow-infeasible-alpha"},
        "generate": {"--seed"},
        "sofic": set(),
        "approx-iso": {"--input2", "--witness", "--tol-ratio"},
    }
    (sub,) = [a for a in build_parser()._actions if a.choices]
    flags = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert flags == {k: v | {"--input", "--out"} for k, v in expected.items()}
    for argv in (["rewire", "--alpha", "0.1", "--gap", "4.0"],
                 ["spectrum", "--workers", "2"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--input", "m.json", "--out", "o"])
        assert exc.value.code == 2


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in readme.split("```sh\n")[1:]:
        body = block.split("```")[0].replace("\\\n", " ")
        commands += [ln for ln in body.splitlines() if ln.startswith("boxgap ")]
    assert len(commands) >= 4
    parser = build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert callable(args.func)


def test_cheeger_command(tmp_path):
    manifest = make_box(tmp_path, [bg.cycle_graph(4), bg.cycle_graph(30)], d=2)
    out = tmp_path / "out"
    assert main(["cheeger", "--input", manifest, "--out", str(out)]) == 0
    rows = read_csv(out / "summary.csv")[1:]
    assert rows[0].split(",")[2:] == ["1.0", "exact"]
    assert rows[1].split(",")[3] == "sweep"


def test_exact_cap_outside_the_mask_width_exits_2(tmp_path, capsys):
    manifest = make_box(tmp_path, [bg.path_graph(MASK_BITS + 1)], d=2)
    out = str(tmp_path / "out")
    for command in ("cheeger", "decompose"):
        for cap in ("-1", str(MASK_BITS + 1), "40"):
            argv = [command, "--input", manifest, "--out", out, "--exact-cap", cap]
            if command == "decompose":
                argv += ["--alpha", "0.3", "--gap", "0.2"]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"argument --exact-cap: must lie in [0, {MASK_BITS}]" in err
    argv = ["cheeger", "--input", manifest, "--out", out, "--exact-cap"]
    assert main([*argv, str(MASK_BITS)]) == 0
    assert read_csv(tmp_path / "out" / "summary.csv")[1].endswith(",sweep")


def test_zuk_command_octahedron_and_c5(tmp_path):
    manifest = make_box(tmp_path, [bg.octahedron(), bg.cycle_graph(5)], d=4)
    out = tmp_path / "out"
    assert main(["zuk", "--input", manifest, "--out", str(out)]) == 0
    octa = json.loads((out / "zuk_0000.json").read_text())
    assert octa["valid"] and abs(octa["c"] - 1.0) < 1e-9
    c5 = json.loads((out / "zuk_0001.json").read_text())
    assert c5["valid"] is False
    assert "diagnostic" in c5


def test_decompose_command(tmp_path):
    g = bg.disjoint_union(bg.complete_graph(6), bg.complete_graph(6))
    manifest = make_box(tmp_path, [g], d=5)
    out = tmp_path / "out"
    assert main([
        "decompose", "--input", manifest, "--out", str(out),
        "--alpha", "0.1", "--gap", "4.0",
    ]) == 0
    data = json.loads((out / "decompose_0000.json").read_text())
    assert len(data["decomposition"]["pieces"]) == 2
    assert data["certificate"]["passed"]


def test_expanderize_feasibility_gate(tmp_path):
    manifest = make_box(tmp_path, [bg.complete_graph(6)], d=5)
    out = tmp_path / "out"
    code = main([
        "expanderize", "--input", manifest, "--out", str(out),
        "--alpha", "0.3", "--gap", "4.0",
    ])
    assert code == 2
    code = main([
        "expanderize", "--input", manifest, "--out", str(out),
        "--alpha", "0.3", "--gap", "4.0", "--allow-infeasible-alpha",
    ])
    assert code == 0


def test_expanderize_identity_output_bytes(tmp_path):
    manifest = make_box(
        tmp_path, [bg.disjoint_union(bg.complete_graph(6), bg.complete_graph(6))],
        d=5,
    )
    out = tmp_path / "out"
    assert main([
        "expanderize", "--input", manifest, "--out", str(out),
        "--alpha", "0.1", "--gap", "4.0", "--allow-infeasible-alpha",
    ]) == 0
    original = (tmp_path / "box" / "graph_0000.txt").read_bytes()
    produced = (out / "graphs" / "graph_0000.txt").read_bytes()
    assert original == produced
    witness = json.loads((out / "witness.json").read_text())
    assert len(witness["entries"]) == 1
    # The per-piece rewiring record lives in the per-index report.
    report = json.loads((out / "expanderize_0000.json").read_text())
    assert [o["piece"] for o in report["piece_outcomes"]] == [0, 1]
    assert [o["vertices"] for o in report["piece_outcomes"]] == [
        list(range(6)), list(range(6, 12))
    ]
    assert all(o["edits"] == [] for o in report["piece_outcomes"])
    assert report["skipped_pieces"] == []


def _results(out):
    """Every result file's bytes; run_metadata.json holds a timestamp."""
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir()) if p.name != "run_metadata.json"
    }


def test_rerun_is_byte_identical(tmp_path):
    # The two torus copies take the iterative eigensolver path.
    torus = bg.triangular_torus(40)
    manifest = make_box(
        tmp_path, [bg.complete_graph(n) for n in (4, 5, 6, 7)] + [torus, torus],
        d=6,
    )
    for cmd in ("spectrum", "cheeger", "zuk"):
        out1, out2 = tmp_path / f"{cmd}1", tmp_path / f"{cmd}2"
        for out in (out1, out2):
            assert main([cmd, "--input", manifest, "--out", str(out)]) == 0
        results = _results(out1)
        assert f"{cmd}_0005.json" in results and results == _results(out2)
        rows = read_csv(out1 / "summary.csv")[1:]
        assert rows[4].split(",")[1:] == rows[5].split(",")[1:]


def test_generate_command(tmp_path):
    spec = [
        {"family": "margulis", "params": {"n": 4}},
        {"family": "octahedron", "params": {}},
        {"family": "cayley",
         "params": {"group": {"kind": "cyclic", "n": 6}, "gens": [1, 5]}},
    ]
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps(spec))
    out = tmp_path / "gen"
    assert main(["generate", "--input", str(spath), "--out", str(out)]) == 0
    box = bg.read_manifest(str(out / "manifest.json"))
    assert box.sizes() == [16, 6, 6]
    assert "margulis" in box.labels[0]


def test_generate_seed_flag(tmp_path):
    glued = {"family": "glued_expander", "params": {
        "x_prime": {"family": "margulis", "params": {"n": 4}},
        "y": {"family": "cycle", "params": {"n": 6}},
        "t_radius": 1,
    }}
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps([glued, {**glued, "seed": 3}]))
    out = tmp_path / "gen"
    assert main(["generate", "--input", str(spath), "--out", str(out),
                 "--seed", "7"]) == 0
    box = bg.read_manifest(str(out / "manifest.json"))
    y = bg.cycle_graph(6)
    t_set = bg.ball(y, 0, 1)
    for seed, g, label in zip((7, 3), box.graphs, box.labels):
        assert g == bg.glued_expander(bg.margulis_graph(4), y, t_set,
                                      seed=seed).graph
        assert json.loads(label)["seed"] == seed
    assert box.graphs[0] != box.graphs[1]


def test_generate_then_expanderize_roundtrip(tmp_path):
    spec = [{"family": "bridged_margulis_pair", "params": {"n": 4}}]
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps(spec))
    gen = tmp_path / "gen"
    assert main(["generate", "--input", str(spath), "--out", str(gen)]) == 0
    out = tmp_path / "exp"
    assert main([
        "expanderize", "--input", str(gen / "manifest.json"), "--out", str(out),
        "--alpha", "0.3", "--gap", "0.5", "--allow-infeasible-alpha",
    ]) == 0
    assert (out / "summary.csv").exists()


def test_sofic_command(tmp_path):
    spec = {
        "action": {"kind": "cyclic", "m": 13, "shifts": [-2, -1, 1, 2]},
        "relations": [[["t^1"], ["t^1"], ["t^2"]]],
        "check_fixed": [["t^1"], ["t^2"]],
    }
    spath = tmp_path / "sofic.json"
    spath.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["sofic", "--input", str(spath), "--out", str(out)]) == 0
    rep = json.loads((out / "sofic.json").read_text())
    assert rep["epsilon"] == 0.0


# Malformed JSON entries are validation failures (exit 2) that name the
# entry, not uncaught TypeErrors.
_WITNESS_ENTRY = {"vertices_x": [0, 1], "vertices_x2": [0, 1], "edges_x": [[0, 1]]}


def _cayley(group, gens):
    return {"family": "cayley", "params": {"group": group, "gens": gens}}


@pytest.mark.parametrize("spec, names", [
    ({"family": "cayley", "params": {"group": {"kind": "cyclic", "n": 5}}},
     "params.gens"),
    ([["cycle", 5]], "spec 0"),
    ({"family": "cycle", "params": {"n": "8"}}, "params.n"),
    ({"family": "complete", "params": {"n": True}}, "params.n"),
    (_cayley({"kind": "cyclic", "n": 5}, ["x"]), "params.gens[0]"),
    (_cayley({"kind": "cyclic", "n": 5}, [1, False]), "params.gens[1]"),
    (_cayley({"kind": "cyclic", "n": 5}, [[1], [4]]), "params.gens[0]"),
    (_cayley({"kind": "product", "moduli": 5}, [[1]]), "params.group.moduli"),
    (_cayley({"kind": "product", "moduli": [2, "2"]}, [[1, 1]]),
     "params.group.moduli[1]"),
    (_cayley({"kind": "sym", "k": 3}, [[1, 0, 2], 2]), "params.gens[1]"),
    (_cayley({"kind": "sl2", "p": 3}, [[1, 1, 0, "1"]]), "params.gens[0][3]"),
    (_cayley({"kind": "sl2", "p": 3}, "elementry"), "params.gens"),
    # entries that are not group elements in canonical form
    (_cayley({"kind": "cyclic", "n": 5}, [7, 3, 2]), "gens[0] must be a group"),
    (_cayley({"kind": "cyclic", "n": 5}, [1, 4, -1]), "gens[2] must be a group"),
    (_cayley({"kind": "product", "moduli": [2, 2]}, [[1, 1], [1]]),
     "gens[1] must be a group"),
    (_cayley({"kind": "product", "moduli": [2, 3]}, [[1, 3]]),
     "gens[0] must be a group"),
    (_cayley({"kind": "sym", "k": 3}, [[0, 0, 1]]), "gens[0] must be a group"),
    (_cayley({"kind": "sl2", "p": 3}, [[1, 1, 0, 1], [1, 2, 0, 1], [2, 0, 0, 1]]),
     "gens[2] must be a group"),
    # missing keys and unknown kinds name the entry
    (_cayley({"kind": "dihedral", "n": 5}, [1]),
     "params.group.kind must be one of cyclic, product, sym, sl2, "
     "got 'dihedral'"),
    (_cayley({"kind": ["cyclic"], "n": 5}, [1]),
     "params.group.kind must be a string"),
    (_cayley({"n": 5}, [1]), "params.group has no 'kind'"),
    (_cayley({"kind": "cyclic"}, [1]), "params.group has no 'n'"),
    ({"family": "cayley", "params": {"gens": [1]}}, "params has no 'group'"),
    ({"params": {"n": 5}}, "spec 0 has no 'family'"),
    ({"family": "cycle"}, "params has no 'n'"),
    ({"family": "glued_expander", "params": {"x_prime": {"params": {}}}},
     "params.x_prime has no 'family'"),
])
def test_generate_malformed_spec_exits_2(tmp_path, capsys, spec, names):
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps(spec))
    argv = ["generate", "--input", str(spath), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert names in capsys.readouterr().err


_CYCLIC = {"kind": "cyclic", "m": 5, "shifts": [-1, 1]}
_PERMS = {"m": 2, "perms": {"a": [1, 0]}, "inverses": {"a": "a"}}


@pytest.mark.parametrize("spec, names", [
    ({"m": 3, "perms": {"a": 5}, "inverses": {}}, "perms.a"),
    ([1, 2], "sofic spec"),
    ({**_PERMS, "relations": [5]}, "relations[0]"),
    ({**_PERMS, "relations": [[["a"], ["a"]]]}, "relations[0] must hold 3 words"),
    ({**_PERMS, "relations": [[["a"], ["a"], "a"]]}, "relations[0][2]"),
    ({**_PERMS, "check_fixed": [["a", 1]]}, "check_fixed[0][1]"),
    ({**_PERMS, "check_fixed": "a"}, "check_fixed"),
    ({**_PERMS, "inverses": {"a": ["a"]}}, "inverses.a"),
    ({**_PERMS, "inverses": ["a"]}, "inverses"),
    ({"action": {**_CYCLIC, "shifts": 3}}, "action.shifts"),
    ({"action": {**_CYCLIC, "m": "5"}}, "action.m"),
    ({"action": {**_CYCLIC, "m": 0}}, "m must be positive"),
    ({"action": 5}, "action"),
    ({**_PERMS, "check_inverses": "no"}, "check_inverses must be a boolean"),
    ({**_PERMS, "m": True}, "m must be an integer"),
    ({"perms": {"a": [1, 0]}, "inverses": {"a": "a"}}, "sofic spec has no 'm'"),
    ({"m": 2, "perms": {"a": [1, 0]}}, "sofic spec has no 'inverses'"),
    ({"action": {"kind": "cyclic", "m": 5}}, "action has no 'shifts'"),
])
def test_sofic_malformed_spec_exits_2(tmp_path, capsys, spec, names):
    spath = tmp_path / "sofic.json"
    spath.write_text(json.dumps(spec))
    out = tmp_path / "o"
    argv = ["sofic", "--input", str(spath), "--out", str(out)]
    assert main(argv) == 2
    assert names in capsys.readouterr().err
    assert not (out / "run_metadata.json").exists()


def test_sofic_permutation_spec(tmp_path):
    spec = {**_PERMS, "relations": [[["a"], ["a"], []]], "check_fixed": [["a"]]}
    spath = tmp_path / "sofic.json"
    spath.write_text(json.dumps(spec))
    out = tmp_path / "o"
    assert main(["sofic", "--input", str(spath), "--out", str(out)]) == 0
    assert json.loads((out / "sofic.json").read_text())["epsilon"] == 0.0


@pytest.mark.parametrize("entries, names", [
    ([5], "manifest[0] must be an object"),
    ({}, "manifest must be a list"),
    ([{"label": "x"}], "manifest[0].path must be a string"),
    ([{"path": "graph.txt"}, {"path": 3}], "manifest[1].path must be a string"),
])
@pytest.mark.parametrize("command", ["spectrum", "expanderize"])
def test_malformed_manifest_exits_2(tmp_path, capsys, entries, names, command):
    (tmp_path / "graph.txt").write_text("2 1\n0 1\n")
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(entries))
    argv = [command, "--input", str(mpath), "--out", str(tmp_path / "o")]
    if command == "expanderize":
        argv += ["--alpha", "0.001", "--gap", "0.5"]
    assert main(argv) == 2
    assert names in capsys.readouterr().err


@pytest.mark.parametrize("witness, names", [
    ({"entries": [[0, 1]]}, "entries[0]"),
    ({"entries": [{**_WITNESS_ENTRY, "vertices_x": "01"}]}, "entries[0].vertices_x"),
    ({}, "witness has no 'entries'"),
    ({"entries": [{"vertices_x": [0, 1], "vertices_x2": [0, 1]}]},
     "entries[0] has no 'edges_x'"),
    ({"entries": [{"vertices_x2": [0, 1], "edges_x": [[0, 1]]}]},
     "entries[0] has no 'vertices_x'"),
])
def test_approx_iso_malformed_witness_exits_2(tmp_path, capsys, witness, names):
    manifest = make_box(tmp_path, [bg.path_graph(2)], d=1)
    wpath = tmp_path / "witness.json"
    wpath.write_text(json.dumps(witness))
    argv = ["approx-iso", "--input", manifest, "--input2", manifest,
            "--witness", str(wpath), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert names in capsys.readouterr().err


def test_approx_iso_command(tmp_path):
    manifest = make_box(tmp_path, [bg.cycle_graph(6)], d=2)
    g = bg.cycle_graph(6)
    witness = bg.ApproxIsoWitness(entries=[
        bg.WitnessEntry(tuple(range(6)), tuple(range(6)), tuple(g.edges()))
    ])
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(witness.to_dict()))
    out = tmp_path / "out"
    assert main([
        "approx-iso", "--input", manifest, "--input2", manifest,
        "--witness", str(wpath), "--out", str(out),
    ]) == 0
    rep = json.loads((out / "approx_iso.json").read_text())
    assert rep["verdict"]


def test_approx_iso_corrupted_witness_exit_2(tmp_path):
    manifest = make_box(tmp_path, [bg.cycle_graph(6)], d=2)
    witness = bg.ApproxIsoWitness(entries=[
        bg.WitnessEntry(tuple(range(6)), tuple(range(6)), ((0, 3),))
    ])
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(witness.to_dict()))
    assert main([
        "approx-iso", "--input", manifest, "--input2", manifest,
        "--witness", str(wpath), "--out", str(tmp_path / "o"),
    ]) == 2


@pytest.mark.parametrize("vertices, edge", [
    ((0, 1, 2, 3, 4, 6), (6, 0)),  # a vertex past the graph
    ((-7, 0, 1, 2, 3, 4), (-7, 0)),  # a negative vertex
])
def test_approx_iso_witness_vertex_outside_graph_exit_2(tmp_path, vertices,
                                                        edge):
    manifest = make_box(tmp_path, [bg.cycle_graph(5)], d=2)
    witness = bg.ApproxIsoWitness(entries=[
        bg.WitnessEntry(vertices, vertices, (edge,))
    ])
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(witness.to_dict()))
    assert main([
        "approx-iso", "--input", manifest, "--input2", manifest,
        "--witness", str(wpath), "--out", str(tmp_path / "o"),
    ]) == 2


@pytest.mark.parametrize("fault", ["gives-up", "wrong-vector"])
def test_solver_failure_is_numerical_exit(tmp_path, monkeypatch, fault):
    real_eigsh = spla.eigsh

    def eigsh(*args, **kwargs):
        if fault == "gives-up":
            raise spla.ArpackNoConvergence("no convergence", np.zeros(0),
                                           np.zeros((0, 0)))
        vals, vecs = real_eigsh(*args, **kwargs)
        return vals, vecs[np.random.default_rng(1).permutation(len(vecs))]

    monkeypatch.setattr(spla, "eigsh", eigsh)
    g = bg.triangular_torus(40)  # above the dense-solve limit
    with pytest.raises(NoConvergence):
        bg.cheeger_sweep(g)
    manifest = make_box(tmp_path, [g], d=6)
    assert main(["cheeger", "--input", manifest,
                 "--out", str(tmp_path / "o")]) == 3


def test_metadata_written_separately(tmp_path):
    manifest = make_box(tmp_path, [bg.complete_graph(4)], d=3)
    out = tmp_path / "out"
    main(["spectrum", "--input", manifest, "--out", str(out)])
    meta = json.loads((out / "run_metadata.json").read_text())
    assert "timestamp" in meta and "config_hash" in meta
    assert meta["workers"] == 1
    for record in meta["blas"]:
        assert "openblas" in os.path.basename(record["library"])
        assert record["threads"] in (1, "unpinned")
    report = json.loads((out / "spectrum_0000.json").read_text())
    assert "timestamp" not in report


def test_pin_openblas_without_setter_is_unpinned(tmp_path):
    assert cli._pin_openblas(str(tmp_path / "missing.so")) == "unpinned"
    libc = ctypes.util.find_library("c")
    if libc is not None:
        assert cli._pin_openblas(libc) == "unpinned"


# Worker processes: large graphs are analysed in forked workers, and the
# result files do not depend on how many.

forked = pytest.mark.skipif(
    sys.version_info >= (3, 12)
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers are forked, and not from Python 3.12 on")


def _two_tori_and_k5(tmp_path):
    torus = bg.triangular_torus(40)  # above DENSE_LIMIT
    return make_box(tmp_path, [torus, bg.complete_graph(5), torus], d=6)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block after `seconds`, so a hang fails."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@forked
@pytest.mark.parametrize("argv", [
    ["spectrum"], ["cheeger"], ["zuk"],
    ["decompose", "--alpha", "0.1", "--gap", "0.5"],
])
def test_results_do_not_depend_on_worker_count(tmp_path, monkeypatch, argv):
    manifest = _two_tori_and_k5(tmp_path)
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(cli, "_worker_count", lambda items, w=workers: w)
        out = tmp_path / f"w{workers}"
        with _deadline(30):
            assert main([*argv, "--input", manifest, "--out", str(out)]) == 0
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["workers"] == workers
        results.append(_results(out))
    assert len(results[0]) == 4 and results[0] == results[1]
    assert multiprocessing.active_children() == []


def _fail_in_eigsh(*args, **kwargs):
    raise spla.ArpackNoConvergence("no convergence", np.zeros(0),
                                   np.zeros((0, 0)))


def _fail_with_degree(*args, **kwargs):
    raise DegreeExceeded(1, 5, 4)  # a constructor of several arguments


def _lose_the_worker(*args, **kwargs):
    os._exit(1)  # as if killed from outside: no exception reaches the pool


@forked
@pytest.mark.parametrize("target, name, fault, code, message", [
    (spla, "eigsh", _fail_in_eigsh, 3, "numerical failure"),
    (cli, "graph_spectrum", _fail_with_degree, 2,
     "vertex 1 has degree 5 > bound 4"),
    (cli, "graph_spectrum", _lose_the_worker, 1, "worker failure: "),
])
def test_failure_in_a_worker_exits_and_leaves_no_process(
        tmp_path, monkeypatch, capsys, target, name, fault, code, message):
    manifest = _two_tori_and_k5(tmp_path)
    monkeypatch.setattr(target, name, fault)  # inherited by the forked workers
    monkeypatch.setattr(cli, "_worker_count", lambda items: 2)
    with _deadline(30):
        assert main(["spectrum", "--input", manifest,
                     "--out", str(tmp_path / "o")]) == code
    assert message in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def _fail_first_then_wait(i, item):
    if i == 0:
        raise ValueError("item 0 fails")
    time.sleep(20)


@forked
def test_failure_in_a_worker_does_not_wait_for_the_others():
    # Waiting for the other items would take 40 s.
    start = time.monotonic()
    with _deadline(60), pytest.raises(ValueError, match="item 0 fails"):
        with cli._analyses(_fail_first_then_wait, range(4), 2) as results:
            list(results)
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []


def test_worker_count_rule(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    large = bg.cycle_graph(DENSE_LIMIT + 1)
    small = bg.cycle_graph(DENSE_LIMIT)
    forks = (sys.version_info < (3, 12)
             and "fork" in multiprocessing.get_all_start_methods())
    assert cli._worker_count([large] * 3 + [small]) == (3 if forks else 1)
    assert cli._worker_count([large] * 6) == (4 if forks else 1)
    assert cli._worker_count([large, small, small]) == 1
    assert cli._worker_count([small] * 5) == 1
    assert cli._worker_count([]) == 1
    assert cli._worker_count([object()] * 3) == 1  # finished results
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    assert cli._worker_count([large] * 3) == 1


def test_results_do_not_depend_on_blas_threads(tmp_path):
    # Margulis 16 and the m=16 torus are dense-solved Δτ operators whose
    # near-zero kernel entries moved with an unpinned two-thread OpenBLAS.
    m16 = bg.margulis_graph(16)
    pair = bg.disjoint_union(bg.glue_pair(m16, m16, 0, 0, d=8),
                             bg.cycle_graph(20), d=8)
    manifest = make_box(tmp_path, [m16, bg.triangular_torus(16), pair], d=8)
    src = os.path.dirname(os.path.dirname(os.path.abspath(bg.__file__)))
    commands = [
        ["spectrum"], ["zuk"],
        ["expanderize", "--alpha", "0.3", "--gap", "0.2",
         "--allow-infeasible-alpha", "--min-component", "12"],
    ]
    results = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        files = {}
        for argv in commands:
            out = tmp_path / f"{argv[0]}{threads}"
            subprocess.run(
                [sys.executable, "-m", "boxgap.cli", *argv,
                 "--input", manifest, "--out", str(out)],
                env=env, check=True, timeout=120,
            )
            files.update({
                f"{argv[0]}/{p.relative_to(out)}": p.read_bytes()
                for p in out.rglob("*")
                if p.is_file() and p.name != "run_metadata.json"
            })
        results.append(files)
    assert "expanderize/graphs/manifest.json" in results[0]
    assert results[0] == results[1]


# JSON text: the result-file encoder against json.dumps(indent=2, sort_keys=True).

_BIG = 2**70  # above 2**63, beyond any fixed-width integer
_ints = st.integers(min_value=-_BIG, max_value=_BIG)
_floats = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
)
_scalars = st.one_of(st.none(), st.booleans(), _ints, _floats, st.text())
# The encoder's one-join shapes, and near misses that must not take them:
# bools among ints, int lists of other lengths, bool values.
_fast_shapes = st.one_of(
    st.lists(_ints),
    st.lists(_ints | st.booleans()),
    st.lists(st.tuples(_ints, _ints) | st.lists(_ints, min_size=2, max_size=2)),
    st.lists(st.lists(_ints, max_size=3)),
    st.lists(st.lists(_ints | st.booleans(), min_size=2, max_size=2)),
    st.dictionaries(st.text(), _ints | _floats),
    st.dictionaries(st.text(), _ints | _floats | st.booleans()),
)
# Keys of one dict are mutually comparable, as sort_keys needs; a rare
# mixed or unsupported key checks that both encoders raise the same error.
_key_kinds = st.one_of(
    st.just(st.text()),
    st.just(st.one_of(_ints, _floats, st.booleans())),
    st.just(st.none()),
    st.just(st.one_of(st.text(), _ints, st.tuples(_ints))),
)
_unserializable = st.sampled_from([np.int64(3), {1, 2}])


def _containers(children):
    return st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        _key_kinds.flatmap(lambda keys: st.dictionaries(keys, children)),
    )


_json_values = st.recursive(
    st.one_of(_scalars, _fast_shapes), _containers, max_leaves=25
)


def _assert_same_json(obj):
    try:
        want = json.dumps(obj, indent=2, sort_keys=True)
    except TypeError as exc:
        with pytest.raises(TypeError) as got:
            _json_text(obj)
        assert str(got.value) == str(exc)
    else:
        assert _json_text(obj) == want


@settings(max_examples=100, deadline=None)
@given(_json_values)
def test_json_text_matches_json_dumps(obj):
    _assert_same_json(obj)


@settings(max_examples=100, deadline=None)
@given(st.recursive(_unserializable, _containers, max_leaves=5))
def test_json_text_raises_what_json_raises(obj):
    _assert_same_json(obj)


@pytest.mark.parametrize("obj", [np.int64(3), {1, 2}, [1, np.int64(2)],
                                 [[1, np.int64(2)]], {"a": {3}}])
def test_json_text_rejects_numpy_ints_and_sets(obj):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        _json_text(obj)
    _assert_same_json(obj)
