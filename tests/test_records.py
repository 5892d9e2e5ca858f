"""The JSON form of every result class: a ``Record`` writes its fields by
name, each tuple as a list, and a class that writes something else says
what in its own ``to_dict``. The exceptions are listed here, as in the
README's "File formats" section."""

import dataclasses
import functools
import json

import pytest

import boxgap as bg
from boxgap.cheeger import cheeger_report
from boxgap.generators import ApproxIsoReport
from boxgap.graph import Record
from boxgap.rewire import GraphPipelineReport

# K6 beside C8: two components, so every report has a nontrivial answer.
G = bg.disjoint_union(bg.complete_graph(6), bg.cycle_graph(8), d=5)
PARAMS = bg.KunParams(c=0.2, d=5, alpha=0.3)


@functools.cache
def _pipeline():
    box = bg.BoxSpace(graphs=[G], d=5)
    return box, bg.expanderize(box, PARAMS)


FACTORIES = {
    bg.SpectrumReport: lambda: bg.graph_spectrum(G),
    bg.CheegerReport: lambda: cheeger_report(G),
    bg.Evidence: lambda: bg.piece_evidence(G, range(6)),
    bg.KunParams: lambda: PARAMS,
    bg.Decomposition: lambda: bg.kun_partition(G, PARAMS)[0],
    bg.PartitionCertificate: lambda: bg.kun_partition(G, PARAMS)[1],
    bg.ReplaceOutcome: lambda: bg.replace_step(G, range(6, 14), PARAMS),
    bg.RewireResult: lambda: bg.rewire_piece(G, range(6), 0.5, 0.3),
    GraphPipelineReport: lambda: _pipeline()[1].reports[0],
    bg.ZukCertificate: lambda: bg.zuk_certificate(bg.octahedron()),
    bg.SoficReport: lambda: bg.sofic_verify(bg.cyclic_action(5, [-1, 1]),
                                            [], [["t^1"]]),
    bg.WitnessEntry: lambda: _pipeline()[1].witness.entries[0],
    bg.ApproxIsoWitness: lambda: _pipeline()[1].witness,
    ApproxIsoReport: lambda: bg.approx_iso_check(
        _pipeline()[0], _pipeline()[1].boxspace, _pipeline()[1].witness),
}

# The documented exceptions: (fields left out, keys added in their place).
OVERRIDES = {
    # new_graph is the edited graph itself; the post-removal piece is
    # written as "vertices", leaving "piece" for its decomposition index.
    bg.RewireResult: ({"new_graph", "piece"}, {"vertices"}),
    # A step record names the lemma's sets T and U and spreads the cut.
    bg.ReplaceOutcome: ({"t_set", "cut", "good", "density_t"},
                        {"T", "U", "threshold", "empty_band", "boundary_U",
                         "density_T"}),
}


def test_every_record_is_covered():
    assert set(Record.__subclasses__()) <= set(FACTORIES)


@pytest.mark.parametrize("cls", FACTORIES, ids=lambda cls: cls.__name__)
def test_to_dict_keys_are_the_field_names(cls):
    obj = FACTORIES[cls]()
    assert type(obj) is cls
    dropped, added = OVERRIDES.get(cls, (set(), set()))
    names = {f.name for f in dataclasses.fields(cls)}
    d = obj.to_dict()
    assert set(d) == (names - dropped) | added
    assert not [k for k, v in d.items() if isinstance(v, tuple)]
    json.dumps(d)  # nothing but JSON types
