"""Per-layer spans and counts, recorded by wrapping public functions.

Nothing here touches the ``boxgap`` sources: each listed function is replaced
by a timing wrapper in every ``boxgap`` module that holds the original object
(``from .x import y`` binds the same function under several modules), and
the numpy/scipy eigensolver entry points are wrapped on their own modules,
under the layer name ``linalg``. A span's self time is its duration minus
the durations of the wrapped spans it directly contains.

Spans are aggregated in memory as they close (calls and self time per
function), so a traced run of 10^5 calls stays small; ``Tracer.metrics``
returns every metric name, with zero for layers the workload never reached.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# Layer (module) -> public functions wrapped, in reporting order.
LAYERS = {
    "graph": ("build_graph", "induced_subgraph", "connected_components",
              "boundary_edges", "ball_of_set", "read_manifest",
              "write_manifest", "disjoint_union"),
    "spectral": ("laplacian", "markov", "spectrum", "power_iterate"),
    "linalg": ("eigsh", "eigh", "eigvalsh"),
    "cheeger": ("cheeger_exact", "cheeger_sweep", "second_eigenvalue",
                "inner_expansion_exact"),
    "exhaustive": ("min_ratio_subset", "min_sparse_subset"),
    "decompose": ("kun_partition", "find_sparse_cut", "markov_level_set",
                  "level_set_cut", "certify_partition"),
    "rewire": ("expanderize", "rewire_piece", "select_separated_edges"),
    "zuk": ("zuk_certificate", "link_graph", "link_lambda1",
            "triangle_counts", "delta_tau", "delta_tau_spectrum"),
    "generators": ("margulis_graph", "triangular_torus", "glue_pair",
                   "approx_iso_check"),
    "cli": ("main",),
}

# Where the linalg entry points live; boxgap calls them through these
# modules (``np.linalg.eigh``, ``spla.eigsh``), so rebinding there suffices.
LINALG_MODULES = {
    "eigsh": "scipy.sparse.linalg",
    "eigh": "numpy.linalg",
    "eigvalsh": "numpy.linalg",
}

COUNTERS = (
    "exhaustive.subsets",
    "spectral.power_iterate.steps",
    "spectral.spectrum.iterative_calls",
    "linalg.eigsh.dim",
    "decompose.cuts_good",
    "decompose.cuts_bad",
    "rewire.pieces_skipped",
    "rewire.edits",
)


def span_names() -> list:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for span in span_names():
        names += [f"{span}.calls", f"{span}.self_s"]
    return names + list(COUNTERS)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Counters derived from arguments and return values: span -> hook(fn, args,
# kwargs, result) returning {counter: increment}.
def _subsets(fn, args, kwargs, result):
    return {"exhaustive.subsets": 2 ** len(set(_bound(fn, args, kwargs)["region"]))}


def _steps(fn, args, kwargs, result):
    return {"spectral.power_iterate.steps": _bound(fn, args, kwargs)["steps"]}


def _iterative(fn, args, kwargs, result):
    return {"spectral.spectrum.iterative_calls": int(result.method == "iterative")}


def _eigsh_dim(fn, args, kwargs, result):
    return {"linalg.eigsh.dim": _bound(fn, args, kwargs)["A"].shape[0]}


def _cuts(fn, args, kwargs, result):
    steps = result[0].steps
    return {
        "decompose.cuts_good": sum(s["type"] == "good" for s in steps),
        "decompose.cuts_bad": sum(s["type"] == "bad" for s in steps),
    }


def _skipped(fn, args, kwargs, result):
    return {"rewire.pieces_skipped": sum(len(r.skipped_pieces) for r in result.reports)}


def _edits(fn, args, kwargs, result):
    return {"rewire.edits": len(result.edits)}


HOOKS = {
    "exhaustive.min_ratio_subset": _subsets,
    "exhaustive.min_sparse_subset": _subsets,
    "spectral.power_iterate": _steps,
    "spectral.spectrum": _iterative,
    "linalg.eigsh": _eigsh_dim,
    "decompose.kun_partition": _cuts,
    "rewire.expanderize": _skipped,
    "rewire.rewire_piece": _edits,
}


class Tracer:
    """Aggregated spans and counters for one traced process."""

    def __init__(self):
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_s = dict.fromkeys(span_names(), 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._open = []  # per open span: time covered by its wrapped children

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._open.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - children
                if self._open:
                    self._open[-1] += elapsed
            if hook is not None:
                for key, inc in hook(fn, args, kwargs, result).items():
                    self.counts[key] += int(inc)
            return result

        return traced

    def install(self) -> None:
        """Rebind every listed function to its traced wrapper.

        Must run after ``import boxgap`` and before any call that should be
        recorded. The process is expected to exit without uninstalling.
        """
        boxgap_modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "boxgap" or key.startswith("boxgap."))
        ]
        for layer, fns in LAYERS.items():
            for fn_name in fns:
                if layer == "linalg":
                    home = importlib.import_module(LINALG_MODULES[fn_name])
                else:
                    home = importlib.import_module(f"boxgap.{layer}")
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", original)
                setattr(home, fn_name, wrapper)
                for mod in boxgap_modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def metrics(self) -> dict:
        out = {}
        for span in span_names():
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
        out.update(self.counts)
        return out
