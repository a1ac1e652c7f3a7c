"""Per-layer tracing of ``tubings`` from outside the package.

:func:`install` wraps public functions and methods where their callers
look them up (``tubings.complexes.rank_int``, ``tubings.cli._VARIANTS``,
``SimplicialComplex.betti_reduced`` ...).  Every call becomes a span with
its parent, kept in memory; :meth:`Tracer.layer_metrics` turns the spans
and the counters into the per-layer metrics named in ``BENCHMARK.json``.
No file of the package changes.
"""

import json
import sys
import time

# (span name, module, attribute); a dotted attribute is a method.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("io.parse_graph", "io", "parse_graph"),
    ("graphs.enumerate_reductions", "graphs", "enumerate_reductions"),
    ("tubes.TubeSystem", "tubes", "TubeSystem.__init__"),
    ("tubes.complex_on", "tubes", "TubeSystem.complex_on"),
    ("parity.complexes", "parity", "odd_tube_complex"),
    ("parity.complexes", "parity", "confined_odd_complex"),
    ("parity.complexes", "parity", "saturated_odd_complex"),
    ("complexes.betti_reduced", "complexes", "SimplicialComplex.betti_reduced"),
    ("complexes.shellable", "complexes", "SimplicialComplex.shellable"),
    ("intlinalg.rank_int", "_intlinalg", "rank_int"),
    ("intlinalg.det_bareiss", "_intlinalg", "det_bareiss"),
    ("poincare.a_polynomial", "poincare", "a_polynomial"),
    ("poincare.poincare_brute", "poincare", "poincare_brute"),
    ("poincare.poincare_reduced", "poincare", "poincare_reduced"),
    ("poincare.cross_check", "poincare", "cross_check"),
    ("posets.parity_subgraph_poset", "posets", "parity_subgraph_poset"),
    ("posets.order_complex", "posets", "order_complex"),
    ("lattice.delzant_check", "lattice", "delzant_check"),
)

# Per-layer metrics: (name, unit, how it is read off the spans and counters).
# Times and counts are per operation of the workload.
PER_LAYER = (
    ("cli.main.calls", "calls/op", ("calls", "cli.main")),
    ("cli.main.self_s", "s/op", ("self", "cli.main")),
    ("io.parse_graph.calls", "calls/op", ("calls", "io.parse_graph")),
    ("io.parse_graph.s", "s/op", ("total", "io.parse_graph")),
    ("graphs.enumerate_reductions.s", "s/op", ("total", "graphs.enumerate_reductions")),
    ("graphs.reductions", "graphs/op", ("count", "graphs.reductions")),
    ("tubes.TubeSystem.calls", "calls/op", ("calls", "tubes.TubeSystem")),
    ("tubes.TubeSystem.s", "s/op", ("total", "tubes.TubeSystem")),
    ("tubes.tubes", "tubes/op", ("count", "tubes.tubes")),
    ("tubes.complex_on.calls", "calls/op", ("calls", "tubes.complex_on")),
    ("tubes.complex_on.s", "s/op", ("total", "tubes.complex_on")),
    ("tubes.complex_on.vertices", "vertices/op", ("count", "tubes.complex_on.vertices")),
    ("parity.complexes.calls", "calls/op", ("calls", "parity.complexes")),
    ("complexes.betti_reduced.calls", "calls/op", ("calls", "complexes.betti_reduced")),
    ("complexes.betti_reduced.self_s", "s/op", ("self", "complexes.betti_reduced")),
    ("complexes.betti_reduced.nonzero_share", "share", ("share", "complexes.betti_reduced.nonzero")),
    ("complexes.shellable.s", "s/op", ("total", "complexes.shellable")),
    ("intlinalg.rank_int.calls", "calls/op", ("calls", "intlinalg.rank_int")),
    ("intlinalg.rank_int.s", "s/op", ("total", "intlinalg.rank_int")),
    ("intlinalg.rank_int.rows", "rows/op", ("count", "intlinalg.rank_int.rows")),
    ("intlinalg.rank_int.nnz", "entries/op", ("count", "intlinalg.rank_int.nnz")),
    ("intlinalg.rank_int.max_rows", "rows", ("max", "intlinalg.rank_int.rows")),
    ("intlinalg.det_bareiss.calls", "calls/op", ("calls", "intlinalg.det_bareiss")),
    ("poincare.a_polynomial.calls", "calls/op", ("calls", "poincare.a_polynomial")),
    ("poincare.a_polynomial.s", "s/op", ("total", "poincare.a_polynomial")),
    ("poincare.poincare_brute.s", "s/op", ("total", "poincare.poincare_brute")),
    ("poincare.poincare_reduced.s", "s/op", ("total", "poincare.poincare_reduced")),
    ("poincare.cross_check.self_s", "s/op", ("self", "poincare.cross_check")),
    ("posets.parity_subgraph_poset.s", "s/op", ("total", "posets.parity_subgraph_poset")),
    ("posets.order_complex.s", "s/op", ("total", "posets.order_complex")),
    ("lattice.delzant_check.calls", "calls/op", ("calls", "lattice.delzant_check")),
    ("lattice.delzant_check.s", "s/op", ("total", "lattice.delzant_check")),
)


def _count_rank_rows(tracer, args, result):
    rows = args[0]
    tracer.add("intlinalg.rank_int.rows", len(rows))
    tracer.add("intlinalg.rank_int.nnz", sum(len(r) for r in rows))


def _count_tubes(tracer, args, result):
    tracer.add("tubes.tubes", len(args[0].tubes))


def _count_vertices(tracer, args, result):
    tracer.add("tubes.complex_on.vertices", result.n_vertices())


def _count_reductions(tracer, args, result):
    tracer.add("graphs.reductions", len(result))


def _count_nonzero(tracer, args, result):
    tracer.add("complexes.betti_reduced.nonzero", 0 if result.is_zero() else 1)


COUNTERS = {
    "intlinalg.rank_int": _count_rank_rows,
    "tubes.TubeSystem": _count_tubes,
    "tubes.complex_on": _count_vertices,
    "graphs.enumerate_reductions": _count_reductions,
    "complexes.betti_reduced": _count_nonzero,
}


class Tracer:
    """Spans (name, parent index, start, end) and summed counters, recorded
    while ``active`` is set."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.maxima = {}
        self.active = False
        self._open = []

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n
        if n > self.maxima.get(key, 0):
            self.maxima[key] = n

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans = self.spans
        open_ = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, open_[-1] if open_ else -1, clock(), None])
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][3] = clock()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def layer_metrics(self, ops):
        calls, total, own = {}, {}, {}
        for name, parent, start, end in self.spans:
            took = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + took
            own[name] = own.get(name, 0.0) + took
            if parent >= 0:
                pname = self.spans[parent][0]
                own[pname] = own.get(pname, 0.0) - took
        out = {}
        for metric, unit, (kind, key) in PER_LAYER:
            if kind == "calls":
                value = calls.get(key, 0) / ops
            elif kind == "total":
                value = total.get(key, 0.0) / ops
            elif kind == "self":
                value = own.get(key, 0.0) / ops
            elif kind == "count":
                value = self.counts.get(key, 0) / ops
            elif kind == "max":
                value = self.maxima.get(key, 0)
            else:  # share of the calls of the span the counter sits on
                span = key.rsplit(".", 1)[0]
                value = self.counts.get(key, 0) / max(calls.get(span, 0), 1)
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps([name, parent, start, end]) + "\n")


def install(tracer):
    """Wrap every target in the loaded ``tubings`` modules, in module
    namespaces and in module-level dispatch tables alike."""
    modules = [m for k, m in sys.modules.items() if k == "tubings" or k.startswith("tubings.")]
    for name, module, attribute in TARGETS:
        home = sys.modules["tubings." + module]
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, method, tracer.wrap(name, cls.__dict__[method]))
            continue
        original = getattr(home, attribute)
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                elif type(value) is dict:
                    for k, v in value.items():
                        if v is original:
                            value[k] = wrapped
