"""Command-line front end.

Every subcommand reads a graph file, computes, prints text (or JSON with
``--json``), and exits 0 on success, 1 when a mathematical check fails,
2 on bad input, and 3 when a face or search budget runs out.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .complexes import FaceBudget
from .errors import FaceBudgetExceededError, TubingsError
from .graphs import enumerate_reductions
from .io import GraphDocument, parse_collection
from .lattice import delzant_check
from .parity import (
    confined_odd_complex,
    even_tube_complex,
    odd_tube_complex,
    saturated_odd_complex,
)
from .poincare import cross_check, a_polynomial, poincare_brute, poincare_reduced
from .posets import order_complex, parity_subgraph_poset
from .tubes import TubeSystem, enumerate_tubes

_VARIANTS = {
    "odd": odd_tube_complex,
    "even": even_tube_complex,
    "prime": confined_odd_complex,
    "dprime": saturated_odd_complex,
}


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _common_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="print machine-readable JSON instead of text",
    )
    common.add_argument(
        "--face-budget",
        type=int,
        dest="face_budget",
        default=argparse.SUPPRESS,
        help="maximum faces any computation may enumerate",
    )
    return common


@functools.cache
def build_parser():
    """The one parser of the process, built on the first call and never
    changed after: every ``main`` call parses with it."""
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="tubings",
        description="Tubing complexes of graphs with parallel-edge bundles.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = {}  # name: its subparser
    for name, (_, help_) in _COMMANDS.items():
        cmd[name] = p = sub.add_parser(name, parents=[common], help=help_)
        p.add_argument("graph")

    p = cmd["betti"]
    p.add_argument("--collection", required=True, help="comma-separated members")
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="odd")

    cmd["poincare"].add_argument("--method", choices=["reduced", "brute", "both"], default="both")

    p = cmd["verify"]
    p.add_argument(
        "--max-collections",
        type=_positive_int,
        default=None,
        dest="max_collections",
        help="sample at most this many even collections",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for the sample (default 0)")

    p = cmd["order-complex"]
    p.add_argument("--collection", required=True)
    p.add_argument("--parity", choices=["odd", "even"], required=True)
    p.add_argument("--shellable", action="store_true", help="also search for a shelling order")
    p.add_argument(
        "--include-collection",
        action="store_true",
        dest="include_collection",
        help="keep the element whose representation equals the collection",
    )

    return parser


def _cmd_tubes(ns, graph, budget):
    names = [t.name() for t in enumerate_tubes(graph, budget)]
    return {"count": len(names), "tubes": names}, [f"tubes: {len(names)}", *names], 0


def _cmd_complex(ns, graph, budget):
    complex_ = TubeSystem(graph, budget).tubing_complex()
    names = [t.name() for t in complex_.vertices]
    faces = [[t.name() for t in face] for face in complex_.maximal_faces(budget)]
    lines = [f"vertices: {len(names)}", *names, f"maximal faces: {len(faces)}"]
    lines += [" ".join(face) for face in faces]
    return {"vertices": names, "maximal_faces": faces}, lines, 0


def _cmd_betti(ns, graph, budget):
    collection = parse_collection(ns.collection, graph)
    complex_ = _VARIANTS[ns.variant](graph, collection, budget=budget)
    payload = {
        "collection": graph.format_members(collection.members()),
        "variant": ns.variant,
        "vertices": complex_.n_vertices(),
        "betti": complex_.betti_reduced(budget).to_list(),
    }
    return payload, [f"{key}: {value}" for key, value in payload.items()], 0


def _cmd_apoly(ns, graph, budget):
    poly = a_polynomial(graph, budget)
    return {"apoly": poly.to_list()}, [str(poly)], 0


def _cmd_poincare(ns, graph, budget):
    polys = {}
    if ns.method in ("reduced", "both"):
        polys["reduced"] = poincare_reduced(graph, budget)
    if ns.method in ("brute", "both"):
        polys["brute"] = poincare_brute(graph, budget)
    payload = {method: poly.to_list() for method, poly in polys.items()}
    if ns.method != "both":
        return payload, [str(polys[ns.method])], 0
    equal = polys["reduced"] == polys["brute"]
    payload["equal"] = equal
    lines = [f"{method}: {poly}" for method, poly in polys.items()]
    lines.append(f"equal: {'yes' if equal else 'no'}")
    return payload, lines, 0 if equal else 1


def _cmd_verify(ns, graph, budget):
    report = cross_check(
        graph,
        budget=budget,
        seed=ns.seed,
        max_collections=ns.max_collections,
    )
    failures = [
        {
            "check": f.check,
            "collection": None
            if f.collection is None
            else graph.format_members(f.collection.members()),
            "detail": f.detail,
        }
        for f in report.failures
    ]
    reduced, brute = report.poincare_reduced, report.poincare_brute
    payload = {
        "ok": report.ok,
        "sampled": report.sampled,
        "collections": report.collections_checked,
        "reduced": None if reduced is None else reduced.to_list(),
        "brute": None if brute is None else brute.to_list(),
        "failures": failures,
    }
    lines = [f"collections checked: {report.collections_checked}"
             + (" (sampled)" if report.sampled else "")]
    if reduced is not None:
        lines += [f"reduced: {reduced}", f"brute: {brute}"]
    for f in failures:
        where = f["collection"] if f["collection"] is not None else "-"
        lines.append(f"FAIL {f['check']} at {where}: {f['detail']}")
    lines.append(f"ok: {'yes' if report.ok else 'no'}")
    return payload, lines, 0 if report.ok else 1


def _cmd_order_complex(ns, graph, budget):
    collection = parse_collection(ns.collection, graph)
    poset = parity_subgraph_poset(
        graph,
        collection,
        parity=ns.parity,
        exclude_collection=not ns.include_collection,
        budget=budget,
    )
    complex_ = order_complex(poset)
    payload = {
        "collection": graph.format_members(collection.members()),
        "parity": ns.parity,
        "elements": len(poset),
        "betti": complex_.betti_reduced(budget).to_list(),
    }
    lines = [f"{key}: {value}" for key, value in payload.items()]
    exit_code = 0
    if ns.shellable:
        report = complex_.shellable(budget=budget)
        payload["shellable"] = report.status
        payload["expansions"] = report.expansions
        lines.append(f"shellable: {report.status}")
        if report.status == "unknown":
            exit_code = 3
    return payload, lines, exit_code


def _cmd_delzant(ns, graph, budget):
    report = delzant_check(graph, budget=budget)
    failures = [
        {"tubing": list(f.tubing), "reason": f.reason} for f in report.failures
    ]
    payload = {
        "ok": report.ok,
        "tubings": report.tubings_checked,
        "size": report.tubing_size,
        "rank": report.characteristic_rank,
        "expected": report.expected_rank,
        "failures": failures,
    }
    lines = [
        f"tubings: {report.tubings_checked}",
        f"size: {report.tubing_size} (expected {report.expected_rank})",
        f"rank: {report.characteristic_rank} (expected {report.expected_rank})",
    ]
    lines += [f"FAIL {' '.join(f['tubing']) or '-'}: {f['reason']}" for f in failures]
    lines.append(f"ok: {'yes' if report.ok else 'no'}")
    return payload, lines, 0 if report.ok else 1


def _cmd_lessdot(ns, graph, budget):
    reductions = enumerate_reductions(graph)
    items = []
    lines = [f"reductions: {len(reductions)}"]
    for h in reductions:
        items.append(
            {"nodes": list(h.nodes), "edges": [[u, v, lab] for u, v, lab in h.edges]}
        )
        nodes = ",".join(str(n) for n in h.nodes)
        edges = " ".join(
            f"{u}-{v}" + (f":{lab}" if lab else "") for u, v, lab in h.edges
        )
        lines.append(f"nodes {nodes}" + (f" edges {edges}" if edges else ""))
    return {"count": len(reductions), "reductions": items}, lines, 0


# name: (handler, help), in the order the help page lists them
_COMMANDS = {
    "tubes": (_cmd_tubes, "list all tubes"),
    "complex": (_cmd_complex, "tubing complex"),
    "betti": (_cmd_betti, "Betti numbers of a parity subcomplex"),
    "apoly": (_cmd_apoly, "a-polynomial of the graph"),
    "poincare": (_cmd_poincare, "Poincare polynomial"),
    "verify": (_cmd_verify, "cross-check both routes and the supporting identities"),
    "order-complex": (_cmd_order_complex, "order complex of a parity poset"),
    "delzant-check": (_cmd_delzant, "smoothness of all maximal tubings"),
    "lessdot": (_cmd_lessdot, "all reductions of the graph"),
}


def main(argv=None):
    ns = build_parser().parse_args(argv)
    try:
        graph = GraphDocument.from_path(ns.graph).graph
        budget = FaceBudget(getattr(ns, "face_budget", None))
        payload, lines, exit_code = _COMMANDS[ns.command][0](ns, graph, budget)
    except FaceBudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TubingsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(payload) if getattr(ns, "json", False) else "\n".join(lines))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
