"""The three workloads: inputs made from a seed, operations, oracles.

A workload's ``prepare(tubings, seed, workdir)`` makes its inputs (set-up,
timed as ``setup_s``); ``rounds(state)`` yields rounds, each a list of
operations.  An operation is ``(call, check)``: ``call()`` runs the program
and is timed, ``check(output)`` compares the output with the oracles and
is not.  Every round of a workload has the same make-up.
"""

import contextlib
import io
import itertools
import json
import random

import oracles

# -- graphs as (nodes, edges) ---------------------------------------------


def path(n):
    return list(range(1, n + 1)), [(i, i + 1, None) for i in range(1, n)]


def complete(n):
    return list(range(1, n + 1)), [(u, v, None) for u, v in itertools.combinations(range(1, n + 1), 2)]


def cycle(n):
    return list(range(1, n + 1)), [(i, i % n + 1, None) for i in range(1, n + 1)]


def star(n):
    """K_1,n: node 1 joined to n leaves."""
    return list(range(1, n + 2)), [(1, i, None) for i in range(2, n + 2)]


def fatten(spec, u, v, labels):
    """Replace the edge u-v by a bundle carrying ``labels``."""
    nodes, edges = spec
    kept = [e for e in edges if {e[0], e[1]} != {u, v}]
    return nodes, kept + [(u, v, lab) for lab in labels]


def connected_family():
    """Criterion 7's family: every pseudograph on nodes 1..n, n <= 4, whose
    underlying simple graph is connected, with at most two bundles of size
    2 or 3, labelled from "abc" and then "def" in edge order."""
    for n in range(1, 5):
        nodes = list(range(1, n + 1))
        pairs = list(itertools.combinations(nodes, 2))
        for r in range(len(pairs) + 1):
            for picked in itertools.combinations(pairs, r):
                if not oracles.connected(nodes, picked):
                    continue
                for k in range(min(2, r) + 1):
                    for fat in itertools.combinations(picked, k):
                        for sizes in itertools.product((2, 3), repeat=k):
                            edges = [(u, v, None) for u, v in picked if (u, v) not in fat]
                            for alphabet, (u, v), size in zip(("abc", "def"), fat, sizes):
                                edges += [(u, v, lab) for lab in alphabet[:size]]
                            yield nodes, edges


def shape_class(spec):
    """Isomorphism class: the edge multiplicities up to node permutation."""
    nodes, edges = spec
    mult = {}
    for u, v, _ in edges:
        mult[(u, v)] = mult.get((u, v), 0) + 1
    best = None
    for perm in itertools.permutations(nodes):
        p = dict(zip(nodes, perm))
        key = tuple(sorted((min(p[u], p[v]), max(p[u], p[v]), c) for (u, v), c in mult.items()))
        if best is None or key < best:
            best = key
    return len(nodes), best


def relabelling(nodes, labels, rng):
    """A map of specs to isomorphic copies with fresh node ids and labels,
    in the same order as the old ones."""
    node_map = dict(zip(sorted(nodes), sorted(rng.sample(range(1, 10**6), len(nodes)))))
    label_map = dict(zip(sorted(labels), sorted(f"x{v:06d}" for v in rng.sample(range(10**6), len(labels)))))

    def apply(spec):
        nodes, edges = spec
        return (
            [node_map[x] for x in nodes],
            [(node_map[u], node_map[v], label_map.get(lab)) for u, v, lab in edges],
        )

    return apply


def _labels(spec):
    return {lab for _, _, lab in spec[1] if lab is not None}


def even_collection(spec, rng):
    """A nonempty collection with an even number of nodes and an even
    number of labels from each bundle (the graph being connected)."""
    nodes, edges = spec
    bundles = {}
    for u, v, lab in edges:
        if lab is not None:
            bundles.setdefault((u, v), []).append(lab)
    while True:
        members = rng.sample(nodes, rng.randrange(0, len(nodes) + 1, 2))
        for labels in bundles.values():
            members += rng.sample(labels, rng.randrange(0, len(labels) + 1, 2))
        if members:
            return members


# -- family4-verify ----------------------------------------------------------

# One graph of each of these classes per round, in this order (edge
# multiplicities up to node permutation; 1 is a plain edge).  Each class has
# 24 labelled members in the family, put once in an order fixed by
# FAMILY_ORDER_SEED; round r takes the r-th of each.  --seed only renames
# nodes and labels, the same way for every graph of a run, so that graphs
# still share reductions as in the family.  Letting the seed pick members or
# order them made runs differ by more than the machine's own drift: members
# of one class differ in cost by up to 1.8x, and the cache of a-polynomials
# charges a shared reduction to whichever graph meets it first.
FAMILY_MAKE_UP = (
    (4, ((1, 2, 1), (1, 3, 3), (3, 4, 3))),  # path, two 3-bundles side by side
    (4, ((1, 2, 1), (1, 3, 2), (2, 4, 3))),  # path, 2- and 3-bundle at the ends
    (4, ((1, 2, 1), (1, 3, 2), (3, 4, 2))),  # path, two 2-bundles side by side
    (4, ((1, 2, 1), (1, 3, 1), (1, 4, 2), (2, 4, 2))),  # paw, two 2-bundles
    (4, ((1, 2, 1), (1, 3, 1), (2, 4, 3))),  # path, one 3-bundle
    (4, ((1, 2, 1), (1, 3, 1), (2, 4, 2))),  # path, one 2-bundle
)
FAMILY_ORDER_SEED = 7
CHECKS = ("routes", "zero", "even-star")


class Family:
    name = "family4-verify"

    def prepare(self, tubings, seed, workdir):
        order = random.Random(FAMILY_ORDER_SEED)
        rename = relabelling([1, 2, 3, 4], "abcdef", random.Random(seed))
        by_class = {}
        for spec in connected_family():
            by_class.setdefault(shape_class(spec), []).append(spec)
        members = []
        for cls in FAMILY_MAKE_UP:
            specs = [rename(spec) for spec in by_class[cls]]
            order.shuffle(specs)
            members.append([(spec, tubings.Pseudograph(*spec)) for spec in specs])
        return {"tubings": tubings, "members": members}

    def rounds(self, state):
        tubings = state["tubings"]
        for r in itertools.count():
            yield [self._op(tubings, spec, g) for spec, g in (m[r % len(m)] for m in state["members"])]

    @staticmethod
    def _op(tubings, spec, g):
        def call():
            return tubings.poincare.cross_check(g, checks=CHECKS)

        def check(report):
            poly = report.poincare_brute.to_list()
            closed = oracles.closed_form_poincare(*spec)
            return (
                report.ok
                and report.poincare_reduced.to_list() == poly
                and oracles.at_minus_one(poly) == oracles.manifold_euler(*spec)
                and closed in (None, poly)
            )

        return call, check


# -- ladder --------------------------------------------------------------------

# Smaller rungs than P10 and K8: one pass over those two by both routes
# takes about 85 s.
LADDER = (
    ("P9", path(9)),
    ("K7", complete(7)),
    ("3-path with a 6-edge bundle", fatten(path(3), 1, 2, "abcdef")),
    ("K6 with a 2-edge bundle", fatten(complete(6), 1, 2, "ab")),
)


class Ladder:
    name = "ladder"

    def prepare(self, tubings, seed, workdir):
        return {"tubings": tubings, "seed": seed}

    def rounds(self, state):
        tubings = state["tubings"]
        rng = random.Random(state["seed"])
        expected = [(oracles.closed_form_poincare(*spec), oracles.manifold_euler(*spec)) for _, spec in LADDER]
        while True:
            ops = []
            for (_, spec), (closed, euler) in zip(LADDER, expected):
                g = tubings.Pseudograph(*relabelling(spec[0], _labels(spec), rng)(spec))
                brute = {}
                for route in ("poincare_brute", "poincare_reduced"):
                    ops.append(self._op(tubings, route, g, closed, euler, brute))
            yield ops

    @staticmethod
    def _op(tubings, route, g, closed, euler, brute):
        """``brute`` carries the brute route's answer to the reduced one."""

        def call():
            return getattr(tubings.poincare, route)(g)

        def check(poly):
            poly = poly.to_list()
            agree = brute.setdefault("poly", poly) == poly
            return agree and oracles.at_minus_one(poly) == euler and closed in (None, poly)

        return call, check


# -- cli-queries ----------------------------------------------------------------

CLI_GRAPHS = {
    "bundle-path3": fatten(path(3), 1, 2, "ab"),
    "bundle-cycle4": fatten(cycle(4), 1, 2, "ab"),
    "k4-bundle2": fatten(complete(4), 1, 2, "ab"),
    "k4-bundle3": fatten(complete(4), 1, 2, "abc"),
    "bundle-path4": fatten(fatten(path(4), 1, 2, "ab"), 3, 4, "cd"),
    "p6": path(6),
    "k5": complete(5),
}
APOLY_GRAPHS = {
    "p4": path(4), "p6": path(6), "k4": complete(4), "k6": complete(6),
    "c4": cycle(4), "c6": cycle(6), "star3": star(3), "star5": star(5),
}
VARIANT_FUNCTIONS = {
    "odd": "odd_tube_complex",
    "even": "even_tube_complex",
    "prime": "confined_odd_complex",
    "dprime": "saturated_odd_complex",
}
# Criterion 6's 4-cycle, where the shelling search settles (on "no").
SHELLABLE = ("bundle-cycle4", [1, 2, 3, 4, "a", "b"])


def _serialize(spec):
    nodes, edges = spec
    lines = [f"node {x}" for x in nodes]
    lines += [f"edge {u} {v}" + (f" {lab}" if lab else "") for u, v, lab in edges]
    return "\n".join(lines) + "\n"


class CliQueries:
    name = "cli-queries"

    def prepare(self, tubings, seed, workdir):
        files = {}
        for name, spec in itertools.chain(CLI_GRAPHS.items(), APOLY_GRAPHS.items()):
            path_ = workdir / f"{name}.graph"
            path_.write_text(_serialize(spec))
            files[name] = str(path_)
        return {"tubings": tubings, "seed": seed, "files": files, "euler_cache": {}}

    def rounds(self, state):
        state["graph_oracles"] = {
            name: (
                len(oracles.tubes(*spec)),
                oracles.polytope_dimension(*spec),
                oracles.manifold_euler(*spec),
                oracles.closed_form_poincare(*spec),
            )
            for name, spec in CLI_GRAPHS.items()
        }
        rng = random.Random(state["seed"])
        files = state["files"]
        shell_graph, shell_members = SHELLABLE
        while True:
            ops = []
            for name, spec in CLI_GRAPHS.items():
                f = files[name]
                ops.append(self._op(state, ["tubes", f, "--json"], ("tubes", name)))
                ops.append(self._op(state, ["delzant-check", f, "--json"], ("delzant", name)))
                for variant in VARIANT_FUNCTIONS:
                    members = even_collection(spec, rng)
                    argv = ["betti", f, "--collection", _members(members), "--variant", variant, "--json"]
                    ops.append(self._op(state, argv, ("betti", name, variant, members)))
                ops.append(self._op(state, ["poincare", f, "--json"], ("poincare", name)))
                for parity in ("odd", "even"):
                    members = even_collection(spec, rng)
                    argv = ["order-complex", f, "--collection", _members(members), "--parity", parity, "--json"]
                    ops.append(self._op(state, argv, ("order", name, parity, members)))
            for name in rng.sample(sorted(APOLY_GRAPHS), 2):
                ops.append(self._op(state, ["apoly", files[name], "--json"], ("apoly", name)))
            for parity in ("odd", "even"):
                argv = ["order-complex", files[shell_graph], "--collection", _members(shell_members),
                        "--parity", parity, "--shellable", "--json"]
                ops.append(self._op(state, argv, ("order", shell_graph, parity, shell_members)))
            rng.shuffle(ops)
            yield ops

    @staticmethod
    def _op(state, argv, query):
        tubings = state["tubings"]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = tubings.cli.main(argv)
            return code, out.getvalue()

        def check(output):
            code, text = output
            if code != 0:
                return False
            return _check_query(state, query, json.loads(text))

        return call, check


def _members(members):
    return ",".join(str(m) for m in members)


def _check_query(state, query, payload):
    kind, name = query[0], query[1]
    if kind == "apoly":
        return payload["apoly"] == oracles.closed_form_apoly(*APOLY_GRAPHS[name])
    tube_count, dim, euler, closed = state["graph_oracles"][name]
    if kind == "tubes":
        return payload["count"] == tube_count == len(payload["tubes"])
    if kind == "delzant":
        return payload["ok"] and payload["size"] == payload["rank"] == payload["expected"] == dim
    if kind == "poincare":
        poly = payload["brute"]
        return (
            payload["equal"]
            and payload["reduced"] == poly
            and oracles.at_minus_one(poly) == euler
            and closed in (None, poly)
        )
    betti = payload["betti"]
    if oracles.reduced_euler(betti) != _api_euler(state, query):
        return False
    if "shellable" in payload:
        # a shellable complex is a wedge of spheres of one dimension
        settled = payload["shellable"] in ("yes", "no")
        return settled and (payload["shellable"] == "no" or sum(1 for b in betti if b) <= 1)
    return True


def _api_euler(state, query):
    """Reduced Euler characteristic of the queried complex, counted from
    its faces through the library rather than from the printed ranks."""
    cache = state["euler_cache"]
    key = repr(query)
    if key not in cache:
        tubings = state["tubings"]
        kind, name, how, members = query
        g = tubings.Pseudograph(*CLI_GRAPHS[name])
        c = tubings.Collection.of(g, members)
        if kind == "betti":
            complex_ = getattr(tubings.parity, VARIANT_FUNCTIONS[how])(g, c)
        else:
            complex_ = tubings.posets.order_complex(tubings.posets.parity_subgraph_poset(g, c, parity=how))
        cache[key] = complex_.euler_reduced()
    return cache[key]


WORKLOADS = {w.name: w for w in (Family(), Ladder(), CliQueries())}
