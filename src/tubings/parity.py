"""Collection parity, even collections, and parity tube subcomplexes.

A *collection* is a subset of the ground set (nodes plus bundle labels).
It is *even* when every connected component holds an even number of its
nodes and every bundle an even number of its labels.  Fixing one node per
component and one label per bundle, every even collection is reached
exactly once from a subset of the remaining ground members by toggling the
fixed members to repair parity; that drives :func:`even_collections`.

For a collection C, the tubes whose representation meets C in an odd
number of members span the odd subcomplex; two further passes confine the
odd tubes to the nodes C touches and then saturate them across bundles C
misses.  The reduced graph of C carries an odd subcomplex of its own, and
:func:`inflate_tube` realizes the isomorphism back to the saturated one.
"""

from __future__ import annotations

import itertools
import math

from .complexes import FaceBudget
from .errors import HostMismatchError, NotEvenError
from .graphs import (
    Collection,
    Designation,
    _admits,
    automorphism_generators,
    reduced_graph,
    restricted_ground,
    touched_nodes,
)
from .tubes import Tube, TubeSystem, compatible


def _require_subset(graph, collection):
    if not collection.issubset_of(graph):
        raise HostMismatchError(
            f"{collection!r} is not a subset of the graph's ground set"
        )


def is_even(graph, collection):
    """Even node count per component and even label count per bundle."""
    _require_subset(graph, collection)
    for comp in graph.component_nodesets():
        if len(collection.nodes & comp) % 2:
            return False
    for b in graph.bundles:
        if len(collection.labels & set(b.labels)) % 2:
            return False
    return True


def meet_parity(tube, collection):
    """'odd' or 'even' size of the tube representation's overlap with the
    collection."""
    _require_subset(tube.host, collection)
    overlap = len(tube.representation() & collection.members())
    return "odd" if overlap % 2 else "even"


class _EvenFamily:
    """Shared machinery for walking all even collections of one graph."""

    def __init__(self, graph, designation=None):
        self.graph = graph
        d = Designation.resolve(graph, designation)
        self.free = restricted_ground(graph, d)
        node_set = set(graph.nodes)
        self.free_nodes = [m for m in self.free if m in node_set]
        self.comp_of = {}
        self.comp_fix = {}
        for comp in graph.component_nodesets():
            fix = next(iter(d.nodes & comp))
            for n in comp:
                self.comp_of[n] = fix
        self.bundle_fix = {}
        for b in graph.bundles:
            fix = next(iter(d.labels & set(b.labels)))
            for lab in b.labels:
                self.bundle_fix[lab] = fix

    def count(self):
        return 1 << len(self.free)

    def collection_at(self, index):
        if not 0 <= index < self.count():
            raise IndexError(f"even-collection index {index} out of range")
        nodes = set()
        labels = set()
        comp_parity = {}
        bundle_parity = {}
        for j, member in enumerate(self.free):
            if not index >> j & 1:
                continue
            if isinstance(member, int):
                nodes.add(member)
                fix = self.comp_of[member]
                comp_parity[fix] = not comp_parity.get(fix, False)
            else:
                labels.add(member)
                fix = self.bundle_fix[member]
                bundle_parity[fix] = not bundle_parity.get(fix, False)
        for fix, odd in comp_parity.items():
            if odd:
                nodes.add(fix)
        for fix, odd in bundle_parity.items():
            if odd:
                labels.add(fix)
        return Collection(frozenset(nodes), frozenset(labels))


def even_collections(graph, designation=None):
    """Every even collection exactly once, the empty collection first."""
    family = _EvenFamily(graph, designation)
    for index in range(family.count()):
        yield family.collection_at(index)


def even_collection_count(graph):
    return _EvenFamily(graph).count()


def even_collection_at(graph, index, designation=None):
    return _EvenFamily(graph, designation).collection_at(index)


# -- parity subcomplexes --------------------------------------------------


def _odd_indices(system, collection):
    cmask = system.collection_mask(collection)
    return [i for i, rm in enumerate(system.repr_masks) if (rm & cmask).bit_count() & 1]


def odd_tube_complex(graph, collection, budget=None, system=None):
    """Subcomplex of the tubing complex on tubes meeting the collection
    oddly."""
    _require_subset(graph, collection)
    if system is None:
        system = TubeSystem(graph, budget)
    return system.complex_on(_odd_indices(system, collection))


def even_tube_complex(graph, collection, budget=None, system=None):
    """Subcomplex of the tubing complex on tubes meeting the collection
    evenly."""
    _require_subset(graph, collection)
    if system is None:
        system = TubeSystem(graph, budget)
    cmask = system.collection_mask(collection)
    idxs = [
        i for i in range(len(system.tubes)) if not system.meet_is_odd(i, cmask)
    ]
    return system.complex_on(idxs)


def _confined_indices(system, collection):
    graph = system.graph
    tmask = system.member_mask(touched_nodes(graph, collection))
    return [
        i
        for i in _odd_indices(system, collection)
        if system.node_masks[i] & ~tmask == 0
    ]


def confined_odd_complex(graph, collection, budget=None, system=None):
    """Odd subcomplex restricted to tubes inside the touched node set."""
    _require_subset(graph, collection)
    if system is None:
        system = TubeSystem(graph, budget)
    return system.complex_on(_confined_indices(system, collection))


def _saturated_indices(system, collection):
    touched = touched_nodes(system.graph, collection)
    constraints = []
    for b in system.graph.bundles:
        if b.u not in touched or b.v not in touched or not collection.labels.isdisjoint(b.labels):
            continue
        ends = system.member_mask((b.u, b.v))
        labs = system.member_mask(b.labels)
        constraints.append((ends, labs))
    out = []
    for i in _confined_indices(system, collection):
        nm = system.node_masks[i]
        rm = system.repr_masks[i]
        ok = True
        for ends, labs in constraints:
            if nm & ends == ends and rm & labs != labs:
                ok = False
                break
        if ok:
            out.append(i)
    return out


def saturated_odd_complex(graph, collection, budget=None, system=None):
    """Confined odd subcomplex with bundle-incomplete tubes dropped.

    A tube is dropped when both endpoints of a bundle the collection
    misses lie inside it but some of that bundle's edges are absent.
    """
    _require_subset(graph, collection)
    if system is None:
        system = TubeSystem(graph, budget)
    return system.complex_on(_saturated_indices(system, collection))


# -- structure of even collections ------------------------------------------


def _component_collections(graph, collection):
    """Split a collection along the components of its touched subgraph."""
    return [
        Collection(
            collection.nodes & comp,
            frozenset(x for x in collection.labels if graph.bundle_of(x).u in comp),
        )
        for comp in graph._components_within(touched_nodes(graph, collection))
    ]


def components_all_even(graph, collection):
    """Whether each component of the touched subgraph holds an even share
    of the collection.  Demands an even collection to begin with."""
    if not is_even(graph, collection):
        raise NotEvenError(f"{collection!r} is not an even collection")
    return all(len(p) % 2 == 0 for p in _component_collections(graph, collection))


def is_admissible(graph, collection):
    """Even, meets every bundle, and holds every bundle-free node.

    Returns False (rather than raising) when the collection is not even a
    subset of the graph's ground set.
    """
    if not collection.issubset_of(graph):
        return False
    if not is_even(graph, collection):
        return False
    bundle_nodes = set()
    for b in graph.bundles:
        bundle_nodes.add(b.u)
        bundle_nodes.add(b.v)
        if not (collection.labels & set(b.labels)):
            return False
    for n in graph.nodes:
        if n not in bundle_nodes and n not in collection.nodes:
            return False
    return True


def admissible_collections(graph, designation=None):
    """Even collections that are admissible, in enumeration order."""
    return [
        c for c in even_collections(graph, designation) if is_admissible(graph, c)
    ]


def has_admissible(graph):
    """Whether the graph has an admissible collection: every component holds
    a bundle end or an even number of nodes."""
    return _admits(graph, graph.nodes)


def collection_orbits(graph, admissible=False):
    """Even collections, or only the admissible ones, up to the graph's
    automorphisms: (representative, weight) pairs, the weights adding up to
    the number of such collections.  A class is a node set plus an even
    count k_b per bundle b, of weight prod C(|b|, k_b); classes that an
    automorphism generator maps onto each other merge."""
    bundles = graph.bundles
    ends = {x for b in bundles for x in (b.u, b.v)}
    fixed = frozenset(v for v in graph.nodes if admissible and v not in ends)
    free = [v for v in graph.nodes if v not in fixed]
    sizes = [len(b.labels) for b in bundles]
    counts = list(itertools.product(*(range(2 * admissible, m + 1, 2) for m in sizes)))
    parent = {}
    for r in range(len(free) + 1):
        for picked in itertools.combinations(free, r):
            nodes = fixed.union(picked)
            if all(len(nodes & comp) % 2 == 0 for comp in graph.component_nodesets()):
                parent.update(((nodes, k), (nodes, k)) for k in counts)

    def find(key):
        while parent[key] != key:
            parent[key] = key = parent[parent[key]]
        return key

    slot = {(b.u, b.v): i for i, b in enumerate(bundles)}
    for g in automorphism_generators(graph):
        to = [slot[tuple(sorted((g[b.u], g[b.v])))] for b in bundles]
        for nodes, k in list(parent):
            image = tuple(k[to.index(i)] for i in range(len(k)))
            parent[find((frozenset(map(g.get, nodes)), image))] = find((nodes, k))
    weights = {}
    for nodes, k in parent:
        root = find((nodes, k))
        weights[root] = weights.get(root, 0) + math.prod(map(math.comb, sizes, k))
    return [
        (Collection(nodes, frozenset(x for b, c in zip(bundles, k) for x in b.labels[:c])), w)
        for (nodes, k), w in weights.items()
    ]


# -- inflation -----------------------------------------------------------


def inflate_tube(tube, graph, collection):
    """Lift a tube of the reduced graph back to the original graph by
    filling in every collapsed bundle lying inside its nodes."""
    labels = set(tube.labels)
    for b in graph.bundles:
        if (
            b.u in tube.nodes
            and b.v in tube.nodes
            and not (set(b.labels) & collection.labels)
        ):
            labels.update(b.labels)
    return Tube(graph, tube.nodes, labels)


def inflation_matches(graph, collection, budget=None, system=None):
    """Check that inflation is an isomorphism from the odd subcomplex of
    the reduced graph onto the saturated odd subcomplex."""
    _require_subset(graph, collection)
    budget = FaceBudget.ensure(budget)
    gamma = reduced_graph(graph, collection)
    gamma_system = TubeSystem(gamma, budget)
    gamma_odd = [
        gamma_system.tubes[i] for i in _odd_indices(gamma_system, collection)
    ]
    inflated = [inflate_tube(t, graph, collection) for t in gamma_odd]
    if len(set(inflated)) != len(inflated):
        return False
    if system is None:
        system = TubeSystem(graph, budget)
    saturated = {system.tubes[i] for i in _saturated_indices(system, collection)}
    if set(inflated) != saturated:
        return False
    for i in range(len(gamma_odd)):
        for j in range(i + 1, len(gamma_odd)):
            before = compatible(gamma_odd[i], gamma_odd[j])
            after = compatible(inflated[i], inflated[j])
            if before != after:
                return False
    return True
