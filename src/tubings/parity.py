"""Collection parity, even collections, and parity tube subcomplexes.

A *collection* is a subset of the ground set (nodes plus bundle labels).
It is *even* when every connected component holds an even number of its
nodes and every bundle an even number of its labels.  A designation pairs
every member m outside it with the designated member of its component or
bundle (:func:`~tubings.graphs._pairing`), and the even collections are the
XORs of these pairs {m, partner(m)}, the rows of the characteristic matrix
Λ: bit j of an index picks the j-th row.  That drives
:func:`even_collections`.

For a collection C, the tubes whose representation meets C in an odd
number of members span the odd subcomplex.  As a tube bitmask it is the
XOR of the tube system's columns over C's members, so the odd masks of the
even collections are the row space of Λ over the tube columns.  Two further
passes confine the odd tubes to the nodes C touches, by dropping the
columns of the other nodes, and then saturate them across bundles C misses.
The reduced graph of C carries an odd subcomplex of its own, and
:func:`inflate_tube` realizes the isomorphism back to the saturated one.
"""

from __future__ import annotations

import itertools
import math

from .complexes import FaceBudget, _bits
from .errors import HostMismatchError, NotEvenError
from .graphs import (
    Collection,
    _pairing,
    _reduction_key,
    _split,
    automorphism_generators,
    reduced_graph,
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
    """The even collections of one graph as ground bitmasks: the one at
    index k is the XOR of the rows of Λ, {member, its partner}, picked by
    the bits of k."""

    def __init__(self, graph, designation=None):
        self.graph = graph
        index = graph.ground_index()
        self.rows = [1 << index[m] | 1 << index[p] for m, p in _pairing(graph, designation)]

    def count(self):
        return 1 << len(self.rows)

    def mask_at(self, index):
        mask = 0
        for j in _bits(index):
            mask ^= self.rows[j]
        return mask

    def collection_at(self, index):
        if not 0 <= index < self.count():
            raise IndexError(f"even-collection index {index} out of range")
        ground = self.graph.ground_members()
        members = [ground[i] for i in _bits(self.mask_at(index))]
        return Collection(
            frozenset(m for m in members if isinstance(m, int)),
            frozenset(m for m in members if isinstance(m, str)),
        )


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


def _odd_tubes(system, members):
    """Bitmask of the tubes meeting the ground bitmask ``members`` oddly:
    the XOR of its columns."""
    odd = 0
    for i in _bits(members):
        odd ^= system.columns[i]
    return odd


def odd_tube_complex(graph, collection, budget=None, system=None):
    """Subcomplex of the tubing complex on tubes meeting the collection
    oddly."""
    _require_subset(graph, collection)
    if system is None:
        system = TubeSystem(graph, budget)
    elif system.graph != graph:
        raise HostMismatchError("the tube system belongs to a different graph")
    return system.complex_on(_odd_tubes(system, system.collection_mask(collection)))


def even_tube_complex(graph, collection, budget=None):
    """Subcomplex of the tubing complex on tubes meeting the collection
    evenly."""
    _require_subset(graph, collection)
    system = TubeSystem(graph, budget)
    odd = _odd_tubes(system, system.collection_mask(collection))
    return system.complex_on((1 << len(system.repr_masks)) - 1 & ~odd)


def _confined_tubes(system, members):
    """The odd tubes of ``members`` inside the nodes it touches: the
    columns of the other nodes are dropped."""
    tubes = _odd_tubes(system, members)
    nodes, _ = _reduction_key(system.graph, members)
    for n in _bits((1 << len(system.graph.nodes)) - 1 & ~nodes):
        tubes &= ~system.columns[n]
    return tubes


def confined_odd_complex(graph, collection, budget=None):
    """Odd subcomplex restricted to tubes inside the touched node set."""
    _require_subset(graph, collection)
    system = TubeSystem(graph, budget)
    return system.complex_on(_confined_tubes(system, system.collection_mask(collection)))


def _saturated_tubes(system, members):
    """The confined odd tubes of ``members`` less, for each bundle it
    misses, the tubes holding both ends but not every label."""
    tubes = _confined_tubes(system, members)
    cols = system.columns
    for ends, labels in system.graph._bundle_masks:
        if not members & labels:
            u, v = _bits(ends)
            whole = cols[u] & cols[v]
            for x in _bits(labels):
                whole &= cols[x]
            tubes &= ~(cols[u] & cols[v]) | whole
    return tubes


def saturated_odd_complex(graph, collection, budget=None):
    """Confined odd subcomplex with bundle-incomplete tubes dropped.

    A tube is dropped when both endpoints of a bundle the collection
    misses lie inside it but some of that bundle's edges are absent.
    """
    _require_subset(graph, collection)
    system = TubeSystem(graph, budget)
    return system.complex_on(_saturated_tubes(system, system.collection_mask(collection)))


# -- structure of even collections ------------------------------------------


def _shares(graph, nodes, kept, members):
    """The collection with ground bitmask ``members`` split along the
    components of its touched subgraph, given as its :func:`_reduction_key`
    ``nodes, kept``: one ground bitmask per component."""
    shares = []
    for comp in _split(graph._neighbour_masks, nodes):
        for ends, labels in kept:
            if ends & comp:
                comp |= labels
        shares.append(members & comp)
    return shares


def components_all_even(graph, collection):
    """Whether each component of the touched subgraph holds an even share
    of the collection.  Demands an even collection to begin with."""
    if not is_even(graph, collection):
        raise NotEvenError(f"{collection!r} is not an even collection")
    index = graph.ground_index()
    members = sum(1 << index[m] for m in collection.members())
    shares = _shares(graph, *_reduction_key(graph, members), members)
    return not any(s.bit_count() & 1 for s in shares)


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
    return all(
        len(comp) % 2 == 0 or any(b.u in comp for b in graph.bundles)
        for comp in graph.component_nodesets()
    )


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

    # with fewer than two classes there is nothing to merge, so no search
    if len(parent) > 1:
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


def inflation_matches(graph, collection, budget=None):
    """Check that inflation is an isomorphism from the odd subcomplex of
    the reduced graph onto the saturated odd subcomplex."""
    _require_subset(graph, collection)
    budget = FaceBudget.ensure(budget)
    gamma_system = TubeSystem(reduced_graph(graph, collection), budget)
    return _inflation_matches(TubeSystem(graph, budget), gamma_system, collection)


def _inflation_matches(system, gamma_system, collection):
    """:func:`inflation_matches` on the tube systems of the graph and of
    the collection's reduced graph."""
    odd = _odd_tubes(gamma_system, gamma_system.collection_mask(collection))
    gamma_odd = [gamma_system.tubes[i] for i in _bits(odd)]
    inflated = [inflate_tube(t, system.graph, collection) for t in gamma_odd]
    if len(set(inflated)) != len(inflated):
        return False
    saturated = _saturated_tubes(system, system.collection_mask(collection))
    saturated = {system.tubes[i] for i in _bits(saturated)}
    if set(inflated) != saturated:
        return False
    for i in range(len(gamma_odd)):
        for j in range(i + 1, len(gamma_odd)):
            before = compatible(gamma_odd[i], gamma_odd[j])
            after = compatible(inflated[i], inflated[j])
            if before != after:
                return False
    return True
