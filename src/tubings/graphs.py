"""Loopless pseudographs with labelled parallel-edge bundles.

A pseudograph here is a finite loopless multigraph.  Any maximal class of
two or more parallel edges between the same endpoint pair is a *bundle*;
every edge of a bundle must carry a label, and labels are unique across the
whole graph.  An edge outside every bundle may carry a label or not.

The *ground set* of a graph is its node set together with the labels of its
bundle edges.  A :class:`Collection` is a subset of the ground set; several
derived constructions (touched subgraphs, reduced graphs, parity complexes)
are driven by collections.

Every subset of the ground set the package computes with (a tube, a
collection, a designation's pair) is a *ground bitmask*: bit i stands for
the i-th member in ground order, nodes ascending and then labels sorted.
This module alone knows that order.  ``Pseudograph._mask`` encodes members
as a bitmask and ``Pseudograph._members`` decodes one, in ground order;
:func:`_pairing` hands out its pairs as bit indices, and the bit walks
(:func:`_bits`, :func:`_split`, :func:`_connected_sets`) live here too.

Node ids are positive integers.  Labels start with a letter and continue
with letters or digits, so a collection token is a node exactly when it is
numeric.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    DuplicateLabelError,
    GraphError,
    LoopEdgeError,
    NotInAnyBundleError,
    UnknownBundleError,
    UnknownMemberError,
    UnknownNodeError,
    UnknownNodeInEdgeError,
    UnlabelledBundleEdgeError,
)

_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")


class Bundle(NamedTuple):
    u: int
    v: int
    labels: tuple  # lexicographically sorted, length >= 2


def _normalize_edge(edge):
    if len(edge) == 2:
        u, v = edge
        label = None
    elif len(edge) == 3:
        u, v, label = edge
    else:
        raise GraphError(f"edge {edge!r} must be (u, v) or (u, v, label)")
    if any(not isinstance(x, int) or isinstance(x, bool) for x in (u, v)):
        raise GraphError(f"edge endpoints must be integers: {edge!r}")
    if u > v:
        u, v = v, u
    return u, v, label


class Pseudograph:
    """Immutable validated pseudograph."""

    __slots__ = (
        "_nodes",
        "_edges",
        "_bundles",
        "_ground",
        "_ground_index",  # member: its bit in a ground bitmask
        "_key",
        "_hash",
        "_neighbour_masks",  # per node, the node bitmask of its neighbours
        "_bundle_masks",  # per bundle, the ground bitmasks of its ends and labels
        "_components",
        "_poincare",  # the one slot filled later, by poincare_reduced
    )

    def __init__(self, nodes=(), edges=()):
        for n in set(nodes):
            if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
                raise GraphError(f"node ids must be positive integers, got {n!r}")
        node_list = sorted(set(nodes))
        node_set = set(node_list)

        norm = []
        for edge in edges:
            u, v, label = _normalize_edge(edge)
            if u == v:
                raise LoopEdgeError(f"loop at node {u} is not allowed")
            if u not in node_set or v not in node_set:
                missing = u if u not in node_set else v
                raise UnknownNodeInEdgeError(f"edge {edge!r} uses undeclared node {missing}")
            if label is not None:
                if not isinstance(label, str) or not _LABEL_RE.match(label):
                    raise GraphError(
                        f"label {label!r} must start with a letter and be alphanumeric"
                    )
            norm.append((u, v, label))

        seen_labels = set()
        for u, v, label in norm:
            if label is not None:
                if label in seen_labels:
                    raise DuplicateLabelError(f"label {label!r} appears more than once")
                seen_labels.add(label)

        by_pair = {}
        for u, v, label in norm:
            by_pair.setdefault((u, v), []).append(label)

        bundles = []
        for (u, v), labels in sorted(by_pair.items()):
            if len(labels) > 1:
                if any(lab is None for lab in labels):
                    raise UnlabelledBundleEdgeError(
                        f"parallel edges between {u} and {v} must all carry labels"
                    )
                bundles.append(Bundle(u, v, tuple(sorted(labels))))

        self._nodes = tuple(node_list)
        self._edges = tuple(sorted(norm, key=lambda e: (e[0], e[1], e[2] or "")))
        self._bundles = tuple(bundles)
        self._ground = self._nodes + tuple(sorted(lab for b in bundles for lab in b.labels))
        self._ground_index = {m: i for i, m in enumerate(self._ground)}
        self._key = (self._nodes, self._edges)  # both canonically sorted
        self._hash = hash(self._key)
        near = {n: [] for n in node_list}
        for u, v in by_pair:
            near[u].append(v)
            near[v].append(u)
        self._neighbour_masks = tuple(self._mask(near[n]) for n in node_list)
        self._bundle_masks = tuple((self._mask((b.u, b.v)), self._mask(b.labels)) for b in bundles)
        self._components = tuple(
            frozenset(self._members(comp))
            for comp in _split(self._neighbour_masks, (1 << len(node_list)) - 1)
        )
        self._poincare = None

    # -- ground bitmasks --------------------------------------------------

    def _mask(self, members):
        """The ground bitmask of ``members``: bit i for the i-th member of
        :meth:`ground_members`."""
        index, mask = self._ground_index, 0
        for m in members:
            mask |= 1 << index[m]
        return mask

    def _members(self, mask):
        """The members of the ground bitmask ``mask``, in ground order."""
        ground = self._ground
        return [ground[i] for i in _bits(mask)]

    # -- basic structure ------------------------------------------------

    @property
    def nodes(self):
        return self._nodes

    @property
    def edges(self):
        """All edges as (u, v, label_or_None), canonically sorted."""
        return self._edges

    @property
    def bundles(self):
        return self._bundles

    @property
    def bundle_labels(self):
        return self._ground[len(self._nodes):]

    def bundle_of(self, label):
        for b in self._bundles:
            if label in b.labels:
                return b
        raise UnknownMemberError(f"{label!r} is not a bundle-edge label")

    def ground_members(self):
        """Nodes (ascending) followed by bundle labels (lexicographic)."""
        return self._ground

    def ground_index(self):
        return self._ground_index

    @property
    def simple_pairs(self):
        """Adjacent endpoint pairs (u < v), regardless of multiplicity."""
        return frozenset(e[:2] for e in self._edges)

    def neighbors(self, node):
        i = self._ground_index.get(node, len(self._nodes))
        if i >= len(self._nodes):
            raise UnknownNodeError(f"node {node} is not in the graph")
        return frozenset(self._members(self._neighbour_masks[i]))

    def adjacent(self, u, v):
        i, j = (self._ground_index.get(x, -1) for x in (u, v))
        return 0 <= i < len(self._nodes) and j >= 0 and self._neighbour_masks[i] >> j & 1 == 1

    def edge_labels(self):
        """Every label in the graph, bundle or not."""
        return tuple(sorted(lab for _, _, lab in self._edges if lab is not None))

    # -- connectivity -----------------------------------------------------

    def component_nodesets(self):
        """Connected components as frozensets of nodes, ordered by min node."""
        return self._components

    def is_connected(self):
        return len(self.component_nodesets()) == 1

    # -- derived graphs ---------------------------------------------------

    def underlying_simple_graph(self):
        """Same nodes, one unlabelled edge per adjacent pair (idempotent)."""
        return Pseudograph(self._nodes, sorted(self.simple_pairs))

    def induced_subgraph(self, node_subset):
        subset = frozenset(node_subset)
        unknown = subset - set(self._nodes)
        if unknown:
            raise UnknownNodeError(f"nodes {sorted(unknown)} are not in the graph")
        return _reduction(self, subset, ())

    def partial_underlying(self, collapse_pairs):
        """Replace each listed bundle by a single unlabelled edge.

        `collapse_pairs` is an iterable of endpoint pairs; each must be a
        bundle of this graph.  The labels of a collapsed bundle disappear
        entirely.
        """
        bundles = {(b.u, b.v): b for b in self._bundles}
        collapsed = []
        for u, v in collapse_pairs:
            u, v = min(u, v), max(u, v)
            if (u, v) not in bundles:
                raise UnknownBundleError(f"({u}, {v}) is not a bundle of this graph")
            collapsed.append(bundles[u, v])
        return _reduction(self, self._nodes, collapsed)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Pseudograph):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Pseudograph(nodes={list(self._nodes)}, edges={len(self._edges)})"

    # -- display ----------------------------------------------------------

    def compact_names(self):
        """Whether members can be shown concatenated without ambiguity."""
        return all(n <= 9 for n in self._nodes) and all(
            len(lab) == 1 for lab in self.bundle_labels
        )

    def format_members(self, members):
        """Canonical display name for a set of ground members."""
        nodes = sorted(m for m in members if isinstance(m, int))
        labels = sorted(m for m in members if isinstance(m, str))
        parts = [str(n) for n in nodes] + labels
        if not parts:
            return "-"
        if self.compact_names():
            return "".join(parts)
        return ",".join(parts)


@dataclass(frozen=True)
class Collection:
    """A subset of a graph's ground set, split into nodes and labels.

    Collections are plain value objects: equality ignores which graph they
    were built against, so the same collection can be reused on a reduced
    graph whose ground set still contains it.
    """

    nodes: frozenset
    labels: frozenset

    @classmethod
    def of(cls, graph, members):
        nodes = set()
        labels = set()
        for m in members:
            # nodes are ints and labels strs, so a member's type tells which
            if isinstance(m, int) and not isinstance(m, bool):
                if m not in graph._ground_index:
                    raise UnknownMemberError(f"node {m} is not in the graph")
                nodes.add(m)
            elif isinstance(m, str):
                if m in graph._ground_index:
                    labels.add(m)
                elif m in graph.edge_labels():
                    raise NotInAnyBundleError(f"label {m!r} belongs to a non-bundle edge")
                else:
                    raise UnknownMemberError(f"{m!r} is not a node or bundle-edge label")
            else:
                raise UnknownMemberError(f"{m!r} is not a node or bundle-edge label")
        return cls(frozenset(nodes), frozenset(labels))

    @classmethod
    def empty(cls):
        return cls(frozenset(), frozenset())

    def members(self):
        return self.nodes | self.labels

    def __len__(self):
        return len(self.nodes) + len(self.labels)

    def is_empty(self):
        return not self.nodes and not self.labels

    def issubset_of(self, graph):
        members = graph._ground_index.keys()
        return members >= self.nodes and members >= self.labels

    def __repr__(self):
        items = sorted(map(str, self.nodes)) + sorted(self.labels)
        return f"Collection({{{', '.join(items)}}})"


@dataclass(frozen=True)
class Designation:
    """Choice of a 'last' node per component and a 'last' label per bundle.

    The quotient constructions drop one node per connected component and
    one edge per bundle; which ones are dropped is a free choice that never
    changes any topological output, only enumeration order and the lattice
    bases.  The default takes the largest node id of each component and the
    lexicographically last label of each bundle.
    """

    nodes: frozenset
    labels: frozenset

    @classmethod
    def default(cls, graph):
        nodes = frozenset(max(c) for c in graph.component_nodesets())
        labels = frozenset(b.labels[-1] for b in graph.bundles)
        return cls(nodes, labels)

    @classmethod
    def first(cls, graph):
        """Opposite convention to :meth:`default`: smallest ids, first labels."""
        nodes = frozenset(min(c) for c in graph.component_nodesets())
        labels = frozenset(b.labels[0] for b in graph.bundles)
        return cls(nodes, labels)

    def validate(self, graph):
        comps = graph.component_nodesets()
        if len(self.nodes) != len(comps):
            raise GraphError("designation must pick exactly one node per component")
        for comp in comps:
            if len(self.nodes & comp) != 1:
                raise GraphError(f"designation must pick exactly one node in {sorted(comp)}")
        if len(self.labels) != len(graph.bundles):
            raise GraphError("designation must pick exactly one label per bundle")
        for b in graph.bundles:
            if len(self.labels & set(b.labels)) != 1:
                raise GraphError(f"designation must pick exactly one label in {b.labels}")
        return self

    @classmethod
    def resolve(cls, graph, designation):
        """Turn a designation argument into a validated instance for ``graph``:
        ``None`` gives :meth:`default`, and an instance must name members of
        ``graph`` itself, one per component and one per bundle.  Anything
        else raises :class:`GraphError`."""
        if designation is None:
            return cls.default(graph)
        if not isinstance(designation, cls):
            raise GraphError(f"not a Designation: {designation!r}")
        return designation.validate(graph)


def _pairing(graph, designation=None):
    """The designation's pairing: (member, partner) as ground bit indices
    for each ground member outside it, in ground order.  A node's partner
    is the designated node of its component, a label's the designated
    label of its bundle.  The even collections, the characteristic matrix,
    the normal generator matrix and every facet normal read these pairs."""
    d = Designation.resolve(graph, designation)
    designated, index = d.nodes | d.labels, graph._ground_index
    partner = [0] * len(index)
    for part in (*graph.component_nodesets(), *(b.labels for b in graph.bundles)):
        (last,) = designated.intersection(part)
        for m in part:
            partner[index[m]] = index[last]
    return tuple((m, p) for m, p in enumerate(partner) if p != m)


def restricted_ground(graph, designation=None):
    """Ground members minus the designated node of each component and the
    designated label of each bundle, in canonical order."""
    ground = graph.ground_members()
    return tuple(ground[m] for m, _ in _pairing(graph, designation))


def touched_nodes(graph, collection):
    """Nodes that are members of the collection or endpoints of its edges."""
    if not collection.issubset_of(graph):
        raise UnknownMemberError(
            f"{collection!r} is not a subset of the graph's ground set"
        )
    nodes = set(collection.nodes)
    for lab in collection.labels:
        b = graph.bundle_of(lab)
        nodes.add(b.u)
        nodes.add(b.v)
    return frozenset(nodes)


def touched_subgraph(graph, collection):
    """Induced subgraph on the nodes touched by the collection.

    The empty collection touches nothing and yields the empty graph.
    """
    return graph.induced_subgraph(touched_nodes(graph, collection))


def reduced_graph(graph, collection):
    """Touched subgraph with every bundle that misses the collection
    collapsed to a single unlabelled edge."""
    return _reduction(graph, *_reduction_of(graph, collection))


def _reduction_of(graph, collection):
    """The reduced graph of ``collection`` as a hashable (nodes, collapsed)
    key for :func:`_reduction`, read off the collection itself."""
    collapsed = tuple(b for b in graph.bundles if collection.labels.isdisjoint(b.labels))
    return touched_nodes(graph, collection), collapsed


def _reduction(graph, nodes, collapsed):
    """The subgraph induced on ``nodes`` with each bundle in ``collapsed``
    that lies inside it made one unlabelled edge."""
    gone = {(b.u, b.v) for b in collapsed if b.u in nodes and b.v in nodes}
    edges = [e for e in graph.edges if e[0] in nodes and e[1] in nodes and e[:2] not in gone]
    return Pseudograph(nodes, edges + list(gone))


def _reduction_keys(graph):
    """Every reduction as a key (nodes, collapsed): a nonempty tuple of
    nodes in graph order, by size and then lexicographically, and a tuple
    of the bundles inside it to collapse, by size and then in order."""
    for r in range(1, len(graph.nodes) + 1):
        for nodes in itertools.combinations(graph.nodes, r):
            inside = [b for b in graph.bundles if b.u in nodes and b.v in nodes]
            for k in range(len(inside) + 1):
                for collapsed in itertools.combinations(inside, k):
                    yield nodes, collapsed


def _bits(mask):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _split(nbr, mask):
    """The components of the subgraph induced on the bitmask ``mask`` of the
    graph whose bit i has neighbour mask ``nbr[i]`` (a graph's
    ``_neighbour_masks``, or a complex's adjacency), as bitmasks, least bit
    first.  Every connectivity question of the package comes here."""
    comps = []
    while mask:
        comp = grow = mask & -mask
        while grow:
            low = grow & -grow
            new = nbr[low.bit_length() - 1] & mask & ~comp
            comp |= new
            grow = grow ^ low | new
        comps.append(comp)
        mask ^= comp
    return comps


def _connected_sets(nbr, mask):
    """Every connected node set inside the bitmask ``mask``, as a bitmask,
    each once (nbr as for :func:`_split`).  A set grows from its least
    node v by ESU (Wernicke, 2006): it takes a node w of its extension set
    and extends what is left of that set by w's nodes above v that neither
    lie in the set nor touch it."""
    while mask:
        low = mask & -mask
        mask ^= low
        near = low | nbr[low.bit_length() - 1]
        stack = [(low, near & mask, near)]
        while stack:
            sub, ext, near = stack.pop()
            yield sub
            while ext:
                w = ext & -ext
                ext ^= w
                new = nbr[w.bit_length() - 1] & mask & ~near
                stack.append((sub | w, ext | new, near | new))


def _reduction_key(graph, members):
    """The reduced graph of the collection with ground bitmask ``members``
    as a key: its touched nodes as a node bitmask, and the (ends, labels)
    masks of the bundles it meets, the ones the reduction keeps."""
    kept = [b for b in graph._bundle_masks if members & b[1]]
    nodes = members & ((1 << len(graph._nodes)) - 1)
    for ends, _ in kept:
        nodes |= ends
    return nodes, kept


def enumerate_reductions(graph):
    """All graphs obtained by inducing on a nonempty node subset and then
    collapsing any subset of the surviving bundles.

    Results are deterministic and pairwise distinct; the empty graph is
    never included.
    """
    return tuple(_reduction(graph, *key) for key in _reduction_keys(graph))


def connected_reduction_classes(graph):
    """The reductions on a connected node set that have an admissible
    collection (the set has an even node count or keeps a bundle
    uncollapsed), up to isomorphism: per class, its (node mask, nodes,
    collapsed) keys.  A graph is built for none of them."""
    nodes, bundles = graph._nodes, graph._bundles
    ends = [e for e, _ in graph._bundle_masks]
    items = []
    for sub in _connected_sets(graph._neighbour_masks, (1 << len(nodes)) - 1):
        inside = [b for b, e in zip(bundles, ends) if sub & e == e]
        # an odd set must keep a bundle, so it collapses fewer than all
        choices = range(len(inside) + 1 - (sub.bit_count() & 1))
        if not choices:
            continue
        members = tuple(graph._members(sub))
        for k in choices:
            for collapsed in itertools.combinations(inside, k):
                items.append(((sub, members, collapsed), _multiplicities(graph, members, collapsed)))
    return _classes(items)


# -- symmetry ---------------------------------------------------------------


def _multiplicities(graph, nodes, collapsed=()):
    """Per node of the reduction (nodes, collapsed), in the order given,
    {neighbour's position: multiplicity}: 1 for a plain edge or a collapsed
    bundle, |b| for a bundle b.  A node map keeping every multiplicity is an
    isomorphism; labels in a bundle follow in any order."""
    index = {n: i for i, n in enumerate(nodes)}
    gone = {(b.u, b.v) for b in collapsed}
    rows = [{} for _ in nodes]
    for u, v, _ in graph.edges:
        if u in index and v in index:
            a, b = index[u], index[v]
            rows[a][b] = rows[b][a] = 1 if (u, v) in gone else rows[a].get(b, 0) + 1
    return rows


def _shifted(rows, offset):
    return [{w + offset: m for w, m in row.items()} for row in rows]


def _refine(rows, colours, n):
    """Colour refinement of a colouring of two n-node graphs side by side
    to a stable partition.  Returns the colours, numbered by sorted
    signature so that they agree between graphs refined alike, the cells in
    colour order as (nodes of the first, nodes of the second), and the
    first cell with two nodes of the first, or ((), ())."""
    while True:
        sigs = [
            (c, tuple(sorted((m, colours[w]) for w, m in row.items())))
            for c, row in zip(colours, rows)
        ]
        table = {s: i for i, s in enumerate(sorted(set(sigs)))}
        stable = len(table) == len(set(colours))
        colours = [table[s] for s in sigs]
        if stable:
            break
    cells = {}
    for v, c in enumerate(colours):
        cells.setdefault(c, ([], []))[v >= n].append(v)
    cells = [cells[c] for c in sorted(cells)]
    return colours, cells, next((cell for cell in cells if len(cell[0]) > 1), ((), ()))


def _match(rows, colours, n):
    """Individualization-refinement search on two n-node graphs side by side
    in ``rows``: a map of the first onto the second that keeps the colours
    and every multiplicity, or None."""
    colours, cells, (left, right) = _refine(rows, colours, n)
    if any(len(a) != len(b) for a, b in cells):
        return None
    if not left:
        perm = {a[0]: b[0] for a, b in cells}
        # every node pair of the candidate, absent edges included
        ok = all({perm[w]: m for w, m in rows[v].items()} == rows[perm[v]] for v in perm)
        return perm if ok else None
    for y in right:
        trial = list(colours)
        trial[left[0]] = trial[y] = len(colours)
        perm = _match(rows, trial, n)
        if perm is not None:
            return perm
    return None


def _classes(items):
    """(item, multiplicity rows) pairs up to isomorphism of the rows, as one
    list of items per class.  Two meet only when their nodes' sorted
    multiplicities agree (one round of colour refinement) and the identity
    map (equal rows) or a node map, checked on every pair, takes one onto
    the other."""
    buckets = {}
    for item, rows in items:
        bucket = buckets.setdefault(tuple(sorted(tuple(sorted(r.values())) for r in rows)), [])
        n = len(rows)
        for entry in bucket:
            if entry[1] == rows or _match(entry[1] + _shifted(rows, n), [0] * 2 * n, n) is not None:
                entry[0].append(item)
                break
        else:
            bucket.append(([item], rows))
    return [members for bucket in buckets.values() for members, _ in bucket]


def isomorphism_classes(graphs):
    """The graphs up to isomorphism, as (representative, count) pairs, each
    class represented by its first graph."""
    classes = _classes((g, _multiplicities(g, g.nodes)) for g in graphs)
    return [(members[0], len(members)) for members in classes]


def automorphism_generators(graph):
    """Node permutations, as dicts, that generate the automorphism group of
    the graph's multiplicity matrix.

    Along one individualization chain, each level fixes the first node x of
    the first non-singleton cell.  From the deepest level up, each level
    adds a verified automorphism taking x to each other node of its cell
    that x can reach and that the automorphisms found so far do not.
    """
    nodes, n = graph.nodes, len(graph.nodes)
    rows = _multiplicities(graph, nodes)
    rows += _shifted(rows, n)
    colours, chain, found = [0] * (2 * n), [], []
    while True:
        colours, _, (left, right) = _refine(rows, colours, n)
        if not left:
            break
        chain.append((list(colours), left[0], right[1:]))
        colours[left[0]] = colours[left[0] + n] = len(colours)
    for colours, x, right in reversed(chain):
        orbit = {x}
        for y in right:
            grown = None
            while grown != orbit:
                grown, orbit = orbit, orbit | {p[v] for p in found for v in orbit}
            if y - n not in orbit:
                trial = list(colours)
                trial[x] = trial[y] = len(colours)
                perm = _match(rows, trial, n)
                if perm is not None:
                    found.append({a: b - n for a, b in perm.items()})
    return [{nodes[a]: nodes[b] for a, b in p.items()} for p in found]
