"""Tubes of a pseudograph and the complex of compatible tube systems.

A tube is a connected subgraph that keeps every plain edge between its
nodes, takes a nonempty subset of each internal bundle, and is not all of
its connected component.  It is identified by its *representation*: the
node set together with the chosen bundle labels.

Two distinct tubes are compatible when one representation properly
contains the other, or when the tubes are separated (no shared node and no
host edge between them).  The tubing complex is the flag complex of the
compatibility relation.
"""

from __future__ import annotations

import itertools

from .complexes import FaceBudget, SimplicialComplex
from .errors import GraphError, HostMismatchError, VertexClashError


class Tube:
    """A single tube, tied to its host graph."""

    __slots__ = ("_host", "_nodes", "_labels", "_repr", "_hash")

    def __init__(self, host, nodes, labels=(), check=True):
        self._host = host
        self._nodes = frozenset(nodes)
        self._labels = frozenset(labels)
        self._repr = self._nodes | self._labels
        self._hash = hash((self._nodes, self._labels))
        if check:
            self._validate()

    def _validate(self):
        host = self._host
        if not self._nodes:
            raise GraphError("a tube needs at least one node")
        unknown = self._nodes - set(host.nodes)
        if unknown:
            raise GraphError(f"tube uses unknown nodes {sorted(unknown)}")
        sub = host.induced_subgraph(self._nodes)
        if not sub.is_connected():
            raise GraphError(f"tube nodes {sorted(self._nodes)} are not connected")
        internal = set()
        for b in sub.bundles:
            chosen = self._labels & set(b.labels)
            if not chosen:
                raise GraphError(
                    f"tube must keep at least one edge of the bundle between {b.u} and {b.v}"
                )
            internal |= set(b.labels)
        stray = self._labels - internal
        if stray:
            raise GraphError(f"labels {sorted(stray)} are not internal bundle edges")
        if self._nodes == set(host.nodes) and internal <= self._labels:
            raise GraphError("a tube must be a proper subgraph")

    @property
    def host(self):
        return self._host

    @property
    def nodes(self):
        return self._nodes

    @property
    def labels(self):
        return self._labels

    def representation(self):
        return self._repr

    def label_closure(self):
        """Representation plus all labels of bundles the tube misses entirely."""
        closure = set(self._repr)
        for b in self._host.bundles:
            if not (set(b.labels) & self._repr):
                closure.update(b.labels)
        return frozenset(closure)

    def separated_from(self, other):
        if self._nodes & other._nodes:
            return False
        for u in self._nodes:
            if self._host.neighbors(u) & other._nodes:
                return False
        return True

    def sort_key(self):
        return (tuple(sorted(self._nodes)), tuple(sorted(self._labels)))

    def name(self):
        return self._host.format_members(self._repr)

    def __eq__(self, other):
        if not isinstance(other, Tube):
            return NotImplemented
        return self._nodes == other._nodes and self._labels == other._labels

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Tube({self.name()})"


def compatible(a, b):
    """Whether two tubes of the same host can sit in one tubing."""
    if a.host != b.host:
        raise HostMismatchError("tubes belong to different graphs")
    ra, rb = a.representation(), b.representation()
    if ra == rb:
        return False
    if ra < rb or rb < ra:
        return True
    return a.separated_from(b)


def is_tubing(tubes):
    """Whether the tubes are pairwise compatible (the empty set is)."""
    tubes = list(tubes)
    for i, a in enumerate(tubes):
        for b in tubes[i + 1:]:
            if not compatible(a, b):
                return False
    return True


def enumerate_tubes(graph, budget=None):
    """All tubes of the graph, sorted by node set then label set.

    A whole connected component counts as a tube whenever the graph has
    other components; only the entire graph is excluded.
    """
    budget = FaceBudget.ensure(budget)
    out = []
    connected = graph.is_connected()
    for comp in graph.component_nodesets():
        comp_nodes = sorted(comp)
        index = {n: i for i, n in enumerate(comp_nodes)}
        nbr_masks = []
        for n in comp_nodes:
            m = 0
            for v in graph.neighbors(n):
                if v in index:
                    m |= 1 << index[v]
            nbr_masks.append(m)
        size = len(comp_nodes)
        for mask in range(1, 1 << size):
            budget.charge()
            bits = [i for i in range(size) if mask >> i & 1]
            # connectivity of the induced node set
            seen = 1 << bits[0]
            stack = [bits[0]]
            while stack:
                cur = stack.pop()
                frontier = nbr_masks[cur] & mask & ~seen
                while frontier:
                    b = frontier & -frontier
                    frontier ^= b
                    seen |= b
                    stack.append(b.bit_length() - 1)
            if seen != mask:
                continue
            nodes = frozenset(comp_nodes[i] for i in bits)
            internal = [
                b for b in graph.bundles if b.u in nodes and b.v in nodes
            ]
            whole_graph = connected and len(nodes) == size
            if not internal:
                if whole_graph:
                    continue
                out.append(Tube(graph, nodes, (), check=False))
                continue
            choices = []
            for b in internal:
                subsets = []
                for r in range(1, len(b.labels) + 1):
                    subsets.extend(itertools.combinations(b.labels, r))
                choices.append(subsets)
            for picked in itertools.product(*choices):
                budget.charge()
                labels = frozenset(itertools.chain.from_iterable(picked))
                if whole_graph and all(
                    len(part) == len(b.labels) for part, b in zip(picked, internal)
                ):
                    continue
                out.append(Tube(graph, nodes, labels, check=False))
    out.sort(key=Tube.sort_key)
    return tuple(out)


class TubeSystem:
    """Precomputed tube data for one graph: representation bitmasks over the
    ground set and the tubing complex, whose adjacency is compatibility.

    Everything downstream (parity complexes, tubing complexes, normals)
    reads from one of these instead of recomputing pair relations.  Every
    complex it builds shares its tubing complex's masks: bit i is tube i.
    """

    __slots__ = (
        "graph",
        "tubes",
        "member_order",
        "member_index",
        "repr_masks",
        "node_masks",
        "neighbor_masks",
        "_complex",
    )

    def __init__(self, graph, budget=None):
        self.graph = graph
        self.tubes = enumerate_tubes(graph, budget)
        self.member_order = graph.ground_members()
        self.member_index = graph.ground_index()
        idx = self.member_index
        node_bit = {n: 1 << idx[n] for n in graph.nodes}
        self.repr_masks = []
        self.node_masks = []
        self.neighbor_masks = []
        for t in self.tubes:
            rm = 0
            for m in t.representation():
                rm |= 1 << idx[m]
            nm = 0
            bm = 0
            for n in t.nodes:
                nm |= node_bit[n]
                for v in graph.neighbors(n):
                    bm |= node_bit[v]
            self.repr_masks.append(rm)
            self.node_masks.append(nm)
            self.neighbor_masks.append(bm)
        n = len(self.tubes)
        compat = [0] * n
        for i in range(n):
            ri = self.repr_masks[i]
            ni = self.node_masks[i]
            bi = self.neighbor_masks[i]
            for j in range(i + 1, n):
                rj = self.repr_masks[j]
                ok = False
                if ri != rj and (ri & ~rj == 0 or rj & ~ri == 0):
                    ok = True
                elif ni & self.node_masks[j] == 0 and bi & self.node_masks[j] == 0:
                    ok = True
                if ok:
                    compat[i] |= 1 << j
                    compat[j] |= 1 << i
        self._complex = SimplicialComplex(self.tubes, compat)

    def member_mask(self, members):
        m = 0
        for x in members:
            m |= 1 << self.member_index[x]
        return m

    def collection_mask(self, collection):
        return self.member_mask(collection.members())

    def meet_is_odd(self, tube_index, collection_mask):
        return bool((self.repr_masks[tube_index] & collection_mask).bit_count() & 1)

    def complex_on(self, tube_indices):
        """Full subcomplex of the tubing complex on the given tubes, in tube
        order whatever the order of the indices; IndexError for an index
        outside the tubes, VertexClashError for one given twice."""
        n = len(self.tubes)
        mask = 0
        for i in tube_indices:
            if not 0 <= i < n:
                raise IndexError(f"tube index {i} out of range for {n} tubes")
            if mask >> i & 1:
                raise VertexClashError(f"tube index {i} given twice")
            mask |= 1 << i
        return self._complex._on(mask)

    def tubing_complex(self):
        return self._complex


def tubing_complex(graph, budget=None):
    """Flag complex whose vertices are tubes and faces are tubings."""
    return TubeSystem(graph, budget).tubing_complex()
