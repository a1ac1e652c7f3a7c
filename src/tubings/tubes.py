"""Tubes of a pseudograph and the complex of compatible tube systems.

A tube is a connected subgraph that keeps every plain edge between its
nodes, takes a nonempty subset of each internal bundle, and is not all of
its connected component.  It is identified by its *representation*: the
node set together with the chosen bundle labels.

Two distinct tubes are compatible when one representation properly
contains the other, or when the tubes are separated (no shared node and no
host edge between them).  The tubing complex is the flag complex of the
compatibility relation, which a :class:`TubeSystem` reads off one column
per ground member: the bitmask of the tubes holding it.
"""

from __future__ import annotations

import itertools

from .complexes import FaceBudget, SimplicialComplex, _bits
from .errors import GraphError, HostMismatchError
from .graphs import _connected_sets, _split


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
        index = host.ground_index()
        if len(_split(host._neighbour_masks, sum(1 << index[n] for n in self._nodes))) != 1:
            raise GraphError(f"tube nodes {sorted(self._nodes)} are not connected")
        internal = set()
        for b in host.bundles:
            if b.u not in self._nodes or b.v not in self._nodes:
                continue
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
    # each nonempty node subset of a component is charged, connected or not
    for comp in graph.component_nodesets():
        budget.charge((1 << len(comp)) - 1)
    full = (1 << len(graph.nodes)) - 1
    for sub in _connected_sets(graph._neighbour_masks, full):
        nodes = frozenset(graph.nodes[i] for i in _bits(sub))
        internal = [
            b for b in graph.bundles if b.u in nodes and b.v in nodes
        ]
        whole_graph = sub == full
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
    ground set, one column per ground member (the bitmask of the tubes
    whose representation holds it) and the tubing complex, whose adjacency
    is compatibility.

    Everything downstream (parity complexes, tubing complexes, normals)
    reads from one of these instead of recomputing pair relations.  Every
    complex it builds shares its tubing complex's masks: bit i is tube i.
    """

    __slots__ = (
        "graph",
        "tubes",
        "repr_masks",
        "columns",
        "separated",
        "_complex",
    )

    def __init__(self, graph, budget=None):
        self.graph = graph
        self.tubes = enumerate_tubes(graph, budget)
        self.repr_masks = [self.member_mask(t.representation()) for t in self.tubes]
        self.columns = cols = [0] * len(graph.ground_members())
        for j, rm in enumerate(self.repr_masks):
            for i in _bits(rm):
                cols[i] |= 1 << j
        closed = [nbr | 1 << i for i, nbr in enumerate(graph._neighbour_masks)]
        full = (1 << len(self.tubes)) - 1
        ground = (1 << len(cols)) - 1
        nodes = (1 << len(closed)) - 1
        # tube i is compatible with the tubes holding every member of its
        # representation, with those holding no other member, and with
        # those avoiding the closed neighbourhood of its nodes (separated)
        self.separated = []
        compat = []
        for i, rm in enumerate(self.repr_masks):
            sup = full
            for m in _bits(rm):
                sup &= cols[m]
            beyond = 0
            for m in _bits(ground & ~rm):
                beyond |= cols[m]
            near = reach = 0
            for n in _bits(rm & nodes):
                reach |= closed[n]
            for n in _bits(reach):
                near |= cols[n]
            self.separated.append(full & ~near)
            compat.append((sup | full & ~(beyond & near)) ^ 1 << i)
        self._complex = SimplicialComplex(self.tubes, compat)

    def member_mask(self, members):
        index = self.graph.ground_index()
        m = 0
        for x in members:
            m |= 1 << index[x]
        return m

    def collection_mask(self, collection):
        return self.member_mask(collection.members())

    def complex_on(self, mask):
        """Full subcomplex of the tubing complex on the tubes of the bitmask
        ``mask``, bit i for tube i; IndexError for a negative mask or a bit
        at or past the number of tubes."""
        if mask < 0 or mask >> len(self.tubes):
            raise IndexError(f"tube mask {mask:#x} out of range for {len(self.tubes)} tubes")
        return self._complex._on(mask)

    def tubing_complex(self):
        return self._complex


def tubing_complex(graph, budget=None):
    """Flag complex whose vertices are tubes and faces are tubings."""
    return TubeSystem(graph, budget).tubing_complex()
