"""Tubes of a pseudograph and the complex of compatible tube systems.

A tube is a connected subgraph that keeps every plain edge between its
nodes, takes a nonempty subset of each internal bundle, and is not the
whole graph.  It is identified by its *representation*: the node set
together with the chosen bundle labels, or its bitmask over the ground
order, the representation mask.

Two distinct tubes are compatible when one representation properly
contains the other, or when the tubes are separated (no shared node and no
host edge between them).  A :class:`TubeSystem` works on masks alone: the
representation masks come straight from the connected-set walk, the
tubing complex (the flag complex of compatibility) is read off one column
per ground member, the bitmask of the tubes holding it, by per-chunk
tables of those columns, and :class:`Tube` objects are built only when a
tube is read.
"""

from __future__ import annotations

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


_GAPS = str.maketrans("01", "10")


def _order_key(mask):
    """Sorts nonzero bitmasks as the tuples of their bit indices sort:
    character i is '0' if bit i is set, '1' if not, up to the highest."""
    return bin(mask)[:1:-1].translate(_GAPS)


def _tube_masks(graph, budget=None):
    """Every tube's representation as a ground bitmask, in tube order: each
    connected node set takes every nonempty submask of the label mask of
    each bundle inside it.  Ground order is nodes, then labels, so sorting
    the node sets and then each one's label choices by :func:`_order_key`
    gives :meth:`Tube.sort_key`'s order.  The budget is charged 2^k - 1
    per component of k nodes and one per label choice of a node set with a
    bundle inside."""
    budget = FaceBudget.ensure(budget)
    for comp in graph.component_nodesets():
        budget.charge((1 << len(comp)) - 1)
    picks = []
    for ends, labels in graph._bundle_masks:
        subs = [labels]
        while subs[-1]:
            subs.append(subs[-1] - 1 & labels)
        picks.append((ends, subs[:-1]))
    full, out = (1 << len(graph.nodes)) - 1, []
    for sub in sorted(_connected_sets(graph._neighbour_masks, full), key=_order_key):
        inside = [subs for ends, subs in picks if sub & ends == ends]
        if not inside:
            out.append(sub)
            continue
        reps, size = [sub], 1
        for subs in inside:
            size *= len(subs)
        budget.charge(size)  # before the choices are built
        for subs in inside:
            reps = [r | s for r in reps for s in subs]
        out += sorted(reps, key=_order_key)  # their node characters agree
    if graph.is_connected():  # the whole graph, every label taken, is no tube
        out.remove((1 << len(graph.ground_members())) - 1)
    return out


class _Tubes:
    """The tubes of ``graph`` with representation bitmasks ``masks``, in
    that order: a sequence that builds its :class:`Tube` objects on first
    use, while its length needs none of them."""

    __slots__ = ("_graph", "_masks", "_tubes")

    def __init__(self, graph, masks):
        self._graph, self._masks, self._tubes = graph, masks, None

    def __len__(self):
        return len(self._masks)

    def __getitem__(self, i):
        if self._tubes is None:
            g = self._graph
            ground, nodes = g.ground_members(), (1 << len(g.nodes)) - 1
            self._tubes = tuple(
                Tube(g, [ground[j] for j in _bits(m & nodes)],
                     [ground[j] for j in _bits(m & ~nodes)], check=False)
                for m in self._masks
            )
        return self._tubes[i]

    def index(self, tube):
        return self[:].index(tube)


def enumerate_tubes(graph, budget=None):
    """All tubes of the graph, sorted by node set then label set.

    A whole connected component counts as a tube whenever the graph has
    other components; only the entire graph is excluded.
    """
    return _Tubes(graph, _tube_masks(graph, budget))[:]


def _chunk_tables(cols):
    """Per chunk of four entries of ``cols``, the OR of the entries picked by
    each 4-bit value, so that an OR over a bitmask of entries is one lookup
    per chunk.  A last chunk of k < 4 entries repeats its 2^k ORs, as its
    missing entries add nothing."""
    tables = []
    for c in range(0, len(cols), 4):
        row = [0]
        for col in cols[c:c + 4]:
            row += [x | col for x in row]
        tables.append(row * (16 // len(row)))
    return tables


class TubeSystem:
    """Precomputed tube data for one graph: representation bitmasks over the
    ground set, one column per ground member (the bitmask of the tubes
    whose representation holds it) and the tubing complex, whose adjacency
    is compatibility.

    The masks come from the connected-set walk, the compatibility masks
    from per-chunk tables over the columns, and ``tubes`` builds its
    :class:`Tube` objects only when one is read.  Parity complexes, tubing
    complexes and normals read from one of these instead of recomputing
    pair relations; every complex it builds shares its tubing complex's
    masks: bit i is tube i.
    """

    __slots__ = ("graph", "tubes", "repr_masks", "columns", "separated", "_complex")

    def __init__(self, graph, budget=None):
        self.graph = graph
        self.repr_masks = masks = _tube_masks(graph, budget)
        self.tubes = _Tubes(graph, masks)
        self.columns = cols = [0] * len(graph.ground_members())
        for j, rm in enumerate(masks):
            for i in _bits(rm):
                cols[i] |= 1 << j
        # per node, the tubes meeting its closed neighbourhood (0 for a label)
        touching = [0] * len(cols)
        for i, nbr in enumerate(graph._neighbour_masks):
            for w in _bits(nbr | 1 << i):
                touching[i] |= cols[w]
        full, ground = (1 << len(masks)) - 1, (1 << len(cols)) - 1
        tables = list(zip(
            _chunk_tables([full ^ col for col in cols]),
            _chunk_tables(cols),
            _chunk_tables(touching),
        ))
        # tube i is compatible with the tubes holding every member of its
        # representation (lacking none), with those holding no other
        # member, and with those avoiding the closed neighbourhood of its
        # nodes (separated)
        self.separated, compat = [], []
        for i, rm in enumerate(masks):
            lacking, beyond, near, out = 0, 0, 0, ground ^ rm
            for lack, some, touch in tables:
                lacking |= lack[rm & 15]
                beyond |= some[out & 15]
                near |= touch[rm & 15]
                rm >>= 4
                out >>= 4
            self.separated.append(full & ~near)
            compat.append(full & ~(lacking & beyond & near) ^ 1 << i)
        self._complex = SimplicialComplex._universe(self.tubes, compat)

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
