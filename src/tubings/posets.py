"""Posets of separated parity tube unions and their order complexes.

For a collection C and a parity, the poset elements are the nonempty
unions of pairwise separated tubes of that parity, ordered by containment
of their combined representations.  Pairwise separated tubes have
node-disjoint, mutually non-adjacent supports, so an element is recovered
uniquely from its combined representation; by default the element whose
representation equals C itself is left out.

The order complex (chains as faces) is the flag complex of comparability.
The Möbius value computed here is the one between the adjoined bottom and
top of the poset, which equals the reduced Euler characteristic of the
order complex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import FaceBudget, SimplicialComplex, _bits
from .errors import HostMismatchError
from .tubes import TubeSystem


class FinitePoset:
    """Finite poset given by elements and strict down-set bitmasks."""

    __slots__ = ("_elements", "_below")

    def __init__(self, elements, below_masks):
        self._elements = tuple(elements)
        self._below = tuple(below_masks)

    @classmethod
    def from_relation(cls, elements, strictly_less):
        elems = tuple(elements)
        n = len(elems)
        below = [0] * n
        for i in range(n):
            for j in range(n):
                if i != j and strictly_less(elems[j], elems[i]):
                    below[i] |= 1 << j
        return cls(elems, below)

    @property
    def elements(self):
        return self._elements

    def __len__(self):
        return len(self._elements)

    def strictly_below(self, i):
        return self._below[i]

    def less(self, i, j):
        return bool(self._below[j] >> i & 1)

    def comparable(self, i, j):
        return i != j and (self.less(i, j) or self.less(j, i))

    def __repr__(self):
        return f"FinitePoset({len(self._elements)} elements)"


def order_complex(poset):
    """Flag complex of comparability; faces are the chains."""
    n = len(poset)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if poset.comparable(i, j):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return SimplicialComplex.flag_from_masks(poset.elements, adj)


def mobius_euler(poset):
    """Möbius value from adjoined bottom to adjoined top.

    The empty poset gives -1 and a singleton gives 0; in general this
    equals the reduced Euler characteristic of the order complex.
    """
    n = len(poset)
    vals = [0] * n
    order = sorted(range(n), key=lambda i: poset.strictly_below(i).bit_count())
    for i in order:
        below = sum(vals[j] for j in _bits(poset.strictly_below(i)))
        vals[i] = -(1 + below)
    return -(1 + sum(vals))


@dataclass(frozen=True)
class TubeUnion:
    """A nonempty set of pairwise separated tubes, as one poset element."""

    tubes: frozenset
    members: frozenset

    def sort_key(self):
        nodes = sorted(m for m in self.members if isinstance(m, int))
        labels = sorted(m for m in self.members if isinstance(m, str))
        return (tuple(nodes), tuple(labels))

    def __repr__(self):
        nodes, labels = self.sort_key()
        shown = [str(n) for n in nodes] + list(labels)
        return f"TubeUnion({','.join(shown)})"


def parity_subgraph_poset(
    graph,
    collection,
    parity="odd",
    exclude_collection=True,
    budget=None,
    system=None,
):
    """Poset of separated unions of tubes of the given meet parity."""
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', not {parity!r}")
    if not collection.issubset_of(graph):
        raise HostMismatchError(
            f"{collection!r} is not a subset of the graph's ground set"
        )
    budget = FaceBudget.ensure(budget)
    if system is None:
        system = TubeSystem(graph, budget)
    cmask = system.collection_mask(collection)
    want_odd = parity == "odd"
    idxs = [
        i
        for i in range(len(system.tubes))
        if system.meet_is_odd(i, cmask) == want_odd
    ]
    k = len(idxs)
    sep = [0] * k
    for a in range(k):
        ia = idxs[a]
        for b in range(a + 1, k):
            ib = idxs[b]
            if (
                system.node_masks[ia] & system.node_masks[ib] == 0
                and system.neighbor_masks[ia] & system.node_masks[ib] == 0
            ):
                sep[a] |= 1 << b
                sep[b] |= 1 << a

    cliques = []
    level = []
    for a in range(k):
        budget.charge()
        level.append((1 << a, a, sep[a]))
    cliques.extend(m for m, _, _ in level)
    while level:
        nxt = []
        for mask, last, common in level:
            ext = common & ~((1 << (last + 1)) - 1)
            while ext:
                b = ext & -ext
                j = b.bit_length() - 1
                ext ^= b
                budget.charge()
                nxt.append((mask | b, j, common & sep[j]))
        cliques.extend(m for m, _, _ in nxt)
        level = nxt

    target = collection.members()
    elements = []
    for mask in cliques:
        tubes = frozenset(system.tubes[idxs[a]] for a in _bits(mask))
        members = frozenset().union(*(t.representation() for t in tubes))
        if exclude_collection and members == target:
            continue
        elements.append(TubeUnion(tubes, members))
    elements.sort(key=TubeUnion.sort_key)

    n = len(elements)
    below = [0] * n
    for i in range(n):
        mi = elements[i].members
        for j in range(n):
            if i != j and elements[j].members < mi:
                below[i] |= 1 << j
    return FinitePoset(elements, below)
