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

from .complexes import FaceBudget, SimplicialComplex, _clique_levels
from .graphs import _bits
from .parity import _odd_tubes, _require_subset
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
    adj = [poset.strictly_below(i) for i in range(len(poset))]
    for i in range(len(poset)):
        for j in _bits(poset.strictly_below(i)):
            adj[j] |= 1 << i
    return SimplicialComplex(poset.elements, adj)


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
):
    """Poset of separated unions of tubes of the given meet parity."""
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', not {parity!r}")
    members = _require_subset(graph, collection)
    budget = FaceBudget.ensure(budget)
    system = TubeSystem(graph, budget)
    alive = _odd_tubes(system, members)
    if parity == "even":
        alive ^= (1 << len(system.repr_masks)) - 1

    target = collection.members()
    elements = []
    for mask in (m for level in _clique_levels(system.separated, alive, budget) for m in level):
        tubes = frozenset(system.tubes[a] for a in _bits(mask))
        members = frozenset().union(*(t.representation() for t in tubes))
        if exclude_collection and members == target:
            continue
        elements.append(TubeUnion(tubes, members))
    elements.sort(key=TubeUnion.sort_key)
    return FinitePoset.from_relation(elements, lambda a, b: a.members < b.members)
