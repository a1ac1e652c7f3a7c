"""Lattice data of the tubing polytope: facet normals and smoothness.

For a connected graph, rows are indexed by the restricted ground set (all
nodes and bundle labels except one designated node and one designated
label per bundle) and columns by the full ground set.  Every row reads
the designation's pairing of each such member m with its designated
partner: the generator matrix has -1 at m and +1 at the partner, so a
facet normal, the column sum over a tube's representation, has
[partner in tube] - [m in tube] in row m.

The characteristic matrix reduces tube incidence over GF(2) by the same
pairs, one row operation per dropped member; its columns agree with the
facet normals mod 2, which the tests exercise as a second route.

``delzant_check`` confirms that every maximal tubing yields a normal
matrix of determinant +-1, the smoothness condition for the polytope.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._intlinalg import det_bareiss, gf2_rank
from .complexes import FaceBudget, _bits
from .errors import DisconnectedError, HostMismatchError
from .graphs import _pairing
from .parity import _odd_tubes, _require_subset
from .tubes import TubeSystem


def _require_connected(graph):
    if not graph.is_connected():
        raise DisconnectedError("this construction needs a connected graph")


class LabeledMatrix:
    """Integer matrix with row and column labels."""

    __slots__ = ("row_labels", "col_labels", "entries", "_rindex", "_cindex")

    def __init__(self, row_labels, col_labels, entries):
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)
        self.entries = tuple(tuple(row) for row in entries)
        self._rindex = {r: i for i, r in enumerate(self.row_labels)}
        self._cindex = {c: j for j, c in enumerate(self.col_labels)}

    def entry(self, row_label, col_label):
        return self.entries[self._rindex[row_label]][self._cindex[col_label]]

    def row(self, row_label):
        return self.entries[self._rindex[row_label]]

    def column(self, col_label):
        j = self._cindex[col_label]
        return tuple(row[j] for row in self.entries)

    def to_lists(self):
        return [list(row) for row in self.entries]

    def __repr__(self):
        return (
            f"LabeledMatrix({len(self.row_labels)}x{len(self.col_labels)})"
        )


def polytope_dimension(graph):
    """One less than the node count per component, plus one less than the
    size of each bundle."""
    comps = graph.component_nodesets()
    dim = sum(len(c) - 1 for c in comps)
    dim += sum(len(b.labels) - 1 for b in graph.bundles)
    return dim


def normal_generator_matrix(graph, designation=None):
    """Matrix whose columns generate all facet normals (connected graphs).

    Rows follow the restricted ground set, columns the full ground set:
    row m has -1 at m and +1 at its designated partner.
    """
    _require_connected(graph)
    pairs = _pairing(graph, designation)
    cols = graph.ground_members()
    entries = [[(c == p) - (c == m) for c in cols] for m, p in pairs]
    return LabeledMatrix([m for m, _ in pairs], cols, entries)


def _normal(pairs, mask):
    """The facet normal of the tube with representation bitmask ``mask``
    over a designation's pairs as ground indices: per (member, partner)
    pair, [partner in tube] - [member in tube]."""
    return tuple((mask >> p & 1) - (mask >> m & 1) for m, p in pairs)


def facet_normal(graph, tube, designation=None):
    """Column sum of the generator matrix over the tube's representation."""
    if tube.host != graph:
        raise HostMismatchError("tube belongs to a different graph")
    _require_connected(graph)
    index = graph.ground_index()
    pairs = [(index[m], index[p]) for m, p in _pairing(graph, designation)]
    return _normal(pairs, sum(1 << index[x] for x in tube.representation()))


def _tube_matrix(system, row_labels, masks):
    """0/1 matrix of ``row_labels`` against the tubes of ``system``: the
    row of a label is its bitmask over the tubes, in ``masks``."""
    cols = tuple(t.name() for t in system.tubes)
    entries = [[mask >> j & 1 for j in range(len(cols))] for mask in masks]
    return LabeledMatrix(row_labels, cols, entries)


def tube_incidence_matrix(graph, budget=None):
    """0/1 matrix: ground members against tubes, 1 when the member sits in
    the tube's representation."""
    _require_connected(graph)
    system = TubeSystem(graph, budget)
    return _tube_matrix(system, graph.ground_members(), system.columns)


def _characteristic_row_masks(system, pairs):
    """Rows of the characteristic matrix as bitmasks over the tube columns
    of ``system``: per (member, partner) pair, the tubes holding exactly
    one of the two, the parity map of that row of
    :class:`~tubings.parity._EvenFamily`."""
    index = system.graph.ground_index()
    return [system.columns[index[m]] ^ system.columns[index[p]] for m, p in pairs]


def characteristic_matrix(graph, designation=None, budget=None):
    """GF(2) matrix over restricted ground rows and tube columns."""
    _require_connected(graph)
    system = TubeSystem(graph, budget)
    pairs = _pairing(graph, designation)
    return _tube_matrix(system, [m for m, _ in pairs], _characteristic_row_masks(system, pairs))


def characteristic_rank(graph, budget=None):
    """GF(2) rank of the characteristic matrix.  Row operations keep the
    rank, so it is the same for every designation; the default is used."""
    _require_connected(graph)
    system = TubeSystem(graph, budget)
    return gf2_rank(_characteristic_row_masks(system, _pairing(graph)))


def collection_parity_vector(graph, collection, budget=None):
    """Per-tube meet parity with the collection, in tube order."""
    _require_connected(graph)
    _require_subset(graph, collection)
    system = TubeSystem(graph, budget)
    odd = _odd_tubes(system, system.collection_mask(collection))
    return tuple(odd >> j & 1 for j in range(len(system.repr_masks)))


@dataclass(frozen=True)
class DelzantFailure:
    tubing: tuple
    reason: str


@dataclass(frozen=True)
class DelzantReport:
    ok: bool
    tubings_checked: int
    tubing_size: int | None
    characteristic_rank: int
    expected_rank: int
    failures: tuple


def delzant_check(graph, budget=None):
    """Verify determinant +-1 for the normal matrix of every maximal
    tubing, plus the expected tubing size and characteristic rank.

    Both reports are taken in the default designation: a change of
    designation is a unimodular change of basis, which keeps every |det|,
    and a sequence of GF(2) row operations, which keeps the rank."""
    _require_connected(graph)
    budget = FaceBudget.ensure(budget)
    system = TubeSystem(graph, budget)
    pairs = _pairing(graph)
    index = graph.ground_index()
    at = [(index[m], index[p]) for m, p in pairs]
    normals = [_normal(at, rm) for rm in system.repr_masks]
    dim = polytope_dimension(graph)
    failures = []
    sizes = set()
    masks = system.tubing_complex().maximal_face_masks(budget)
    for mask in masks:
        bits = list(_bits(mask))
        sizes.add(len(bits))
        if len(bits) != dim:
            reason = f"size {len(bits)} != {dim}"
        else:
            det = det_bareiss([normals[i] for i in bits])
            if abs(det) == 1:
                continue
            reason = f"determinant {det}"
        names = tuple(system.tubes[i].name() for i in bits)
        failures.append(DelzantFailure(names, reason))
    rank = gf2_rank(_characteristic_row_masks(system, pairs))
    if rank != dim:
        failures.append(DelzantFailure((), f"characteristic rank {rank} != {dim}"))
    return DelzantReport(
        ok=not failures,
        tubings_checked=len(masks),
        tubing_size=sizes.pop() if len(sizes) == 1 else None,
        characteristic_rank=rank,
        expected_rank=dim,
        failures=tuple(failures),
    )
