"""Lattice data of the tubing polytope: facet normals and smoothness.

For a connected graph, rows are indexed by the restricted ground set (all
nodes and bundle labels except one designated node and one designated
label per bundle) and columns by the full ground set.  The generator
matrix has -1 on the diagonal and +1 in the designated column of the same
sort; a facet normal is the column sum over a tube's representation.

The characteristic matrix reduces tube incidence over GF(2) by the same
designation, one row operation per dropped member; its columns agree with
the facet normals mod 2, which the tests exercise as a second route.

``delzant_check`` confirms that every maximal tubing yields a normal
matrix of determinant +-1, the smoothness condition for the polytope.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._intlinalg import det_bareiss, gf2_rank
from .complexes import FaceBudget, _bits
from .errors import DisconnectedError, HostMismatchError
from .graphs import Designation, restricted_ground
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

    Rows follow the restricted ground set, columns the full ground set.
    """
    _require_connected(graph)
    d = Designation.resolve(graph, designation)
    rows = restricted_ground(graph, d)
    cols = graph.ground_members()
    designated_node = next(iter(d.nodes))
    entries = []
    for r in rows:
        row = []
        if isinstance(r, int):
            partner = designated_node
        else:
            bundle = graph.bundle_of(r)
            partner = next(iter(d.labels & set(bundle.labels)))
        for c in cols:
            if c == r:
                row.append(-1)
            elif c == partner:
                row.append(1)
            else:
                row.append(0)
        entries.append(row)
    return LabeledMatrix(rows, cols, entries)


def facet_normal(graph, tube, designation=None, matrix=None):
    """Column sum of the generator matrix over the tube's representation."""
    if tube.host != graph:
        raise HostMismatchError("tube belongs to a different graph")
    if matrix is None:
        matrix = normal_generator_matrix(graph, designation)
    total = [0] * len(matrix.row_labels)
    for member in tube.representation():
        col = matrix.column(member)
        for i, v in enumerate(col):
            total[i] += v
    return tuple(total)


def tube_incidence_matrix(graph, budget=None, system=None):
    """0/1 matrix: ground members against tubes, 1 when the member sits in
    the tube's representation."""
    _require_connected(graph)
    if system is None:
        system = TubeSystem(graph, budget)
    rows = graph.ground_members()
    cols = tuple(t.name() for t in system.tubes)
    entries = []
    for i, m in enumerate(rows):
        bit = 1 << i
        entries.append(
            [1 if system.repr_masks[j] & bit else 0 for j in range(len(system.tubes))]
        )
    return LabeledMatrix(rows, cols, entries)


def _characteristic_row_masks(graph, designation=None, budget=None, system=None):
    """Rows of the characteristic matrix as bitmasks over tube columns."""
    _require_connected(graph)
    if system is None:
        system = TubeSystem(graph, budget)
    d = Designation.resolve(graph, designation)
    idx = graph.ground_index()
    incidence = []
    for i in range(len(graph.ground_members())):
        bit = 1 << i
        m = 0
        for j, rm in enumerate(system.repr_masks):
            if rm & bit:
                m |= 1 << j
        incidence.append(m)
    designated_node = next(iter(d.nodes))
    rows = []
    for r in restricted_ground(graph, d):
        if isinstance(r, int):
            partner = designated_node
        else:
            bundle = graph.bundle_of(r)
            partner = next(iter(d.labels & set(bundle.labels)))
        rows.append(incidence[idx[r]] ^ incidence[idx[partner]])
    return rows, system


def characteristic_matrix(graph, designation=None, budget=None, system=None):
    """GF(2) matrix over restricted ground rows and tube columns."""
    masks, system = _characteristic_row_masks(graph, designation, budget, system)
    d = Designation.resolve(graph, designation)
    rows = restricted_ground(graph, d)
    cols = tuple(t.name() for t in system.tubes)
    n = len(system.tubes)
    entries = [[mask >> j & 1 for j in range(n)] for mask in masks]
    return LabeledMatrix(rows, cols, entries)


def characteristic_rank(graph, designation=None, budget=None, system=None):
    masks, _ = _characteristic_row_masks(graph, designation, budget, system)
    return gf2_rank(masks)


def collection_parity_vector(graph, collection, budget=None, system=None):
    """Per-tube meet parity with the collection, in tube order."""
    _require_connected(graph)
    if not collection.issubset_of(graph):
        raise HostMismatchError(
            f"{collection!r} is not a subset of the graph's ground set"
        )
    if system is None:
        system = TubeSystem(graph, budget)
    cmask = system.collection_mask(collection)
    return tuple(
        (system.repr_masks[j] & cmask).bit_count() & 1
        for j in range(len(system.tubes))
    )


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


def delzant_check(graph, budget=None, designation=None, system=None):
    """Verify determinant +-1 for the normal matrix of every maximal
    tubing, plus the expected tubing size and characteristic rank."""
    _require_connected(graph)
    budget = FaceBudget.ensure(budget)
    if system is None:
        system = TubeSystem(graph, budget)
    matrix = normal_generator_matrix(graph, designation)
    dim = polytope_dimension(graph)
    failures = []
    sizes = set()
    masks = system.tubing_complex().maximal_face_masks(budget)
    for mask in masks:
        tubes = [system.tubes[i] for i in _bits(mask)]
        sizes.add(len(tubes))
        names = tuple(t.name() for t in tubes)
        if len(tubes) != dim:
            failures.append(DelzantFailure(names, f"size {len(tubes)} != {dim}"))
            continue
        rows = [list(facet_normal(graph, t, matrix=matrix)) for t in tubes]
        det = det_bareiss(rows)
        if abs(det) != 1:
            failures.append(DelzantFailure(names, f"determinant {det}"))
    rank = characteristic_rank(graph, designation, budget, system)
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
