import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubings import (
    Collection,
    Designation,
    DisconnectedError,
    HostMismatchError,
    LabeledMatrix,
    Pseudograph,
    Tube,
    TubeSystem,
    characteristic_matrix,
    characteristic_rank,
    collection_parity_vector,
    delzant_check,
    facet_normal,
    normal_generator_matrix,
    polytope_dimension,
    restricted_ground,
    tube_incidence_matrix,
)
import tubings.lattice
from tubings._intlinalg import det_bareiss
from tubings.graphs import _pairing
from tubings.lattice import DelzantFailure, _characteristic_row_masks
from tubings.parity import _EvenFamily


def test_labeled_matrix_accessors():
    m = LabeledMatrix(["r1", "r2"], ["c1", "c2", "c3"], [[1, 2, 3], [4, 5, 6]])
    assert m.entry("r2", "c3") == 6
    assert m.row("r1") == (1, 2, 3)
    assert m.column("c2") == (2, 5)
    assert m.to_lists() == [[1, 2, 3], [4, 5, 6]]
    assert repr(m) == "LabeledMatrix(2x3)"


def test_polytope_dimension(bundle_path3, bundle_path4, bundle_tree5):
    assert polytope_dimension(bundle_path3) == 3
    assert polytope_dimension(bundle_path4) == 5
    assert polytope_dimension(bundle_tree5) == 7
    two_pieces = Pseudograph([1, 2, 3, 4], [(1, 2, None), (3, 4, None)])
    assert polytope_dimension(two_pieces) == 2


def test_generator_matrix(bundle_path3):
    m = normal_generator_matrix(bundle_path3)
    assert m.row_labels == (1, 2, "a")
    assert m.col_labels == (1, 2, 3, "a", "b")
    assert m.to_lists() == [
        [-1, 0, 1, 0, 0],
        [0, -1, 1, 0, 0],
        [0, 0, 0, -1, 1],
    ]
    # every column sums to zero against the dropped representatives
    assert m.column(3) == (1, 1, 0)
    assert m.column("b") == (0, 0, 1)


def test_facet_normals(bundle_path3):
    g = bundle_path3
    expected = {
        "1": (-1, 0, 0),
        "12a": (-1, -1, -1),
        "12ab": (-1, -1, 0),
        "12b": (-1, -1, 1),
        "123a": (0, 0, -1),
        "123b": (0, 0, 1),
        "2": (0, -1, 0),
        "23": (1, 0, 0),
        "3": (1, 1, 0),
    }
    system = TubeSystem(g, None)
    assert {t.name() for t in system.tubes} == set(expected)
    for t in system.tubes:
        assert facet_normal(g, t) == expected[t.name()]


def test_facet_normal_rejects_foreign_tube(bundle_path3, path3):
    tube = Tube(path3, [1, 2])
    with pytest.raises(HostMismatchError):
        facet_normal(bundle_path3, tube)


def test_incidence_matrix(bundle_path3):
    inc = tube_incidence_matrix(bundle_path3)
    assert inc.row_labels == (1, 2, 3, "a", "b")
    assert inc.col_labels == (
        "1", "12a", "12ab", "12b", "123a", "123b", "2", "23", "3",
    )
    assert inc.row(1) == (1, 1, 1, 1, 1, 1, 0, 0, 0)
    assert inc.row(3) == (0, 0, 0, 0, 1, 1, 0, 1, 1)
    # a column restates the tube's representation
    assert inc.column("12a") == (1, 1, 0, 1, 0)


def test_characteristic_matrix(bundle_path3):
    lam = characteristic_matrix(bundle_path3)
    assert lam.row_labels == (1, 2, "a")
    assert lam.col_labels == (
        "1", "12a", "12ab", "12b", "123a", "123b", "2", "23", "3",
    )
    assert lam.to_lists() == [
        [1, 1, 1, 1, 0, 0, 0, 1, 1],
        [0, 1, 1, 1, 0, 0, 1, 0, 1],
        [0, 1, 0, 1, 1, 1, 0, 0, 0],
    ]
    assert characteristic_rank(bundle_path3) == 3


def test_characteristic_agrees_with_normals_mod_two(bundle_path3, bundle_path4):
    for g in (bundle_path3, bundle_path4):
        lam = characteristic_matrix(g)
        d = Designation.default(g)
        system = TubeSystem(g, None)
        for t in system.tubes:
            normal = facet_normal(g, t, d)
            assert lam.column(t.name()) == tuple(v % 2 for v in normal)


def test_parity_vector(bundle_path3):
    g = bundle_path3
    c = Collection.of(g, [2, 3, "a", "b"])
    assert collection_parity_vector(g, c) == (0, 0, 1, 0, 1, 1, 1, 0, 1)
    empty = Collection.of(g, [])
    assert collection_parity_vector(g, empty) == (0,) * 9


def test_parity_vector_wrong_host(bundle_path3, bundle_cycle4):
    c = Collection.of(bundle_cycle4, [3, 4])
    with pytest.raises(HostMismatchError):
        collection_parity_vector(bundle_path3, c)


def test_delzant_bundle_path(bundle_path3):
    report = delzant_check(bundle_path3)
    assert report.ok, report.failures
    assert report.tubings_checked == 14
    assert report.tubing_size == 3
    assert report.characteristic_rank == 3
    assert report.expected_rank == 3


def test_delzant_double_bundle(bundle_path4):
    report = delzant_check(bundle_path4)
    assert report.ok, report.failures
    assert report.tubings_checked == 260
    assert report.tubing_size == 5
    assert report.characteristic_rank == 5


def _maximal_tubings(g):
    """Every maximal tubing of ``g`` as its tubes in tube order."""
    system = TubeSystem(g)
    return [
        [t for i, t in enumerate(system.tubes) if mask >> i & 1]
        for mask in system.tubing_complex().maximal_face_masks()
    ]


def test_delzant_reports_a_bad_determinant(bundle_path3, monkeypatch):
    """With det_bareiss giving 2 on one tubing, that tubing, named tube by
    tube in tube order, is the one failure."""
    bad = _maximal_tubings(bundle_path3)[5]
    bad_rows = [list(facet_normal(bundle_path3, t)) for t in bad]

    def det(rows):
        return 2 if [list(r) for r in rows] == bad_rows else det_bareiss(rows)

    monkeypatch.setattr(tubings.lattice, "det_bareiss", det)
    report = delzant_check(bundle_path3)
    assert report.ok is False
    assert report.tubings_checked == 14
    assert report.failures == (
        DelzantFailure(tuple(t.name() for t in bad), "determinant 2"),
    )


def test_delzant_reports_every_tubing_of_the_wrong_size(bundle_path3, monkeypatch):
    """With the expected dimension one too high, every tubing fails on its
    size, none reaches a determinant, and the count of tubings stays."""
    dim = polytope_dimension(bundle_path3)
    monkeypatch.setattr(tubings.lattice, "polytope_dimension", lambda g: dim + 1)
    monkeypatch.setattr(tubings.lattice, "det_bareiss", None)
    report = delzant_check(bundle_path3)
    assert report.ok is False
    assert report.tubings_checked == 14
    assert report.tubing_size == dim
    assert report.failures == (
        *(DelzantFailure(tuple(t.name() for t in tubing), f"size {dim} != {dim + 1}")
          for tubing in _maximal_tubings(bundle_path3)),
        DelzantFailure((), f"characteristic rank {dim} != {dim + 1}"),
    )


def test_delzant_work_scales_with_tubes(k4_triple_bundle, monkeypatch):
    """One facet normal per tube, however many tubings hold it, and no tube
    named when every tubing passes."""
    normals, names = [], []
    normal = tubings.lattice._normal
    name = Tube.name

    def spy_normal(pairs, mask):
        normals.append(mask)
        return normal(pairs, mask)

    def spy_name(tube):
        names.append(tube)
        return name(tube)

    monkeypatch.setattr(tubings.lattice, "_normal", spy_normal)
    monkeypatch.setattr(Tube, "name", spy_name)
    report = delzant_check(k4_triple_bundle)
    assert report.ok, report.failures
    assert report.tubings_checked == 360
    assert normals == TubeSystem(k4_triple_bundle).repr_masks
    assert len(normals) == 38
    assert names == []


def test_delzant_other_designation(bundle_path3, bundle_path4):
    """delzant_check works in the default designation only; every other
    designation is checked here directly: |det| = 1 over every maximal
    tubing, the facet normals taken in that designation."""
    report = delzant_check(bundle_path4)
    assert report.ok, report.failures
    assert report.tubings_checked == 260
    assert report.characteristic_rank == 5
    middle = {
        bundle_path3: Designation(nodes=frozenset({2}), labels=frozenset({"b"})),
        bundle_path4: Designation(nodes=frozenset({2}), labels=frozenset({"b", "c"})),
    }
    for g in (bundle_path3, bundle_path4):
        system = TubeSystem(g)
        masks = system.tubing_complex().maximal_face_masks()
        for d in (Designation.first(g), middle[g]):
            for mask in masks:
                tubes = [t for i, t in enumerate(system.tubes) if mask >> i & 1]
                rows = [list(facet_normal(g, t, d)) for t in tubes]
                assert abs(det_bareiss(rows)) == 1, (d, [t.name() for t in tubes])


def test_connected_only():
    g = Pseudograph([1, 2, 3, 4], [(1, 2, None), (3, 4, None)])
    with pytest.raises(DisconnectedError):
        normal_generator_matrix(g)
    with pytest.raises(DisconnectedError):
        facet_normal(g, Tube(g, [1]))
    with pytest.raises(DisconnectedError):
        tube_incidence_matrix(g)
    with pytest.raises(DisconnectedError):
        characteristic_matrix(g)
    with pytest.raises(DisconnectedError):
        characteristic_rank(g)
    with pytest.raises(DisconnectedError):
        delzant_check(g)
    with pytest.raises(DisconnectedError):
        collection_parity_vector(g, Collection.of(g, [1, 2]))


@st.composite
def connected_pseudographs(draw):
    """A connected pseudograph on at most five nodes with at most two
    bundles, of two or three edges: a random spanning tree plus any
    pairs."""
    nodes = list(range(1, draw(st.integers(1, 5)) + 1))
    pairs = {(draw(st.integers(1, v - 1)), v) for v in nodes[1:]}
    pairs |= draw(st.sets(st.sampled_from(list(itertools.combinations(nodes, 2))))) if len(nodes) > 1 else set()
    pairs = sorted(pairs)
    fat = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2)) if pairs else []
    edges = [(u, v, None) for u, v in pairs if (u, v) not in fat]
    for alphabet, (u, v) in zip(("abc", "def"), fat):
        edges += [(u, v, lab) for lab in alphabet[: draw(st.integers(2, 3))]]
    return Pseudograph(nodes, edges)


@st.composite
def designated_graphs(draw):
    """A connected pseudograph with its default designation, its first
    designation, or one node and one label per bundle drawn at random."""
    g = draw(connected_pseudographs())
    kind = draw(st.sampled_from(("default", "first", "drawn")))
    if kind == "default":
        return g, Designation.default(g)
    if kind == "first":
        return g, Designation.first(g)
    labels = frozenset(draw(st.sampled_from(b.labels)) for b in g.bundles)
    return g, Designation(frozenset({draw(st.sampled_from(g.nodes))}), labels)


@settings(max_examples=80, deadline=None)
@given(designated_graphs())
def test_lattice_outputs_follow_the_designated_partners(case):
    """A member outside the designation pairs with the designated node (the
    graph is connected) or with the designated label on its own endpoint
    pair, worked out here from the edges.  The generator matrix (-1 at the
    member, +1 at its partner), every facet normal (that matrix's column
    sum over the tube), the restricted ground set and the rows of the
    even-collection index all follow these partners."""
    g, d = case
    (last,) = d.nodes
    partner = dict.fromkeys(g.nodes, last)
    ends = {lab: (u, v) for u, v, lab in g.edges if lab is not None}
    for lab in d.labels:
        partner.update((x, lab) for x, e in ends.items() if e == ends[lab])
    ground = g.ground_members()
    free = [m for m in ground if partner[m] != m]
    rows = [[1 if c == partner[m] else -1 if c == m else 0 for c in ground] for m in free]
    matrix = normal_generator_matrix(g, d)
    assert matrix.row_labels == tuple(free)
    assert matrix.col_labels == ground
    assert matrix.to_lists() == rows
    for t in TubeSystem(g).tubes:
        rep = t.representation()
        column_sum = tuple(sum(v for v, c in zip(row, ground) if c in rep) for row in rows)
        assert facet_normal(g, t, d) == column_sum
    assert restricted_ground(g, d) == tuple(free)
    position = {m: i for i, m in enumerate(ground)}
    assert _EvenFamily(g, d).rows == [1 << position[m] | 1 << position[partner[m]] for m in free]


@settings(max_examples=60, deadline=None)
@given(connected_pseudographs(), st.booleans())
def test_odd_tube_masks_are_the_row_space_of_the_characteristic_matrix(g, first):
    """Λ is the facet normals mod 2: the normal generator matrix reduced mod
    2 times the tube incidence matrix, both built here from the tubes'
    representations.  Index for index, the XOR of the rows of Λ picked by
    the bits of an even-collection index is the set of tubes meeting that
    collection oddly, and distinct indices give distinct sets."""
    d = Designation.first(g) if first else Designation.default(g)
    system = TubeSystem(g)
    reps = [t.representation() for t in system.tubes]
    incidence = [[int(m in rep) for rep in reps] for m in g.ground_members()]
    assert tube_incidence_matrix(g).to_lists() == incidence
    normals = normal_generator_matrix(g, d)
    lam = characteristic_matrix(g, d)
    assert lam.row_labels == normals.row_labels
    for row, lam_row in zip(normals.entries, lam.entries):
        column_sums = [sum(a * b for a, b in zip(row, col)) % 2 for col in zip(*incidence)]
        assert list(lam_row) == column_sums
    rows = _characteristic_row_masks(system, _pairing(g, d))
    family = _EvenFamily(g, d)
    seen = set()
    for index in range(family.count()):
        xor = 0
        for j, row in enumerate(rows):
            if index >> j & 1:
                xor ^= row
        members = family.collection_at(index).members()
        odd = [i for i, t in enumerate(system.tubes) if len(t.representation() & members) % 2]
        assert xor == sum(1 << i for i in odd)
        seen.add(xor)
    assert len(seen) == family.count()
