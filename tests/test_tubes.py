import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubings import (
    Collection,
    FaceBudget,
    FaceBudgetExceededError,
    GraphError,
    HostMismatchError,
    Pseudograph,
    Tube,
    TubeSystem,
    compatible,
    cross_check,
    delzant_check,
    enumerate_tubes,
    even_collections,
    is_tubing,
    odd_tube_complex,
    poincare_brute,
    poincare_reduced,
    tubing_complex,
)
from tubings.graphs import _connected_sets, _split
from test_acceptance import _small_connected_family
from test_symmetry import pseudographs


def names(tubes):
    return sorted(t.name() for t in tubes)


def test_tube_requires_connected_nodes(bundle_path3):
    with pytest.raises(GraphError):
        Tube(bundle_path3, [1, 3])


def test_tube_requires_bundle_choice(bundle_path3):
    with pytest.raises(GraphError):
        Tube(bundle_path3, [1, 2])  # internal bundle left empty
    assert Tube(bundle_path3, [1, 2], ["a"]).name() == "12a"


def test_tube_rejects_stray_labels(bundle_path3):
    with pytest.raises(GraphError):
        Tube(bundle_path3, [2, 3], ["a"])


def test_whole_graph_is_not_a_tube(bundle_path3):
    with pytest.raises(GraphError):
        Tube(bundle_path3, [1, 2, 3], ["a", "b"])
    # dropping one bundle edge makes it proper again
    assert Tube(bundle_path3, [1, 2, 3], ["a"]).representation() == {1, 2, 3, "a"}


def test_whole_component_is_a_tube_when_graph_is_larger():
    g = Pseudograph([1, 2, 5], [(1, 2, None)])
    t = Tube(g, [1, 2])
    assert t.representation() == {1, 2}
    assert compatible(t, Tube(g, [5]))


def test_tube_representation_and_closure(bundle_tree5):
    g = bundle_tree5
    assert Tube(g, [2]).label_closure() == {2, "a", "b", "c", "d", "e"}
    assert Tube(g, [1, 2], ["a"]).label_closure() == {1, 2, "a", "c", "d", "e"}
    assert Tube(g, [4, 5], ["c", "d", "e"]).label_closure() == {4, 5, "c", "d", "e", "a", "b"}


def test_enumerate_tubes_small_path(bundle_path3):
    assert names(enumerate_tubes(bundle_path3)) == sorted(
        ["1", "2", "3", "23", "12a", "12b", "12ab", "123a", "123b"]
    )


def test_enumerate_tube_counts(bundle_path4, bundle_tree5, bundle_cycle4):
    assert len(enumerate_tubes(bundle_path4)) == 31
    assert len(enumerate_tubes(bundle_tree5)) == 82
    assert len(enumerate_tubes(bundle_cycle4)) == 20


def connected_by_search(graph, nodes):
    """Whether the node set induces a connected subgraph, by a search over
    the graph's neighbour sets."""
    start = min(nodes)
    seen, queue = {start}, [start]
    for u in queue:
        for w in graph.neighbors(u):
            if w in nodes and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == nodes


def tubes_by_filter(graph):
    """Every tube as (nodes, labels), straight from the definition: a
    connected node set with a nonempty label subset of each bundle inside
    it, and not the whole graph with every label."""
    everything = (frozenset(graph.nodes), frozenset(graph.bundle_labels))
    found = set()
    for r in range(1, len(graph.nodes) + 1):
        for sub in itertools.combinations(graph.nodes, r):
            nodes = frozenset(sub)
            if not connected_by_search(graph, nodes):
                continue
            pools = [
                [c for k in range(1, len(b.labels) + 1) for c in itertools.combinations(b.labels, k)]
                for b in graph.bundles
                if b.u in nodes and b.v in nodes
            ]
            for choice in itertools.product(*pools):
                labels = frozenset(lab for grp in choice for lab in grp)
                if (nodes, labels) != everything:
                    found.add((nodes, labels))
    return found


def assert_tubes_match_filter(g):
    tubes = enumerate_tubes(g)
    expected = tubes_by_filter(g)
    assert len(tubes) == len(expected)
    assert {(t.nodes, t.labels) for t in tubes} == expected
    # and Tube's own check accepts exactly these candidates
    for r in range(1, len(g.nodes) + 1):
        for sub in itertools.combinations(g.nodes, r):
            nodes = frozenset(sub)
            labels = [lab for b in g.bundles if b.u in nodes and b.v in nodes for lab in b.labels]
            for k in range(len(labels) + 1):
                for picked in itertools.combinations(labels, k):
                    try:
                        Tube(g, nodes, picked)
                    except GraphError:
                        assert (nodes, frozenset(picked)) not in expected
                    else:
                        assert (nodes, frozenset(picked)) in expected


def test_enumerate_tubes_matches_direct_filter(bundle_path4):
    """Cross-check the enumerator and Tube's check against the definition,
    connectivity decided by a search of this test's own."""
    assert_tubes_match_filter(bundle_path4)


@settings(max_examples=80, deadline=None)
@given(pseudographs())
def test_enumerate_tubes_matches_direct_filter_on_random_graphs(g):
    assert_tubes_match_filter(g)


@settings(max_examples=100, deadline=None)
@given(pseudographs(), st.data())
def test_connected_sets_walk_every_connected_subset_once(g, data):
    """Inside the whole node mask and inside a drawn one, disconnected
    graphs included: each connected subset once, and nothing else."""
    nbr = g._neighbour_masks
    full = (1 << len(g.nodes)) - 1
    assert list(_connected_sets(nbr, 0)) == []
    for mask in (full, data.draw(st.integers(0, full))):
        walked = list(_connected_sets(nbr, mask))
        assert len(walked) == len(set(walked))
        inside = (sub for sub in range(1, full + 1) if not sub & ~mask)
        assert set(walked) == {sub for sub in inside if len(_split(nbr, sub)) == 1}


@pytest.mark.parametrize(
    "graph, used",
    [
        (Pseudograph([1, 2, 3, 4], [(1, 3), (1, 2, "a"), (1, 2, "b"), (2, 4, "c"), (2, 4, "d")]), 42),
        (Pseudograph([1, 2, 3, 4], [(1, 2), (3, 4)]), 6),
        (Pseudograph([1, 2, 3, 4, 5], [(1, 2, "a"), (1, 2, "b"), (2, 3), (4, 5)]), 16),
    ],
)
def test_enumerate_tubes_charges_each_node_subset_and_label_choice(graph, used):
    """One face per nonempty node subset of each component, connected or
    not, and one per label choice of a connected one."""
    budget = FaceBudget()
    enumerate_tubes(graph, budget)
    assert budget.used == used


def test_compatibility_by_inclusion_and_separation(bundle_tree5):
    g = bundle_tree5
    i1 = Tube(g, [2])
    i3 = Tube(g, [1, 2], ["a"])
    i4 = Tube(g, [2, 4, 5], ["c", "d", "e"])
    i5 = Tube(g, [5])
    assert compatible(i1, i4)  # nested
    assert not compatible(i3, i4)  # overlap without nesting
    assert compatible(i1, i5)  # separated: 2 and 5 are not adjacent
    assert not compatible(i1, Tube(g, [3]))  # 2-3 edge forbids separation
    assert not compatible(i1, i1)


def test_equal_node_set_different_labels(bundle_path3):
    a = Tube(bundle_path3, [1, 2], ["a"])
    b = Tube(bundle_path3, [1, 2], ["b"])
    ab = Tube(bundle_path3, [1, 2], ["a", "b"])
    assert not compatible(a, b)
    assert compatible(a, ab) and compatible(b, ab)


def test_is_tubing(bundle_tree5):
    g = bundle_tree5
    i1 = Tube(g, [2])
    i3 = Tube(g, [1, 2], ["a"])
    i4 = Tube(g, [2, 4, 5], ["c", "d", "e"])
    i5 = Tube(g, [5])
    assert is_tubing([i1, i4, i5])
    assert not is_tubing([i1, i3, i4])
    assert is_tubing([])


def test_compatible_rejects_different_hosts(bundle_path3, path3):
    with pytest.raises(HostMismatchError):
        compatible(Tube(bundle_path3, [3]), Tube(path3, [3]))


def test_tubing_complex_shape(bundle_path3):
    k = tubing_complex(bundle_path3)
    assert k.n_vertices() == 9
    maxima = k.maximal_faces()
    assert {len(f) for f in maxima} == {3}
    assert len(maxima) == 14


def test_tube_enumeration_respects_budget(bundle_path4):
    with pytest.raises(FaceBudgetExceededError):
        enumerate_tubes(bundle_path4, FaceBudget(5))


def test_tube_system_indexing(bundle_path3):
    sys = TubeSystem(bundle_path3)
    assert len(sys.tubes) == 9
    t = Tube(bundle_path3, [1, 2], ["a", "b"])
    i = sys.tubes.index(t)
    assert sys.tubes[i] == t
    # representation masks track the declared member order
    mask = sys.repr_masks[i]
    members = [m for j, m in enumerate(sys.graph.ground_members()) if mask >> j & 1]
    assert set(members) == {1, 2, "a", "b"}


def test_tubes_of_disconnected_graph_stay_inside_components():
    g = Pseudograph([1, 2, 3, 4], [(1, 2, None), (3, 4, None)])
    ts = enumerate_tubes(g)
    assert names(ts) == sorted(["1", "2", "3", "4", "12", "34"])
    for t in ts:
        comp_sizes = {len(c) for c in t.host.component_nodesets()}
        assert comp_sizes == {2}


def test_random_tube_pairs_compatibility_symmetry(bundle_path4):
    rng = random.Random(0)
    tubes = enumerate_tubes(bundle_path4)
    for _ in range(200):
        a, b = rng.choice(tubes), rng.choice(tubes)
        assert compatible(a, b) == compatible(b, a)
        if a == b:
            assert not compatible(a, b)


def test_tube_sorting_is_stable(bundle_path3):
    tubes = enumerate_tubes(bundle_path3)
    assert list(tubes) == sorted(tubes, key=lambda t: t.sort_key())


BUNDLE_GRAPHS = (
    Pseudograph([1, 2, 3], [(1, 2, "a"), (1, 2, "b"), (2, 3, None)]),
    Pseudograph(
        [1, 2, 3, 4],
        [(1, 2, "a"), (1, 2, "b"), (2, 3, None), (3, 4, None), (1, 4, None)],
    ),
    Pseudograph(
        [1, 2, 3, 4],
        [(1, 2, "a"), (1, 2, "b"), (1, 3, None), (1, 4, None),
         (2, 3, None), (2, 4, None), (3, 4, "c"), (3, 4, "d"), (3, 4, "e")],
    ),
)
SYSTEMS = [TubeSystem(g) for g in BUNDLE_GRAPHS]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_complex_on_is_the_induced_tubing_complex(data):
    system = data.draw(st.sampled_from(SYSTEMS))
    tubes = system.tubes
    idxs = data.draw(st.lists(st.integers(0, len(tubes) - 1), unique=True))
    sub = system.complex_on(sum(1 << i for i in idxs))
    # the vertices come in tube order
    assert sub.vertices == tuple(tubes[i] for i in sorted(idxs))
    assert sub.n_vertices() == len(idxs)
    # bit i is tube i: the masks are the tube system's own
    for i in range(len(tubes)):
        assert bool(sub._mask >> i & 1) == (i in idxs)
    for i in idxs:
        for j in idxs:
            assert bool(sub._adj[i] >> j & 1) == (i != j and compatible(tubes[i], tubes[j]))
    induced = system.tubing_complex().induced([tubes[i] for i in idxs])
    assert induced.vertices == sub.vertices
    assert induced.maximal_faces() == sub.maximal_faces()
    assert induced.betti_reduced() == sub.betti_reduced()


DISCONNECTED = (
    Pseudograph([1, 2, 3, 4, 5], [(1, 2, "a"), (1, 2, "b"), (2, 3, None), (4, 5, None)]),
    Pseudograph([1, 2, 3, 4], [(1, 2, None), (1, 3, None), (2, 3, None)]),
)


def test_column_built_adjacency_is_pairwise_compatibility():
    """Every 10th graph of criterion 7's family and two disconnected ones:
    the masks built from the member columns are the pair relation."""
    family = itertools.islice(_small_connected_family(), 0, None, 10)
    for g in itertools.chain((g for _, g in family), DISCONNECTED):
        system = TubeSystem(g)
        tubes = system.tubes
        adj = system.tubing_complex()._adj
        for i, a in enumerate(tubes):
            assert adj[i] == sum(1 << j for j, b in enumerate(tubes) if compatible(a, b))
            assert system.separated[i] == sum(
                1 << j for j, b in enumerate(tubes) if a.separated_from(b)
            )
        for m, col in zip(system.graph.ground_members(), system.columns):
            assert col == sum(1 << j for j, t in enumerate(tubes) if m in t.representation())


def test_complex_on_rejects_bad_indices():
    system = SYSTEMS[0]
    n = len(system.tubes)
    assert system.complex_on((1 << n) - 1).n_vertices() == n
    for bad in (1 << n | 1, -1):
        with pytest.raises(IndexError):
            system.complex_on(bad)


@pytest.mark.parametrize("system", SYSTEMS)
def test_bit_i_of_every_odd_complex_is_tube_i(system):
    tubes = system.tubes
    for c in even_collections(system.graph):
        cmask = system.collection_mask(c)
        k = odd_tube_complex(system.graph, c, system=system)
        odd = [i for i, rm in enumerate(system.repr_masks) if (rm & cmask).bit_count() & 1]
        assert k.vertices == tuple(tubes[i] for i in odd)
        faces = {
            tuple(tubes[i] for i in range(len(tubes)) if mask >> i & 1)
            for mask in k.maximal_face_masks()
        }
        assert faces == set(k.maximal_faces())
        assert all(is_tubing(f) and set(f) <= set(k.vertices) for f in faces)


def test_odd_tube_complex_rejects_a_system_of_another_graph():
    p3 = Pseudograph([1, 2, 3], [(1, 2), (2, 3)])
    p4 = Pseudograph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
    c = Collection.of(p3, [1, 2])
    with pytest.raises(HostMismatchError):
        odd_tube_complex(p3, c, system=TubeSystem(p4))
    # an equal graph built apart is the same host
    same = odd_tube_complex(p3, c, system=TubeSystem(Pseudograph([1, 2, 3], [(2, 3), (1, 2)])))
    assert same.vertices == odd_tube_complex(p3, c).vertices


def test_no_tube_object_is_built_where_no_tube_is_named(monkeypatch):
    """The routes, the checks that read no tube, the odd complexes, the
    tube count and a passing Delzant check work on masks alone."""
    built = []
    init = Tube.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def graph():  # a new object each time, so no route reads a kept result
        return Pseudograph([1, 2, 3, 4], [(1, 3), (1, 2, "a"), (1, 2, "b"), (2, 4, "c"), (2, 4, "d")])

    monkeypatch.setattr(Tube, "__init__", spy)
    assert poincare_brute(graph()) == poincare_reduced(graph())
    assert cross_check(graph(), checks=("routes", "zero", "even-star")).ok
    g = graph()
    system = TubeSystem(g)
    assert len(system.tubes) == 31
    for c in even_collections(g):
        odd_tube_complex(g, c, system=system).betti_reduced()
    assert delzant_check(g).ok
    assert built == []
    # the first tube read builds every tube, once
    assert system.tubes[0] is system.tubes[0] and len(built) == 31


def charged_by_definition(graph):
    """Faces a tube enumeration charges, counted from the definition: each
    nonempty node subset of each component, and each choice of a nonempty
    label subset per bundle inside a connected node set with a bundle."""
    total = sum(2 ** len(c) - 1 for c in graph.component_nodesets())
    for r in range(1, len(graph.nodes) + 1):
        for sub in itertools.combinations(graph.nodes, r):
            nodes = frozenset(sub)
            inside = [b for b in graph.bundles if b.u in nodes and b.v in nodes]
            if inside and connected_by_search(graph, nodes):
                total += math.prod(2 ** len(b.labels) - 1 for b in inside)
    return total


@settings(max_examples=150, deadline=None)
@given(pseudographs())
@example(Pseudograph())
def test_system_masks_are_the_enumerated_tubes_in_order(g):
    """Disconnected graphs included: the system's masks are the
    representations of ``enumerate_tubes``, whose order is ``sort_key``'s,
    and both charge the faces the definition counts."""
    built, enumerated = FaceBudget(), FaceBudget()
    system = TubeSystem(g, built)
    tubes = enumerate_tubes(g, enumerated)
    assert built.used == enumerated.used == charged_by_definition(g)
    assert list(tubes) == sorted(tubes, key=Tube.sort_key)
    assert system.repr_masks == [system.member_mask(t.representation()) for t in tubes]
    assert list(system.tubes) == list(tubes)
