import itertools
import random

import pytest
from hypothesis import example, given, settings

from tubings import (
    Collection,
    Designation,
    DuplicateLabelError,
    GraphError,
    LoopEdgeError,
    NotInAnyBundleError,
    Pseudograph,
    UnknownMemberError,
    UnknownNodeError,
    UnknownNodeInEdgeError,
    UnlabelledBundleEdgeError,
    enumerate_reductions,
    reduced_graph,
    restricted_ground,
    touched_nodes,
    touched_subgraph,
)
from tubings.graphs import _pairing
from test_symmetry import pseudographs


def test_rejects_loops():
    with pytest.raises(LoopEdgeError):
        Pseudograph([1], [(1, 1, None)])


def test_rejects_duplicate_labels():
    with pytest.raises(DuplicateLabelError):
        Pseudograph([1, 2, 3], [(1, 2, "a"), (2, 3, "a")])


def test_rejects_unlabelled_parallel_edges():
    with pytest.raises(UnlabelledBundleEdgeError):
        Pseudograph([1, 2], [(1, 2, "a"), (1, 2, None)])


def test_rejects_undeclared_endpoint():
    with pytest.raises(UnknownNodeInEdgeError):
        Pseudograph([1, 2], [(1, 3, None)])


@pytest.mark.parametrize("bad", [0, -2, "x", 1.5, True])
def test_rejects_bad_node_ids(bad):
    with pytest.raises(GraphError):
        Pseudograph([bad], [])


@pytest.mark.parametrize(
    "nodes, edges",
    [([True, 2], []), ([1, 2], [(True, 2)]), ([1, 2], [(2, True, None)])],
)
def test_rejects_bool_node_ids_in_nodes_and_in_edges(nodes, edges):
    with pytest.raises(GraphError, match="integers"):
        Pseudograph(nodes, edges)


@pytest.mark.parametrize("label", ["9a", "a b", "", "a-b"])
def test_rejects_bad_labels(label):
    with pytest.raises(GraphError):
        Pseudograph([1, 2], [(1, 2, label), (1, 2, "ok1")])


def test_bundles_and_adjacent_pairs(bundle_tree5):
    g = bundle_tree5
    assert [(b.u, b.v, set(b.labels)) for b in g.bundles] == [
        (1, 2, {"a", "b"}),
        (4, 5, {"c", "d", "e"}),
    ]
    assert g.simple_pairs == {(1, 2), (2, 3), (2, 4), (4, 5)}
    assert g.bundle_labels == ("a", "b", "c", "d", "e")


def test_ground_set_order(bundle_tree5):
    assert bundle_tree5.ground_members() == (1, 2, 3, 4, 5, "a", "b", "c", "d", "e")


def test_neighbors_and_adjacency(bundle_path4):
    g = bundle_path4
    assert g.neighbors(1) == {2, 3}
    assert g.neighbors(4) == {2}
    assert g.adjacent(2, 4) and not g.adjacent(1, 4)


def test_edge_insertion_order_is_irrelevant():
    g1 = Pseudograph([1, 2, 3], [(1, 2, "a"), (1, 2, "b"), (2, 3, None)])
    g2 = Pseudograph([3, 2, 1], [(2, 3, None), (2, 1, "b"), (1, 2, "a")])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != Pseudograph([1, 2, 3], [(1, 2, "a"), (1, 2, "b"), (1, 3, None)])


def components_by_search(nodes, edges):
    """Per node, the node set of its component, merged edge by edge."""
    comp = {n: {n} for n in nodes}
    for u, v, _ in edges:
        if comp[u] is not comp[v]:
            merged = comp[u] | comp[v]
            for w in merged:
                comp[w] = merged
    return comp


@settings(max_examples=150, deadline=None)
@given(pseudographs())
@example(Pseudograph())
def test_ground_codec_and_adjacency_agree_with_the_edges(g):
    """Disconnected and empty graphs included: bit i of a ground bitmask is
    the i-th ground member and every subset comes back in ground order,
    the pairing's bit indices decode to the partners worked out here for
    both designations, and the adjacency readers, equality and hash agree
    with what the edge list gives."""
    edges, by_pair = g.edges, {}
    for u, v, lab in edges:
        by_pair.setdefault((u, v), []).append(lab)
    bundles = {lab: (*pair, tuple(sorted(labs)))
               for pair, labs in by_pair.items() if len(labs) > 1 for lab in labs}
    ground = [*sorted(g.nodes), *sorted(bundles)]
    assert list(g.ground_members()) == ground
    assert [g._mask([m]) for m in ground] == [1 << i for i in range(len(ground))]
    for r in range(len(ground) + 1):
        for s in itertools.combinations(ground, r):
            assert g._members(g._mask(reversed(s))) == list(s)

    comp = components_by_search(g.nodes, edges)
    for pick, d in ((max, Designation.default(g)), (min, Designation.first(g))):
        partner = {n: pick(comp[n]) for n in g.nodes}
        partner.update({lab: pick(b[2]) for lab, b in bundles.items()})
        decoded = [(ground[m], ground[p]) for m, p in _pairing(g, d)]
        assert decoded == [(m, partner[m]) for m in ground if partner[m] != m]

    assert g.simple_pairs == set(by_pair)
    for u in g.nodes:
        near = {w for pair in by_pair if u in pair for w in pair if w != u}
        assert g.neighbors(u) == near
        assert [g.adjacent(u, v) for v in (*g.nodes, 99)] == [v in near for v in (*g.nodes, 99)]
        with pytest.raises(UnknownMemberError):
            g.bundle_of(u)
    for lab, b in bundles.items():
        assert g.bundle_of(lab) == b
        with pytest.raises(UnknownNodeError):
            g.neighbors(lab)
    with pytest.raises(UnknownNodeError):
        g.neighbors(99)

    same = Pseudograph(g.nodes[::-1], edges[::-1])
    assert same == g and hash(same) == hash(g)
    assert g != Pseudograph([*g.nodes, 99], edges)
    for k, (u, v, lab) in enumerate(edges):  # a label renamed, or a plain edge labelled
        relabelled = [*edges[:k], (u, v, "z" + (lab or "")), *edges[k + 1:]]
        assert g != Pseudograph(g.nodes, relabelled)


def test_components():
    g = Pseudograph([1, 2, 5, 6, 9], [(1, 2, None), (5, 6, "x"), (5, 6, "y")])
    assert g.component_nodesets() == ({1, 2}, {5, 6}, {9})
    assert not g.is_connected()
    assert Pseudograph([7], []).is_connected()


def test_induced_subgraph(bundle_path3):
    sub = bundle_path3.induced_subgraph({1, 3})
    assert sub.nodes == (1, 3)
    assert sub.edges == ()
    assert len(sub.component_nodesets()) == 2

    sub2 = bundle_path3.induced_subgraph({1, 2})
    assert [(b.u, b.v, set(b.labels)) for b in sub2.bundles] == [(1, 2, {"a", "b"})]


def test_underlying_simple_graph(bundle_tree5):
    simple = bundle_tree5.underlying_simple_graph()
    assert simple.bundles == ()
    assert set(simple.simple_pairs) == {(1, 2), (2, 3), (2, 4), (4, 5)}


def test_partial_underlying_collapse(bundle_path3, path3):
    collapsed = bundle_path3.partial_underlying([(1, 2)])
    assert collapsed == path3


def test_collection_of_validates(bundle_path3):
    c = Collection.of(bundle_path3, [2, 3, "a", "b"])
    assert c.nodes == frozenset({2, 3}) and c.labels == frozenset({"a", "b"})
    assert len(c) == 4 and not c.is_empty()
    with pytest.raises(UnknownMemberError):
        Collection.of(bundle_path3, [9])
    with pytest.raises(UnknownMemberError):
        Collection.of(bundle_path3, ["z"])
    assert Collection.empty().is_empty()


def test_plain_edge_label_is_not_a_ground_member():
    g = Pseudograph([1, 2, 3], [(1, 2, "a"), (1, 2, "b"), (2, 3, "z")])
    assert g.ground_members() == (1, 2, 3, "a", "b")
    with pytest.raises(NotInAnyBundleError):
        Collection.of(g, ["z"])


def test_collection_members(bundle_tree5):
    c = Collection.of(bundle_tree5, ["e", 5, "a", 1])
    assert c.members() == {1, 5, "a", "e"}
    assert c.issubset_of(bundle_tree5)
    # node 5 and label e are foreign to the path; z labels a plain edge
    assert not c.issubset_of(Pseudograph([1, 2, 3], [(1, 2, "a"), (1, 2, "e"), (2, 3)]))
    assert not Collection.of(bundle_tree5, [1, "e"]).issubset_of(
        Pseudograph([1, 2], [(1, 2, "a"), (1, 2, "b")])
    )
    assert not Collection(frozenset({1}), frozenset({"z"})).issubset_of(
        Pseudograph([1, 2, 3], [(1, 2, "a"), (1, 2, "b"), (2, 3, "z")])
    )
    with pytest.raises(UnknownMemberError):
        touched_nodes(Pseudograph([1, 2], [(1, 2)]), c)


def test_default_designation(bundle_path3):
    d = Designation.default(bundle_path3)
    assert d.nodes == frozenset({3})
    assert d.labels == frozenset({"b"})
    assert restricted_ground(bundle_path3) == (1, 2, "a")


def test_designation_validation(bundle_path3):
    with pytest.raises(GraphError):
        Designation(frozenset({1, 2}), frozenset({"b"})).validate(bundle_path3)
    with pytest.raises(GraphError):
        Designation(frozenset({1}), frozenset()).validate(bundle_path3)
    ok = Designation(frozenset({1}), frozenset({"a"})).validate(bundle_path3)
    assert restricted_ground(bundle_path3, ok) == (2, 3, "b")
    with pytest.raises(GraphError):
        restricted_ground(bundle_path3, Designation.first)


def test_designation_one_node_per_component():
    g = Pseudograph([1, 2, 3, 4], [(1, 2, None), (3, 4, None)])
    d = Designation.default(g)
    assert d.nodes == frozenset({2, 4})
    assert restricted_ground(g) == (1, 3)


def test_touched_subgraph(bundle_path4):
    g = bundle_path4
    c1 = Collection.of(g, [1, 3, "a", "b"])
    t1 = touched_subgraph(g, c1)
    assert touched_nodes(g, c1) == {1, 2, 3}
    assert t1 == Pseudograph([1, 2, 3], [(1, 3, None), (1, 2, "a"), (1, 2, "b")])

    c2 = Collection.of(g, [1, 2, "c", "d"])
    t2 = touched_subgraph(g, c2)
    assert t2 == Pseudograph(
        [1, 2, 4], [(1, 2, "a"), (1, 2, "b"), (2, 4, "c"), (2, 4, "d")]
    )


def test_reduced_graph_collapses_untouched_bundles(bundle_path4):
    g = bundle_path4
    c1 = Collection.of(g, [1, 3, "a", "b"])
    assert reduced_graph(g, c1) == touched_subgraph(g, c1)

    c2 = Collection.of(g, [1, 2, "c", "d"])
    assert reduced_graph(g, c2) == Pseudograph(
        [1, 2, 4], [(1, 2, None), (2, 4, "c"), (2, 4, "d")]
    )


def test_reduction_count_small(bundle_path3):
    assert len(enumerate_reductions(bundle_path3)) == 9


def test_reduction_count_matches_brute_force(bundle_path4):
    """Compare against a from-scratch enumeration with its own dedup key."""
    g = bundle_path4
    import itertools

    seen = set()
    nodes = list(g.nodes)
    for r in range(1, len(nodes) + 1):
        for sub in itertools.combinations(nodes, r):
            keep = set(sub)
            inner = [b for b in g.bundles if b.u in keep and b.v in keep]
            for k in range(len(inner) + 1):
                for collapse in itertools.combinations(inner, k):
                    dropped = {lab for b in collapse for lab in b.labels}
                    edges = []
                    for u, v, lab in g.edges:
                        if u in keep and v in keep:
                            if lab in dropped:
                                lab = None
                            edges.append((u, v, lab))
                    dedup = []
                    for u, v, lab in edges:
                        if lab is None and (u, v, None) in dedup:
                            continue
                        dedup.append((u, v, lab))
                    seen.add(Pseudograph(sub, dedup))
    assert len(enumerate_reductions(g)) == len(seen)


def test_reductions_include_expected_members(bundle_path3):
    hs = enumerate_reductions(bundle_path3)
    assert Pseudograph([1, 2], [(1, 2, "a"), (1, 2, "b")]) in hs
    assert Pseudograph([1, 2], [(1, 2, None)]) in hs
    assert Pseudograph([1, 3], []) in hs
    assert bundle_path3 in hs  # the graph counts as its own reduction
    assert Pseudograph([1, 2, 3], [(1, 2, None), (2, 3, None)]) in hs


def test_reductions_random_membership(bundle_path4):
    """Every reduction is reachable by keeping nodes and collapsing bundles."""
    rng = random.Random(0)
    hs = enumerate_reductions(bundle_path4)
    for h in rng.sample(list(hs), 10):
        assert set(h.nodes) <= set(bundle_path4.nodes)
        for b in h.bundles:
            assert any(
                b.u == gb.u and b.v == gb.v and set(b.labels) == set(gb.labels)
                for gb in bundle_path4.bundles
            )


def test_compact_names(bundle_path3):
    assert bundle_path3.compact_names()
    big = Pseudograph([1, 10], [(1, 10, None)])
    assert not big.compact_names()
    assert bundle_path3.format_members([2, "a"]) == "2a"
    assert big.format_members([]) == "-"
