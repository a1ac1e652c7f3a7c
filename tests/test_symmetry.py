"""Both Poincaré routes sum over symmetry classes; these tests hold the
orbit engine to plain sums, to brute-force automorphism groups and to
renamed copies of the same graph."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubings import (
    IntPolynomial,
    Pseudograph,
    TubeSystem,
    a_polynomial,
    admissible_collections,
    enumerate_reductions,
    even_collection_count,
    even_collections,
    from_betti_suspended,
    from_betti_tilde,
    is_admissible,
    is_even,
    odd_tube_complex,
    poincare_brute,
    poincare_reduced,
)
from tubings.graphs import (
    _reduction,
    _reduction_keys,
    automorphism_generators,
    connected_reduction_classes,
    isomorphism_classes,
)
from tubings import parity
from tubings.parity import collection_orbits, has_admissible

LABELS = [f"{a}{b}" for a in "pqrstuvwxyz" for b in "abcd"]


@st.composite
def pseudographs(draw):
    """At most 5 nodes with random ids, disconnected graphs included, and
    bundles of 2-4 labels, at most 5 labels in all (with more, the plain
    sums take seconds per graph)."""
    nodes = draw(st.lists(st.integers(1, 50), min_size=1, max_size=5, unique=True))
    pairs = list(itertools.combinations(sorted(nodes), 2))
    mults = draw(st.lists(st.sampled_from([0, 0, 1, 1, 2, 3, 4]),
                          min_size=len(pairs), max_size=len(pairs)))
    labels = iter(draw(st.permutations(LABELS)))
    edges, spare = [], 5
    for (u, v), m in zip(pairs, mults):
        if 1 < m <= spare:
            spare -= m
            edges += [(u, v, next(labels)) for _ in range(m)]
        elif m:
            edges.append((u, v, None))
    return Pseudograph(nodes, edges)


def multiplicities(graph):
    out = {}
    for u, v, _ in graph.edges:
        out[u, v] = out[v, u] = out.get((u, v), 0) + 1
    return out


def brute_automorphisms(graph):
    nodes, mult = graph.nodes, multiplicities(graph)
    out = set()
    for image in itertools.permutations(nodes):
        g = dict(zip(nodes, image))
        if all(mult.get((u, v), 0) == mult.get((g[u], g[v]), 0)
               for u, v in itertools.combinations(nodes, 2)):
            out.add(image)
    return out


def generated_group(graph, gens):
    nodes = graph.nodes
    group = {nodes}
    frontier = [nodes]
    while frontier:
        image = dict(zip(nodes, frontier.pop()))
        for g in gens:
            composed = tuple(g[image[v]] for v in nodes)
            if composed not in group:
                group.add(composed)
                frontier.append(composed)
    return group


def canonical_form(graph):
    nodes, mult = graph.nodes, multiplicities(graph)
    return min(
        tuple(mult.get((perm[i], perm[j]), 0)
              for i, j in itertools.combinations(range(len(nodes)), 2))
        for perm in itertools.permutations(nodes)
    )


def renamed(graph, rng_draw):
    node_ids = rng_draw(st.lists(st.integers(100, 999), min_size=len(graph.nodes),
                                 max_size=len(graph.nodes), unique=True))
    to_node = dict(zip(graph.nodes, node_ids))
    names = iter(rng_draw(st.permutations(LABELS)))
    to_label = {lab: next(names) for _, _, lab in graph.edges if lab is not None}
    return Pseudograph(
        node_ids, [(to_node[u], to_node[v], to_label.get(lab)) for u, v, lab in graph.edges]
    )


# the reflection of 1=2-3=4 swaps its two bundles
SWAPPED_BUNDLES = Pseudograph(
    [1, 2, 3, 4], [(1, 2, "a"), (1, 2, "b"), (2, 3), (3, 4, "c"), (3, 4, "d")]
)


@settings(max_examples=60, deadline=None)
@given(pseudographs())
@example(SWAPPED_BUNDLES)
def test_orbit_sums_equal_the_plain_sums(g):
    system = TubeSystem(g)
    brute = IntPolynomial.zero()
    for c in even_collections(g):
        brute = brute + from_betti_suspended(odd_tube_complex(g, c, system=system).betti_reduced())
    a = IntPolynomial.zero()
    for c in admissible_collections(g):
        a = a + from_betti_tilde(odd_tube_complex(g, c, system=system).betti_reduced())
    assert poincare_brute(g) == brute
    assert a_polynomial(g) == a
    assert has_admissible(g) == bool(admissible_collections(g))


def brute_orbit_sizes(graph, collections):
    """Collections by orbit under every automorphism, labels inside a
    bundle taken as interchangeable: {least image: orbit size}."""
    autos = [dict(zip(graph.nodes, image)) for image in brute_automorphisms(graph)]

    def least_image(c):
        return min(
            (tuple(sorted(a[v] for v in c.nodes)),
             tuple(sorted((*sorted((a[b.u], a[b.v])), len(c.labels & set(b.labels)))
                          for b in graph.bundles)))
            for a in autos
        )

    sizes = {}
    for c in collections:
        key = least_image(c)
        sizes[key] = sizes.get(key, 0) + 1
    return sizes, least_image


@settings(max_examples=80, deadline=None)
@given(pseudographs())
@example(SWAPPED_BUNDLES)
def test_generators_are_automorphisms_and_orbits_are_the_true_orbits(g):
    gens = automorphism_generators(g)
    mult = multiplicities(g)
    for perm in gens:
        assert sorted(perm) == sorted(perm.values()) == list(g.nodes)
        for u, v in itertools.combinations(g.nodes, 2):
            assert mult.get((u, v), 0) == mult.get((perm[u], perm[v]), 0)
    # the generators reach every automorphism
    assert generated_group(g, gens) == brute_automorphisms(g)
    for admissible, collections in ((False, list(even_collections(g))),
                                    (True, admissible_collections(g))):
        orbits = collection_orbits(g, admissible)
        sizes, least_image = brute_orbit_sizes(g, collections)
        assert len(orbits) == len(sizes)
        assert {least_image(c): w for c, w in orbits} == sizes
        assert all((is_admissible if admissible else is_even)(g, c) for c, _ in orbits)
        assert sum(w for _, w in orbits) == len(collections)
    assert sum(w for _, w in collection_orbits(g)) == even_collection_count(g)


@settings(max_examples=40, deadline=None)
@given(pseudographs())
def test_isomorphism_classes_match_brute_canonical_forms(g):
    reductions = enumerate_reductions(g)
    classes = isomorphism_classes(reductions)
    by_form = {}
    for h in reductions:
        key = canonical_form(h)
        by_form[key] = by_form.get(key, 0) + 1
    assert sorted(by_form.values()) == sorted(count for _, count in classes)
    assert {canonical_form(h) for h, _ in classes} == set(by_form)


@settings(max_examples=30, deadline=None)
@given(pseudographs(), st.data())
def test_routes_ignore_renaming_of_nodes_and_labels(g, data):
    h = renamed(g, data.draw)
    assert poincare_brute(h) == poincare_brute(g)
    assert poincare_reduced(h) == poincare_reduced(g)
    assert a_polynomial(h) == a_polynomial(g)


def reductions_built_edge_by_edge(graph):
    """Every reduction, node subsets by size and then lexicographically,
    each followed by its choices of bundles to collapse by size."""
    out = []
    for r in range(1, len(graph.nodes) + 1):
        for subset in itertools.combinations(graph.nodes, r):
            edges = [e for e in graph.edges if e[0] in subset and e[1] in subset]
            pairs = [(b.u, b.v) for b in graph.bundles if b.u in subset and b.v in subset]
            for k in range(len(pairs) + 1):
                for chosen in itertools.combinations(pairs, k):
                    kept = [e for e in edges if e[:2] not in chosen]
                    out.append(Pseudograph(subset, kept + list(chosen)))
    return out


@settings(max_examples=40, deadline=None)
@given(pseudographs().filter(Pseudograph.is_connected))
@example(SWAPPED_BUNDLES)
def test_reduction_keys_agree_with_the_graphs_they_stand_for(g):
    keys = list(_reduction_keys(g))
    reductions = enumerate_reductions(g)
    assert list(reductions) == reductions_built_edge_by_edge(g)
    assert len(keys) == len(reductions)
    for h in reductions:
        assert has_admissible(h) == bool(admissible_collections(h))
    admissible = [h for h in reductions if has_admissible(h) and h.is_connected()]
    classes = [[_reduction(g, *key[1:]) for key in members] for members in connected_reduction_classes(g)]
    assert sorted(len(members) for members in classes) == sorted(
        count for _, count in isomorphism_classes(admissible))
    assert all(len({canonical_form(h) for h in members}) == 1 for members in classes)
    by_form = {}
    for h in admissible:
        by_form[canonical_form(h)] = by_form.get(canonical_form(h), 0) + 1
    assert {canonical_form(members[0]): len(members) for members in classes} == by_form


def path(n):
    return Pseudograph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def complete(n):
    return Pseudograph(range(1, n + 1), list(itertools.combinations(range(1, n + 1), 2)))


BUNDLE_PATH3 = Pseudograph([1, 2, 3], [(1, 2, lab) for lab in "abcdef"] + [(2, 3)])
K6_BUNDLE = Pseudograph(
    range(1, 7),
    [(1, 2, "a"), (1, 2, "b")] + list(itertools.combinations(range(1, 7), 2))[1:],
)


@pytest.mark.parametrize("graph, collections, orbits", [
    (path(9), 256, 136),
    (complete(7), 64, 4),
    (BUNDLE_PATH3, 128, 16),
    (K6_BUNDLE, 64, 16),
])
def test_orbit_counts(graph, collections, orbits):
    found = collection_orbits(graph)
    assert even_collection_count(graph) == sum(w for _, w in found) == collections
    assert len(found) == orbits


def spy_on_automorphism_search(monkeypatch):
    """The graphs `parity.automorphism_generators` is asked about, in order."""
    searched = []

    def spy(graph):
        searched.append(graph)
        return automorphism_generators(graph)

    monkeypatch.setattr(parity, "automorphism_generators", spy)
    return searched


@pytest.mark.parametrize("admissible", [False, True])
@pytest.mark.parametrize("graph", [path(6), complete(6), BUNDLE_PATH3, K6_BUNDLE, SWAPPED_BUNDLES],
                         ids=["P6", "K6", "bundle 3-path", "K6 with a bundle", "swapped bundles"])
def test_orbits_search_automorphisms_only_with_classes_to_merge(monkeypatch, graph, admissible):
    searched = spy_on_automorphism_search(monkeypatch)
    orbits = collection_orbits(graph, admissible)
    collections = admissible_collections(graph) if admissible else list(even_collections(graph))
    sizes, least_image = brute_orbit_sizes(graph, collections)
    assert {least_image(c): w for c, w in orbits} == sizes
    # a class is a node set and an even count per bundle
    classes = {(c.nodes, tuple(len(c.labels & set(b.labels)) for b in graph.bundles))
               for c in collections}
    assert searched == ([graph] if len(classes) > 1 else [])


@pytest.mark.parametrize("graph", [path(6), complete(6)], ids=["P6", "K6"])
def test_a_polynomial_of_one_admissible_collection_searches_nothing(monkeypatch, graph):
    [only] = admissible_collections(graph)
    assert only.nodes == frozenset(graph.nodes)
    searched = spy_on_automorphism_search(monkeypatch)
    assert a_polynomial(graph) == from_betti_tilde(odd_tube_complex(graph, only).betti_reduced())
    assert searched == []


@pytest.mark.parametrize("graph, reductions, classes", [
    (path(9), 54, 9),
    (complete(7), 63, 3),
])
def test_reduction_class_counts(graph, reductions, classes):
    found = isomorphism_classes(h for h in enumerate_reductions(graph) if has_admissible(h))
    assert sum(count for _, count in found) == reductions
    assert len(found) == classes
    # the reductions on a connected node set, and their classes
    connected, connected_classes = {path(9): (20, 4), complete(7): (63, 3)}[graph]
    walked = connected_reduction_classes(graph)
    assert sum(map(len, walked)) == connected
    assert len(walked) == connected_classes
    assert {canonical_form(_reduction(graph, *members[0][1:])): len(members) for members in walked} == {
        canonical_form(h): count for h, count in found if h.is_connected()}


@pytest.mark.parametrize("name", ["P6", "K5", "bundle_path3", "bundle_path4", "P9", "bundle_path3+P2"])
def test_reduced_route_is_the_unclassed_sum_over_admissible_reductions(name, request):
    graph = {"P6": path(6), "K5": complete(5), "P9": path(9), "bundle_path3+P2": Pseudograph(
        [1, 2, 3, 4, 5], [(1, 2, "a"), (1, 2, "b"), (2, 3), (4, 5)],
    )}.get(name) or request.getfixturevalue(name)
    total = IntPolynomial.zero()
    for h in enumerate_reductions(graph):
        if has_admissible(h):
            total = total + a_polynomial(h)
    assert poincare_reduced(graph) == IntPolynomial.one() + total.shift(1)


def cycles(*lengths, order=None):
    """Disjoint cycles on nodes 1, 2, ..., renumbered by ``order`` if given."""
    edges, start = [], 1
    for k in lengths:
        edges += [(start + i, start + (i + 1) % k) for i in range(k)]
        start += k
    name = dict(zip(range(1, start), order or range(1, start)))
    return Pseudograph(range(1, start), [(name[u], name[v]) for u, v in edges])


def test_search_backtracks_where_refinement_cannot_split():
    """Every node of a disjoint union of cycles has degree 2, so colour
    refinement leaves one cell and the search must undo wrong guesses."""
    triangle_square = cycles(3, 4)
    square_triangle = cycles(3, 4, order=[5, 6, 7, 1, 2, 3, 4])
    hexagon, two_triangles = cycles(6), cycles(3, 3)
    classes = isomorphism_classes([triangle_square, square_triangle, hexagon, two_triangles])
    assert [(h.nodes, count) for h, count in classes] == [
        (triangle_square.nodes, 2), (hexagon.nodes, 1), (two_triangles.nodes, 1)
    ]
    assert classes[1][0] == hexagon
    gens = automorphism_generators(triangle_square)
    assert generated_group(triangle_square, gens) == brute_automorphisms(triangle_square)
    assert len(brute_automorphisms(triangle_square)) == 48
