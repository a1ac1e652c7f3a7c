import itertools
import random

import pytest

from tubings import (
    Collection,
    Designation,
    HostMismatchError,
    NotEvenError,
    Pseudograph,
    Tube,
    TubeSystem,
    admissible_collections,
    components_all_even,
    confined_odd_complex,
    even_collection_at,
    even_collection_count,
    even_collections,
    even_tube_complex,
    inflate_tube,
    inflation_matches,
    is_admissible,
    is_even,
    meet_parity,
    odd_tube_complex,
    reduced_graph,
    saturated_odd_complex,
    touched_subgraph,
)
from tubings.graphs import _reduction_key
from tubings.parity import _odd_tubes, _shares
from test_acceptance import _small_connected_family


def names(k):
    return sorted(t.name() for t in k.vertices)


def coll(graph, *members):
    return Collection.of(graph, members)


def test_even_collections_exact_set(bundle_path3):
    got = {frozenset(c.members()) for c in even_collections(bundle_path3)}
    expected = {
        frozenset(),
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({2, 3}),
        frozenset({"a", "b"}),
        frozenset({1, 2, "a", "b"}),
        frozenset({1, 3, "a", "b"}),
        frozenset({2, 3, "a", "b"}),
    }
    assert got == expected
    assert even_collection_count(bundle_path3) == 8


def test_even_enumeration_starts_empty_and_is_a_bijection(bundle_path4):
    seq = list(even_collections(bundle_path4))
    assert seq[0].is_empty()
    assert len(seq) == even_collection_count(bundle_path4) == 32
    assert len({frozenset(c.members()) for c in seq}) == 32
    for i in (0, 1, 17, 31):
        assert frozenset(even_collection_at(bundle_path4, i).members()) == frozenset(
            seq[i].members()
        )


@pytest.mark.parametrize("bad", [True, False, -1, 1.0])
def test_even_collection_at_rejects_an_index_that_is_no_count(bundle_path4, bad):
    """True used to read as index 1, and -1 raised IndexError."""
    with pytest.raises(ValueError, match="index"):
        even_collection_at(bundle_path4, bad)


def test_even_collection_at_past_the_count_is_out_of_range(bundle_path4):
    with pytest.raises(IndexError):
        even_collection_at(bundle_path4, even_collection_count(bundle_path4))


# a designation that is neither the default nor Designation.first
HAND_BUILT = {
    "bundle_path3": ({2}, {"b"}),
    "bundle_path4": ({2}, {"a", "d"}),
    "bundle_cycle4": ({3}, {"b"}),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_designation_sets_only_the_order_of_even_collections(name, request):
    g = request.getfixturevalue(name)
    nodes, labels = HAND_BUILT[name]
    default = list(even_collections(g))
    others = (Designation.first(g), Designation(frozenset(nodes), frozenset(labels)))
    for d in (None, *others):
        seq = list(even_collections(g, d))
        assert len(seq) == even_collection_count(g) == len(default)
        assert set(seq) == set(default)
        for i, c in enumerate(seq):
            assert even_collection_at(g, i, d) == c
    assert any(list(even_collections(g, d)) != default for d in others)


def test_every_enumerated_collection_is_even(bundle_tree5):
    for c in even_collections(bundle_tree5):
        assert is_even(bundle_tree5, c)


def test_is_even_cases(bundle_path3):
    assert is_even(bundle_path3, coll(bundle_path3, 2, 3, "a", "b"))
    assert not is_even(bundle_path3, coll(bundle_path3, 1))
    assert not is_even(bundle_path3, coll(bundle_path3, 1, 2, "a"))
    assert is_even(bundle_path3, Collection.empty())


def test_is_even_is_per_component():
    g = Pseudograph([1, 2, 3, 4], [(1, 2, None), (3, 4, None)])
    both = coll(g, 1, 2)
    split = coll(g, 1, 3)
    assert is_even(g, both)
    assert not is_even(g, split)  # one node in each component


def test_meet_parity(bundle_path4):
    c1 = coll(bundle_path4, 1, 3, "a", "b")
    assert meet_parity(Tube(bundle_path4, [1, 2, 3], ["b"]), c1) == "odd"
    assert meet_parity(Tube(bundle_path4, [1, 2], ["a"]), c1) == "even"
    other = Pseudograph([1, 5], [(1, 5, None)])
    with pytest.raises(HostMismatchError):
        meet_parity(Tube(other, [1]), c1)


def test_odd_complex_small(bundle_path3):
    c1 = coll(bundle_path3, 2, 3, "a", "b")
    k = odd_tube_complex(bundle_path3, c1)
    assert names(k) == sorted(["2", "3", "12ab", "123a", "123b"])
    assert k.betti_reduced().to_list() == [0, 0, 1]

    c2 = coll(bundle_path3, 1, 3, "a", "b")
    k2 = odd_tube_complex(bundle_path3, c2)
    assert names(k2) == sorted(["1", "3", "23", "12ab", "123a", "123b"])
    assert k2.betti_reduced().is_zero()


def test_even_complex_is_the_complement(bundle_path3):
    c1 = coll(bundle_path3, 2, 3, "a", "b")
    k = even_tube_complex(bundle_path3, c1)
    assert names(k) == sorted(["1", "23", "12a", "12b"])


def test_confined_complex_vertices(bundle_path4):
    c1 = coll(bundle_path4, 1, 3, "a", "b")
    assert names(confined_odd_complex(bundle_path4, c1)) == sorted(
        ["1", "3", "12ab", "123a", "123b"]
    )
    c2 = coll(bundle_path4, 1, 2, "c", "d")
    assert names(confined_odd_complex(bundle_path4, c2)) == sorted(
        ["1", "2", "24cd", "124ac", "124ad", "124bc", "124bd", "124abc", "124abd"]
    )


def test_saturated_complex_vertices(bundle_path4):
    c2 = coll(bundle_path4, 1, 2, "c", "d")
    assert names(saturated_odd_complex(bundle_path4, c2)) == sorted(
        ["1", "2", "24cd", "124abc", "124abd"]
    )
    assert saturated_odd_complex(bundle_path4, c2).betti_reduced().to_list() == [0, 0, 1]


def test_odd_complex_has_fourteen_vertices(bundle_path4):
    c1 = coll(bundle_path4, 1, 3, "a", "b")
    k = odd_tube_complex(bundle_path4, c1)
    assert k.n_vertices() == 14
    for expected in ("124abc", "124abd", "124abcd", "1234ac"):
        assert expected in names(k)


def test_betti_chain_collapses_to_the_same_numbers(bundle_path4):
    g = bundle_path4
    for members in ([1, 3, "a", "b"], [1, 2, "c", "d"]):
        c = Collection.of(g, members)
        b0 = odd_tube_complex(g, c).betti_reduced()
        b1 = confined_odd_complex(g, c).betti_reduced()
        b2 = saturated_odd_complex(g, c).betti_reduced()
        gamma = reduced_graph(g, c)
        cg = Collection.of(gamma, members)
        b3 = odd_tube_complex(gamma, cg).betti_reduced()
        assert b0 == b1 == b2 == b3


def test_betti_chain_on_random_even_collections(bundle_path4):
    rng = random.Random(8)
    all_even = list(even_collections(bundle_path4))
    for c in rng.sample(all_even, 12):
        b0 = odd_tube_complex(bundle_path4, c).betti_reduced()
        b1 = confined_odd_complex(bundle_path4, c).betti_reduced()
        b2 = saturated_odd_complex(bundle_path4, c).betti_reduced()
        assert b0 == b1 == b2


def test_components_all_even(bundle_path4, bundle_tree5):
    assert components_all_even(bundle_path4, coll(bundle_path4, 1, 3, "a", "b"))
    # touched subgraph splits off node 5 with an odd share
    c_bad = coll(bundle_tree5, 1, 2, 3, 5, "a", "b")
    assert not components_all_even(bundle_tree5, c_bad)
    # bundle {c,d} pulls node 4 in, so everything stays in one piece
    c_ok = coll(bundle_tree5, 1, 2, 3, 5, "c", "d")
    assert components_all_even(bundle_tree5, c_ok)
    with pytest.raises(NotEvenError):
        components_all_even(bundle_path4, coll(bundle_path4, 1))


def test_odd_share_forces_zero_homology(bundle_tree5):
    c_bad = coll(bundle_tree5, 1, 2, 3, 5, "a", "b")
    assert saturated_odd_complex(bundle_tree5, c_bad).betti_reduced().is_zero()
    assert odd_tube_complex(bundle_tree5, c_bad).betti_reduced().is_zero()


def test_admissible_exactly_two(bundle_path3):
    got = {frozenset(c.members()) for c in admissible_collections(bundle_path3)}
    assert got == {
        frozenset({1, 3, "a", "b"}),
        frozenset({2, 3, "a", "b"}),
    }


def test_admissible_collections_of_longer_path(bundle_path4):
    got = {frozenset(c.members()) for c in admissible_collections(bundle_path4)}
    assert got == {
        frozenset({3, 4, "a", "b", "c", "d"}),
        frozenset({1, 3, "a", "b", "c", "d"}),
        frozenset({2, 3, "a", "b", "c", "d"}),
        frozenset({1, 2, 3, 4, "a", "b", "c", "d"}),
    }


def test_is_admissible_details(bundle_path3):
    assert is_admissible(bundle_path3, coll(bundle_path3, 1, 3, "a", "b"))
    # bundle untouched
    assert not is_admissible(bundle_path3, coll(bundle_path3, 1, 3))
    # bundle-free node 3 missing
    assert not is_admissible(bundle_path3, coll(bundle_path3, 1, 2, "a", "b"))
    # not even
    assert not is_admissible(bundle_path3, coll(bundle_path3, 1, "a"))
    # members outside the graph's ground set: False, not an error
    h = Pseudograph([1, 2], [(1, 2, "a"), (1, 2, "b")])
    assert not is_admissible(h, coll(bundle_path3, 2, 3, "a", "b"))
    assert is_admissible(Pseudograph(), Collection.empty())


def test_admissible_iff_reduced_graph_admits(bundle_path4):
    """The even-star test agrees with admissibility over the reduced graph."""
    for c in even_collections(bundle_path4):
        lhs = components_all_even(bundle_path4, c)
        rhs = is_admissible(reduced_graph(bundle_path4, c), c)
        assert lhs == rhs


def test_verify_loop_helpers_match_the_touched_subgraph():
    """Every even collection of every 10th graph of criterion 7's family:
    the reduction key, the collection split, the component evenness, the
    reduced graph and the odd tubes agree with what the touched subgraph,
    the reduced graph and a per-tube parity test give."""
    for _, g in itertools.islice(_small_connected_family(), 0, None, 10):
        system = TubeSystem(g)
        mask = g._mask
        for c in even_collections(g):
            sub = touched_subgraph(g, c)
            cmask = mask(c.members())
            nodes, kept = _reduction_key(g, cmask)
            met = [b for b in sub.bundles if set(b.labels) & c.labels]
            assert nodes == mask(sub.nodes)
            assert kept == [(mask((b.u, b.v)), mask(b.labels)) for b in met]
            parts = [
                Collection(
                    c.nodes & comp,
                    c.labels & {x for b in sub.bundles if b.u in comp for x in b.labels},
                )
                for comp in sub.component_nodesets()
            ]
            assert _shares(g, nodes, kept, cmask) == [mask(p.members()) for p in parts]
            evenstar = not any(s.bit_count() & 1 for s in _shares(g, nodes, kept, cmask))
            assert evenstar == is_admissible(reduced_graph(g, c), c) == components_all_even(g, c)
            collapsed = [(b.u, b.v) for b in sub.bundles if b not in met]
            assert reduced_graph(g, c) == sub.partial_underlying(collapsed)
            odd = [i for i, rm in enumerate(system.repr_masks) if (rm & cmask).bit_count() & 1]
            assert _odd_tubes(system, cmask) == sum(1 << i for i in odd)


def test_admissible_collection_recovers_its_reduction(bundle_path3):
    h = Pseudograph([1, 2], [(1, 2, "a"), (1, 2, "b")])
    for members in (["a", "b"], [1, 2, "a", "b"]):
        assert is_admissible(h, Collection.of(h, members))
        c = Collection.of(bundle_path3, members)
        assert reduced_graph(bundle_path3, c) == h


def test_inflate_tube(bundle_path4):
    g = bundle_path4
    c2 = coll(g, 1, 2, "c", "d")
    gamma = reduced_graph(g, c2)
    plain = Tube(gamma, [1, 2])
    lifted = inflate_tube(plain, g, c2)
    assert lifted.host == g
    assert lifted.representation() == {1, 2, "a", "b"}
    # a tube that keeps a surviving bundle is lifted unchanged
    kept = Tube(gamma, [2, 4], ["c"])
    assert inflate_tube(kept, g, c2).representation() == {2, 4, "c"}


def test_inflation_matches(bundle_path3, bundle_path4):
    assert inflation_matches(bundle_path4, coll(bundle_path4, 1, 2, "c", "d"))
    assert inflation_matches(bundle_path4, coll(bundle_path4, 1, 3, "a", "b"))
    assert inflation_matches(bundle_path3, coll(bundle_path3, 1, 2))
    # reduced graph with no edges at all
    assert inflation_matches(bundle_path4, coll(bundle_path4, 1, 4))


def test_whole_component_tubes_never_meet_even_collections_oddly():
    g = Pseudograph([1, 2, 3, 4], [(1, 2, None), (3, 4, None)])
    whole = Tube(g, [1, 2])
    for c in even_collections(g):
        assert meet_parity(whole, c) == "even"
