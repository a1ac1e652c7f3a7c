"""Both Poincaré routes, and the a-polynomials they sum, against closed
forms and a recursion from the literature, each written out here.

A wrong Betti kernel moves the brute route and the reduced route alike, so
`cross_check` cannot see it; these oracles compute no homology at all.
"""

import itertools
import random
from math import comb

import pytest

from conftest import tubing_f_vector
from test_acceptance import _small_connected_family
from tubings import Pseudograph, TubeSystem, a_polynomial, poincare_brute, poincare_reduced


def simple_graph(n, pairs):
    return Pseudograph(range(1, n + 1), [(u, v, None) for u, v in pairs])


def both_routes(graph):
    return poincare_brute(graph).to_list(), poincare_reduced(graph).to_list()


def trimmed(values):
    values = list(values)
    while values and values[-1] == 0:
        values.pop()
    return values


@pytest.mark.parametrize("n", range(1, 10))
def test_paths_have_henderson_betti_numbers(n):
    # Henderson (2012): the real toric manifold of the path on n nodes
    expected = trimmed(comb(n, i) - (comb(n, i - 1) if i else 0) for i in range(n // 2 + 1))
    path = simple_graph(n, [(i, i + 1) for i in range(1, n)])
    assert both_routes(path) == (expected, expected)


# secant numbers E_0, E_2, E_4, E_6, E_8 (Euler zigzag numbers of even index)
SECANT = [1, 1, 5, 61, 1385]


@pytest.mark.parametrize("n", range(1, 9))
def test_complete_graphs_have_henderson_betti_numbers(n):
    # Henderson (2012): b_i(K_n) = C(n, 2i) E_2i for the real permutohedron
    expected = [comb(n, 2 * i) * SECANT[i] for i in range(n // 2 + 1)]
    complete = simple_graph(n, itertools.combinations(range(1, n + 1), 2))
    assert both_routes(complete) == (expected, expected)


# tangent numbers E_1, E_3, E_5, E_7 (Euler zigzag numbers of odd index)
TANGENT = [1, 2, 16, 272]

# (name, node count 2k, edges, a-number): the path, the complete graph, the
# star K_1,2k-1 and, from 2k = 4 on, the cycle.  K10 and K_1,9 are left out:
# they take 47 s and 19 s.
A_NUMBERS = []
for k in range(1, 6):
    n = 2 * k
    A_NUMBERS.append((f"P{n}", n, [(i, i + 1) for i in range(1, n)], comb(n, k) // (k + 1)))
    if k < 5:
        A_NUMBERS.append((f"K{n}", n, list(itertools.combinations(range(1, n + 1), 2)), SECANT[k]))
        A_NUMBERS.append((f"K1,{n - 1}", n, [(1, v) for v in range(2, n + 1)], TANGENT[k - 1]))
    if k > 1:
        A_NUMBERS.append((f"C{n}", n, [(i, i % n + 1) for i in range(1, n + 1)], comb(n - 1, k)))


@pytest.mark.parametrize(
    "n, pairs, a", [case[1:] for case in A_NUMBERS], ids=[case[0] for case in A_NUMBERS]
)
def test_a_polynomials_are_the_choi_park_a_numbers(n, pairs, a):
    # Choi-Park (2015): the a-polynomial of a graph on 2k nodes is a t^(k-1),
    # with a the Catalan number for P_2k, E_2k for K_2k, E_2k-1 for K_1,2k-1
    # and C(2k-1, k) for C_2k
    k = n // 2
    assert a_polynomial(simple_graph(n, pairs)).to_list() == [0] * (k - 1) + [a]


def choi_park_betti(n, pairs):
    """Betti numbers of the real toric manifold of a simple graph on
    range(1, n + 1) from the Choi-Park signed a-number (J. Math. Soc. Japan,
    2015): sa(empty) = 1; sa(G) = 0 if a component has an odd number of
    nodes; sa is multiplicative over components; and a connected even G has
    sa(G) = -sum of sa(G|I) over its proper induced subgraphs.  Then b_i is
    the sum of |sa(G|I)| over the node sets I of size 2i."""
    adj = {v: 0 for v in range(1, n + 1)}
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    memo = {0: 1}

    def components(mask):
        while mask:
            comp = frontier = mask & -mask
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                new = adj[b.bit_length() - 1] & mask & ~comp
                comp |= new
                frontier |= new
            mask &= ~comp
            yield comp

    def sa(mask):
        if mask not in memo:
            comps = list(components(mask))
            if any(c.bit_count() % 2 for c in comps):
                memo[mask] = 0
            elif len(comps) > 1:
                memo[mask] = 1
                for c in comps:
                    memo[mask] *= sa(c)
            else:
                proper = (sub for sub in range(mask) if sub & ~mask == 0)
                memo[mask] = -sum(sa(sub) for sub in proper)
        return memo[mask]

    nodes = [1 << v for v in range(1, n + 1)]
    return trimmed(
        sum(abs(sa(sum(s))) for s in itertools.combinations(nodes, 2 * i))
        for i in range(n // 2 + 1)
    )


def test_choi_park_recursion_on_every_simple_graph_up_to_five_nodes():
    graphs = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            edges = list(itertools.compress(pairs, chosen))
            expected = choi_park_betti(n, edges)
            assert both_routes(simple_graph(n, edges)) == (expected, expected), edges
            graphs += 1
    assert graphs == 1099  # disconnected graphs included


def test_choi_park_recursion_on_sampled_graphs_of_six_and_seven_nodes():
    rng = random.Random(20150)
    for _ in range(60):
        n = rng.choice((6, 7))
        edges = [p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        expected = choi_park_betti(n, edges)
        assert both_routes(simple_graph(n, edges)) == (expected, expected), edges


# -- the small-cover h-vector bound -------------------------------------------


def h_vector(graph):
    """h-vector of the tubing complex, a simplicial sphere of dimension
    n - 1, from the face numbers f_-1, ..., f_n-1 that `tubing_f_vector`
    counts."""
    f = tubing_f_vector(graph)
    n = len(f) - 1
    return [sum((-1) ** (i - j) * comb(n - j, i - j) * f[j] for j in range(i + 1)) for i in range(n + 1)]


def assert_betti_within_h_vector(graph):
    """Davis-Januszkiewicz (Duke Math. J., 1991): the mod-2 Betti numbers of
    a small cover over a simple polytope are the polytope's h-numbers, and
    the rational Betti numbers of either route cannot exceed them."""
    h = h_vector(graph)
    assert sum(h) == len(TubeSystem(graph).tubing_complex().maximal_face_masks())
    for betti in both_routes(graph):
        assert len(betti) <= len(h)
        assert all(b <= hi for b, hi in zip(betti, h)), (betti, h)
    return h


@pytest.mark.parametrize(
    "n, pairs, betti, h",
    [
        pytest.param(4, [(1, 2), (2, 3), (3, 4)], [1, 3, 2], [1, 6, 6, 1], id="P4"),
        pytest.param(4, list(itertools.combinations(range(1, 5), 2)), [1, 6, 5], [1, 11, 11, 1], id="K4"),
    ],
)
def test_betti_numbers_within_the_h_vector(n, pairs, betti, h):
    graph = simple_graph(n, pairs)
    assert both_routes(graph) == (betti, betti)
    assert assert_betti_within_h_vector(graph) == h


def test_betti_numbers_within_the_h_vector_on_criterion_7s_family():
    sample = list(_small_connected_family())[::9]
    for _, graph in sample:
        assert_betti_within_h_vector(graph)
    assert len(sample) == 137
