"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single ``criterion N: PASS/FAIL`` line on the live
terminal (bypassing capture) before asserting, so a full run always shows
the scorecard.  The values asserted here are pinned: a change in any of
them is a behaviour change, not a refactoring artifact.
"""

import itertools
import random
import time

from tubings import (
    Collection,
    Designation,
    IntPolynomial,
    Pseudograph,
    SimplicialComplex,
    a_polynomial,
    confined_odd_complex,
    cross_check,
    enumerate_reductions,
    even_collections,
    mobius_euler,
    odd_tube_complex,
    order_complex,
    parity_subgraph_poset,
    poincare_brute,
    poincare_reduced,
    polytope_dimension,
    reduced_graph,
    saturated_odd_complex,
    delzant_check,
)


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def complete_graph_with_bundle(labels):
    """K4 with the 1-2 edge fattened into a bundle carrying ``labels``."""
    edges = [(1, 2, lab) for lab in labels]
    edges += [(1, 3, None), (1, 4, None), (2, 3, None), (2, 4, None), (3, 4, None)]
    return Pseudograph([1, 2, 3, 4], edges)


def test_criterion_1(bundle_path3, capsys):
    start = time.perf_counter()
    reduced = poincare_reduced(bundle_path3)
    brute = poincare_brute(bundle_path3)
    elapsed = time.perf_counter() - start
    ok = reduced.to_list() == [1, 3, 2] == brute.to_list() and elapsed < 1.0
    announce(capsys, 1, ok, f"both routes {reduced} in {elapsed * 1000:.0f} ms")
    assert reduced.to_list() == [1, 3, 2]
    assert brute.to_list() == [1, 3, 2]
    assert elapsed < 1.0


def test_criterion_2(bundle_path3, capsys):
    g = bundle_path3
    expected = {
        g: "t",
        Pseudograph([1, 2], [(1, 2, "a"), (1, 2, "b")]): "1 + t",
        Pseudograph([2, 3], [(2, 3, None)]): "1",
        Pseudograph([1, 2], [(1, 2, None)]): "1",
    }
    reductions = enumerate_reductions(g)
    named = {h: str(a_polynomial(h)) for h in reductions}
    zeros = [h for h, val in named.items() if val == "0"]
    total = IntPolynomial.zero()
    for h in reductions:
        total = total + a_polynomial(h)
    assembled = IntPolynomial.one() + total.shift(1)
    ok = (
        len(reductions) == 9
        and all(named[h] == want for h, want in expected.items())
        and len(zeros) == 5
        and assembled.to_list() == [1, 3, 2]
    )
    announce(capsys, 2, ok, f"nine reductions: t, 1+t, 1, 1, five zeros; sum {assembled}")
    assert len(reductions) == 9
    for h, want in expected.items():
        assert named[h] == want
    assert len(zeros) == 5
    assert assembled.to_list() == [1, 3, 2]


def test_criterion_3(bundle_path3, capsys):
    g = bundle_path3
    live = odd_tube_complex(g, Collection.of(g, [2, 3, "a", "b"])).betti_reduced()
    dead = odd_tube_complex(g, Collection.of(g, [1, 3, "a", "b"])).betti_reduced()
    ok = live.to_list() == [0, 0, 1] and dead.is_zero()
    announce(capsys, 3, ok, f"betti {live.to_list()} and {dead.to_list()}")
    assert live.to_list() == [0, 0, 1]
    assert dead.is_zero()


def test_criterion_4(bundle_path4, capsys):
    g = bundle_path4
    c1 = Collection.of(g, [1, 3, "a", "b"])
    c2 = Collection.of(g, [1, 2, "c", "d"])
    prime = {t.name() for t in confined_odd_complex(g, c1).vertices}
    dprime = {t.name() for t in saturated_odd_complex(g, c2).vertices}
    chains_equal = True
    for c in (c1, c2):
        gamma = reduced_graph(g, c)
        over_gamma = Collection.of(gamma, sorted(c.nodes) + sorted(c.labels))
        betti = [
            odd_tube_complex(g, c).betti_reduced(),
            confined_odd_complex(g, c).betti_reduced(),
            saturated_odd_complex(g, c).betti_reduced(),
            odd_tube_complex(gamma, over_gamma).betti_reduced(),
        ]
        chains_equal = chains_equal and betti[0] == betti[1] == betti[2] == betti[3]
    want_prime = {"1", "3", "12ab", "123a", "123b"}
    want_dprime = {"1", "2", "24cd", "124abc", "124abd"}
    ok = prime == want_prime and dprime == want_dprime and chains_equal
    announce(capsys, 4, ok, "vertex sets exact, betti constant along both chains")
    assert prime == want_prime
    assert dprime == want_dprime
    assert chains_equal


def test_criterion_5(capsys, real_toric_euler):
    """Reduced Euler characteristics (9, 1) of the odd poset at
    C = {1,2,3,4,a,b} for K4 with the bundle {a,b,c} (G) and with {a,b}
    (H); each value computed by homology and by Möbius.

    The pair is forced by the Euler characteristic of the real toric
    manifold M.  Summing H*(M) = ⊕_C H̃*⁻¹(K_C) over the even collections
    gives χ(M) = −Σ_C χ̃(K_C), and the face numbers of the tubing complex
    give χ(M) = Σ_k (−2)^(n−k) f_(k−1) whatever the parity subcomplexes
    are: 0 for G, a closed manifold of odd dimension 5, and 8 for H.
    Relabelling the bundle permutes G's three collections {1,2,3,4} plus
    two of a, b, c, so they share one value; the other 29 sum to −27,
    which leaves 9 (a value of 5 would make χ(M) = 12).
    """
    big = complete_graph_with_bundle("abc")
    small = complete_graph_with_bundle("ab")
    c = Collection.of(big, [1, 2, 3, 4, "a", "b"])  # equal on H as well
    routes, chis = {}, {}
    for g in (big, small):
        poset = parity_subgraph_poset(g, c, parity="odd")
        routes[g] = (order_complex(poset).betti_reduced().euler(), mobius_euler(poset))
        chis[g] = {e: odd_tube_complex(g, e).euler_reduced() for e in even_collections(g)}
    at_c = {g: chis[g][c] for g in (big, small)}
    sums = {g: -sum(chis[g].values()) for g in (big, small)}
    symmetric = {
        chis[big][Collection.of(big, [1, 2, 3, 4, *pair])] for pair in ("ab", "ac", "bc")
    }
    eulers = {g: real_toric_euler(g) for g in (big, small)}
    manifolds = all(delzant_check(g).ok for g in (big, small))
    (hg, mg), (hh, mh) = routes[big], routes[small]
    ok = (
        hg == mg == at_c[big]
        and hh == mh == at_c[small]
        and manifolds
        and sums == eulers
        and (eulers[big], eulers[small]) == (0, 8)
        and symmetric == {hg}
        and (hg, hh) == (9, 1)
    )
    announce(
        capsys, 5, ok,
        f"G homology {hg} / mobius {mg}, H homology {hh} / mobius {mh}; "
        f"pair (9, 1) as chi(M) = {sums[big]} and {sums[small]} by parity "
        f"and {eulers[big]} and {eulers[small]} by f-vector",
    )
    assert hg == mg, "the two routes disagree on G"
    assert hh == mh, "the two routes disagree on H"
    assert (at_c[big], at_c[small]) == (hg, hh), "poset and odd tube complex disagree"
    assert manifolds
    assert eulers[big] == 0, "a closed manifold of odd dimension has chi = 0"
    assert eulers[small] == 8
    assert sums == eulers, "-sum of chi~(K_C) differs from the f-vector formula"
    assert symmetric == {hg}
    assert (hg, hh) == (9, 1)


def test_criterion_6(bundle_cycle4, capsys):
    g = bundle_cycle4
    c = Collection.of(g, [1, 2, 3, 4, "a", "b"])
    odd = order_complex(parity_subgraph_poset(g, c, parity="odd"))
    even = order_complex(parity_subgraph_poset(g, c, parity="even"))
    odd_betti = odd.betti_reduced().to_list()
    even_betti = even.betti_reduced().to_list()
    odd_shell = odd.shellable()
    even_shell = even.shellable()
    hollow_square = SimplicialComplex.flag(range(4), lambda u, v: v != u ^ 1)
    control = hollow_square.shellable()
    ok = (
        odd_betti == [0, 0, 0, 3]
        and even_betti == [0, 3]
        and odd_shell.status == "no"
        and even_shell.status == "no"
        and control.status == "yes"
    )
    announce(
        capsys, 6, ok,
        f"betti {odd_betti} / {even_betti}; shellable no / no, control yes",
    )
    assert odd_betti == [0, 0, 0, 3]
    assert even_betti == [0, 3]
    assert odd_shell.status == "no"
    assert even_shell.status == "no"
    assert control.status == "yes"


def _small_connected_family():
    """Every labelled connected pseudograph on at most four nodes whose
    underlying simple graph is connected, with at most two bundles of
    size at most three."""
    alphabets = ("abc", "def")
    for n in range(1, 5):
        nodes = range(1, n + 1)
        for picked in itertools.chain.from_iterable(
            itertools.combinations(list(itertools.combinations(nodes, 2)), r)
            for r in range(n * (n - 1) // 2 + 1)
        ):
            base = Pseudograph(nodes, [(u, v, None) for u, v in picked])
            if not base.is_connected():
                continue
            for k in range(min(2, len(picked)) + 1):
                for fat in itertools.combinations(picked, k):
                    for sizes in itertools.product((2, 3), repeat=k):
                        edges = [
                            (u, v, None) for u, v in picked if (u, v) not in fat
                        ]
                        for alphabet, (u, v), size in zip(alphabets, fat, sizes):
                            edges += [(u, v, lab) for lab in alphabet[:size]]
                        yield n, Pseudograph(nodes, edges)


def test_criterion_7(capsys):
    start = time.perf_counter()
    counts = {}
    first_failure = None
    for n, g in _small_connected_family():
        counts[n] = counts.get(n, 0) + 1
        report = cross_check(g, checks=("routes", "zero", "even-star"))
        if not report.ok and first_failure is None:
            first_failure = (g, report.failures)
    elapsed = time.perf_counter() - start
    total = sum(counts.values())
    ok = (
        counts == {1: 1, 2: 3, 3: 46, 4: 1178}
        and first_failure is None
        and elapsed <= 600.0
    )
    announce(capsys, 7, ok, f"{total} graphs verified in {elapsed:.0f} s")
    assert counts == {1: 1, 2: 3, 3: 46, 4: 1178}
    assert first_failure is None, first_failure
    assert elapsed <= 600.0


def test_criterion_8(bundle_path3, bundle_path4, capsys):
    reports = {}
    for g in (bundle_path3, bundle_path4):
        reports[g] = (delzant_check(g), polytope_dimension(g))
    small, small_dim = reports[bundle_path3]
    large, large_dim = reports[bundle_path4]
    ok = (
        small.ok and large.ok
        and (small.tubing_size, small.characteristic_rank) == (small_dim, small_dim)
        and (large.tubing_size, large.characteristic_rank) == (large_dim, large_dim)
        and (small_dim, large_dim) == (3, 5)
    )
    announce(
        capsys, 8, ok,
        f"all {small.tubings_checked} + {large.tubings_checked} maximal tubings "
        f"unimodular, sizes/ranks {small_dim} and {large_dim}",
    )
    assert small.ok, small.failures
    assert large.ok, large.failures
    assert small.tubing_size == small.characteristic_rank == small_dim == 3
    assert large.tubing_size == large.characteristic_rank == large_dim == 5
    assert small.tubings_checked == 14
    assert large.tubings_checked == 260


def _random_piece(rng, offset, alphabet):
    n = rng.randint(2, 3)
    nodes = [offset + i for i in range(1, n + 1)]
    edges = {(nodes[i - 1], nodes[i]) for i in range(1, n)}
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(nodes, 2)
        edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    fat = rng.randrange(len(edges) + 1)  # == len(edges) means no bundle
    out = []
    for j, (u, v) in enumerate(edges):
        if j == fat:
            out += [(u, v, lab) for lab in alphabet[: rng.randint(2, 3)]]
        else:
            out.append((u, v, None))
    return Pseudograph(nodes, out)


def test_criterion_9(capsys):
    rng = random.Random(0)
    ok = True
    for _ in range(20):
        g1 = _random_piece(rng, 0, "abc")
        g2 = _random_piece(rng, 10, "xyz")
        union = Pseudograph(
            sorted(g1.nodes) + sorted(g2.nodes), list(g1.edges) + list(g2.edges)
        )
        poin_splits = poincare_reduced(union) == poincare_reduced(g1) * poincare_reduced(g2)
        brute_splits = poincare_brute(union) == poincare_brute(g1) * poincare_brute(g2)
        a_splits = a_polynomial(union) == (a_polynomial(g1) * a_polynomial(g2)).shift(1)
        ok = ok and poin_splits and brute_splits and a_splits
    announce(capsys, 9, ok, "20 disjoint unions: Poincare multiplies, a gains one t")
    assert ok


def test_criterion_10(bundle_path3, capsys):
    swapped = Designation(nodes=frozenset({2}), labels=frozenset({"b"}))
    assert swapped not in (Designation.default(bundle_path3), Designation.first(bundle_path3))
    reports = [
        cross_check(bundle_path3, designation=d)
        for d in (Designation.first(bundle_path3), swapped)
    ]
    reduced = reports[0].poincare_reduced
    ok = all(
        r.ok and r.poincare_reduced.to_list() == r.poincare_brute.to_list() == [1, 3, 2]
        for r in reports
    )
    announce(capsys, 10, ok, f"permuted designations still give {reduced}")
    for r in reports:
        assert r.ok, r.failures
        assert r.poincare_reduced.to_list() == [1, 3, 2]
        assert r.poincare_brute.to_list() == [1, 3, 2]
