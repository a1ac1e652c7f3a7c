import itertools
import random

import pytest

from tubings import poincare
from tubings import (
    BettiVector,
    Collection,
    Designation,
    FaceBudget,
    FaceBudgetExceededError,
    GraphError,
    IntPolynomial,
    Pseudograph,
    SimplicialComplex,
    TubeSystem,
    a_polynomial,
    cross_check,
    enumerate_reductions,
    even_collection_at,
    even_collections,
    from_betti_suspended,
    from_betti_tilde,
    normal_generator_matrix,
    odd_tube_complex,
    poincare_brute,
    poincare_reduced,
    polytope_dimension,
)


def test_polynomial_strings():
    assert str(IntPolynomial.zero()) == "0"
    assert str(IntPolynomial.one()) == "1"
    assert str(IntPolynomial([0, 1])) == "t"
    assert str(IntPolynomial([1, 3, 2])) == "1 + 3t + 2t^2"
    assert str(IntPolynomial([0, 0, -2])) == "-2t^2"
    assert repr(IntPolynomial([1, 0, 4])) == "IntPolynomial([1, 0, 4])"


def test_polynomial_arithmetic():
    p = IntPolynomial([1, 2])
    q = IntPolynomial([0, 1, 1])
    assert (p + q).to_list() == [1, 3, 1]
    assert (p * q).to_list() == [0, 1, 3, 2]
    assert (p * 3).to_list() == [3, 6]
    assert (2 * p) == IntPolynomial([2, 4])
    assert p.shift(2).to_list() == [0, 0, 1, 2]
    assert IntPolynomial.zero().shift(5).is_zero()
    # trailing zeros never survive construction
    assert IntPolynomial([1, 0, 0]).degree() == 0
    assert IntPolynomial([]).degree() == -1
    assert p.coefficient(1) == 2 and p.coefficient(9) == 0
    assert p != q and hash(p) == hash(IntPolynomial([1, 2]))


def test_polynomial_arithmetic_rejects_what_is_not_a_polynomial():
    p = IntPolynomial([0, 1, 2])
    with pytest.raises(ValueError):
        p.shift(-1)
    with pytest.raises(ValueError):
        IntPolynomial.zero().shift(-1)
    for other in (1, 2.5, "t", None, [1]):
        with pytest.raises(TypeError):
            p + other
        with pytest.raises(TypeError):
            other + p
    for other in (2.5, "t", None, [1]):
        with pytest.raises(TypeError):
            p * other
        with pytest.raises(TypeError):
            other * p
    assert p.shift(0) == p and (p * -1).to_list() == [0, -1, -2]


def test_public_names_resolve_and_share_one_polynomial_class():
    import tubings
    from tubings import complexes

    assert len(tubings.__all__) == len(set(tubings.__all__)) == 76
    for name in tubings.__all__:
        assert getattr(tubings, name) is not None, name
    assert tubings.IntPolynomial is poincare.IntPolynomial is complexes.IntPolynomial
    assert tubings.BettiVector is complexes.BettiVector


def test_betti_to_polynomial():
    b = BettiVector([0, 0, 1, 2])
    assert from_betti_suspended(b).to_list() == [0, 0, 1, 2]
    assert from_betti_tilde(b).to_list() == [0, 1, 2]
    empty = BettiVector([1])  # homology of the void complex
    assert from_betti_suspended(empty) == IntPolynomial.one()
    assert from_betti_tilde(empty).is_zero()
    # both return plain polynomials, never a Betti vector
    assert type(from_betti_suspended(b)) is type(from_betti_tilde(b)) is IntPolynomial


def test_bundle_path_both_routes(bundle_path3):
    assert poincare_reduced(bundle_path3).to_list() == [1, 3, 2]
    assert poincare_brute(bundle_path3).to_list() == [1, 3, 2]


def test_nine_reductions(bundle_path3):
    """Each reduction's a-polynomial, pinned by the reduction's shape."""
    g = bundle_path3
    reds = enumerate_reductions(g)
    assert len(reds) == 9
    by_string = {}
    for h in reds:
        by_string.setdefault(str(a_polynomial(h)), []).append(h)
    assert sorted(by_string) == ["0", "1", "1 + t", "t"]
    assert len(by_string["0"]) == 5
    assert len(by_string["1"]) == 2
    assert by_string["t"] == [g]
    assert by_string["1 + t"] == [Pseudograph([1, 2], [(1, 2, "a"), (1, 2, "b")])]
    assert set(by_string["1"]) == {
        Pseudograph([1, 2], [(1, 2, None)]),
        Pseudograph([2, 3], [(2, 3, None)]),
    }
    total = IntPolynomial.zero()
    for h in reds:
        total = total + a_polynomial(h)
    assert total.to_list() == [3, 2]
    assert IntPolynomial.one() + total.shift(1) == poincare_reduced(g)


def test_double_bundle_path_values(bundle_path4):
    assert str(a_polynomial(bundle_path4)) == "11t^2 + 2t^3"
    poin = poincare_reduced(bundle_path4)
    assert poin.to_list() == [1, 5, 19, 17, 2]
    assert poincare_brute(bundle_path4) == poin


def test_bundle_cycle_values(bundle_cycle4):
    assert str(a_polynomial(bundle_cycle4)) == "5t + 3t^2"
    poin = poincare_reduced(bundle_cycle4)
    assert poin.to_list() == [1, 5, 11, 3]
    assert poincare_brute(bundle_cycle4) == poin


def test_bundle_tree_values(bundle_tree5):
    assert a_polynomial(bundle_tree5).to_list() == [0, 0, 81, 120]
    poin = poincare_reduced(bundle_tree5)
    assert poin.to_list() == [1, 8, 55, 180, 132]
    assert poincare_brute(bundle_tree5) == poin


def test_cross_check_full(bundle_path3, bundle_path4, bundle_cycle4):
    for g in (bundle_path3, bundle_path4, bundle_cycle4):
        report = cross_check(g)
        assert report.ok, report.failures
        assert not report.sampled
        assert report.poincare_reduced == report.poincare_brute
    # the path's eight even collections were all visited
    assert cross_check(bundle_path3).collections_checked == 8


def test_cross_check_sampled(bundle_tree5):
    report = cross_check(bundle_tree5, max_collections=24, seed=5)
    assert report.ok, report.failures
    assert report.sampled
    assert report.collections_checked == 24
    # the route comparison needs every collection, so a sample skips it
    assert report.poincare_reduced is None
    assert report.poincare_brute is None


def _wrong_on_one_call(monkeypatch, name, wrong, call=3):
    """Patch the verify-loop helper ``poincare.<name>`` so that its
    ``call``-th call returns ``wrong(result)``; the collection that call was
    about, its last argument, is kept in the returned list."""
    real = getattr(poincare, name)
    calls, hit = [], []

    def patched(*args):
        result = real(*args)
        calls.append(args[-1])
        if len(calls) == call:
            hit.append(args[-1])
            return wrong(result)
        return result

    monkeypatch.setattr(poincare, name, patched)
    return hit


def _flip_evenness(shares):
    """Shares of the opposite component evenness."""
    return [1] if not any(s.bit_count() & 1 for s in shares) else [0]


@pytest.mark.parametrize("check, name, wrong", [
    # the reduced graph's side of even-star, and the bitmask side
    ("even-star", "is_admissible", lambda admissible: not admissible),
    ("even-star", "_shares", _flip_evenness),
    # the empty complex: Betti vector (1,), nonzero
    ("zero", "_saturated_tubes", lambda tubes: 0),
])
@pytest.mark.parametrize("first, sample", [(False, None), (False, 20), (True, None), (True, 20)])
def test_cross_check_names_the_collection_a_check_fails_on(
    monkeypatch, bundle_tree5, check, name, wrong, first, sample
):
    d = Designation.first(bundle_tree5) if first else None
    hit = _wrong_on_one_call(monkeypatch, name, wrong)
    report = cross_check(bundle_tree5, max_collections=sample, designation=d, checks=(check,))
    assert not report.ok
    [failure] = report.failures
    assert failure.check == check
    named = failure.collection
    if not isinstance(hit[0], Collection):
        named = bundle_tree5._mask(named.members())
    assert named == hit[0]
    if check == "even-star" and sample is None:
        # both sides run once per collection, in index order
        assert failure.collection == even_collection_at(bundle_tree5, 2, d)


_TREE5_POINCARE = "1 + 8t + 55t^2 + 180t^3 + 132t^4"


@pytest.mark.parametrize("check, name, call, wrong, collection, detail", [
    # the empty complex in the middle of the chain odd / confined / saturated
    ("chain", "_confined_tubes", 3, lambda tubes: 0, {2, 5},
     "betti BettiVector([]) / BettiVector([1]) / BettiVector([])"),
    # a share left out, and a share counted twice
    ("join", "_shares", 3, lambda shares: shares[1:], {2, 5},
     "vertex sets differ between whole and parts"),
    ("join", "_shares", 4, lambda shares: shares + shares[:1], {1, 2},
     "suspended t vs product t^2"),
    ("inflation", "_inflation_matches", 3, lambda ok: not ok, {2, 5},
     "reduced-graph odd complex does not inflate"),
    ("routes", "poincare_reduced", 1, lambda p: p + IntPolynomial.one(), None,
     f"reduced 2{_TREE5_POINCARE[1:]} vs brute {_TREE5_POINCARE}"),
    ("recovery", "reduced_graph", 3, lambda h: None, {1, 2},
     "admissible collection does not recover graph"),
])
def test_cross_check_reports_each_check_failure(
    monkeypatch, bundle_tree5, check, name, call, wrong, collection, detail
):
    hit = _wrong_on_one_call(monkeypatch, name, wrong, call)
    report = cross_check(bundle_tree5, checks=(check,))
    if collection is not None:
        collection = Collection(frozenset(collection), frozenset())
        assert hit[0] in (collection, bundle_tree5._mask(collection.members()))
    assert report.failures == (poincare.CheckFailure(check, collection, detail),)
    assert not report.ok and not report.sampled
    assert report.collections_checked == 128
    if check == "routes":
        assert str(report.poincare_brute) == _TREE5_POINCARE
        assert str(report.poincare_reduced) == "2" + _TREE5_POINCARE[1:]


def test_cross_check_reports_failures_in_the_order_found(monkeypatch, bundle_tree5):
    """The loop's checks fail on the collections they meet first, then the
    routes, then recovery; each check is named once."""
    _wrong_on_one_call(monkeypatch, "_confined_tubes", lambda tubes: 0, 3)
    _wrong_on_one_call(monkeypatch, "_inflation_matches", lambda ok: not ok, 1)
    # a second inflation failure, which is not reported
    _wrong_on_one_call(monkeypatch, "_inflation_matches", lambda ok: not ok, 5)
    _wrong_on_one_call(monkeypatch, "poincare_reduced", lambda p: p * 2, 1)
    _wrong_on_one_call(monkeypatch, "reduced_graph", lambda h: None, 3)
    report = cross_check(bundle_tree5)
    assert [(f.check, f.collection) for f in report.failures] == [
        ("inflation", Collection(frozenset(), frozenset())),
        ("chain", even_collection_at(bundle_tree5, 2)),
        ("routes", None),
        ("recovery", Collection(frozenset({1, 2}), frozenset())),
    ]


def test_every_complex_of_a_cross_check_is_built_once_and_ranked(monkeypatch, bundle_path4):
    """The traced counters of complex_on and betti_reduced count the same
    complexes: cross_check builds each one through complex_on."""
    counts = {"complex_on": 0, "betti_reduced": 0}

    def counted(cls, name):
        real = getattr(cls, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(TubeSystem, "complex_on")
    counted(SimplicialComplex, "betti_reduced")
    assert cross_check(bundle_path4).ok
    assert counts["complex_on"] == counts["betti_reduced"] > 0


def _count_ranks(monkeypatch):
    """Count ``SimplicialComplex.betti_reduced`` calls in the returned list."""
    ranked = []
    real = SimplicialComplex.betti_reduced

    def counted(*args, **kwargs):
        ranked.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(SimplicialComplex, "betti_reduced", counted)
    return ranked


def test_a_full_cross_check_ranks_each_tube_mask_it_asks_for_once(monkeypatch, bundle_tree5):
    """Odd, confined and saturated masks, of collections and of their
    shares, often coincide; each distinct one is ranked once."""
    poincare_reduced(bundle_tree5)  # kept on the graph, so the call below ranks none of it
    asked = set()
    for name in ("_odd_tubes", "_confined_tubes", "_saturated_tubes"):

        def recorded(*args, real=getattr(poincare, name)):
            tubes = real(*args)
            asked.add(tubes)
            return tubes

        monkeypatch.setattr(poincare, name, recorded)
    ranked = _count_ranks(monkeypatch)
    assert cross_check(bundle_tree5).ok
    assert len(ranked) == len(asked) > 0


@pytest.mark.parametrize("checks, calls", [
    # neither reads a Betti vector
    (("even-star",), 0),
    (("recovery",), 0),
    # criterion 7's checks: 128 odd complexes, 30 saturated ones for the
    # collections with an odd share, and 37 for the reduced route
    (("routes", "zero", "even-star"), 195),
])
def test_cross_check_ranks_only_what_its_checks_read(monkeypatch, bundle_tree5, checks, calls):
    ranked = _count_ranks(monkeypatch)
    assert cross_check(bundle_tree5, checks=checks).ok
    assert len(ranked) == calls


@pytest.mark.parametrize("checks", [("recovery",), ("even-star",)])
def test_cross_check_builds_no_tube_system_for_checks_that_read_no_tube(
    monkeypatch, bundle_tree5, checks
):
    built = []
    real = TubeSystem.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        real(self, *args, **kwargs)

    monkeypatch.setattr(TubeSystem, "__init__", counted)
    budget = FaceBudget()
    assert cross_check(bundle_tree5, budget, checks=checks).ok
    assert built == []
    assert budget.used == 0


def test_cross_check_rejects_unknown_names(bundle_path3):
    with pytest.raises(ValueError):
        cross_check(bundle_path3, checks=("routes", "bogus"))


def test_cross_check_rejects_a_bare_string_of_checks(bundle_path3):
    """A string is not split into letters: the error names the string."""
    with pytest.raises(ValueError, match="'routes'"):
        cross_check(bundle_path3, checks="routes")


@pytest.mark.parametrize("bad", [True, False, 2.0])
def test_cross_check_rejects_a_sample_that_is_no_count(bundle_path3, bad):
    """True used to check one collection."""
    with pytest.raises(ValueError, match="max_collections"):
        cross_check(bundle_path3, max_collections=bad)


@pytest.mark.parametrize("limit", [0, -1])
def test_cross_check_rejects_a_sample_below_one(bundle_path3, limit):
    with pytest.raises(ValueError):
        cross_check(bundle_path3, max_collections=limit)


def test_simple_graphs_concentrate_in_one_degree():
    """Without bundles the a-polynomial is a single monomial (or zero):
    nothing below the middle dimension survives, and an odd number of
    nodes kills everything."""
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(1, 7)
        edges = {(i, i + 1) for i in range(1, n)}
        for _ in range(rng.randint(0, 2 * n)):
            if n > 1:
                u, v = rng.sample(range(1, n + 1), 2)
                edges.add((min(u, v), max(u, v)))
        g = Pseudograph(range(1, n + 1), [(u, v, None) for u, v in sorted(edges)])
        a = a_polynomial(g)
        if n % 2:
            assert a.is_zero()
        elif not a.is_zero():
            assert a.degree() == n // 2 - 1
            assert all(a.coefficient(k) == 0 for k in range(a.degree()))


def test_pseudograph_homology_need_not_sit_in_one_degree():
    """Unlike a simple graph's, an odd complex of a pseudograph can carry
    homology in two degrees, so no route may read a-numbers off Euler
    characteristics: the triangle 1-2-3 with 1-2 doubled and a pendant 1-4."""
    g = Pseudograph(
        [1, 2, 3, 4], [(1, 2, "a"), (1, 2, "b"), (1, 3), (2, 3), (1, 4)]
    )
    c = Collection.of(g, [1, 2, 3, 4, "a", "b"])
    assert odd_tube_complex(g, c).betti_reduced().to_list() == [0, 0, 1, 2]


def test_disjoint_union_product_law(bundle_path3):
    g = bundle_path3
    extra = Pseudograph([10, 11], [(10, 11, None)])
    union = Pseudograph(
        sorted(g.nodes) + [10, 11],
        [(1, 2, "a"), (1, 2, "b"), (2, 3, None), (10, 11, None)],
    )
    assert poincare_reduced(union) == poincare_reduced(g) * poincare_reduced(extra)
    assert poincare_brute(union) == poincare_brute(g) * poincare_brute(extra)
    assert a_polynomial(union) == (a_polynomial(g) * a_polynomial(extra)).shift(1)


def _beside(g, h):
    """The disjoint union of g and h, h's nodes moved past g's and a "z"
    added to each of its labels."""
    shift = max(g.nodes)
    moved = [(u + shift, v + shift, lab and lab + "z") for u, v, lab in h.edges]
    return Pseudograph(list(g.nodes) + [n + shift for n in h.nodes], list(g.edges) + moved)


@pytest.mark.parametrize("first, second, admits", [
    ("bundle_path3", "bundle_cycle4", True),
    ("bundle_path4", "bundle_path3", True),
    ("bundle_tree5", "path3", False),  # path3 has no admissible collection
    ("path3", "k4_double_bundle", False),
])
def test_a_polynomial_of_a_disjoint_union_is_t_times_the_product(request, first, second, admits):
    """Künneth for joins, which poincare_reduced assumes of every
    disconnected reduction and never computes: here a_polynomial ranks the
    union graph itself."""
    g, h = request.getfixturevalue(first), request.getfixturevalue(second)
    union = _beside(g, h)
    assert len(union.component_nodesets()) == 2
    product = (a_polynomial(g) * a_polynomial(h)).shift(1)
    assert product.is_zero() != admits
    assert a_polynomial(union) == product


def test_poincare_reduced_memo_lives_on_the_graph(bundle_path3):
    def fresh():
        return Pseudograph(list(bundle_path3.nodes), list(bundle_path3.edges))

    first = poincare_reduced(bundle_path3)
    assert poincare_reduced(bundle_path3) is first
    twin = fresh()
    assert twin == bundle_path3
    assert poincare_reduced(twin) == first
    assert poincare_reduced(twin) is not first
    # a hit enumerates no faces, so it charges none
    assert poincare_reduced(bundle_path3, FaceBudget(1)) is first
    with pytest.raises(FaceBudgetExceededError):
        poincare_reduced(fresh(), FaceBudget(1))


@pytest.mark.parametrize("route", [poincare_brute, poincare_reduced, a_polynomial, cross_check])
@pytest.mark.parametrize(
    "limit, make",
    [
        ("13", lambda: Pseudograph([1, 2, 3], [(1, 2, "a"), (1, 2, "b"), (2, 3, None)])),
        ("146", lambda: Pseudograph(range(1, 7), [(i, i + 1, None) for i in range(1, 6)])),
    ],
)
def test_no_budget_is_one_default_budget_for_the_whole_call(monkeypatch, route, limit, make):
    """budget=None caps the whole call, as one FaceBudget() passed in does;
    each call gets a fresh graph, so no memo answers it."""
    monkeypatch.setenv("TUBINGS_FACE_BUDGET", limit)
    with pytest.raises(FaceBudgetExceededError):
        route(make(), FaceBudget())
    with pytest.raises(FaceBudgetExceededError):
        route(make())


def _complete(n, labels=(None,)):
    """Edges of K_n, the edge 1-2 carrying ``labels``, one plain edge by default."""
    pairs = itertools.combinations(range(1, n + 1), 2)
    return [(1, 2, lab) for lab in labels] + [(u, v, None) for u, v in pairs if (u, v) != (1, 2)]


@pytest.mark.parametrize("route", range(3), ids=["brute", "a-polynomial", "cross-check"])
@pytest.mark.parametrize(
    "edges, charged",
    [
        pytest.param([(i, i + 1, None) for i in range(1, 6)], (265, 209, 540), id="P6"),
        # no admissible collection on an odd node count: no a-polynomial face
        pytest.param(_complete(5), (53, 0, 191), id="K5"),
        pytest.param(
            [(1, 2, "a"), (1, 2, "b"), (2, 3, None), (3, 4, "c"), (3, 4, "d")],
            (517, 385, 1272),
            id="bundle 4-path",
        ),
        pytest.param(_complete(4, "abc"), (209, 165, 821), id="K4, 3-edge bundle"),
        pytest.param(
            [(1, 2, lab) for lab in "abcdef"] + [(2, 3, None)],
            (2837, 1291, 8009),
            id="3-path, 6-edge bundle",
        ),
    ],
)
def test_each_route_charges_a_pinned_face_count(edges, charged, route):
    """A join factor a complex's universe has ranked is not enumerated
    again, but its faces are charged again, so the counts stay those of
    ranking every complex afresh; one face less is over budget.  Each call
    gets a fresh graph, so the reduced route's memo on the graph answers none."""
    nodes = sorted({v for e in edges for v in e[:2]})
    call = (
        poincare_brute,
        a_polynomial,
        lambda g, b: cross_check(g, b, checks=("routes", "zero", "even-star")),
    )[route]
    budget = FaceBudget()
    call(Pseudograph(nodes, edges), budget)
    assert budget.used == charged[route]
    if charged[route]:
        with pytest.raises(FaceBudgetExceededError):
            call(Pseudograph(nodes, edges), FaceBudget(charged[route] - 1))


def test_designation_choice_is_invisible(bundle_path3, bundle_cycle4):
    for g in (bundle_path3, bundle_cycle4):
        base = poincare_reduced(g)
        report = cross_check(g, designation=Designation.first(g))
        assert report.ok, report.failures
        assert report.poincare_reduced == report.poincare_brute == base
    middle = Designation(nodes=frozenset({2}), labels=frozenset({"b"}))
    report = cross_check(bundle_path3, designation=middle)
    assert report.ok, report.failures
    assert report.poincare_brute.to_list() == [1, 3, 2]


def test_designation_instance_of_the_graph_is_accepted(bundle_path3, bundle_cycle4):
    for g in (bundle_path3, bundle_cycle4):
        d = Designation.default(g)
        assert list(even_collections(g, d)) == list(even_collections(g))
        assert normal_generator_matrix(g, d).entries == normal_generator_matrix(g).entries
        report = cross_check(g, designation=d)
        assert report.ok, report.failures
        assert report.poincare_reduced == poincare_brute(g)


def test_malformed_designation_still_raises(bundle_path3):
    two_nodes = Designation(nodes=frozenset({1, 2}), labels=frozenset({"a"}))
    no_label = Designation(nodes=frozenset({3}), labels=frozenset())
    for bad in (two_nodes, no_label):
        with pytest.raises(GraphError):
            cross_check(bundle_path3, designation=bad)
        with pytest.raises(GraphError):
            list(even_collections(bundle_path3, bad))
        with pytest.raises(GraphError):
            normal_generator_matrix(bundle_path3, bad)


def test_poincare_at_minus_one_is_the_manifold_euler_characteristic(
    bundle_path3, bundle_path4, k4_double_bundle, k4_triple_bundle, real_toric_euler
):
    """P(-1) is the Euler characteristic of the real toric manifold, which
    the face numbers of the tubing complex fix on their own; it vanishes in
    odd dimension."""
    k4 = Pseudograph(
        [1, 2, 3, 4], [(u, v, None) for u, v in itertools.combinations(range(1, 5), 2)]
    )
    for g in (k4, k4_double_bundle, k4_triple_bundle, bundle_path3, bundle_path4):
        chi = real_toric_euler(g)
        if polytope_dimension(g) % 2:
            assert chi == 0
        for route in (poincare_brute, poincare_reduced):
            coeffs = route(g).to_list()
            assert sum((-1) ** k * b for k, b in enumerate(coeffs)) == chi, route
