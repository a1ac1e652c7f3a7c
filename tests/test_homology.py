import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubings import (
    BettiVector,
    FaceBudget,
    FaceBudgetExceededError,
    FinitePoset,
    IntPolynomial,
    Pseudograph,
    SimplicialComplex,
    TubingsError,
    VertexClashError,
    even_collections,
    from_betti_suspended,
    odd_tube_complex,
    order_complex,
)
from tubings import complexes
from tubings._intlinalg import gf2_basis, gf2_rank, rank_int
from tubings.complexes import _clique_levels
from tubings.errors import FaceBudgetConfigError


def sphere(n):
    """Boundary of the (n+1)-simplex: a combinatorial n-sphere."""
    verts = range(n + 2)
    return SimplicialComplex.from_maximal(
        [f for f in itertools.combinations(verts, n + 1)]
    )


def octahedron():
    opposite = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
    return SimplicialComplex.flag(range(6), lambda u, v: opposite[u] != v)


def random_complex(rng, max_vertices=6, max_faces=5):
    verts = range(rng.randint(1, max_vertices))
    faces = []
    for _ in range(rng.randint(1, max_faces)):
        size = rng.randint(1, min(4, len(verts)))
        faces.append(tuple(rng.sample(list(verts), size)))
    return SimplicialComplex.from_maximal(faces)


def random_flag_complex(rng, n=7, p=0.5):
    verts = list(range(n))
    edges = {(u, v) for u, v in itertools.combinations(verts, 2) if rng.random() < p}
    return SimplicialComplex.flag(verts, lambda u, v: (min(u, v), max(u, v)) in edges)


def test_betti_vector_trims_and_indexes():
    b = BettiVector([0, 1, 2, 0, 0])
    assert b.to_list() == [0, 1, 2]
    assert b.get(-1) == 0 and b.get(0) == 1 and b.get(1) == 2 and b.get(5) == 0
    assert not b.is_zero()
    assert BettiVector([0, 0]).is_zero()
    assert BettiVector.zeros() == BettiVector([])


def test_betti_euler_is_an_integer():
    b = BettiVector([0, 0, 0, 9])
    assert b.euler() == 9
    assert isinstance(b.euler(), int)
    assert BettiVector([1]).euler() == -1
    assert BettiVector([0, 2, 1]).euler() == 1


def test_known_homology():
    hollow = SimplicialComplex.from_maximal([(1, 2), (2, 3), (1, 3)])
    assert hollow.betti_reduced().to_list() == [0, 0, 1]
    solid = SimplicialComplex.from_maximal([(1, 2, 3)])
    assert solid.betti_reduced().is_zero()
    two_points = SimplicialComplex.from_maximal([(1,), (2,)])
    assert two_points.betti_reduced().to_list() == [0, 1]
    assert SimplicialComplex.empty().betti_reduced().to_list() == [1]
    assert sphere(2).betti_reduced().to_list() == [0, 0, 0, 1]


def test_torus_like_flag_complex():
    """Octahedron boundary as a flag complex: a 2-sphere."""
    k = octahedron()
    assert k.betti_reduced().to_list() == [0, 0, 0, 1]
    assert k.euler_reduced() == 1


def test_flag_and_explicit_agree():
    rng = random.Random(2)
    for _ in range(20):
        k = random_flag_complex(rng, n=6)
        explicit = SimplicialComplex.from_maximal(
            k.maximal_faces(), vertices=k.vertices
        )
        assert explicit.betti_reduced() == k.betti_reduced()


def test_euler_matches_betti_alternating_sum():
    rng = random.Random(3)
    for _ in range(30):
        k = random_complex(rng)
        assert k.euler_reduced() == k.betti_reduced().euler()


def test_strong_collapse_preserves_homology():
    rng = random.Random(4)
    for _ in range(30):
        k = random_flag_complex(rng)
        assert k.betti_reduced(_use_core=True) == k.betti_reduced(_use_core=False)
    for _ in range(10):
        k = random_complex(rng)
        assert k.betti_reduced(_use_core=True) == k.betti_reduced(_use_core=False)


def test_join_with_point_is_contractible():
    cone = sphere(1).join(SimplicialComplex.from_maximal([("p",)]))
    assert cone.betti_reduced().is_zero()


def test_join_of_spheres():
    s0 = SimplicialComplex.from_maximal([(1,), (2,)])
    other = SimplicialComplex.from_maximal([("x",), ("y",)])
    square = s0.join(other)
    assert square.betti_reduced().to_list() == [0, 0, 1]
    s2 = square.join(SimplicialComplex.from_maximal([("u",), ("v",)]))
    assert s2.betti_reduced().to_list() == [0, 0, 0, 1]


def test_join_betti_is_suspended_product():
    rng = random.Random(5)
    for trial in range(25):
        a = random_complex(rng, max_vertices=4, max_faces=3)
        b = random_complex(rng, max_vertices=4, max_faces=3)
        renamed = SimplicialComplex.from_maximal(
            [tuple(f"b{v}" for v in face) for face in b.maximal_faces()]
        )
        joined = a.join(renamed)
        lhs = from_betti_suspended(joined.betti_reduced())
        rhs = from_betti_suspended(a.betti_reduced()) * from_betti_suspended(
            renamed.betti_reduced()
        )
        assert lhs == rhs, f"trial {trial}"


def test_join_rejects_shared_vertices():
    a = SimplicialComplex.from_maximal([(1, 2)])
    with pytest.raises(VertexClashError):
        a.join(SimplicialComplex.from_maximal([(2, 3)]))


def test_induced_subcomplex():
    k = sphere(1)  # triangle boundary on vertices 0,1,2
    sub = k.induced([0, 1])
    assert sub.betti_reduced().is_zero()
    assert sub.n_vertices() == 2


@pytest.mark.parametrize("raw", ["abc", "1e6", "", "0", "-5"])
def test_face_budget_env_must_be_a_positive_integer(monkeypatch, raw):
    monkeypatch.setenv("TUBINGS_FACE_BUDGET", raw)
    with pytest.raises(FaceBudgetConfigError) as info:
        FaceBudget()
    assert isinstance(info.value, TubingsError)
    assert f"TUBINGS_FACE_BUDGET={raw!r}" in str(info.value)
    assert FaceBudget(7).limit == 7


@pytest.mark.parametrize("limit", [0, -3])
def test_face_budget_limit_must_be_positive(limit):
    with pytest.raises(FaceBudgetConfigError) as info:
        FaceBudget(limit)
    assert isinstance(info.value, TubingsError)
    assert str(limit) in str(info.value)


def test_face_budget_env_sets_the_default(monkeypatch):
    monkeypatch.setenv("TUBINGS_FACE_BUDGET", "42")
    assert FaceBudget().limit == 42
    monkeypatch.delenv("TUBINGS_FACE_BUDGET")
    assert FaceBudget().limit == 1_000_000


def test_face_budget_enforced():
    # cross-polytope boundary: no vertex dominates another, 3^8 faces
    big = SimplicialComplex.flag(range(16), lambda u, v: v != u ^ 1)
    with pytest.raises(FaceBudgetExceededError):
        big.betti_reduced(FaceBudget(100))


def test_shellable_yes_cases():
    rep = sphere(1).shellable()
    assert rep.status == "yes"
    assert len(rep.order) == 3
    path = SimplicialComplex.from_maximal([(1, 2), (2, 3), (3, 4)])
    assert path.shellable().status == "yes"
    nonpure = SimplicialComplex.from_maximal([(1, 2, 3), (3, 4)])
    assert nonpure.shellable().status == "yes"


def test_shellable_no_for_disconnected():
    rep = SimplicialComplex.from_maximal([(1, 2), (3, 4)]).shellable()
    assert rep.status == "no"
    assert rep.expansions == 0  # rejected before any search


def test_shellable_unknown_when_budget_runs_out():
    rep = sphere(1).shellable(max_expansions=1)
    assert rep.status == "unknown"
    assert rep.order is None


def test_shellable_order_is_a_certificate():
    """Replay the returned order and re-verify the defining condition."""
    k = sphere(2)
    rep = k.shellable()
    assert rep.status == "yes"
    placed = []
    for face in rep.order:
        f = frozenset(face)
        if placed:
            boundary = [f & g for g in placed if len(f & g) == len(f) - 1]
            for g in placed:
                meet = f & g
                assert any(meet <= r for r in boundary)
        placed.append(f)
    assert {frozenset(f) for f in rep.order} == {
        frozenset(f) for f in k.maximal_faces()
    }


@st.composite
def small_graphs(draw, max_vertices=10):
    """(vertex count, edge set, adjacency bitmasks) on at most `max_vertices`
    vertices."""
    n = draw(st.integers(0, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return n, edges, adj


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_clique_levels_match_brute_force_listing(graph):
    n, edges, adj = graph
    brute = []
    for size in range(1, n + 1):
        level = sorted(
            sum(1 << v for v in clique)
            for clique in itertools.combinations(range(n), size)
            if all(pair in edges for pair in itertools.combinations(clique, 2))
        )
        if not level:
            break
        brute.append(level)
    budget = FaceBudget(10**6)
    assert _clique_levels(adj, budget) == brute
    total = sum(map(len, brute))
    assert budget.used == total
    # a budget is at least 1, so "one less" exists from 2 cliques on
    _clique_levels(adj, FaceBudget(max(total, 1)))
    if total > 1:
        with pytest.raises(FaceBudgetExceededError):
            _clique_levels(adj, FaceBudget(total - 1))


# -- Betti numbers against full boundary matrices ---------------------------
#
# `betti_reduced` ranks the boundary maps over GF(2) with clearing and ranks
# a map exactly only when the mod-2 Betti numbers on both sides of it are
# nonzero.  The reference below ranks every full boundary matrix.


def reference_betti(faces, rank=rank_int):
    """Reduced Betti numbers, from dimension -1, of the complex whose
    nonempty faces are the given sorted tuples, by `rank` of every full
    signed boundary matrix (the empty face included, so that the vertices'
    boundary is the augmentation)."""
    top = max(map(len, faces), default=0)
    levels = [[()]] + [sorted(f for f in faces if len(f) == k) for k in range(1, top + 1)]
    ranks = [0]
    for level in levels[1:]:
        ranks.append(rank([{f[:i] + f[i + 1:]: (-1) ** i for i in range(len(f))} for f in level]))
    ranks.append(0)
    return BettiVector([len(level) - ranks[k] - ranks[k + 1] for k, level in enumerate(levels)])


def mod2_rank(rows):
    """Rank over GF(2) of signed boundary rows."""
    index = {}
    return gf2_rank(sum(1 << index.setdefault(k, len(index)) for k in row) for row in rows)


def closure(maximal):
    """Every nonempty face of the given faces, as sorted tuples."""
    return {
        sub
        for f in maximal
        for k in range(1, len(f) + 1)
        for sub in itertools.combinations(sorted(f), k)
    }


def cliques(n, adjacent):
    """Every nonempty clique of a graph on range(n), grown one vertex at a time."""
    out = []
    level = [(v,) for v in range(n)]
    while level:
        out += level
        level = [c + (v,) for c in level for v in range(c[-1] + 1, n)
                 if all(adjacent(u, v) for u in c)]
    return out


# cell limits for dense GF(2) rows: every map exact, a mixture, none exact
CELL_LIMITS = st.sampled_from([0, 40, 400, complexes._GF2_MAX_CELLS])


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_vertices=12), CELL_LIMITS)
def test_flag_betti_matches_full_boundary_ranks(graph, limit):
    n, edges, adj = graph
    k = SimplicialComplex.flag_from_masks(range(n), adj)
    expected = reference_betti(cliques(n, lambda u, v: (u, v) in edges))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "_GF2_MAX_CELLS", limit)
        assert k.betti_reduced(_use_core=False) == expected
        assert k.betti_reduced() == expected


@st.composite
def explicit_faces(draw):
    """1 to 6 faces on at most 8 vertices."""
    n = draw(st.integers(1, 8))
    face = st.sets(st.integers(0, n - 1), min_size=1, max_size=n).map(sorted)
    return draw(st.lists(face, min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(explicit_faces(), CELL_LIMITS)
def test_explicit_betti_matches_full_boundary_ranks(maximal, limit):
    k = SimplicialComplex.from_maximal(maximal)
    expected = reference_betti(closure(maximal))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "_GF2_MAX_CELLS", limit)
        assert k.betti_reduced(_use_core=False) == expected
        assert k.betti_reduced() == expected


# six-vertex RP^2: H_1 is Z/2, so over GF(2) it has homology in dimensions 1
# and 2 and over the rationals none
RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
       (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]
TETRAHEDRON = list(itertools.combinations((4, 5, 6, 7), 3))


def barycentric_rp2():
    """The barycentric subdivision of RP^2 as a flag complex: the order
    complex of its face poset, with its faces as chains of indices."""
    faces = sorted(closure(RP2))
    poset = FinitePoset.from_relation(faces, lambda a, b: set(a) < set(b))
    chains = cliques(len(faces), lambda i, j: poset.comparable(i, j))
    return order_complex(poset), chains


def rp2():
    return SimplicialComplex.from_maximal(RP2), closure(RP2)


def rp2_joined_with_s0():
    s0 = SimplicialComplex.from_maximal([(7,), (8,)])
    return rp2()[0].join(s0), closure([f + p for f in RP2 for p in [(7,), (8,)]])


def circle_and_sphere():
    faces = TETRAHEDRON + [(1, 2), (2, 3), (1, 3)]
    return SimplicialComplex.from_maximal(faces), closure(faces)


@pytest.mark.parametrize(
    "build, mod2, rational",
    [
        pytest.param(rp2, [0, 0, 1, 1], [], id="RP2"),
        pytest.param(barycentric_rp2, [0, 0, 1, 1], [], id="RP2 subdivided, flag"),
        # the torsion moves up one degree, onto the next boundary map
        pytest.param(rp2_joined_with_s0, [0, 0, 0, 1, 1], [], id="RP2 joined with S0"),
        # adjacent nonzero Betti numbers and no torsion
        pytest.param(circle_and_sphere, [0, 1, 1, 1], [0, 1, 1, 1], id="circle and 2-sphere"),
    ],
)
def test_adjacent_mod2_homology_falls_back_to_exact_rank(monkeypatch, build, mod2, rational):
    k, faces = build()
    assert reference_betti(faces, mod2_rank).to_list() == mod2
    assert reference_betti(faces).to_list() == rational
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return rank_int(rows)

    monkeypatch.setattr(complexes, "rank_int", counted)
    assert k.betti_reduced(_use_core=False).to_list() == rational
    assert calls
    assert k.betti_reduced().to_list() == rational


@pytest.mark.parametrize(
    "k, rows",
    [
        # f = (6, 12, 8); the GF(2) ranks of the boundary maps are 5 and 7
        pytest.param(octahedron(), [8, 12 - 7], id="octahedron"),
        # f = (5, 10, 10, 5); ranks 4, 6 and 4
        pytest.param(sphere(3), [5, 10 - 4, 10 - 6], id="3-sphere"),
        # f = (6, 15, 10); ranks 5 and 9 (10 over the rationals)
        pytest.param(rp2()[0], [10, 15 - 9], id="RP2"),
    ],
)
def test_clearing_leaves_out_one_row_per_pivot_of_the_map_above(monkeypatch, k, rows):
    sizes = []

    def recorded(rows):
        rows = list(rows)
        sizes.append(len(rows))
        return gf2_basis(rows)

    monkeypatch.setattr(complexes, "gf2_basis", recorded)
    k.betti_reduced(_use_core=False)
    assert sizes == rows  # one map at a time, from the top dimension down


@pytest.mark.parametrize(
    "k, limit, ranked",
    [
        # the 3-sphere, f = (5, 10, 10, 5): its top map has 5 x 10 cells, and
        # 6 rows of the next are left after clearing, 6 x 10 cells; below an
        # exact map nothing is cleared
        pytest.param(sphere(3), 0, ["exact", "exact", "exact"], id="3-sphere, 0"),
        pytest.param(sphere(3), 50, ["gf2", "exact", "exact"], id="3-sphere, 50"),
        pytest.param(sphere(3), 60, ["gf2", "gf2", "gf2"], id="3-sphere, 60"),
        # adjacent nonzero Betti numbers, but the maps are exact already
        pytest.param(circle_and_sphere()[0], 0, ["exact", "exact"], id="circle and 2-sphere, 0"),
    ],
)
def test_maps_too_large_for_dense_rows_are_ranked_exactly_once(monkeypatch, k, limit, ranked):
    expected = k.betti_reduced(_use_core=False)
    calls = []

    def gf2(rows):
        calls.append("gf2")
        return gf2_basis(rows)

    def exact(rows):
        calls.append("exact")
        return rank_int(rows)

    monkeypatch.setattr(complexes, "gf2_basis", gf2)
    monkeypatch.setattr(complexes, "rank_int", exact)
    monkeypatch.setattr(complexes, "_GF2_MAX_CELLS", limit)
    assert k.betti_reduced(_use_core=False) == expected
    assert calls == ranked


def test_certified_complexes_never_rank_exactly(monkeypatch):
    def refuse(rows):
        raise AssertionError("exact rank on a complex the mod-2 ranks certify")

    monkeypatch.setattr(complexes, "rank_int", refuse)
    assert octahedron().betti_reduced(_use_core=False).to_list() == [0, 0, 0, 1]
    # nonzero in dimensions 0 and 2, which are not adjacent
    point_and_sphere = SimplicialComplex.from_maximal(TETRAHEDRON + [(9,)])
    assert point_and_sphere.betti_reduced(_use_core=False).to_list() == [0, 1, 0, 1]
    p8 = Pseudograph(range(1, 9), [(i, i + 1, None) for i in range(1, 8)])
    total = IntPolynomial.zero()
    for c in even_collections(p8):
        total = total + from_betti_suspended(odd_tube_complex(p8, c).betti_reduced())
    assert total.to_list() == [1, 7, 20, 28, 14]  # Henderson's b_i(P8)
