import itertools
import random

import pytest
from hypothesis import example, given, settings
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
from tubings.complexes import _betti_from_levels, _clique_levels, _join_factors
from tubings.errors import FaceBudgetConfigError
from tubings.graphs import _split


def not_opposite(u, v):
    """Vertices 2i and 2i + 1 are opposite; every other pair is adjacent."""
    return v != u ^ 1


def sphere(n):
    """Boundary of the (n+1)-dimensional cross-polytope, the join of n + 1
    copies of S^0: a flag n-sphere on 2n + 2 vertices."""
    return SimplicialComplex.flag(range(2 * n + 2), not_opposite)


def octahedron():
    return sphere(2)


def ball(n):
    """The cone over sphere(n - 1): a flag n-ball."""
    return sphere(n - 1).join(points("apex"))


def uncollapsed_betti(k):
    """Reduced Betti numbers of ``k`` from all its faces, with no strong
    collapse and no join split, by the rank code `betti_reduced` runs on
    each join factor: the reference the collapsed computation must match."""
    levels = _clique_levels(k._adj, k._mask, FaceBudget())
    return _betti_from_levels(levels, len(_split(k._adj, k._mask)))


def points(*names):
    """The discrete complex on the given vertices."""
    return SimplicialComplex.flag(names, lambda u, v: False)


def simplex(*names):
    """The full simplex on the given vertices."""
    return SimplicialComplex.flag(names, lambda u, v: True)


def graph_complex(edges):
    """Flag complex of the graph with the given edges."""
    edges = {frozenset(e) for e in edges}
    verts = sorted(set().union(*edges))
    return SimplicialComplex.flag(verts, lambda u, v: frozenset((u, v)) in edges)


def random_flag_complex(rng, n=7, p=0.5, prefix=""):
    verts = [f"{prefix}{v}" if prefix else v for v in range(n)]
    edges = {frozenset(e) for e in itertools.combinations(verts, 2) if rng.random() < p}
    return SimplicialComplex.flag(verts, lambda u, v: frozenset((u, v)) in edges)


def test_betti_vector_trims_and_indexes():
    b = BettiVector([0, 1, 2, 0, 0])
    assert b.to_list() == [0, 1, 2]
    assert b.get(-1) == 0 and b.get(0) == 1 and b.get(1) == 2 and b.get(5) == 0
    assert not b.is_zero()
    assert BettiVector([0, 0]).is_zero()
    assert BettiVector.zeros() == BettiVector([])


def test_betti_vector_is_a_polynomial_that_prints_and_compares_as_its_own():
    b = BettiVector([0, 1, 0])
    assert isinstance(b, IntPolynomial)
    assert repr(b) == str(b) == "BettiVector([0, 1])"
    assert len(b) == 2 and list(b) == [0, 1] and b.to_list() == [0, 1]
    assert b.get(-1) == 0 and b.get(0) == 1 and b.euler() == 1
    zeros = BettiVector.zeros()
    assert type(zeros) is BettiVector and len(zeros) == 0 and not zeros
    assert list(zeros) == [] and zeros.to_list() == [] and zeros.euler() == 0
    # equal coefficients, but a Betti vector is not a plain polynomial
    assert BettiVector([1]) != IntPolynomial([1]) and IntPolynomial([1]) != BettiVector([1])
    assert not BettiVector([1]) == IntPolynomial([1]) and not IntPolynomial([1]) == BettiVector([1])
    assert BettiVector([1]) == BettiVector([1, 0]) and hash(b) == hash(BettiVector([0, 1]))


def test_betti_euler_is_an_integer():
    b = BettiVector([0, 0, 0, 9])
    assert b.euler() == 9
    assert isinstance(b.euler(), int)
    assert BettiVector([1]).euler() == -1
    assert BettiVector([0, 2, 1]).euler() == 1


def test_known_homology():
    hollow = sphere(1)  # the hollow square
    assert hollow.betti_reduced().to_list() == [0, 0, 1]
    solid = simplex(1, 2, 3)
    assert solid.betti_reduced().is_zero()
    two_points = points(1, 2)
    assert two_points.betti_reduced().to_list() == [0, 1]
    assert points().betti_reduced().to_list() == [1]
    assert sphere(2).betti_reduced().to_list() == [0, 0, 0, 1]


@pytest.mark.parametrize(
    "k, betti",
    [
        pytest.param(points(), [1], id="void"),
        pytest.param(simplex(1, 2, 3), [], id="one-vertex-core"),
        pytest.param(
            SimplicialComplex.flag(range(5), lambda u, v: (v - u) % 5 in (1, 4)),
            [0, 0, 1],
            id="one-factor-core",
        ),
        pytest.param(octahedron(), [0, 0, 0, 1], id="three-s0-factors"),
    ],
)
def test_betti_reduced_returns_a_betti_vector(k, betti):
    b = k.betti_reduced()
    assert type(b) is BettiVector
    assert b.to_list() == betti and b == BettiVector(betti)


def test_torus_like_flag_complex():
    """Octahedron boundary as a flag complex: a 2-sphere."""
    k = octahedron()
    assert k.betti_reduced().to_list() == [0, 0, 0, 1]
    assert k.euler_reduced() == 1


def test_euler_matches_betti_alternating_sum():
    rng = random.Random(3)
    for _ in range(30):
        k = random_flag_complex(rng, n=rng.randint(1, 7))
        assert k.euler_reduced() == k.betti_reduced().euler()


def test_strong_collapse_preserves_homology():
    rng = random.Random(4)
    for _ in range(30):
        k = random_flag_complex(rng)
        assert k.betti_reduced() == uncollapsed_betti(k)


def test_join_with_point_is_contractible():
    cone = sphere(1).join(points("p"))
    assert cone.betti_reduced().is_zero()


def test_join_of_spheres():
    square = points(1, 2).join(points("x", "y"))
    assert square.betti_reduced().to_list() == [0, 0, 1]
    s2 = square.join(points("u", "v"))
    assert s2.betti_reduced().to_list() == [0, 0, 0, 1]


def test_join_betti_is_suspended_product():
    rng = random.Random(5)
    for trial in range(25):
        a = random_flag_complex(rng, n=rng.randint(1, 4))
        b = random_flag_complex(rng, n=rng.randint(1, 4), prefix="b")
        joined = a.join(b)
        lhs = from_betti_suspended(joined.betti_reduced())
        rhs = from_betti_suspended(a.betti_reduced()) * from_betti_suspended(
            b.betti_reduced()
        )
        assert lhs == rhs, f"trial {trial}"


def test_join_rejects_shared_vertices():
    with pytest.raises(VertexClashError):
        simplex(1, 2).join(simplex(2, 3))


def test_induced_subcomplex():
    k = sphere(1)  # the square 0-2-1-3
    sub = k.induced([0, 2])
    assert sub.betti_reduced().is_zero()
    assert sub.n_vertices() == 2
    assert k.induced([1, 0]).betti_reduced().to_list() == [0, 1]


def test_subcomplexes_share_the_universe():
    k = sphere(2)  # the octahedron, opposite pairs (0, 1), (2, 3), (4, 5)
    equator = k.induced([0, 1, 2, 3, 5])
    assert equator.vertices == (0, 1, 2, 3, 5)
    # vertices outside the subcomplex are not brought back
    assert equator.induced([0, 4, 5]).vertices == (0, 5)
    assert equator.induced([0, 1, 2, 3]).betti_reduced().to_list() == [0, 0, 1]
    # two pieces of one universe join as disjoint complexes
    poles = k.induced([4, 5])
    square = k.induced([0, 1, 2, 3])
    assert square.join(poles).betti_reduced() == k.betti_reduced()
    assert square.join(poles).n_vertices() == 6
    with pytest.raises(VertexClashError):
        equator.join(poles)


@pytest.mark.parametrize("raw", ["abc", "1e6", "", "0", "-5"])
def test_face_budget_env_must_be_a_positive_integer(monkeypatch, raw):
    monkeypatch.setenv("TUBINGS_FACE_BUDGET", raw)
    with pytest.raises(FaceBudgetConfigError) as info:
        FaceBudget()
    assert isinstance(info.value, TubingsError)
    assert f"TUBINGS_FACE_BUDGET={raw!r}" in str(info.value)
    assert FaceBudget(7).limit == 7


@pytest.mark.parametrize("limit", [0, -3, "abc", 2.5, True])
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
    big = sphere(7)
    with pytest.raises(FaceBudgetExceededError):
        big.betti_reduced(FaceBudget(100))


def test_shellable_yes_cases():
    rep = sphere(1).shellable()
    assert rep.status == "yes"
    assert len(rep.order) == 4
    path = graph_complex([(1, 2), (2, 3), (3, 4)])
    assert path.shellable().status == "yes"
    nonpure = graph_complex([(1, 2), (1, 3), (2, 3), (3, 4)])
    assert nonpure.maximal_faces() == ((3, 4), (1, 2, 3))
    assert nonpure.shellable().status == "yes"


def test_shellable_search_deeper_than_the_recursion_limit():
    """A path of 1,200 vertices: the search picks its 1,199 edges one per
    level, in path order, with no backtracking."""
    path = SimplicialComplex.flag(range(1200), lambda u, v: abs(u - v) == 1)
    rep = path.shellable()
    assert rep.status == "yes"
    assert rep.order == tuple((i, i + 1) for i in range(1199))
    assert rep.expansions == 1199


def test_shellable_no_for_disconnected():
    rep = graph_complex([(1, 2), (3, 4)]).shellable()
    assert rep.status == "no"
    assert rep.expansions == 0  # rejected before any search


def test_shellable_unknown_when_budget_runs_out():
    rep = sphere(1).shellable(max_expansions=1)
    assert rep.status == "unknown"
    assert rep.order is None


@pytest.mark.parametrize("bad", [-1, 0, True, 2.5])
def test_shellable_rejects_an_expansion_cap_that_is_no_count(bad):
    """As a face budget is: a bool, a non-integer or a cap below 1 raises
    before any search, where -1 used to report 'unknown' after one."""
    with pytest.raises(ValueError, match="max_expansions"):
        sphere(1).shellable(max_expansions=bad)


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
def small_graphs(draw, max_vertices=10, min_vertices=0):
    """(vertex count, edge set, adjacency bitmasks) on `min_vertices` to
    `max_vertices` vertices."""
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    return graph_of(n, draw(st.sets(st.sampled_from(pairs))) if pairs else set())


def graph_of(n, edges):
    """(vertex count, edge set, adjacency bitmasks) of a graph on range(n)."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return n, set(edges), adj


def _cycle(n):
    """C_n as a piece: (vertex count, edges, vertex mask of each leaf), a
    leaf being one of the cycles and point sets the piece is glued from."""
    return n, [(i, (i + 1) % n) for i in range(n)], [(1 << n) - 1]


def _points(n):
    """n isolated vertices as a piece."""
    return n, [], [(1 << n) - 1]


def _glue(a, b, joined):
    """The disjoint union of two pieces, or their join when ``joined``."""
    (na, ea, la), (nb, eb, lb) = a, b
    edges = ea + [(na + u, na + v) for u, v in eb]
    if joined:
        edges += [(u, na + v) for u in range(na) for v in range(nb)]
    return na + nb, edges, la + [m << na for m in lb]


LEAVES = st.sampled_from((3, 4, 5, 8)).map(_cycle) | st.integers(1, 3).map(_points)


@st.composite
def universes(draw):
    """A graph and up to 8 vertex masks of it: either a random graph on at
    most 12 vertices with random masks, or up to four small cycles and
    point sets, each joined to the ones before or set beside them, with
    masks that are unions of those leaves."""
    if draw(st.booleans()):
        return draw(small_graphs(max_vertices=12)), draw(st.lists(st.integers(0, (1 << 12) - 1), max_size=8))
    piece = draw(LEAVES)
    for _ in range(draw(st.integers(0, 3))):
        piece = _glue(piece, draw(LEAVES), draw(st.booleans()))
    n, edges, leaves = piece
    masks = draw(st.lists(st.sets(st.sampled_from(leaves)).map(sum), max_size=8))
    return graph_of(n, edges), masks


C8_C4_C4 = graph_of(*_glue(_glue(_cycle(8), _cycle(4), False), _cycle(4), False)[:2])


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
    assert _clique_levels(adj, (1 << n) - 1, budget) == brute
    total = sum(map(len, brute))
    assert budget.used == total
    # a budget is at least 1, so "one less" exists from 2 cliques on
    _clique_levels(adj, (1 << n) - 1, FaceBudget(max(total, 1)))
    if total > 1:
        with pytest.raises(FaceBudgetExceededError):
            _clique_levels(adj, (1 << n) - 1, FaceBudget(total - 1))


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_vertices=12), st.randoms(use_true_random=False))
def test_strong_collapse_leaves_an_undominated_core(graph, rng):
    n, edges, adj = graph
    k = SimplicialComplex(range(n), adj)
    core = set(k._mask_to_face(k._flag_core_mask()))
    closed = {v: {v} | {u for u in core if (min(u, v), max(u, v)) in edges} for v in core}
    # v is dominated by u when v's closed neighbourhood lies in u's
    assert not [(v, u) for v in core for u in core if u != v and closed[v] <= closed[u]]
    perm = list(range(n))
    rng.shuffle(perm)
    relabelled = [0] * n
    for u, v in edges:
        relabelled[perm[u]] |= 1 << perm[v]
        relabelled[perm[v]] |= 1 << perm[u]
    core_size = SimplicialComplex(range(n), relabelled)._flag_core_mask().bit_count()
    assert core_size == len(core)
    assert k.betti_reduced() == uncollapsed_betti(k)


def octahedron_with_a_cone_on_a_face():
    """The octahedron plus a vertex joined to the triangle 0, 2, 4: the new
    vertex is dominated, and the collapse leaves the octahedron."""

    def adjacent(u, v):
        if max(u, v) == 6:
            return min(u, v) in (0, 2, 4)
        return not_opposite(u, v)

    return SimplicialComplex.flag(range(7), adjacent)


@pytest.mark.parametrize(
    "k, shrinks",
    [
        pytest.param(octahedron_with_a_cone_on_a_face(), True, id="collapsed"),
        pytest.param(sphere(2), False, id="whole"),
    ],
)
def test_betti_charges_each_core_face_once(k, shrinks):
    core = k._flag_core_mask()
    assert (core != k._mask) == shrinks
    cliques = sum(map(len, _clique_levels(k._adj, core, FaceBudget())))
    budget = FaceBudget(cliques)
    assert k.betti_reduced(budget).to_list() == [0, 0, 0, 1]
    assert budget.used == cliques == 26
    with pytest.raises(FaceBudgetExceededError):
        k.betti_reduced(FaceBudget(cliques - 1))


def test_octahedron_splits_into_its_three_s0_factors():
    k = octahedron()
    assert _join_factors(k._adj, k._mask) == [0b11, 0b1100, 0b110000]
    pentagon = SimplicialComplex.flag(range(5), lambda u, v: (v - u) % 5 in (1, 4))
    assert _join_factors(pentagon._adj, pentagon._mask) == [0b11111]


@settings(max_examples=150, deadline=None)
@given(universes())
@example((C8_C4_C4, [0x00FF, 0xFF00]))
def test_full_subcomplexes_share_a_sound_factor_memo(case):
    """Full subcomplexes of one universe share its join-factor memo: each
    gets the Betti vector and face charge of a fresh universe.  In the
    disjoint union of C8 and two C4, the subcomplexes on C8 and on the two
    C4 are each one join factor of 8 vertices and 8 edges, of Betti
    numbers [0, 0, 1] and [0, 1, 2]: a memo keyed by less than the whole
    adjacency gives one of them the other's.  Random graphs almost never
    meet two such factors in one universe."""
    (n, _, adj), masks = case
    universe = SimplicialComplex(range(n), adj)
    for mask in masks:
        mask &= universe._mask
        shared, fresh = FaceBudget(), FaceBudget()
        expected = SimplicialComplex(range(n), adj)._on(mask).betti_reduced(fresh)
        assert universe._on(mask).betti_reduced(shared) == expected
        assert shared.used == fresh.used
    assert universe.induced(range(n))._factors is universe._factors


def test_the_octahedron_ranks_its_one_s0_factor_once(monkeypatch):
    ranked = []

    def counted(levels, components):
        ranked.append(levels)
        return _betti_from_levels(levels, components)

    monkeypatch.setattr(complexes, "_betti_from_levels", counted)
    k = octahedron()
    budget = FaceBudget()
    assert k.betti_reduced(budget).to_list() == [0, 0, 0, 1]
    assert len(ranked) == 1 and budget.used == 26
    # the universe's memo answers its subcomplexes, and still charges
    assert k.induced(range(4)).betti_reduced(budget).to_list() == [0, 0, 1]
    assert len(ranked) == 1 and budget.used == 26 + 8
    # a join is a new universe with a memo of its own
    assert k.join(points("p", "q")).betti_reduced().to_list() == [0, 0, 0, 0, 1]
    assert len(ranked) == 2


@settings(max_examples=150, deadline=None)
@given(st.lists(small_graphs(max_vertices=4, min_vertices=1), min_size=2, max_size=3))
def test_betti_splits_a_join_into_its_factors(graphs):
    """Joins of 2 or 3 flag complexes on disjoint vertices: the Betti numbers
    are those of all the join's faces, every core face is charged once, and
    the core splits along the factors, each into the components of the
    complement of its 1-skeleton and no further."""
    k, faces, ranges, start = None, [()], [], 0
    for n, edges, adj in graphs:
        factor = SimplicialComplex(range(start, start + n), adj)
        own = [tuple(start + v for v in c) for c in cliques(n, lambda u, v: (u, v) in edges)]
        faces = [f + g for f in faces for g in [()] + own]
        ranges.append(((1 << n) - 1) << start)
        k = factor if k is None else k.join(factor)
        start += n
    assert k.betti_reduced() == reference_betti(faces[1:])

    core = k._flag_core_mask()
    budget = FaceBudget()
    k.betti_reduced(budget)
    # a one-vertex core returns before any face is counted
    cliques_in_core = sum(map(len, _clique_levels(k._adj, core, FaceBudget())))
    assert budget.used == (cliques_in_core if core.bit_count() > 1 else 0)

    parts = _join_factors(k._adj, core)
    assert sum(parts) == core and all(a & b == 0 for a, b in itertools.combinations(parts, 2))
    # each part lies in one factor; together they cover its collapsed vertices
    for vertices in ranges:
        assert sum(p for p in parts if p & vertices) == core & vertices
    # vertices of different parts are adjacent, so the parts join ...
    for a, b in itertools.combinations(parts, 2):
        assert all(k._adj[i] & b == b for i in range(len(k._adj)) if a >> i & 1)
    # ... and no part splits further: its non-edges connect it
    for part in parts:
        reached, grown = 0, part & -part
        while grown != reached:
            reached = grown
            for i in range(len(k._adj)):
                if reached >> i & 1:
                    grown |= part & ~k._adj[i]
        assert reached == part


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


def flag_with_faces(n, adjacent):
    """The flag complex on range(n) and its nonempty faces, listed
    independently of the complex."""
    return SimplicialComplex.flag(range(n), adjacent), cliques(n, adjacent)


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
    k = SimplicialComplex(range(n), adj)
    expected = reference_betti(cliques(n, lambda u, v: (u, v) in edges))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "_GF2_MAX_CELLS", limit)
        assert uncollapsed_betti(k) == expected
        assert k.betti_reduced() == expected


# six-vertex RP^2: H_1 is Z/2, so over GF(2) it has homology in dimensions 1
# and 2 and over the rationals none.  It is not a flag complex (it has all
# 15 edges), so the complexes below subdivide it.
RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
       (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]


def barycentric_rp2():
    """The barycentric subdivision of RP^2 as a flag complex: the order
    complex of its face poset, with its faces as chains of indices."""
    faces = sorted(closure(RP2))
    poset = FinitePoset.from_relation(faces, lambda a, b: set(a) < set(b))
    chains = cliques(len(faces), lambda i, j: poset.comparable(i, j))
    return order_complex(poset), chains


def rp2():
    """RP^2 with every edge subdivided at its midpoint, f = (21, 60, 40): each
    vertex is adjacent to the midpoints of its edges, and two midpoints are
    adjacent when their edges bound a common triangle."""
    edges = sorted({e for f in RP2 for e in itertools.combinations(f, 2)})
    labels = [(v,) for v in range(1, 7)] + edges
    triangles = {frozenset(f) for f in RP2}

    def adjacent(i, j):
        a, b = labels[i], labels[j]
        if len(a) == len(b):
            return frozenset(a + b) in triangles
        return set(a) < set(b) or set(b) < set(a)

    return flag_with_faces(len(labels), adjacent)


def rp2_joined_with_s0():
    k, faces = rp2()
    n = k.n_vertices()
    poles = [(n,), (n + 1,)]
    return k.join(points(n, n + 1)), faces + poles + [f + p for f in faces for p in poles]


def rp2_joined_with_octahedron():
    """RP^2 joined with the octahedron, S^0 * S^0 * S^0: a core of four join
    factors, the torsion in the RP^2 one."""
    k, faces = rp2()
    n = k.n_vertices()
    octahedron_faces = [tuple(n + v for v in f) for f in cliques(6, not_opposite)]
    shifted = SimplicialComplex.flag(range(n, n + 6), lambda u, v: not_opposite(u - n, v - n))
    joined_faces = faces + octahedron_faces + [f + g for f in faces for g in octahedron_faces]
    return k.join(shifted), joined_faces


def circle_and_sphere():
    """The octahedron on vertices 0-5 beside the square on 6-9."""
    return flag_with_faces(10, lambda u, v: (u < 6) == (v < 6) and not_opposite(u, v))


@pytest.mark.parametrize(
    "build, mod2, rational",
    [
        pytest.param(rp2, [0, 0, 1, 1], [], id="RP2"),
        pytest.param(barycentric_rp2, [0, 0, 1, 1], [], id="RP2 subdivided, flag"),
        # the torsion moves up one degree, onto the next boundary map
        pytest.param(rp2_joined_with_s0, [0, 0, 0, 1, 1], [], id="RP2 joined with S0"),
        # three degrees up, inside one of four join factors
        pytest.param(
            rp2_joined_with_octahedron, [0, 0, 0, 0, 0, 1, 1], [], id="RP2 joined with octahedron"
        ),
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
    assert uncollapsed_betti(k).to_list() == rational
    assert calls
    # the collapsed core, ranked join factor by join factor, reaches it too
    calls.clear()
    assert k.betti_reduced().to_list() == rational
    assert calls
    # and once only: the universe's factor memo answers a second call
    calls.clear()
    assert k.betti_reduced().to_list() == rational
    assert not calls


# The edge map is never built: its rank is the vertex count less the number
# of components, so each list below stops at the map from the triangles.
@pytest.mark.parametrize(
    "k, rows",
    [
        # f = (6, 12, 8); the GF(2) ranks of the boundary maps are 5 and 7
        pytest.param(octahedron(), [8], id="octahedron"),
        # f = (8, 24, 32, 16); ranks 15, 17 and 7
        pytest.param(sphere(3), [16, 32 - 15], id="3-sphere"),
        # f = (21, 60, 40); ranks 39 (40 over the rationals) and 20
        pytest.param(rp2()[0], [40], id="RP2"),
    ],
)
def test_clearing_leaves_out_one_row_per_pivot_of_the_map_above(monkeypatch, k, rows):
    sizes = []

    def recorded(rows):
        rows = list(rows)
        sizes.append(len(rows))
        return gf2_basis(rows)

    monkeypatch.setattr(complexes, "gf2_basis", recorded)
    uncollapsed_betti(k)
    assert sizes == rows  # one map at a time, from the top dimension down


@pytest.mark.parametrize(
    "k, limit, ranked",
    [
        # the edge map is ranked by counting components, never by a kernel
        pytest.param(sphere(3), 0, ["exact", "exact"], id="3-sphere, 0"),
        # the 3-ball coned over the octahedron, f = (7, 18, 20, 8): its top map
        # has 8 x 20 cells, and 12 rows of the next are left after clearing,
        # 12 x 18 cells
        pytest.param(ball(3), 160, ["gf2", "exact"], id="3-ball, 160"),
        pytest.param(ball(3), 216, ["gf2", "gf2"], id="3-ball, 216"),
        # adjacent nonzero Betti numbers, but the map is exact already
        pytest.param(circle_and_sphere()[0], 0, ["exact"], id="circle and 2-sphere, 0"),
    ],
)
def test_maps_too_large_for_dense_rows_are_ranked_exactly_once(monkeypatch, k, limit, ranked):
    expected = uncollapsed_betti(k)
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
    assert uncollapsed_betti(k) == expected
    assert calls == ranked


def test_certified_complexes_never_rank_exactly(monkeypatch):
    def refuse(rows):
        raise AssertionError("exact rank on a complex the mod-2 ranks certify")

    monkeypatch.setattr(complexes, "rank_int", refuse)
    assert uncollapsed_betti(octahedron()).to_list() == [0, 0, 0, 1]
    # nonzero in dimensions 0 and 2, which are not adjacent
    point_and_sphere = SimplicialComplex.flag(
        range(7), lambda u, v: max(u, v) < 6 and not_opposite(u, v)
    )
    assert uncollapsed_betti(point_and_sphere).to_list() == [0, 1, 0, 1]
    p8 = Pseudograph(range(1, 9), [(i, i + 1, None) for i in range(1, 8)])
    total = IntPolynomial.zero()
    for c in even_collections(p8):
        total = total + from_betti_suspended(odd_tube_complex(p8, c).betti_reduced())
    assert total.to_list() == [1, 7, 20, 28, 14]  # Henderson's b_i(P8)
