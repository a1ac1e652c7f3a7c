import itertools
import random

import pytest

from tubings import (
    BettiVector,
    FaceBudget,
    FaceBudgetExceededError,
    IntPolynomial,
    SimplicialComplex,
    TubingsError,
    VertexClashError,
    from_betti_suspended,
)
from tubings.errors import FaceBudgetConfigError


def sphere(n):
    """Boundary of the (n+1)-simplex: a combinatorial n-sphere."""
    verts = range(n + 2)
    return SimplicialComplex.from_maximal(
        [f for f in itertools.combinations(verts, n + 1)]
    )


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
    opposite = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
    k = SimplicialComplex.flag(range(6), lambda u, v: opposite[u] != v)
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
