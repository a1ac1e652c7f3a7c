import pytest

from tubings import Pseudograph, compatible, enumerate_tubes, polytope_dimension


def tubing_f_vector(graph):
    """Face numbers (f_-1, f_0, f_1, ...) of the tubing complex, counted by
    growing sets of pairwise compatible tubes one tube at a time.  A face
    is kept as the set of later tubes compatible with each of its tubes,
    the ones that can extend it."""
    tubes = enumerate_tubes(graph)
    later = [
        {j for j in range(i + 1, len(tubes)) if compatible(tubes[i], tubes[j])}
        for i in range(len(tubes))
    ]
    f = [1]
    faces = [set(range(len(tubes)))]
    while True:
        faces = [extend & later[j] for extend in faces for j in extend]
        if not faces:
            return f
        f.append(len(faces))


def real_toric_euler_characteristic(graph):
    """Euler characteristic of the real toric manifold over the graph's
    n-dimensional polytope, from the face numbers of the tubing complex.

    The manifold is glued from 2**n copies of the polytope, and the
    interior of a d-face ends up in 2**d open d-cells (the facet vectors of
    each tubing being independent mod 2, as `delzant_check` confirms).  A
    d-face is a tubing of k = n - d tubes, so the Euler characteristic is
    the sum over k of (-2)**(n - k) * f_(k-1).  No parity subcomplex and no
    homology enters.
    """
    n = polytope_dimension(graph)
    return sum((-2) ** (n - k) * fk for k, fk in enumerate(tubing_f_vector(graph)))


@pytest.fixture
def real_toric_euler():
    return real_toric_euler_characteristic


@pytest.fixture
def bundle_path3():
    """Three-node path whose first edge is doubled into a bundle {a, b}."""
    return Pseudograph([1, 2, 3], [(1, 2, "a"), (1, 2, "b"), (2, 3, None)])


@pytest.fixture
def bundle_path4():
    """Path 3-1=2=4 with bundles {a,b} on 1-2 and {c,d} on 2-4."""
    return Pseudograph(
        [1, 2, 3, 4],
        [(1, 3, None), (1, 2, "a"), (1, 2, "b"), (2, 4, "c"), (2, 4, "d")],
    )


@pytest.fixture
def bundle_tree5():
    """Five-node tree with a 2-bundle on 1-2 and a 3-bundle on 4-5."""
    return Pseudograph(
        [1, 2, 3, 4, 5],
        [
            (1, 2, "a"),
            (1, 2, "b"),
            (2, 3, None),
            (2, 4, None),
            (4, 5, "c"),
            (4, 5, "d"),
            (4, 5, "e"),
        ],
    )


@pytest.fixture
def bundle_cycle4():
    """Four-cycle 1-2-3-4-1 with the edge 1-2 doubled into a bundle."""
    return Pseudograph(
        [1, 2, 3, 4],
        [(1, 2, "a"), (1, 2, "b"), (2, 3, None), (3, 4, None), (1, 4, None)],
    )


@pytest.fixture
def k4_triple_bundle():
    return Pseudograph(
        [1, 2, 3, 4],
        [
            (1, 2, "a"),
            (1, 2, "b"),
            (1, 2, "c"),
            (1, 3, None),
            (1, 4, None),
            (2, 3, None),
            (2, 4, None),
            (3, 4, None),
        ],
    )


@pytest.fixture
def k4_double_bundle():
    return Pseudograph(
        [1, 2, 3, 4],
        [
            (1, 2, "a"),
            (1, 2, "b"),
            (1, 3, None),
            (1, 4, None),
            (2, 3, None),
            (2, 4, None),
            (3, 4, None),
        ],
    )


@pytest.fixture
def path3():
    return Pseudograph([1, 2, 3], [(1, 2, None), (2, 3, None)])
