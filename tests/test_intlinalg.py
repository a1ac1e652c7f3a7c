import copy
import itertools
import signal
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tubings._intlinalg import gf2_rank, rank_int


def rank(rows, seconds=2):
    """rank_int, failing instead of hanging if a reduction never ends (as
    it does when a pivot row does not eliminate the column it owns)."""
    if not hasattr(signal, "SIGALRM"):
        return rank_int(rows)

    def stop(signum, frame):
        raise TimeoutError(f"rank_int did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return rank_int(rows)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def rank_oracle(rows):
    """Rank by Gauss-Jordan elimination over Fractions on the dense matrix."""
    cols = sorted({k for r in rows for k in r})
    m = [[Fraction(r.get(c, 0)) for c in cols] for r in rows]
    rank = 0
    for j in range(len(cols)):
        p = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        m[rank] = [x / m[rank][j] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][j]:
                f = m[i][j]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def boundary_rows(faces):
    """Signed boundary rows of equal-size faces, columns keyed by facet."""
    rows = []
    for face in faces:
        row = {}
        for i in range(len(face)):
            row[face[:i] + face[i + 1:]] = (-1) ** i
        rows.append(row)
    return rows


NONZERO = st.integers(-7, 7).filter(bool)


@st.composite
def sparse_matrices(draw):
    """Small sparse integer matrices with non-unit entries, empty rows, and
    scaled copies and combinations of earlier rows with their keys in
    another insertion order."""
    ncols = draw(st.integers(1, 8))
    row = st.dictionaries(st.integers(0, ncols - 1), NONZERO, max_size=ncols)
    rows = draw(st.lists(row, max_size=8))
    if rows:
        for _ in range(draw(st.integers(0, 4))):
            r1 = draw(st.sampled_from(rows))
            r2 = draw(st.sampled_from(rows + [{}]))
            s1, s2 = draw(NONZERO), draw(st.sampled_from([0, 1, -1, 2, -3]))
            combo = {}
            for k in draw(st.permutations(sorted(set(r1) | set(r2)))):
                v = s1 * r1.get(k, 0) + s2 * r2.get(k, 0)
                if v:
                    combo[k] = v
            rows.append(combo)
    return draw(st.permutations(rows))


@settings(max_examples=400, deadline=None)
@given(sparse_matrices())
def test_rank_matches_fraction_oracle(rows):
    before = copy.deepcopy(rows)
    assert rank(rows) == rank_oracle(rows)
    assert rows == before


def test_duplicate_rows_in_another_key_order():
    assert rank([{0: 1, 1: 1}, {1: 1, 0: 1}]) == 1
    assert rank([{0: 2, 1: 4}, {1: 6, 0: 3}]) == 1
    assert rank([{0: 2, 1: 3}, {1: 5, 0: 3}]) == 2


def test_empty_and_zero_rank_inputs():
    assert rank([]) == 0
    assert rank([{}, {}]) == 0
    assert rank(iter([{3: -4}, {}, {3: 6}])) == 1


def test_inputs_are_not_modified():
    rows = [{0: 2, 1: 3, 2: -5}, {0: 3, 1: 5}, {2: 7, 0: 4}, {1: -2}]
    before = copy.deepcopy(rows)
    assert rank(rows) == 3
    assert rows == before
    assert [list(r) for r in rows] == [list(r) for r in before]


def test_hollow_tetrahedron_boundaries():
    vertices = list(itertools.combinations(range(4), 1))
    edges = list(itertools.combinations(range(4), 2))
    triangles = list(itertools.combinations(range(4), 3))
    d1, d2 = boundary_rows(edges), boundary_rows(triangles)
    assert {k for r in d1 for k in r} == set(vertices)
    assert rank(d1) == 3
    assert rank(d2) == 3
    # H_2 of the 2-sphere is Q: the four triangles have one relation
    assert len(triangles) - rank(d2) == 1


def test_projective_plane_is_exact_over_rationals():
    # six-vertex RP^2: over Q its 2-cycle space is zero, over GF(2) it is not
    triangles = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                 (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]
    d2 = boundary_rows(triangles)
    edges = sorted({k for r in d2 for k in r})
    assert len(edges) == 15
    d1 = boundary_rows(edges)
    assert rank(d1) == 5
    assert rank(d2) == 10 == rank_oracle(d2)
    index = {e: i for i, e in enumerate(edges)}
    assert gf2_rank(sum(1 << index[k] for k in r) for r in d2) == 9
