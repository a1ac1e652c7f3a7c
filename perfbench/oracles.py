"""Closed forms and counts that the benchmark checks ``tubings`` against.

The oracles import nothing from ``tubings``; only the self-test at the
end does, to compare them with the program.  A graph is given as ``(nodes, edges)``
with ``edges`` a list of ``(u, v, label)`` triples, ``label`` being None
for a plain edge; parallel edges between one pair form a bundle.

* Henderson (2012): the real associahedron, the real toric manifold of a
  path on n nodes, has Betti numbers b_i = C(n, i) - C(n, i - 1); the real
  permutohedron, that of the complete graph K_n, has b_i = C(n, 2i) E_2i.
* Choi-Park (2015): a simple graph on 2k nodes has a-polynomial
  a(G) t^(k-1),
  with a(P_2k) the Catalan number C_k, a(K_2k) the zigzag number E_2k,
  a(K_1,2k-1) the zigzag number E_(2k-1) and a(C_2k) = C(2k - 1, k).
* The Euler characteristic of the real toric manifold over the
  n-dimensional polytope is sum_k (-2)^(n - k) f_(k-1), from the face
  numbers of the tubing complex; the tubes and the tubings are enumerated
  here from their definition.

Run ``python3 perfbench/oracles.py`` to test these against the program on
the path P4, the complete graph K4 and the bundle 3-path.
"""

from math import comb


def zigzag(n):
    """Euler zigzag number E_n (1, 1, 1, 2, 5, 16, 61, 272, 1385, ...)."""
    row = [1]
    for i in range(1, n + 1):
        nxt = [0]
        for j in range(i):
            nxt.append(nxt[-1] + row[i - 1 - j])
        row = nxt
    return row[-1]


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def henderson_path(n):
    """Betti numbers of the real toric manifold of the path on n nodes."""
    return [comb(n, i) - (comb(n, i - 1) if i else 0) for i in range(n // 2 + 1)]


def henderson_complete(n):
    """Betti numbers of the real toric manifold of the complete graph K_n."""
    return [comb(n, 2 * i) * zigzag(2 * i) for i in range(n // 2 + 1)]


def simple_shape(nodes, edges):
    """('path' | 'complete' | 'cycle' | 'star', n) for those simple
    connected graphs, else None."""
    n = len(nodes)
    pairs = {(min(u, v), max(u, v)) for u, v, _ in edges}
    if len(pairs) != len(edges) or not connected(nodes, pairs):
        return None
    degree = {x: 0 for x in nodes}
    for u, v in pairs:
        degree[u] += 1
        degree[v] += 1
    degrees = sorted(degree.values())
    m = len(pairs)
    if m == n * (n - 1) // 2:
        return ("complete", n)
    if m == n - 1 and degrees[-1] <= 2:
        return ("path", n)
    if m == n and degrees == [2] * n:
        return ("cycle", n)
    if m == n - 1 and degrees[-1] == n - 1:
        return ("star", n)
    return None


def closed_form_poincare(nodes, edges):
    """Henderson's Betti numbers when the graph is a simple path or a
    simple complete graph, else None."""
    shape = simple_shape(nodes, edges)
    if shape is None or shape[0] not in ("path", "complete"):
        return None
    kind, n = shape
    return henderson_path(n) if kind == "path" else henderson_complete(n)


def closed_form_apoly(nodes, edges):
    """Choi-Park coefficient list of the a-polynomial of a simple graph on
    an even number of nodes that is a path, complete, a star or a cycle."""
    shape = simple_shape(nodes, edges)
    if shape is None or shape[1] % 2:
        return None
    kind, n = shape
    k = n // 2
    value = {
        "path": catalan(k),
        "complete": zigzag(n),
        "star": zigzag(n - 1),
        "cycle": comb(n - 1, k),
    }[kind]
    return [0] * (k - 1) + [value]


def connected(nodes, pairs):
    nodes = list(nodes)
    if not nodes:
        return True
    adj = {x: set() for x in nodes}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for y in adj[stack.pop()] - seen:
            seen.add(y)
            stack.append(y)
    return len(seen) == len(nodes)


def polytope_dimension(nodes, edges):
    """n - 1 plus |b| - 1 for each bundle b, for a connected graph."""
    sizes = {}
    for u, v, _ in edges:
        key = (min(u, v), max(u, v))
        sizes[key] = sizes.get(key, 0) + 1
    return len(nodes) - 1 + sum(s - 1 for s in sizes.values())


def tubes(nodes, edges):
    """Tubes of a connected graph as (node mask, representation mask,
    neighbour mask) over node bits then label bits.

    A tube is a connected set of nodes with a nonempty subset of each
    bundle inside it, other than all nodes with every bundle whole.
    """
    nodes = sorted(nodes)
    bit = {x: i for i, x in enumerate(nodes)}
    n = len(nodes)
    nbr = [0] * n
    bundles = {}
    for u, v, label in edges:
        nbr[bit[u]] |= 1 << bit[v]
        nbr[bit[v]] |= 1 << bit[u]
        if label is not None:
            bundles.setdefault((bit[u], bit[v]), []).append(label)
    label_bit = {}
    bundle_masks = []
    for (i, j), labels in sorted(bundles.items()):
        mask = 0
        for label in sorted(labels):
            label_bit[label] = n + len(label_bit)
            mask |= 1 << label_bit[label]
        bundle_masks.append((1 << i | 1 << j, mask))
    full = (1 << n) - 1
    out = []
    for s in range(1, full + 1):
        seen = s & -s
        frontier = seen
        while frontier:
            grow = 0
            for i in _bits(frontier):
                grow |= nbr[i]
            frontier = grow & s & ~seen
            seen |= frontier
        if seen != s:
            continue
        around = 0
        for i in _bits(s):
            around |= nbr[i]
        inside = [m for ends, m in bundle_masks if ends & s == ends]
        choices = [0]
        for m in inside:
            choices = [c | sub for c in choices for sub in _nonempty_submasks(m)]
        whole = sum(inside)
        for c in choices:
            if s == full and c == whole:
                continue
            out.append((s, s | c, around))
    return out


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _nonempty_submasks(mask):
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def tubing_f_vector(nodes, edges):
    """(f_-1, f_0, f_1, ...): tubings counted by size.

    Two tubes are compatible when one representation properly contains
    the other, or when their node sets are disjoint and no edge joins them.
    """
    ts = tubes(nodes, edges)
    adj = [0] * len(ts)
    for i, (ni, ri, bi) in enumerate(ts):
        for j in range(i + 1, len(ts)):
            nj, rj, _ = ts[j]
            nested = ri != rj and (ri & rj in (ri, rj))
            apart = not (ni & nj) and not (bi & nj)
            if nested or apart:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    counts = [1]

    def grow(candidates, size):
        if len(counts) <= size:
            counts.append(0)
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            counts[size] += 1
            grow(candidates & adj[low.bit_length() - 1], size + 1)

    grow((1 << len(ts)) - 1, 1)
    while counts[-1] == 0:
        counts.pop()
    return counts


def manifold_euler(nodes, edges):
    """chi of the real toric manifold, sum_k (-2)^(n - k) f_(k-1)."""
    n = polytope_dimension(nodes, edges)
    return sum((-2) ** (n - k) * f for k, f in enumerate(tubing_f_vector(nodes, edges)))


def at_minus_one(coefficients):
    return sum(c if i % 2 == 0 else -c for i, c in enumerate(coefficients))


def reduced_euler(betti):
    """sum_d (-1)^d b_d of a reduced Betti vector indexed from d = -1."""
    return -at_minus_one(betti)


def _self_test():
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import tubings

    p4 = ([1, 2, 3, 4], [(1, 2, None), (2, 3, None), (3, 4, None)])
    k4 = ([1, 2, 3, 4], [(u, v, None) for u in range(1, 5) for v in range(u + 1, 5)])
    bundle_path3 = ([1, 2, 3], [(1, 2, "a"), (1, 2, "b"), (2, 3, None)])
    assert [zigzag(n) for n in range(9)] == [1, 1, 1, 2, 5, 16, 61, 272, 1385]
    assert henderson_path(10) == [1, 9, 35, 75, 90, 42]
    assert henderson_complete(8) == [1, 28, 350, 1708, 1385]
    # face numbers of the 3-dimensional associahedron and permutohedron
    assert tubing_f_vector(*p4) == [1, 9, 21, 14]
    assert tubing_f_vector(*k4) == [1, 14, 36, 24]
    for spec, betti, apoly in (
        (p4, [1, 3, 2], [0, 2]),
        (k4, [1, 6, 5], [0, 5]),
        (bundle_path3, [1, 3, 2], None),
    ):
        g = tubings.Pseudograph(*spec)
        assert closed_form_poincare(*spec) == (None if apoly is None else betti)
        assert closed_form_apoly(*spec) == apoly
        assert tubings.poincare_brute(g).to_list() == betti
        assert tubings.poincare_reduced(g).to_list() == betti
        if apoly is not None:
            assert tubings.a_polynomial(g).to_list() == apoly
        assert len(tubes(*spec)) == len(tubings.enumerate_tubes(g))
        assert at_minus_one(betti) == manifold_euler(*spec) == 0
        assert polytope_dimension(*spec) == tubings.polytope_dimension(g)
        c = tubings.Collection.of(g, g.ground_members())
        odd = tubings.odd_tube_complex(g, c)
        assert reduced_euler(odd.betti_reduced().to_list()) == odd.euler_reduced()
    print("oracles: self-test passed on P4, K4 and the bundle 3-path")


if __name__ == "__main__":
    _self_test()
