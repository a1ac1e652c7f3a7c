"""Flag simplicial complexes with exact reduced homology.

A complex is a vertex mask over a universe: a vertex tuple plus adjacency
bitmasks, one per vertex, and its faces are the cliques inside the mask.
The tubing complex is the flag complex of tube compatibility, and an order
complex the flag complex of comparability.  Full subcomplexes (the parity
complexes of one tube system, the core left by a strong collapse) share
their parent's universe and adjacency and differ only in the mask.  Betti
numbers are rational, after a strong collapse that deletes dominated
vertices.  The core left is the join of the flag complexes on the components
of the complement of its 1-skeleton (vertices in different components are
adjacent), and its suspended Betti polynomial is the product of theirs
(Kunneth over the rationals), so each factor is ranked on its own, and
once per universe: the full subcomplexes of a universe share one memo from
a factor's renumbered adjacency to its Betti vector and face count.  In a
factor the edge map's rank is its vertex count less its component count;
the maps above are ranked over GF(2) with clearing, and exact integer
elimination ranks again only the maps where torsion could hide (nonzero
mod-2 Betti numbers on both sides).

Reduced Betti vectors are indexed from dimension -1, so the empty complex
(which still contains the empty face) has Betti vector (1,).  A
:class:`BettiVector` is the :class:`IntPolynomial` of those numbers, the
suspended Betti polynomial, so join factors multiply as polynomials.

Face enumeration is metered by a :class:`FaceBudget`; exceeding it raises
:class:`~tubings.errors.FaceBudgetExceededError` rather than grinding on.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from ._intlinalg import gf2_basis, rank_int
from .errors import FaceBudgetConfigError, FaceBudgetExceededError, VertexClashError
from .graphs import _bits, _split

DEFAULT_FACE_BUDGET = 1_000_000
_BUDGET_ENV = "TUBINGS_FACE_BUDGET"
# A GF(2) row is an int as wide as the level below: R rows over W faces take
# up to R * W / 8 bytes; the basis keys are bit indices.  The largest map
# of P12's odd complexes has 1e9 cells after clearing, of K10's 6e10.
_GF2_MAX_CELLS = 1 << 30


def default_face_budget():
    """The limit set by TUBINGS_FACE_BUDGET, or DEFAULT_FACE_BUDGET if unset.

    Raises FaceBudgetConfigError unless the variable is a positive integer.
    """
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_FACE_BUDGET
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise FaceBudgetConfigError(f"{_BUDGET_ENV}={raw!r} is not a positive integer")
    return limit


class FaceBudget:
    """Mutable counter limiting how many faces a computation may touch."""

    __slots__ = ("limit", "used")

    def __init__(self, limit=None):
        if limit is None:
            limit = default_face_budget()
        elif type(limit) is not int or limit < 1:
            raise FaceBudgetConfigError(f"face budget {limit!r} is not a positive integer")
        self.limit = limit
        self.used = 0

    def charge(self, n=1):
        self.used += n
        if self.used > self.limit:
            raise FaceBudgetExceededError(self.limit)

    @classmethod
    def ensure(cls, budget):
        if budget is None:
            return cls()
        if isinstance(budget, FaceBudget):
            return budget
        return cls(budget)


def _require_count(value, name, least=1):
    """``value`` if it is an int, not a bool, of at least ``least``."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, not {value!r}")
    return value


class IntPolynomial:
    """Integer polynomial in one variable, coefficients stored ascending."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self._coeffs = tuple(c)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    def to_list(self):
        return list(self._coeffs)

    def degree(self):
        return len(self._coeffs) - 1

    def coefficient(self, k):
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return 0

    def is_zero(self):
        return not self._coeffs

    def shift(self, k):
        """Multiply by t**k, for k >= 0."""
        if k < 0:
            raise ValueError(f"cannot shift by t**{k}: the result would not be a polynomial")
        if self.is_zero():
            return self
        return IntPolynomial((0,) * k + self._coeffs)

    def __add__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return IntPolynomial(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(v * other for v in self._coeffs)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        out = [0] * (len(self._coeffs) + len(other._coeffs))
        for i, v in enumerate(self._coeffs):
            if v:
                for j, w in enumerate(other._coeffs):
                    out[i + j] += v * w
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        # a BettiVector is never equal to a plain polynomial
        if type(other) is type(self):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for i, v in enumerate(self._coeffs):
            if v == 0:
                continue
            if i == 0:
                parts.append(str(v))
            else:
                power = "t" if i == 1 else f"t^{i}"
                parts.append(power if v == 1 else f"{v}{power}")
        return " + ".join(parts)

    def __repr__(self):
        return f"IntPolynomial({list(self._coeffs)})"


class BettiVector(IntPolynomial):
    """Reduced Betti numbers, starting at dimension -1, trailing zeros cut:
    the coefficients of the suspended Betti polynomial."""

    __slots__ = ()

    @classmethod
    def zeros(cls):
        return cls(())

    def get(self, dim):
        return self.coefficient(dim + 1)

    def euler(self):
        """Reduced Euler characteristic, the dimension -1 term included."""
        return sum(v if i % 2 else -v for i, v in enumerate(self._coeffs))

    def __len__(self):
        return len(self._coeffs)

    def __iter__(self):
        return iter(self._coeffs)

    def __repr__(self):
        return f"BettiVector({list(self._coeffs)})"

    __str__ = __repr__


@dataclass(frozen=True)
class ShellingReport:
    status: str  # 'yes', 'no' or 'unknown'
    order: tuple | None
    expansions: int


def _clique_levels(adj, alive, budget):
    """Cliques of the graph with adjacency bitmasks ``adj`` induced on the
    vertex mask ``alive``: a list whose d-th entry is the sorted list of
    (d+1)-clique masks.  Each clique is charged to the budget once, in one
    charge per parent clique."""
    level = [(1 << i, i, adj[i] & alive) for i in _bits(alive)]
    budget.charge(len(level))
    levels = []
    while level:
        levels.append(sorted(m for m, _, _ in level))
        nxt = []
        for mask, last, common in level:
            ext = common & ~((1 << (last + 1)) - 1)
            if ext:
                budget.charge(ext.bit_count())
            while ext:
                b = ext & -ext
                j = b.bit_length() - 1
                ext ^= b
                nxt.append((mask | b, j, common & adj[j]))
        level = nxt
    return levels


class SimplicialComplex:
    """A finite flag complex (always containing the empty face): the cliques
    of the adjacency bitmasks ``adj`` inside a vertex mask, all of
    ``vertices`` at first; a full subcomplex narrows only the mask, so bit i
    stays the i-th vertex given."""

    # _factors: renumbered join-factor adjacency -> (BettiVector, face count)
    __slots__ = ("_vertices", "_adj", "_mask", "_factors")

    def __init__(self, vertices, adj):
        self._vertices = tuple(vertices)
        if len(set(self._vertices)) != len(self._vertices):
            raise VertexClashError("duplicate vertices in complex")
        self._adj = tuple(adj)
        self._mask = (1 << len(self._vertices)) - 1
        self._factors = {}

    @classmethod
    def _universe(cls, vertices, adj):
        """The complex on all of ``vertices``, a sequence of distinct
        vertices kept as given, so that a lazy one is read only when a face
        is named."""
        k = object.__new__(cls)
        k._vertices, k._adj, k._mask, k._factors = vertices, tuple(adj), (1 << len(adj)) - 1, {}
        return k

    def _on(self, mask):
        """The full subcomplex on the vertex mask ``mask``, sharing this
        complex's universe, adjacency and factor memo."""
        sub = object.__new__(SimplicialComplex)
        sub._vertices = self._vertices
        sub._adj = self._adj
        sub._mask = mask
        sub._factors = self._factors
        return sub

    # -- construction -----------------------------------------------------

    @classmethod
    def flag(cls, vertices, adjacent):
        """Flag complex on `vertices`; faces are cliques of `adjacent`."""
        verts = tuple(vertices)
        n = len(verts)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if adjacent(verts[i], verts[j]):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        return cls(verts, adj)

    # -- basic queries ------------------------------------------------------

    @property
    def vertices(self):
        return self._mask_to_face(self._mask)

    def n_vertices(self):
        return self._mask.bit_count()

    def __repr__(self):
        return f"SimplicialComplex(flag, {self.n_vertices()} vertices)"

    # -- faces ---------------------------------------------------------------

    def _mask_to_face(self, mask):
        return tuple(self._vertices[i] for i in _bits(mask))

    def maximal_face_masks(self, budget=None):
        budget = FaceBudget.ensure(budget)
        if not self._mask:
            return (0,)
        adj = self._adj
        out = []

        def expand(r, p, x):
            budget.charge()
            if p == 0 and x == 0:
                out.append(r)
                return
            pux = p | x
            pivot, best = -1, -1
            t = pux
            while t:
                b = t & -t
                u = b.bit_length() - 1
                t ^= b
                c = (p & adj[u]).bit_count()
                if c > best:
                    best, pivot = c, u
            cand = p & ~adj[pivot]
            while cand:
                b = cand & -cand
                v = b.bit_length() - 1
                cand ^= b
                expand(r | b, p & adj[v], x & adj[v])
                p &= ~b
                x |= b

        expand(0, self._mask, 0)
        return tuple(sorted(out))

    def maximal_faces(self, budget=None):
        masks = sorted(
            self.maximal_face_masks(budget), key=lambda m: (m.bit_count(), tuple(_bits(m)))
        )
        return tuple(self._mask_to_face(m) for m in masks)

    # -- subcomplexes and joins ----------------------------------------------

    def induced(self, keep):
        """Full subcomplex on the kept vertices."""
        keepset = set(keep)
        keep_mask = sum(1 << i for i, v in enumerate(self._vertices) if v in keepset)
        return self._on(self._mask & keep_mask)

    def join(self, other):
        """Simplicial join; vertex sets must be disjoint."""
        clash = set(self.vertices) & set(other.vertices)
        if clash:
            raise VertexClashError(f"join with shared vertices: {sorted(map(str, clash))!r}")
        n1 = len(self._vertices)  # other's universe follows this one
        mask2 = other._mask << n1
        adj = [m | mask2 for m in self._adj]
        adj += [(m << n1) | self._mask for m in other._adj]
        # the universes may share vertices outside the masks, so the
        # constructor's check does not apply
        universe = SimplicialComplex._universe((*self._vertices, *other._vertices), adj)
        return universe._on(self._mask | mask2)

    # -- homology ---------------------------------------------------------

    def _flag_core_mask(self):
        """Alive-vertex mask after repeatedly deleting dominated vertices.

        A deletion can only make the deleted vertex's neighbours dominated,
        so after a first pass over the whole mask each pass rescans only
        the alive neighbours of the vertices deleted since the last one."""
        adj = self._adj
        alive = dirty = self._mask
        while dirty:
            scan = dirty & alive
            dirty = 0
            while scan:
                b = scan & -scan
                i = b.bit_length() - 1
                scan ^= b
                closed_i = (adj[i] | b) & alive
                cand = closed_i ^ b
                while cand:
                    cb = cand & -cand
                    nb = adj[cb.bit_length() - 1]
                    # the neighbour u dominates i: u is adjacent to all of
                    # i's closed neighbourhood but itself
                    if closed_i & ~nb == cb:
                        alive ^= b
                        dirty |= adj[i]
                        break
                    # and a vertex dominating i is adjacent to u
                    cand &= nb
        return alive

    def betti_reduced(self, budget=None):
        """Reduced Betti numbers over the rationals, from dimension -1: the
        product of the core's join factors' suspended Betti polynomials.
        The budget is charged every face of a core of two or more vertices.
        A join factor is ranked once per universe: its renumbered adjacency
        keys the universe's memo, and a hit charges the faces it counted."""
        budget = FaceBudget.ensure(budget)
        alive = self._flag_core_mask()
        if alive.bit_count() == 1:
            return BettiVector.zeros()
        memo = self._factors
        factors, sizes = [], []
        fresh = {}  # (levels, face count) of the factors not in the memo
        for part in _join_factors(self._adj, alive):
            # renumbered to bits 0..k-1, the factor's face masks are one-digit ints
            at = {v: k for k, v in enumerate(_bits(part))}
            adj = tuple(sum(1 << at[u] for u in _bits(self._adj[v] & part)) for v in at)
            known = memo.get(adj) or fresh.get(adj)
            if known:
                budget.charge(known[1])
            else:
                levels = _clique_levels(adj, (1 << len(adj)) - 1, budget)
                known = fresh[adj] = levels, sum(map(len, levels))
            factors.append(adj)
            sizes.append(known[1])
        # a face of the join is a face, possibly empty, of each factor
        budget.charge(math.prod(f + 1 for f in sizes) - 1 - sum(sizes))
        parts = []
        for adj in factors:
            if adj not in memo:
                levels, size = fresh[adj]
                memo[adj] = _betti_from_levels(levels, len(_split(adj, (1 << len(adj)) - 1))), size
            part = memo[adj][0]
            if part.is_zero():
                return part
            parts.append(part)
        if len(parts) == 1:
            return parts[0]
        return BettiVector(math.prod(parts, start=IntPolynomial.one())._coeffs)

    def euler_reduced(self, budget=None):
        """Alternating face-count sum minus one (no collapse, direct count)."""
        budget = FaceBudget.ensure(budget)
        total = -1
        for d, level in enumerate(_clique_levels(self._adj, self._mask, budget)):
            total += len(level) if d % 2 == 0 else -len(level)
        return total

    # -- shellability -------------------------------------------------------

    def shellable(self, max_expansions=1_000_000, budget=None):
        """Search for a shelling order of the maximal faces.

        The search runs over orders in which face dimension is weakly
        decreasing, which loses no generality, and memoizes failed prefixes.
        Returns a :class:`ShellingReport`; status is ``'unknown'`` when the
        expansion budget runs out before the search finishes.
        """
        _require_count(max_expansions, "max_expansions")
        facets = list(self.maximal_face_masks(budget))
        faces = [self._mask_to_face(m) for m in facets]
        if len(facets) <= 1:
            return ShellingReport("yes", tuple(faces), 0)

        # A later component whose first non-vertex facet arrives can only
        # meet earlier facets emptily, so two components with non-vertex
        # facets rule out every order.
        parent = list(range(len(facets)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(len(facets)):
            for j in range(i + 1, len(facets)):
                if facets[i] & facets[j]:
                    parent[find(i)] = find(j)
        roots = {}
        for i, m in enumerate(facets):
            r = find(i)
            roots.setdefault(r, 0)
            roots[r] = max(roots[r], m.bit_count())
        if sum(1 for big in roots.values() if big >= 2) >= 2:
            return ShellingReport("no", None, 0)

        order_idx = sorted(range(len(facets)), key=lambda i: (-facets[i].bit_count(), facets[i]))
        sizes = [facets[i].bit_count() for i in order_idx]
        # the candidates for position k: the facets of the size block holding k
        block_at = []
        start = 0
        for k in range(1, len(order_idx) + 1):
            if k == len(order_idx) or sizes[k] != sizes[start]:
                block_at += [order_idx[start:k]] * (k - start)
                start = k

        def addable(fmask, chosen):
            need = fmask.bit_count() - 1
            inters = [fmask & facets[i] for i in chosen]
            ribbon = [m for m in inters if m.bit_count() == need]
            for m in inters:
                if not any(m & ~r == 0 for r in ribbon):
                    return False
            return True

        # depth-first over orders, one candidate iterator per open position
        failed = set()
        expansions = 0
        chosen, chosen_mask = [], 0
        stack = [iter(block_at[0])]
        while stack:
            for i in stack[-1]:
                if chosen_mask >> i & 1:
                    continue
                expansions += 1
                if expansions > max_expansions:
                    return ShellingReport("unknown", None, expansions)
                if not addable(facets[i], chosen):
                    continue
                chosen.append(i)
                chosen_mask |= 1 << i
                if len(chosen) == len(facets):
                    return ShellingReport("yes", tuple(faces[j] for j in chosen), expansions)
                if chosen_mask in failed:
                    chosen.pop()
                    chosen_mask ^= 1 << i
                    continue
                stack.append(iter(block_at[len(chosen)]))
                break
            else:
                # every candidate failed: no order extends this prefix
                failed.add(chosen_mask)
                stack.pop()
                if chosen:
                    chosen_mask ^= 1 << chosen.pop()
        return ShellingReport("no", None, expansions)


def _join_factors(adj, alive):
    """The components of the complement of the 1-skeleton on the vertex
    mask ``alive``: the flag complex on ``alive`` is the join of the flag
    complexes on them."""
    return _split({i: alive & ~adj[i] for i in _bits(alive)}, alive)


def _betti_from_levels(levels, components):
    """Reduced Betti numbers over the rationals of a flag complex from its
    per-dimension face-mask lists and the number of components of its
    1-skeleton.

    The edge map's rank is the vertex count less the component count over
    any field, so its rows are never built.  The maps above are ranked over
    GF(2) from the top dimension down.  A face owning a pivot (lowest bit)
    of the basis of the map above it is left out of its own map, which keeps
    the rank (clearing).  A GF(2) rank falls short of the rational one only
    through 2-torsion, which raises the Betti numbers on both sides of that
    map (universal coefficients), so only a map with both nonzero is ranked
    again with rank_int.  A map too large for dense rows, and every map
    below it, is ranked exactly at once.
    """
    fcounts = [len(level) for level in levels]
    top = len(levels)
    ranks = [0] * (top + 1)  # ranks[d] = rank of boundary from d-faces
    if top:
        ranks[0], ranks[1] = 1, fcounts[0] - components
    exact = set()
    cleared = set()
    for d in range(top - 1, 1, -1):
        lower = {m: i for i, m in enumerate(levels[d - 1])}
        if exact or (fcounts[d] - len(cleared)) * fcounts[d - 1] > _GF2_MAX_CELLS:
            ranks[d] = rank_int(_signed_rows(levels[d], lower))
            exact.add(d)
        else:
            ranks[d], cleared = _gf2_rank_and_pivots(levels[d], lower, cleared, levels[d - 1])
    mod2 = _betti_from_ranks(fcounts, ranks)
    for d in range(2, top):
        if d not in exact and mod2[d] and mod2[d + 1]:
            lower = {m: i for i, m in enumerate(levels[d - 1])}
            ranks[d] = rank_int(_signed_rows(levels[d], lower))
    return BettiVector(_betti_from_ranks(fcounts, ranks))


def _gf2_rank_and_pivots(level, lower, cleared, below):
    """GF(2) rank of the boundary rows (bit ``lower[facet]`` per facet) of
    the faces of ``level`` outside ``cleared``, and the pivot faces."""

    def rows():
        for m in level:
            if m not in cleared:
                row = 0
                rest = m
                while rest:
                    b = rest & -rest
                    row |= 1 << lower[m ^ b]
                    rest ^= b
                yield row

    basis = gf2_basis(rows())
    return len(basis), {below[p] for p in basis}


def _signed_rows(level, lower):
    """Boundary rows of the faces in ``level`` as {lower[facet]: +-1} dicts."""
    return [
        {lower[m ^ (1 << b)]: (-1) ** k for k, b in enumerate(_bits(m))}
        for m in level
    ]


def _betti_from_ranks(fcounts, ranks):
    """Reduced Betti list from face counts and boundary ranks."""
    return [1 - ranks[0]] + [
        fcounts[d] - ranks[d] - ranks[d + 1] for d in range(len(fcounts))
    ]
