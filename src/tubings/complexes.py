"""Simplicial complexes with exact reduced homology.

Complexes come in two internal representations: *flag* (vertices plus an
adjacency relation; faces are the cliques) and *explicit* (a pruned list of
maximal faces).  Betti numbers are computed over the rationals with exact
integer elimination, after an optional strong-collapse pass that deletes
dominated vertices.

Reduced Betti vectors are indexed from dimension -1, so the empty complex
(which still contains the empty face) has Betti vector (1,).

Face enumeration is metered by a :class:`FaceBudget`; exceeding it raises
:class:`~tubings.errors.FaceBudgetExceededError` rather than grinding on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ._intlinalg import rank_int
from .errors import FaceBudgetConfigError, FaceBudgetExceededError, VertexClashError

DEFAULT_FACE_BUDGET = 1_000_000
_BUDGET_ENV = "TUBINGS_FACE_BUDGET"


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

    __slots__ = ("limit", "context", "used")

    def __init__(self, limit=None, context=""):
        self.limit = default_face_budget() if limit is None else int(limit)
        self.context = context
        self.used = 0

    def charge(self, n=1):
        self.used += n
        if self.used > self.limit:
            raise FaceBudgetExceededError(self.limit, self.context)

    @classmethod
    def ensure(cls, budget):
        if budget is None:
            return cls()
        if isinstance(budget, FaceBudget):
            return budget
        return cls(budget)


class BettiVector:
    """Reduced Betti numbers, starting at dimension -1, trailing zeros cut."""

    __slots__ = ("_values",)

    def __init__(self, values=()):
        vals = list(values)
        while vals and vals[-1] == 0:
            vals.pop()
        self._values = tuple(vals)

    @classmethod
    def zeros(cls):
        return cls(())

    def get(self, dim):
        i = dim + 1
        if 0 <= i < len(self._values):
            return self._values[i]
        return 0

    def to_list(self):
        return list(self._values)

    def is_zero(self):
        return not self._values

    def euler(self):
        """Reduced Euler characteristic, the dimension -1 term included."""
        return sum(v if i % 2 else -v for i, v in enumerate(self._values))

    def __eq__(self, other):
        if isinstance(other, BettiVector):
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __len__(self):
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def __repr__(self):
        return f"BettiVector({list(self._values)})"


@dataclass(frozen=True)
class ShellingReport:
    status: str  # 'yes', 'no' or 'unknown'
    order: tuple | None
    expansions: int


def _prune_masks(masks):
    """Drop masks contained in another mask; deduplicate; sort."""
    uniq = sorted(set(masks), key=lambda m: (-m.bit_count(), m))
    kept = []
    for m in uniq:
        if not any(m & ~k == 0 for k in kept):
            kept.append(m)
    kept.sort()
    return tuple(kept)


def _bits(mask):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class SimplicialComplex:
    """A finite abstract simplicial complex (always containing the empty face)."""

    __slots__ = ("_vertices", "_index", "_adj", "_max")

    def __init__(self, vertices, adj=None, max_masks=None):
        self._vertices = tuple(vertices)
        self._index = {v: i for i, v in enumerate(self._vertices)}
        if len(self._index) != len(self._vertices):
            raise VertexClashError("duplicate vertices in complex")
        self._adj = None if adj is None else tuple(adj)
        self._max = None if max_masks is None else tuple(max_masks)
        if (self._adj is None) == (self._max is None):
            raise ValueError("exactly one representation must be supplied")

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
        return cls(verts, adj=adj)

    @classmethod
    def flag_from_masks(cls, vertices, masks):
        return cls(tuple(vertices), adj=list(masks))

    @classmethod
    def from_maximal(cls, faces, vertices=None, key=None):
        """Complex generated by the given faces (an empty list gives the
        empty complex, whose only face is the empty set)."""
        faces = [tuple(f) for f in faces]
        appearing = []
        seen = set()
        for f in faces:
            for v in f:
                if v not in seen:
                    seen.add(v)
                    appearing.append(v)
        if vertices is not None:
            order = [v for v in vertices if v in seen]
            if len(order) != len(seen):
                missing = [v for v in appearing if v not in set(order)]
                raise VertexClashError(f"faces use vertices not listed: {missing!r}")
        elif key is not None:
            order = sorted(seen, key=key)
        else:
            try:
                order = sorted(seen)
            except TypeError:
                order = appearing
        idx = {v: i for i, v in enumerate(order)}
        masks = []
        for f in faces:
            m = 0
            for v in f:
                m |= 1 << idx[v]
            masks.append(m)
        if not masks:
            masks = [0]
        return cls(order, max_masks=_prune_masks(masks))

    @classmethod
    def empty(cls):
        return cls.from_maximal([])

    # -- basic queries ------------------------------------------------------

    @property
    def vertices(self):
        return self._vertices

    @property
    def is_flag(self):
        return self._adj is not None

    def n_vertices(self):
        return len(self._vertices)

    def has_vertex(self, v):
        return v in self._index

    def has_edge(self, u, v):
        i = self._index.get(u)
        j = self._index.get(v)
        if i is None or j is None or i == j:
            return False
        if self.is_flag:
            return bool(self._adj[i] >> j & 1)
        need = (1 << i) | (1 << j)
        return any(m & need == need for m in self._max)

    def __repr__(self):
        kind = "flag" if self.is_flag else "explicit"
        return f"SimplicialComplex({kind}, {len(self._vertices)} vertices)"

    # -- faces ---------------------------------------------------------------

    def _mask_to_face(self, mask):
        return tuple(self._vertices[i] for i in _bits(mask))

    def maximal_face_masks(self, budget=None):
        if not self.is_flag:
            return self._max
        budget = FaceBudget.ensure(budget)
        n = len(self._vertices)
        if n == 0:
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

        expand(0, (1 << n) - 1, 0)
        return tuple(sorted(out))

    def maximal_faces(self, budget=None):
        masks = self.maximal_face_masks(budget)
        faces = [self._mask_to_face(m) for m in masks]
        faces.sort(key=lambda f: (len(f), tuple(self._index[v] for v in f)))
        return tuple(faces)

    def dim(self, budget=None):
        """Dimension of the largest face; -1 for the empty complex."""
        masks = self.maximal_face_masks(budget)
        return max(m.bit_count() for m in masks) - 1

    def _faces_by_dim(self, budget):
        """List whose d-th entry is the sorted list of d-face masks."""
        if self.is_flag:
            n = len(self._vertices)
            adj = self._adj
            if n == 0:
                return []
            levels = []
            level = []
            for i in range(n):
                budget.charge()
                level.append((1 << i, i, adj[i]))
            levels.append(sorted(m for m, _, _ in level))
            while True:
                nxt = []
                for mask, last, common in level:
                    ext = common & ~((1 << (last + 1)) - 1)
                    while ext:
                        b = ext & -ext
                        j = b.bit_length() - 1
                        ext ^= b
                        budget.charge()
                        nxt.append((mask | b, j, common & adj[j]))
                if not nxt:
                    break
                levels.append(sorted(m for m, _, _ in nxt))
                level = nxt
            return levels
        seen = set()
        for f in self._max:
            sub = f
            while True:
                budget.charge()
                seen.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & f
        seen.discard(0)
        if not seen:
            return []
        by_dim = {}
        for m in seen:
            by_dim.setdefault(m.bit_count() - 1, []).append(m)
        return [sorted(by_dim.get(d, ())) for d in range(max(by_dim) + 1)]

    def face_set(self, budget=None):
        """Every face as a frozenset of vertices, the empty face included."""
        budget = FaceBudget.ensure(budget)
        out = {frozenset()}
        for level in self._faces_by_dim(budget):
            for m in level:
                out.add(frozenset(self._mask_to_face(m)))
        return frozenset(out)

    # -- subcomplexes and joins ----------------------------------------------

    def induced(self, keep):
        """Full subcomplex on the kept vertices (same representation)."""
        keepset = set(keep)
        order = [v for v in self._vertices if v in keepset]
        if self.is_flag:
            old = [self._index[v] for v in order]
            remap = {o: i for i, o in enumerate(old)}
            adj = []
            for o in old:
                m = 0
                row = self._adj[o]
                for b in _bits(row):
                    if b in remap:
                        m |= 1 << remap[b]
                adj.append(m)
            return SimplicialComplex(order, adj=adj)
        keep_mask = 0
        for v in order:
            keep_mask |= 1 << self._index[v]
        faces = [self._mask_to_face(m & keep_mask) for m in self._max]
        return SimplicialComplex.from_maximal(faces, vertices=order)

    def join(self, other, budget=None):
        """Simplicial join; vertex sets must be disjoint."""
        clash = set(self._vertices) & set(other._vertices)
        if clash:
            raise VertexClashError(f"join with shared vertices: {sorted(map(str, clash))!r}")
        if self.is_flag and other.is_flag:
            n1 = len(self._vertices)
            n2 = len(other._vertices)
            all1 = (1 << n1) - 1
            all2 = ((1 << n2) - 1) << n1
            adj = [m | all2 for m in self._adj]
            adj += [(m << n1) | all1 for m in other._adj]
            return SimplicialComplex(self._vertices + other._vertices, adj=adj)
        faces1 = self.maximal_faces(budget)
        faces2 = other.maximal_faces(budget)
        joined = [f1 + f2 for f1 in faces1 for f2 in faces2]
        return SimplicialComplex.from_maximal(
            joined, vertices=self._vertices + other._vertices
        )

    # -- homology ---------------------------------------------------------

    def _flag_core_mask(self):
        """Alive-vertex mask after repeatedly deleting dominated vertices."""
        n = len(self._vertices)
        adj = self._adj
        alive = (1 << n) - 1
        changed = True
        while changed and alive.bit_count() > 1:
            changed = False
            scan = alive
            while scan:
                b = scan & -scan
                i = b.bit_length() - 1
                scan ^= b
                closed_i = ((adj[i] | b) & alive)
                cand = adj[i] & alive
                found = False
                while cand:
                    cb = cand & -cand
                    u = cb.bit_length() - 1
                    cand ^= cb
                    closed_u = (adj[u] | cb) & alive
                    if closed_i & ~closed_u == 0:
                        found = True
                        break
                if found:
                    alive ^= b
                    changed = True
                    if alive.bit_count() <= 1:
                        break
        return alive

    def _explicit_core(self):
        """Maximal-face masks after strong collapse, plus the vertex count."""
        masks = list(self._max)
        while True:
            verts = 0
            for m in masks:
                verts |= m
            removed = False
            scan = verts
            while scan:
                b = scan & -scan
                scan ^= b
                inter = None
                for m in masks:
                    if m & b:
                        inter = m if inter is None else inter & m
                if inter is not None and inter & ~b:
                    masks = list(_prune_masks([m & ~b for m in masks]))
                    removed = True
                    break
            if not removed:
                return masks, verts.bit_count()

    def betti_reduced(self, budget=None, _use_core=True):
        """Reduced Betti numbers over the rationals, from dimension -1."""
        budget = FaceBudget.ensure(budget)
        target = self
        if self.is_flag:
            if _use_core and self._vertices:
                alive = self._flag_core_mask()
                if alive.bit_count() == 1:
                    return BettiVector.zeros()
                if alive.bit_count() < len(self._vertices):
                    target = self.induced(
                        [self._vertices[i] for i in _bits(alive)]
                    )
            levels = target._faces_by_dim(budget)
        else:
            if _use_core:
                masks, nverts = self._explicit_core()
                if nverts == 1:
                    return BettiVector.zeros()
                target = SimplicialComplex(self._vertices, max_masks=tuple(masks))
            levels = target._faces_by_dim(budget)
        return _betti_from_levels(levels, budget)

    def euler_reduced(self, budget=None):
        """Alternating face-count sum minus one (no collapse, direct count)."""
        budget = FaceBudget.ensure(budget)
        total = -1
        for d, level in enumerate(self._faces_by_dim(budget)):
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
        blocks = []
        start = 0
        for k in range(1, len(order_idx) + 1):
            if k == len(order_idx) or sizes[k] != sizes[start]:
                blocks.append(order_idx[start:k])
                start = k

        failed = set()
        expansions = 0
        total = len(facets)

        def addable(fmask, chosen):
            need = fmask.bit_count() - 1
            inters = [fmask & facets[i] for i in chosen]
            ribbon = [m for m in inters if m.bit_count() == need]
            for m in inters:
                if not any(m & ~r == 0 for r in ribbon):
                    return False
            return True

        def dfs(chosen_mask, chosen):
            nonlocal expansions
            if len(chosen) == total:
                return list(chosen)
            if chosen_mask in failed:
                return None
            done = len(chosen)
            acc = 0
            for block in blocks:
                if done < acc + len(block):
                    current = block
                    break
                acc += len(block)
            for i in current:
                if chosen_mask >> i & 1:
                    continue
                expansions += 1
                if expansions > max_expansions:
                    raise _ExpansionBudget
                if addable(facets[i], chosen):
                    chosen.append(i)
                    res = dfs(chosen_mask | (1 << i), chosen)
                    if res is not None:
                        return res
                    chosen.pop()
            failed.add(chosen_mask)
            return None

        try:
            found = dfs(0, [])
        except _ExpansionBudget:
            return ShellingReport("unknown", None, expansions)
        if found is None:
            return ShellingReport("no", None, expansions)
        return ShellingReport("yes", tuple(faces[i] for i in found), expansions)


class _ExpansionBudget(Exception):
    pass


def _betti_from_levels(levels, budget):
    """Reduced Betti numbers from per-dimension face-mask lists."""
    fcounts = [len(level) for level in levels]
    top = len(levels)
    ranks = [0] * (top + 1)  # ranks[d] = rank of boundary from d-faces
    if fcounts and fcounts[0]:
        ranks[0] = 1
    for d in range(1, top):
        lower = {m: i for i, m in enumerate(levels[d - 1])}
        rows = []
        for m in levels[d]:
            row = {}
            sign = 1
            for b in _bits(m):
                face = m ^ (1 << b)
                row[lower[face]] = sign
                sign = -sign
            rows.append(row)
        ranks[d] = rank_int(rows)
    betti = [1 - ranks[0]]
    for d in range(top):
        nxt = ranks[d + 1] if d + 1 <= top else 0
        betti.append(fcounts[d] - ranks[d] - nxt)
    return BettiVector(betti)
