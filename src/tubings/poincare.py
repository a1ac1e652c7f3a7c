"""Poincaré polynomials of tubing complexes, by two independent routes.

The direct route sums, over every even collection C, the suspended
reduced Betti polynomial of the odd tube subcomplex for C.  The structural
route assigns each graph H an *a-polynomial* (the sum over its admissible
collections of the plain reduced Betti polynomials) and recovers the
Poincaré polynomial of G as ``1 + t * sum(a_H)`` over all reductions H of
G, ranking only the connected ones (Künneth gives the rest).  Both routes
add one term per symmetry class, times its size.
``cross_check`` exercises both routes plus the identities connecting them,
with a plain sum over every collection, each taken as its ground bitmask,
and reports any counterexample found.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cache, reduce
from operator import or_

from .complexes import FaceBudget, IntPolynomial
from .graphs import (
    _reduction,
    _reduction_key,
    _reduction_of,
    connected_reduction_classes,
    enumerate_reductions,
    reduced_graph,
)
from .parity import (
    _confined_tubes,
    _EvenFamily,
    _inflation_matches,
    _odd_tubes,
    _saturated_tubes,
    _shares,
    admissible_collections,
    collection_orbits,
    has_admissible,
    is_admissible,
    odd_tube_complex,
)
from .tubes import TubeSystem


def from_betti_suspended(betti):
    """Sum of ``b_i * t**(i+1)`` over all dimensions, -1 included."""
    return IntPolynomial(betti.to_list())


def from_betti_tilde(betti):
    """Sum of ``b_i * t**i`` over dimensions 0 and up."""
    return IntPolynomial(betti.to_list()[1:])


def _orbit_sum(graph, budget, admissible, polynomial):
    """Sum over the graph's even collections, or only its admissible ones,
    of ``polynomial`` of the reduced Betti vector of their odd tube
    subcomplexes, one term per orbit under the graph's automorphisms, times
    its size."""
    system = TubeSystem(graph, budget)
    total = IntPolynomial.zero()
    for c, weight in collection_orbits(graph, admissible):
        complex_ = odd_tube_complex(graph, c, budget=budget, system=system)
        total = total + polynomial(complex_.betti_reduced(budget)) * weight
    return total


def a_polynomial(graph, budget=None):
    """Sum over the graph's admissible collections of the reduced Betti
    polynomials of their odd tube subcomplexes."""
    budget = FaceBudget.ensure(budget)
    if not has_admissible(graph):
        return IntPolynomial.zero()
    return _orbit_sum(graph, budget, True, from_betti_tilde)


def poincare_reduced(graph, budget=None):
    """Poincaré polynomial from the a-polynomials of the reductions on a
    connected node set C, one per class, summed over C's collapse choices
    into A(C): P(t) sums, over node sets S, the product of t A(C) over S's
    components (Künneth for joins), 1 for S empty.  The result is kept on
    the immutable graph, so a second call returns it and charges nothing."""
    if graph._poincare is None:
        budget = FaceBudget.ensure(budget)
        nbr = graph._neighbour_masks
        t_a = {}  # connected node mask C: t A(C)
        for members in connected_reduction_classes(graph):
            _, nodes, collapsed = members[0]
            a = a_polynomial(_reduction(graph, nodes, collapsed), budget).shift(1)
            if not a.is_zero():
                for sub, _, _ in members:
                    t_a[sub] = t_a[sub] + a if sub in t_a else a
        by_least = {}  # least node bit: (C, C and its neighbours, t A(C))
        for sub, a in t_a.items():
            near, rest = sub, sub
            while rest:
                low = rest & -rest
                near |= nbr[low.bit_length() - 1]
                rest ^= low
            by_least.setdefault(sub & -sub, []).append((sub, near, a))

        @cache
        def total(free):
            # S inside free leaves out free's least node v, or v lies in a
            # component C of S and the rest of S avoids C and its neighbours
            if not free:
                return IntPolynomial.one()
            v = free & -free
            terms = {}  # (t A(C), what C leaves free): how many C give it
            for sub, near, a in by_least.get(v, ()):
                if not sub & ~free:
                    key = a, free & ~near
                    terms[key] = terms.get(key, 0) + 1
            out = total(free ^ v)
            for (a, rest), count in terms.items():
                out = out + a * total(rest) * count
            return out

        graph._poincare = total((1 << len(nbr)) - 1)
    return graph._poincare


def poincare_brute(graph, budget=None):
    """Poincaré polynomial summed over all even collections directly: the
    suspended reduced Betti polynomials of their odd tube subcomplexes."""
    return _orbit_sum(graph, FaceBudget.ensure(budget), False, from_betti_suspended)


ALL_CHECKS = (
    "routes",
    "chain",
    "zero",
    "join",
    "even-star",
    "inflation",
    "recovery",
)


@dataclass(frozen=True)
class CheckFailure:
    check: str
    collection: object
    detail: str


@dataclass(frozen=True)
class CrossCheckReport:
    ok: bool
    sampled: bool
    collections_checked: int
    poincare_reduced: object
    poincare_brute: object
    failures: tuple


def cross_check(
    graph,
    budget=None,
    seed=0,
    max_collections=None,
    designation=None,
    checks=None,
):
    """Run consistency checks over the even collections of a graph.

    With ``max_collections`` fewer than the even-collection count, a seeded
    sample is checked instead and the route comparison (which needs the
    full sum) is skipped.  Returns a :class:`CrossCheckReport` whose
    ``failures`` hold the first offending collection per failed check.
    ``designation`` orders the even collections, so it picks the sample
    and which offending collection comes first; no polynomial depends on it.
    A call ranks each tube mask it asks for once, whichever checks ask, and
    each distinct join factor of those complexes once, since they share one
    tube system's factor memo; the reduced route it compares with builds
    its own systems, and so its own memos.
    """
    chosen = set(ALL_CHECKS if checks is None else checks)
    bad = chosen - set(ALL_CHECKS)
    if bad:
        raise ValueError(f"unknown checks: {sorted(bad)}")
    if max_collections is not None and max_collections < 1:
        raise ValueError(f"max_collections must be at least 1, got {max_collections}")
    budget = FaceBudget.ensure(budget)
    # even-star and recovery read no tube
    system = TubeSystem(graph, budget) if chosen - {"even-star", "recovery"} else None
    family = _EvenFamily(graph, designation)
    total = family.count()
    sampled = max_collections is not None and max_collections < total
    indices = range(total)
    if sampled:
        indices = sorted(random.Random(seed).sample(indices, max_collections))

    # memos for this call only; each looks its helper up when it runs
    betti = cache(lambda tubes: system.complex_on(tubes).betti_reduced(budget))
    saturated = cache(lambda members: _saturated_tubes(system, members))
    shares = cache(lambda members: _shares(graph, *_reduction_key(graph, members), members))
    collection = cache(family.collection_at)
    reduced = cache(lambda key: _reduction(graph, *key))
    reduced_system = cache(lambda key: TubeSystem(reduced(key), budget))

    def evenstar(members):
        return not any(s.bit_count() & 1 for s in shares(members))

    def chain(index, members):
        tubes = _odd_tubes(system, members), _confined_tubes(system, members), saturated(members)
        odd, confined, sat = map(betti, tubes)
        if not odd == confined == sat:
            return f"betti {odd!r} / {confined!r} / {sat!r}"

    def zero(index, members):
        if not evenstar(members) and not (bv := betti(saturated(members))).is_zero():
            return f"odd component share but betti {bv!r}"

    def even_star(index, members):
        c = collection(index)
        admissible = is_admissible(reduced(_reduction_of(graph, c)), c)
        if evenstar(members) != admissible:
            return f"component evenness {evenstar(members)} vs admissibility {admissible}"

    def join(index, members):
        whole = saturated(members)
        pieces = [saturated(s) for s in shares(members)]
        if whole != reduce(or_, pieces, 0):
            return "vertex sets differ between whole and parts"
        mine, *parts = (from_betti_suspended(betti(t)) for t in (whole, *pieces))
        prod = math.prod(parts, start=IntPolynomial.one())
        if prod != mine:
            return f"suspended {mine} vs product {prod}"

    def inflation(index, members):
        c = collection(index)
        if not _inflation_matches(system, reduced_system(_reduction_of(graph, c)), c):
            return "reduced-graph odd complex does not inflate"

    # run on each collection in this order, which orders the failures found on one collection
    per_collection = {
        "chain": chain, "zero": zero, "even-star": even_star, "join": join, "inflation": inflation
    }
    run = [(name, check) for name, check in per_collection.items() if name in chosen]
    first = {}  # check name: its first failure, in the order found
    for index in indices:
        members = family.mask_at(index)
        for name, check in run:
            detail = check(index, members)
            if detail and name not in first:
                first[name] = CheckFailure(name, collection(index), detail)

    poly_reduced = poly_brute = None
    if not sampled and "routes" in chosen:
        odd = (betti(_odd_tubes(system, family.mask_at(i))) for i in indices)
        poly_brute = sum(map(from_betti_suspended, odd), IntPolynomial.zero())
        poly_reduced = poincare_reduced(graph, budget)
        if poly_reduced != poly_brute:
            detail = f"reduced {poly_reduced} vs brute {poly_brute}"
            first["routes"] = CheckFailure("routes", None, detail)

    if "recovery" in chosen:
        detail = "admissible collection does not recover graph"
        for h in enumerate_reductions(graph):
            for c in admissible_collections(h, None):
                if reduced_graph(graph, c) != h:
                    first.setdefault("recovery", CheckFailure("recovery", c, detail))
                    break

    return CrossCheckReport(
        ok=not first,
        sampled=sampled,
        collections_checked=len(indices),
        poincare_reduced=poly_reduced,
        poincare_brute=poly_brute,
        failures=tuple(first.values()),
    )
