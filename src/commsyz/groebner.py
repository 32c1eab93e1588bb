"""Buchberger engine with budgets, degree truncation, and ideal operations.

The engine is deterministic: pairs are processed in increasing lcm total
degree with FIFO tie-breaking, and the returned basis is the reduced
Groebner basis (minimal leads, tails in normal form, monic, sorted), which
is unique for a given ideal and monomial order.

Ideal operations built on top: elimination of auxiliary variables,
intersection of ideals (single auxiliary variable splitting), and ideal
quotients (via intersection with a principal ideal plus exact division).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappush, heappop
from typing import Optional, Sequence

from .polyring import (
    CompiledPoly,
    DegreeBucketReducers,
    PolyRing,
    Polynomial,
    check_multiple,
    compile_poly,
    decompile,
    mon_div,
    mon_degree,
    mon_divides,
    mon_lcm,
    normal_form,
)


class IncompleteBasisError(RuntimeError):
    """Raised when an operation needs a complete basis but has a partial one."""


class BudgetExhausted(RuntimeError):
    """Raised when a computation hits its budget and on_exhaustion='fail'."""

    def __init__(self, message: str, stats: "GBStats"):
        super().__init__(message)
        self.stats = stats


@dataclass(frozen=True)
class Budget:
    """Resource limits for one Buchberger run.

    on_exhaustion: 'fail' raises BudgetExhausted; 'partial' returns whatever
    basis has been accumulated, flagged incomplete.
    """

    max_spairs: Optional[int] = None
    max_seconds: Optional[float] = None
    on_exhaustion: str = "fail"

    def __post_init__(self):
        if self.on_exhaustion not in ("fail", "partial"):
            raise ValueError("on_exhaustion must be 'fail' or 'partial'")
        if self.max_spairs is not None and self.max_spairs < 0:
            raise ValueError("max_spairs must be nonnegative")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive")


@dataclass
class GBStats:
    spairs_reduced: int = 0
    zero_reductions: int = 0
    pairs_pruned: int = 0
    pairs_truncated: int = 0
    elements_added: int = 0
    max_degree_processed: int = 0
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "spairs_reduced": self.spairs_reduced,
            "zero_reductions": self.zero_reductions,
            "pairs_pruned": self.pairs_pruned,
            "pairs_truncated": self.pairs_truncated,
            "elements_added": self.elements_added,
            "max_degree_processed": self.max_degree_processed,
            "seconds": round(self.seconds, 3),
        }


class GroebnerBasis:
    """A (possibly truncated or partial) Groebner basis with cached reducers.

    complete=True: full reduced basis.  truncation_degree=d: correct through
    total degree d (only produced for homogeneous input).  Neither: a partial
    basis from an exhausted budget; membership queries refuse to answer.
    """

    def __init__(
        self,
        ring: PolyRing,
        elements: Sequence[Polynomial],
        *,
        complete: bool = True,
        truncation_degree: Optional[int] = None,
        homogeneous: bool = False,
        stats: Optional[GBStats] = None,
    ):
        self.ring = ring
        self.elements = tuple(elements)
        self.complete = complete
        self.truncation_degree = truncation_degree
        self.homogeneous = homogeneous
        self.stats = stats or GBStats()
        self._reducers = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def reducers(self) -> DegreeBucketReducers:
        if self._reducers is None:
            self._reducers = DegreeBucketReducers(
                self.ring.order, (compile_poly(g, i) for i, g in enumerate(self.elements))
            )
        return self._reducers

    def reduce(self, f: Polynomial) -> Polynomial:
        """Normal form of f against this basis (no completeness requirement)."""
        if f.is_zero() or not self.elements:
            return f
        return decompile(f.ring, normal_form(f.terms, self.reducers, self.ring.field))

    def contains(self, f: Polynomial) -> bool:
        """Ideal membership.  Needs a complete basis, or a truncated one that
        covers deg(f) for a homogeneous ideal."""
        if f.is_zero():
            return True
        if not self.complete:
            if self.truncation_degree is None:
                raise IncompleteBasisError(
                    "basis is partial (budget exhausted); membership is undecidable"
                )
            if not self.homogeneous or f.degree() > self.truncation_degree:
                raise IncompleteBasisError(
                    f"basis is only valid through degree {self.truncation_degree}"
                )
        return self.reduce(f).is_zero()

    def lead_exponents(self) -> list:
        """Exponent tuples of the leading monomials (the initial ideal's gens)."""
        return [g.lm() for g in self.elements]

    def __repr__(self):
        kind = (
            "complete"
            if self.complete
            else (
                f"truncated@{self.truncation_degree}"
                if self.truncation_degree is not None
                else "partial"
            )
        )
        return f"GroebnerBasis({len(self.elements)} elements, {kind})"


def _spair_terms(a: CompiledPoly, b: CompiledPoly, lcm, vlcm: int, order):
    """Term list of the S-polynomial of two monic compiled polynomials whose
    leads have lcm `lcm` (exponents) and scalar or module key vlcm."""
    check_multiple(mon_div(lcm, a.lead_exps), a, order)
    check_multiple(mon_div(lcm, b.lead_exps), b, order)
    da = vlcm - a.lead_v
    db = vlcm - b.lead_v
    terms = [(vt + da, ct) for vt, ct in a.tail]
    terms.extend((vt + db, -ct) for vt, ct in b.tail)
    return terms


def buchberger(
    gens: Sequence[Polynomial],
    *,
    budget: Optional[Budget] = None,
    degree_bound: Optional[int] = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`.

    degree_bound: process only S-pairs of lcm total degree <= bound; requires
    homogeneous generators and returns a basis flagged as truncated (correct
    through that degree) unless no pair was actually dropped.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    for g in gens[1:]:
        if g.ring is not ring and not g.ring.same_signature(ring):
            raise ValueError("generators from incompatible rings")
    order = ring.order
    fld = ring.field
    homogeneous = all(g.is_homogeneous() for g in gens)
    if degree_bound is not None and not homogeneous:
        raise ValueError("degree_bound requires homogeneous generators")
    budget = budget or Budget()
    stats = GBStats()
    start = time.monotonic()

    basis: list[CompiledPoly] = []
    reducers = DegreeBucketReducers(order)
    pairs: dict = {}  # (i, j) -> lcm exponent tuple
    heap: list = []
    serial = 0

    def add_element(p: Polynomial):
        nonlocal serial
        h = len(basis)
        cp = compile_poly(p.monic(), h)
        lmh = cp.lead_exps
        # prune old pairs made redundant by the new lead
        for key in list(pairs):
            i, j = key
            lij = pairs[key]
            if mon_divides(lmh, lij):
                li = basis[i].lead_exps
                lj = basis[j].lead_exps
                if mon_lcm(li, lmh) != lij and mon_lcm(lj, lmh) != lij:
                    del pairs[key]
                    stats.pairs_pruned += 1
        # new pairs, filtered by the chain/equal-lcm/coprime criteria
        cand = []
        for g in basis:
            l = mon_lcm(g.lead_exps, lmh)
            coprime = (g.mask & cp.mask) == 0
            cand.append((g.index, l, coprime))
        kept = []
        while cand:
            gi, l, coprime = cand.pop()
            if not coprime:
                shadowed = any(mon_divides(l2, l) for _, l2, _ in cand) or any(
                    mon_divides(l2, l) for _, l2, _ in kept
                )
                if shadowed:
                    stats.pairs_pruned += 1
                    continue
            kept.append((gi, l, coprime))
        for gi, l, coprime in kept:
            if coprime:
                stats.pairs_pruned += 1
                continue
            deg = mon_degree(l)
            if degree_bound is not None and deg > degree_bound:
                stats.pairs_truncated += 1
                continue
            pairs[(gi, h)] = l
            heappush(heap, (deg, serial, gi, h))
            serial += 1
        basis.append(cp)
        reducers.add(cp)
        stats.elements_added += 1

    exhausted = None
    for g in gens:
        add_element(g)

    while heap:
        if budget.max_spairs is not None and stats.spairs_reduced >= budget.max_spairs:
            exhausted = f"S-pair budget ({budget.max_spairs}) exhausted"
            break
        if budget.max_seconds is not None and time.monotonic() - start > budget.max_seconds:
            exhausted = f"time budget ({budget.max_seconds}s) exhausted"
            break
        deg, _, i, j = heappop(heap)
        lij = pairs.pop((i, j), None)
        if lij is None:
            continue  # pruned after enqueueing
        vlcm = order.encode(lij)
        terms = _spair_terms(basis[i], basis[j], lij, vlcm, order)
        stats.spairs_reduced += 1
        if deg > stats.max_degree_processed:
            stats.max_degree_processed = deg
        rem = normal_form(terms, reducers, fld)
        if rem:
            add_element(decompile(ring, rem))
        else:
            stats.zero_reductions += 1

    if exhausted is not None and budget.on_exhaustion == "fail":
        stats.seconds = time.monotonic() - start
        raise BudgetExhausted(exhausted, stats)
    basis.sort(key=lambda cp: cp.lead_v)
    polys = [decompile(ring, ((cp.lead_v, fld.one),) + cp.tail) for cp in basis]
    if exhausted is not None:
        # Keep every accumulated element: with pairs unprocessed, dropping a
        # lead-redundant element could lose ideal content hiding in its tail.
        stats.seconds = time.monotonic() - start
        return GroebnerBasis(
            ring, polys, complete=False, homogeneous=homogeneous, stats=stats
        )
    truncated = stats.pairs_truncated > 0
    elements = interreduce(polys)
    stats.seconds = time.monotonic() - start
    return GroebnerBasis(
        ring,
        elements,
        complete=not truncated,
        truncation_degree=degree_bound if truncated else None,
        homogeneous=homogeneous,
        stats=stats,
    )


def interreduce(polys: Sequence[Polynomial]) -> list:
    """Minimal, tail-reduced, monic, sorted form of a generating set.

    Applied to a Groebner basis this yields the reduced basis; applied to any
    list it removes lead-redundant members and normalizes the rest.

    Each kept element is compiled once, into one reducer set shared by all
    tails.  That set also holds the element whose tail is being reduced, and
    the result is still the same as against the others alone: a lead divides
    only monomials at or above itself, so no element ever matches a term of
    its own tail, and the others are searched in the same bucket order.
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    ring = polys[0].ring
    # drop any element whose lead is divisible by another kept lead
    kept = []
    for p in sorted(polys, key=lambda p: p.terms[0][0]):
        lm = p.lm()
        if not any(mon_divides(q.lead_exps, lm) for q in kept):
            kept.append(compile_poly(p, len(kept)))
    # tail-reduce each against the shared set; the leads stay sorted
    reducers = DegreeBucketReducers(ring.order, kept)
    out = []
    for cp in kept:
        rem = normal_form(cp.tail, reducers, ring.field)
        out.append(decompile(ring, [(cp.lead_v, cp.lc)] + rem).monic())
    return out


def membership(f: Polynomial, basis: GroebnerBasis) -> bool:
    return basis.contains(f)


def verify_basis(basis: GroebnerBasis, gens: Optional[Sequence[Polynomial]] = None):
    """Brute-force check: every S-pair reduces to zero (no criteria applied),
    and every original generator lies in the span.  Returns (ok, failures)."""
    failures = []
    elems = basis.elements
    ring = basis.ring
    order = ring.order
    fld = ring.field
    compiled = [compile_poly(g, i) for i, g in enumerate(elems)]
    reducers = basis.reducers
    for a in range(len(elems)):
        for b in range(a + 1, len(elems)):
            l = mon_lcm(compiled[a].lead_exps, compiled[b].lead_exps)
            terms = _spair_terms(compiled[a], compiled[b], l, order.encode(l), order)
            if normal_form(terms, reducers, fld):
                failures.append(f"S-pair ({a},{b}) does not reduce to zero")
    if gens is not None:
        for k, g in enumerate(gens):
            if not basis.reduce(g).is_zero():
                failures.append(f"generator {k} is not in the basis ideal")
    return (not failures, failures)


# -- elimination / intersection / quotient ------------------------------------


def eliminate_aux(basis: GroebnerBasis, target: PolyRing) -> list:
    """Generators of (ideal intersect target ring) from a complete basis in an
    elimination order whose front block is the aux variables being dropped."""
    if not basis.complete:
        raise IncompleteBasisError("elimination needs a complete basis")
    ring = basis.ring
    drop = ring.naux - target.naux
    if drop <= 0:
        raise ValueError("target ring does not drop any auxiliary variables")
    from .polyring import BlockElimination

    if not isinstance(ring.order, BlockElimination) or ring.order.front != drop:
        raise ValueError("basis order does not eliminate exactly the dropped variables")
    out = []
    for g in basis.elements:
        if any(g.lm()[:drop]):
            continue
        out.append(ring.project(g, target))
    return out


def intersect_ideals(
    gens_a: Sequence[Polynomial],
    gens_b: Sequence[Polynomial],
    *,
    budget: Optional[Budget] = None,
) -> list:
    """Generators of (A intersect B), by eliminating t from t*A + (1-t)*B."""
    if not gens_a or not gens_b:
        raise ValueError("both ideals need at least one generator")
    ring = gens_a[0].ring
    ext = ring.with_elimination_vars(1)
    t = ext.var("t_1")
    one_minus_t = ext.one - t
    lifted = [t * ring.embed(f, ext) for f in gens_a]
    lifted += [one_minus_t * ring.embed(g, ext) for g in gens_b]
    gb = buchberger(lifted, budget=budget)
    if not gb.complete:
        raise IncompleteBasisError("intersection needs a complete basis")
    return interreduce(eliminate_aux(gb, ring))


def colon_by_element(
    gens: Sequence[Polynomial], f: Polynomial, *, budget: Optional[Budget] = None
) -> list:
    """Generators of (ideal : f) = (1/f) * (ideal intersect (f))."""
    if f.is_zero():
        raise ValueError("cannot form a quotient by the zero element")
    meet = intersect_ideals(gens, [f], budget=budget)
    return [g.exact_div(f) for g in meet]


def colon_ideal(
    gens: Sequence[Polynomial],
    fs: Sequence[Polynomial],
    *,
    budget: Optional[Budget] = None,
) -> list:
    """Generators of (ideal : (f_1, ..., f_m)) as the meet of element quotients."""
    fs = [f for f in fs if not f.is_zero()]
    if not fs:
        raise ValueError("quotient by the zero ideal is undefined here")
    result = colon_by_element(gens, fs[0], budget=budget)
    for f in fs[1:]:
        nxt = colon_by_element(gens, f, budget=budget)
        result = intersect_ideals(result, nxt, budget=budget)
    return interreduce(result)
