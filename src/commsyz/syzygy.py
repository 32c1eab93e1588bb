"""Trace-form syzygies of the commutator entries and the first-syzygy module.

A syzygy here is a vector (a_1, ..., a_{n^2}) of polynomials with
sum a_k f_k = 0 over the commutator entries f_k.  Reading a matrix A row by
row produces such a vector exactly when tr(A(XY-YX)) = 0, which links the
word rules to honest module elements.

The module half of the file is a position-over-term Groebner engine for
free-module vectors: enough to compute a generating set of the first-syzygy
module of the minimal generators (with cofactor tracking through S-pair
reduction), count its minimal generators degree by degree, and decide
membership of candidate syzygies.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from heapq import heappush, heappop
from itertools import combinations
from typing import Optional, Sequence, Union

from .genmat import CommutatorSystem, GenericMatrix
from .groebner import Budget, BudgetExhausted, GBStats, _spair_terms
from .polyring import (
    CompiledPoly,
    DegreeBucketReducers,
    MonomialOrder,
    PolyRing,
    Polynomial,
    compile_poly,
    decompile,
    mon_degree,
    mon_lcm,
    normal_form,
)
from .words import WordExpr


# -- matrices, tuples, and the trace correspondence ---------------------------


def eval_word(word: str, system: CommutatorSystem) -> GenericMatrix:
    """Evaluate a word in the letters X, Y as a product of the generic
    matrices; the empty word is the identity."""
    m = GenericMatrix.identity(system.ring, system.n)
    for ch in word:
        if ch == "X":
            m = m * system.X
        elif ch == "Y":
            m = m * system.Y
        else:
            raise ValueError(f"unexpected letter {ch!r}")
    return m


def eval_expr(expr: WordExpr, system: CommutatorSystem) -> GenericMatrix:
    """Signed sum of word evaluations."""
    acc = None
    for w, s in zip(expr.words, expr.signs):
        m = eval_word(w, system)
        if s == -1:
            m = -m
        acc = m if acc is None else acc + m
    return acc


@dataclass(frozen=True)
class SyzygyTuple:
    """Coefficient vector (a_1, ..., a_{n^2}) against the commutator entries."""

    entries: tuple
    system: CommutatorSystem

    def __post_init__(self):
        nsq = self.system.n ** 2
        if len(self.entries) != nsq:
            raise ValueError(f"expected {nsq} entries, got {len(self.entries)}")

    def residual(self) -> Polynomial:
        """sum a_k f_k; the zero polynomial iff this is a genuine syzygy."""
        return self.system.ring.dot(zip(self.entries, self.system.commutators))

    def is_valid(self) -> bool:
        return self.residual().is_zero()

    def coefficient_degree(self) -> int:
        """Common total degree of the nonzero entries, or -1 if all zero."""
        degs = {a.degree() for a in self.entries if not a.is_zero()}
        if not degs:
            return -1
        if len(degs) > 1:
            raise ValueError("entries are not of a single degree")
        return degs.pop()


def tuple_from_matrix(a: GenericMatrix, system: CommutatorSystem) -> SyzygyTuple:
    """Row-major flattening of A, so that sum a_k f_k = tr(A(XY-YX))."""
    n = system.n
    if a.size != n:
        raise ValueError(f"matrix size {a.size} does not match system size {n}")
    entries = tuple(a[i, j] for i in range(1, n + 1) for j in range(1, n + 1))
    return SyzygyTuple(entries=entries, system=system)


def matrix_from_tuple(t: SyzygyTuple) -> GenericMatrix:
    """Inverse of tuple_from_matrix."""
    n = t.system.n
    rows = [[t.entries[(i - 1) * n + (j - 1)] for j in range(1, n + 1)] for i in range(1, n + 1)]
    return GenericMatrix(t.system.ring, rows)


def trace_residual(source, system: CommutatorSystem) -> Polynomial:
    """tr(A(XY-YX)) computed through the tuple pairing; A may be a matrix or
    a word expression."""
    if isinstance(source, WordExpr):
        source = eval_expr(source, system)
    return tuple_from_matrix(source, system).residual()


def is_trace_syzygy(source, system: CommutatorSystem) -> bool:
    """Exact symbolic test of tr(A(XY-YX)) = 0."""
    return trace_residual(source, system).is_zero()


def koszul(system: CommutatorSystem) -> list:
    """The C(n^2, 2) relations f_i e_j - f_j e_i on the full entry list."""
    nsq = system.n ** 2
    zero = system.ring.zero
    out = []
    for i, j in combinations(range(nsq), 2):
        entries = [zero] * nsq
        entries[j] = system.commutators[i]
        entries[i] = -system.commutators[j]
        out.append(SyzygyTuple(entries=tuple(entries), system=system))
    return out


def restrict_to_minimal(t: SyzygyTuple) -> tuple:
    """Rewrite a full-rank syzygy over the n^2 - 1 minimal generators.

    The dropped entry is the last diagonal one, f_{n^2} = -(sum of the other
    diagonal entries); its coefficient folds into the other diagonals.
    """
    system = t.system
    n = system.n
    last = n * n  # 1-based position of the last diagonal entry
    a_last = t.entries[last - 1]
    diag = set(system.diagonal_indices)
    out = []
    for k in range(1, last):
        a = t.entries[k - 1]
        if k in diag:
            a = a - a_last
        out.append(a)
    return tuple(out)


# -- free-module vectors with a position-over-term order ----------------------


class ModuleOrder:
    """Position-over-term: e_0 > e_1 > ...; the scalar order breaks ties.

    A module monomial (position p, scalar monomial with key v) encodes as
    ((rank-1-p) << shift) | v, so integer comparison is the module order and
    adding a scalar multiplier's offset preserves position.
    """

    def __init__(self, scalar: MonomialOrder, rank: int):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.scalar = scalar
        self.rank = rank
        self.shift = scalar.total_bits
        self._smask = (1 << self.shift) - 1

    def encode(self, pos: int, v: int) -> int:
        return ((self.rank - 1 - pos) << self.shift) | v

    def decode(self, v: int):
        """(position, scalar key) of a module key."""
        return (self.rank - 1 - (v >> self.shift), v & self._smask)

    def scalar_part(self, v: int) -> int:
        return v & self._smask

    def position(self, v: int) -> int:
        return self.rank - 1 - (v >> self.shift)

    def __eq__(self, other):
        return (
            isinstance(other, ModuleOrder)
            and self.rank == other.rank
            and self.scalar == other.scalar
        )


def vector_is_zero(vec: Sequence[Polynomial]) -> bool:
    return all(p.is_zero() for p in vec)


def vector_degree(vec: Sequence[Polynomial]) -> int:
    """Common total degree of the nonzero components; -1 for the zero vector."""
    degs = set()
    for p in vec:
        if not p.is_zero():
            if not p.is_homogeneous():
                raise ValueError("vector component is not homogeneous")
            degs.add(p.degree())
    if not degs:
        return -1
    if len(degs) > 1:
        raise ValueError("vector components have mixed degrees")
    return degs.pop()


def vector_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vector_scale(vec, c: Polynomial):
    return tuple(p * c for p in vec)


def vector_terms(vec: Sequence[Polynomial], morder: ModuleOrder) -> list:
    """Descending module (V, coeff) terms: positions in order, each descending."""
    top, shift = morder.rank - 1, morder.shift
    return [((top - pos) << shift | v, c) for pos, p in enumerate(vec) for v, c in p.terms]


def compile_vector(vec: Sequence[Polynomial], morder: ModuleOrder, index: int = -1) -> CompiledPoly:
    """A nonzero vector as one packed term list; lead_exps is the scalar part."""
    terms = vector_terms(vec, morder)
    if not terms:
        raise ValueError("cannot compile the zero vector")
    scalar, part = morder.scalar, morder.scalar_part
    tail_deg = max([scalar.degree(part(v)) for v, _ in terms[1:]], default=0)
    return CompiledPoly(terms, scalar.decode(part(terms[0][0])), tail_deg, vec[0].ring.field, index)


def decompile_vector(ring: PolyRing, rank: int, terms, morder: ModuleOrder):
    buckets = [[] for _ in range(rank)]
    for v, c in terms:
        pos, sv = morder.decode(v)
        buckets[pos].append((sv, c))
    return tuple(decompile(ring, b) for b in buckets)


class ModuleReducers:
    """Reducers grouped by lead position, degree-bucketed within.

    find(v) looks up the scalar part of v among the reducers whose lead sits
    at v's position, so a reducer applies only at its own lead position.
    """

    __slots__ = ("morder", "by_pos")

    def __init__(self, morder: ModuleOrder, entries=()):
        self.morder = morder
        self.by_pos: dict = {}
        for cp in entries:
            self.add(cp)

    def add(self, cp: CompiledPoly):
        pos = self.morder.position(cp.lead_v)
        bucket = self.by_pos.get(pos)
        if bucket is None:
            bucket = DegreeBucketReducers(self.morder.scalar)
            self.by_pos[pos] = bucket
        bucket.add(cp)

    def find(self, v):
        bucket = self.by_pos.get(self.morder.position(v))
        if bucket is None:
            return None
        return bucket.find(self.morder.scalar_part(v))


def module_normal_form(terms, reducers: ModuleReducers, field):
    """Normal form of a compiled module term list; the scalar kernel does it."""
    return normal_form(terms, reducers, field)


class ModuleBasis:
    """A (possibly truncated or partial) module Groebner basis."""

    def __init__(
        self,
        ring: PolyRing,
        rank: int,
        vectors: Sequence,
        morder: ModuleOrder,
        *,
        complete: bool = True,
        truncation_degree: Optional[int] = None,
        stats: Optional[GBStats] = None,
    ):
        self.ring = ring
        self.rank = rank
        self.vectors = tuple(vectors)
        self.morder = morder
        self.complete = complete
        self.truncation_degree = truncation_degree
        self.stats = stats or GBStats()
        self._reducers = None

    def __len__(self):
        return len(self.vectors)

    @property
    def reducers(self) -> ModuleReducers:
        if self._reducers is None:
            self._reducers = ModuleReducers(
                self.morder, (compile_vector(v, self.morder, i) for i, v in enumerate(self.vectors))
            )
        return self._reducers

    def reduce(self, vec):
        if vector_is_zero(vec) or not self.vectors:
            return tuple(vec)
        rem = module_normal_form(vector_terms(vec, self.morder), self.reducers, self.ring.field)
        return decompile_vector(self.ring, self.rank, rem, self.morder)

    def contains(self, vec) -> bool:
        if vector_is_zero(vec):
            return True
        if not self.complete:
            raise RuntimeError("module basis is partial; membership is undecidable")
        if self.truncation_degree is not None:
            if vector_degree(vec) > self.truncation_degree:
                raise RuntimeError(
                    f"module basis only valid through degree {self.truncation_degree}"
                )
        return vector_is_zero(self.reduce(vec))


def module_buchberger(
    vectors: Sequence,
    *,
    degree_bound: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> ModuleBasis:
    """Buchberger over a free module with the position-over-term order.

    Pairs exist only between vectors whose leads share a position; no pair
    criteria are applied (the scalar coprime shortcut is not valid for module
    leads).  degree_bound truncates by coefficient degree and requires every
    input vector to be coefficient-homogeneous.
    """
    vectors = [tuple(v) for v in vectors if not vector_is_zero(v)]
    if not vectors:
        raise ValueError("no nonzero vectors")
    rank = len(vectors[0])
    if any(len(v) != rank for v in vectors):
        raise ValueError("vectors of mixed rank")
    ring = next(p for p in vectors[0] if not p.is_zero()).ring
    morder = ModuleOrder(ring.order, rank)
    fld = ring.field
    if degree_bound is not None:
        for v in vectors:
            vector_degree(v)  # raises on inhomogeneous input
    budget = budget or Budget()
    stats = GBStats()
    start = time.monotonic()

    basis: list = []
    stored: list = []
    reducers = ModuleReducers(morder)
    heap: list = []
    serial = 0

    def monic_vec(vec, cv):
        if cv.lc == fld.one:
            return vec
        inv = cv.lc_inv
        return tuple(p.scale(inv) for p in vec)

    def add_vector(vec):
        nonlocal serial
        h = len(basis)
        cv = compile_vector(vec, morder, h)
        vec = monic_vec(vec, cv)
        if cv.lc != fld.one:
            cv = compile_vector(vec, morder, h)
        pos = morder.position(cv.lead_v)
        for g in basis:
            if morder.position(g.lead_v) != pos:
                continue
            l = mon_lcm(g.lead_exps, cv.lead_exps)
            deg = mon_degree(l)
            if degree_bound is not None and deg > degree_bound:
                stats.pairs_truncated += 1
                continue
            heappush(heap, (deg, serial, g.index, h, l))
            serial += 1
        basis.append(cv)
        stored.append(vec)
        reducers.add(cv)
        stats.elements_added += 1

    exhausted = None
    for v in vectors:
        add_vector(v)

    while heap:
        if budget.max_spairs is not None and stats.spairs_reduced >= budget.max_spairs:
            exhausted = f"S-pair budget ({budget.max_spairs}) exhausted"
            break
        if budget.max_seconds is not None and time.monotonic() - start > budget.max_seconds:
            exhausted = f"time budget ({budget.max_seconds}s) exhausted"
            break
        deg, _, i, j, l = heappop(heap)
        a, b = basis[i], basis[j]
        vlcm = morder.encode(morder.position(a.lead_v), ring.order.encode(l))
        terms = _spair_terms(a, b, l, vlcm, ring.order)
        stats.spairs_reduced += 1
        if deg > stats.max_degree_processed:
            stats.max_degree_processed = deg
        rem = module_normal_form(terms, reducers, fld)
        if rem:
            add_vector(decompile_vector(ring, rank, rem, morder))
        else:
            stats.zero_reductions += 1

    stats.seconds = time.monotonic() - start
    if exhausted is not None:
        if budget.on_exhaustion == "fail":
            raise BudgetExhausted(exhausted, stats)
        return ModuleBasis(ring, rank, stored, morder, complete=False, stats=stats)
    return ModuleBasis(
        ring,
        rank,
        stored,
        morder,
        complete=True,
        truncation_degree=degree_bound if stats.pairs_truncated > 0 else None,
        stats=stats,
    )


def module_membership(vec, generators: Sequence, *, budget: Optional[Budget] = None) -> bool:
    """Is vec in the submodule generated by `generators`?

    With coefficient-homogeneous input the basis is truncated at vec's degree.
    """
    vec = tuple(vec)
    if vector_is_zero(vec):
        return True
    generators = [tuple(g) for g in generators if not vector_is_zero(g)]
    if not generators:
        return False
    try:
        bound = vector_degree(vec)
        for g in generators:
            vector_degree(g)
    except ValueError:
        bound = None  # inhomogeneous input: no safe truncation
    mgb = module_buchberger(generators, degree_bound=bound, budget=budget)
    return vector_is_zero(mgb.reduce(vec))


def syzygy_membership(
    t: Union[SyzygyTuple, Sequence],
    gens: Sequence,
    budget: Optional[Budget] = None,
) -> bool:
    """Module membership of one syzygy among others (any common rank)."""
    target = tuple(t.entries) if isinstance(t, SyzygyTuple) else tuple(t)
    vectors = [tuple(g.entries) if isinstance(g, SyzygyTuple) else tuple(g) for g in gens]
    if any(len(v) != len(target) for v in vectors):
        raise ValueError("generators and target have mixed ranks")
    return module_membership(target, vectors, budget=budget)


# -- first syzygies of the minimal generators ---------------------------------


def _koszul_vectors(gens: Sequence[Polynomial]):
    """f_i e_j - f_j e_i over an arbitrary generator list."""
    m = len(gens)
    zero = gens[0].ring.zero
    out = []
    for i, j in combinations(range(m), 2):
        vec = [zero] * m
        vec[j] = gens[i]
        vec[i] = -gens[j]
        out.append(tuple(vec))
    return out


def _tracked_pair_syzygies(gens: Sequence[Polynomial], lcm_bound: int, budget: Budget):
    """Run Buchberger keeping, for every basis element, its expression over
    the original generators; collect one syzygy vector per processed pair.

    Coprime-lead pairs contribute their Koszul relation directly (that is
    exactly what full reduction of their S-polynomial yields); every other
    pair is reduced with the standard division steps recorded.  Processing
    all pairs with lcm degree <= lcm_bound yields generators for every
    syzygy of the original (homogeneous) generators through that degree.
    """
    ring = gens[0].ring
    order = ring.order
    fld = ring.field
    m = len(gens)
    if any(not g.is_homogeneous() for g in gens):
        raise ValueError("syzygy tracking needs homogeneous generators")
    stats = GBStats()
    start = time.monotonic()

    basis: list = []
    polys: list = []
    reps: list = []
    reducers = DegreeBucketReducers(order)
    heap: list = []
    serial = 0

    def unit_vec(i):
        return tuple(ring.one if k == i else ring.zero for k in range(m))

    def add_element(p: Polynomial, rep):
        nonlocal serial
        h = len(basis)
        lc = p.lc()
        if lc != fld.one:
            inv = fld.inv(lc)
            p = p.scale(inv)
            rep = tuple(r.scale(inv) for r in rep)
        cp = compile_poly(p, h)
        for g in basis:
            l = mon_lcm(g.lead_exps, cp.lead_exps)
            deg = mon_degree(l)
            if deg > lcm_bound:
                stats.pairs_truncated += 1
                continue
            heappush(heap, (deg, serial, g.index, h))
            serial += 1
        basis.append(cp)
        polys.append(p)
        reps.append(rep)
        reducers.add(cp)
        stats.elements_added += 1

    for i, g in enumerate(gens):
        if g.is_zero():
            raise ValueError("zero generator")
        add_element(g, unit_vec(i))

    syzygies = []
    exhausted = None
    unit = order.unit_v
    while heap:
        if budget.max_spairs is not None and stats.spairs_reduced >= budget.max_spairs:
            exhausted = f"S-pair budget ({budget.max_spairs}) exhausted"
            break
        if budget.max_seconds is not None and time.monotonic() - start > budget.max_seconds:
            exhausted = f"time budget ({budget.max_seconds}s) exhausted"
            break
        deg, _, i, j = heappop(heap)
        a, b = basis[i], basis[j]
        if (a.mask & b.mask) == 0:
            # coprime leads: the pair's syzygy is the Koszul relation
            syz = vector_sub(vector_scale(reps[i], polys[j]), vector_scale(reps[j], polys[i]))
            syzygies.append(syz)
            stats.pairs_pruned += 1
            continue
        l = mon_lcm(a.lead_exps, b.lead_exps)
        vlcm = order.encode(l)
        terms = _spair_terms(a, b, l, vlcm, order)
        record: list = []
        stats.spairs_reduced += 1
        if deg > stats.max_degree_processed:
            stats.max_degree_processed = deg
        rem = normal_form(terms, reducers, fld, record)
        da = vlcm - a.lead_v
        db = vlcm - b.lead_v
        mult_a = decompile(ring, [(da + unit, fld.one)])
        mult_b = decompile(ring, [(db + unit, fld.one)])
        expr = vector_sub(vector_scale(reps[i], mult_a), vector_scale(reps[j], mult_b))
        for idx, delta, cf in record:
            mon = decompile(ring, [(delta + unit, cf)])
            expr = vector_sub(expr, vector_scale(reps[idx], mon))
        if rem:
            add_element(decompile(ring, rem), expr)
        else:
            stats.zero_reductions += 1
            if not vector_is_zero(expr):
                syzygies.append(expr)
    stats.seconds = time.monotonic() - start
    partial = exhausted is not None
    if partial and budget.on_exhaustion == "fail":
        raise BudgetExhausted(exhausted, stats)
    return syzygies, partial, stats


@dataclass
class FirstSyzygies:
    """Minimal first-syzygy data for the minimal generators."""

    rank: int
    degree_bound: int
    counts: dict          # coefficient degree -> number of minimal generators
    generators: list      # the kept minimal generating vectors (rank-length tuples)
    sources: list         # parallel to generators: 'koszul' or 'pair'
    module_basis: Optional[ModuleBasis]
    partial: bool         # True when a budget cut makes counts lower bounds
    stats: GBStats


def first_syzygies(
    system: CommutatorSystem,
    degree_bound: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> FirstSyzygies:
    """Generating set and graded minimal-generator counts of the first-syzygy
    module of the n^2 - 1 minimal commutator generators.

    Counts are per coefficient degree (a 'linear' syzygy has degree 1).  The
    default bound is n: one degree past the conjectured maximum, n - 1.
    """
    n = system.n
    bound = n if degree_bound is None else degree_bound
    budget = budget or Budget()
    gens = system.minimal_gens
    if not gens:
        return FirstSyzygies(
            rank=0,
            degree_bound=bound,
            counts={},
            generators=[],
            sources=[],
            module_basis=None,
            partial=False,
            stats=GBStats(),
        )
    m = len(gens)
    pair_syzygies, partial, stats = _tracked_pair_syzygies(gens, bound + 2, budget)

    # Components of a syzygy vector are the cofactors, so the vector's own
    # homogeneous degree is the coefficient degree used for grading/counting.
    candidates = [(2, 0, k, v, "koszul") for k, v in enumerate(_koszul_vectors(gens))]
    for k, v in enumerate(pair_syzygies):
        if vector_is_zero(v):
            continue
        d = vector_degree(v)
        if d <= bound:
            candidates.append((d, 1, k, v, "pair"))
    candidates.sort(key=lambda t: t[:3])

    kept: list = []
    sources: list = []
    counts: Counter = Counter()
    mgb = None
    state = None
    for d, _, _, vec, src in candidates:
        if kept:
            if state != (len(kept), d):
                mgb = module_buchberger(kept, degree_bound=d, budget=budget)
                state = (len(kept), d)
            if not mgb.complete:
                partial = True
                continue  # conservative: treat as dependent, keep counts lower bounds
            if vector_is_zero(mgb.reduce(vec)):
                continue
        kept.append(vec)
        sources.append(src)
        counts[d] += 1
    module_basis = (
        module_buchberger(kept, degree_bound=bound, budget=budget) if kept else None
    )
    return FirstSyzygies(
        rank=m,
        degree_bound=bound,
        counts=dict(sorted(counts.items())),
        generators=kept,
        sources=sources,
        module_basis=module_basis,
        partial=partial,
        stats=stats,
    )
