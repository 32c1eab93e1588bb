"""The Buchberger engines, with a pair budget, degree truncation and ideal operations.

Two pair loops share one reducer store, `DegreeBucketReducers`, which
answers find(V) on the packed key, and one normal-form kernel.

`SignatureLoop` computes every basis: each `buchberger` basis (those of
the commutator ideals and the `groebner` and `hilbert` subcommands), the
module bases of `syzygy.module_buchberger` and the rank-2 module run of a
meet.  Its constructor is the one input check of every caller: it takes
homogeneous input from one ring only and raises ValueError on anything
else; everything the paper computes is homogeneous.  It is the one loop
that tracks representations: with tracked generators it also records the
relations among them modulo the ideal, which give the quotient
J : (f_1, ..., f_m) of a colon ideal (the fs of one degree tracked as one
module vector, on whose every position the polynomial elements act) and
the first syzygies of the commutator generators (every generator tracked).
It is the GVW signature loop: each element carries the signature of one
representation over the generators, pairs are processed in ascending
signature, each one is reduced by regular top reduction only, and the F5,
syzygy and cover criteria drop the pairs whose reduction would add
nothing, most of which reduce to zero without signatures.

`Engine`, the Gebauer-Moeller loop, has one job: minimal-generator
selection (`select`, for `verify.minimal_new_generators` and the first
syzygies), which it did two to five times faster than a signature-loop
prototype at n=3.  Its pair update, `_gm_update`, is one chain pass over
a new element's pairs that reads leads alone; `_settled` runs it with no
`Engine`.  Ideals and free-module vectors alike run as packed term lists.
Pairs are processed in increasing lcm total degree with FIFO tie-breaking,
so the loop works degree by degree: `run(d)` completes the basis through
degree d, and `select` decides minimal generators against it (a candidate
of degree d is minimal iff its normal form against the degree-d basis is
nonzero).

A budget is one nonnegative int, the most pairs one `SignatureLoop` run
may reduce: the J-pairs that pass the criteria and are reduced, each
generator's own entry included, since a generator is top-reduced on entry
too; for a colon ideal, those of its one tracked loop, and for the first
syzygies, those of the tracked loop.  Pairs the criteria drop are not
counted.  A selection takes no budget: its candidates come from a capped
loop or a complete colon, and its degree bound is its top candidate's
degree.  The loop pops pairs in degree order, so a run that the budget cuts
while its next pair has degree d is complete through degree d - 1 (the
truncated basis of homogeneous input): a cut is a truncation, and a
finished run is either complete or truncated at a degree.

Callers: `buchberger` returns the reduced Groebner basis (minimal leads,
tails in normal form, monic, sorted), which is unique for a given ideal and
monomial order.  `intersect_ideals` takes the meet of two ideals from one
signature loop over rank-2 vectors.  A colon ideal takes its quotient from
one signature loop with its fs, which have one degree, tracked as one
vector.  Each finishes its basis once, from monic compiled elements:
`_minimal` sorts them by lead and keeps the minimal ones, and `interreduce`
takes them in ascending lead order, reduces each tail against the elements
already reduced and files the reduced element, compiled once, in the store
the `GroebnerBasis` answers from.  No basis compiles or sorts anything else.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappush, heappop
from typing import Optional, Sequence

from .polyring import (
    _EXP_BITS,
    _EXP_CAP,
    CompiledPoly,
    DegreeBucketReducers,
    ModuleOrder,
    PolyRing,
    Polynomial,
    compile_terms,
    normal_form,
    sum_of_products,
    vector_terms,
)


class IncompleteBasisError(RuntimeError):
    """Raised when an operation needs a basis beyond the degree it is truncated at."""


def require(basis, degree: Optional[int] = None, *, refusal: str):
    """The one rule for what a truncated basis may answer.

    `basis` is anything with `complete` and `truncation_degree`: a finished
    pair loop, a `GroebnerBasis`, a `ModuleBasis` or a `syzygy.FirstSyzygies`.
    A complete basis answers everything.  A basis truncated at d, by a degree
    bound or a budget cut, answers a question of degree <= d; `degree` None
    asks about the whole ideal (a Hilbert series, a meet) and is refused.
    A refusal raises IncompleteBasisError with `refusal` formatted with d.
    """
    if not basis.complete and (degree is None or degree > basis.truncation_degree):
        raise IncompleteBasisError(refusal.format(d=basis.truncation_degree))


@dataclass
class GBStats:
    """One run's work counts; both loops fill the same fields (see each)."""

    spairs_reduced: int = 0
    zero_reductions: int = 0
    pairs_pruned: int = 0
    pairs_truncated: int = 0
    elements_added: int = 0
    max_degree_processed: int = 0
    seconds: float = 0.0


class GroebnerBasis:
    """A complete or truncated reduced Groebner basis, as `interreduce`
    finishes it: its polynomials in lead order and the reducer store it
    filled with them, which answers `reduce` and `contains`.

    truncation_degree=None: the full reduced basis (`complete`).  Otherwise
    truncation_degree=d: its elements are those of the reduced basis of
    degree <= d, whether a degree bound or a budget cut truncated it.  The
    degree is the finished loop's, as `buchberger` settles it, and `require`
    decides which questions the basis answers.
    """

    def __init__(
        self,
        ring: PolyRing,
        elements: Sequence[Polynomial],
        reducers: DegreeBucketReducers,
        *,
        truncation_degree: Optional[int] = None,
        stats: Optional[GBStats] = None,
    ):
        self.ring = ring
        self.elements = tuple(elements)
        self.reducers = reducers
        self.truncation_degree = truncation_degree
        self.stats = stats or GBStats()

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def complete(self) -> bool:
        return self.truncation_degree is None

    def reduce(self, f: Polynomial) -> Polynomial:
        """Normal form of f against this basis (no completeness requirement),
        built from the remainder, which is already in descending order."""
        self.ring.check(f)
        if f.is_zero() or not self.elements:
            return f
        return Polynomial(f.ring, tuple(normal_form(f.terms, self.reducers, self.ring.field)))

    def contains(self, f: Polynomial) -> bool:
        """Ideal membership.  Needs a complete basis, or a truncated one that
        covers deg(f), and f from a ring of the basis's signature."""
        self.ring.check(f)
        if f.is_zero():
            return True
        require(self, f.degree(), refusal="basis is only valid through degree {d}")
        return self.reduce(f).is_zero()

    def __repr__(self):
        kind = "complete" if self.complete else f"truncated@{self.truncation_degree}"
        return f"GroebnerBasis({len(self.elements)} elements, {kind})"


class _PairLoop:
    """What both pair loops share: the monic packed elements and their one
    `DegreeBucketReducers`, the degree bound, the work counts and the flags
    of a finished run.  The degree bound is at most 255, the cap: a pair
    past it is dropped and counted as truncated, as any pair past a bound
    is.  `exhausted` holds the reason once the signature loop's budget has
    cut the run.  What a finished run can answer is stated once, by
    `complete` and `truncation_degree`: a run is complete, or truncated at
    a degree."""

    def __init__(self, ring: PolyRing, degree_bound):
        self.ring = ring
        self.reducers = DegreeBucketReducers(ring.order)
        # the cap rule (`polyring`): no pair past total degree 255
        self.degree_bound = _EXP_CAP if degree_bound is None else min(degree_bound, _EXP_CAP)
        self.stats = GBStats()
        self.start = time.monotonic()
        self.basis: list[CompiledPoly] = []  # the monic elements, lead and tail
        self.heap: list = []  # the queued pairs, each with a unique serial
        self.serial = 0
        self.exhausted = None

    @property
    def complete(self) -> bool:
        """Neither cut by the budget nor truncated at the degree bound."""
        return self.exhausted is None and not self.stats.pairs_truncated

    @property
    def truncation_degree(self) -> Optional[int]:
        """None for a complete run; after a cut, one below the degree of the
        first queued pair, and at most the degree bound once pairs past it
        were dropped (a generator's entry is queued whatever the bound);
        otherwise the degree bound."""
        if self.complete:
            return None
        if self.exhausted is None:
            return self.degree_bound
        d = self.heap[0][0] - 1
        return min(d, self.degree_bound) if self.stats.pairs_truncated else d

    def _spoly(self, a, b, v: int):
        """The S-polynomial of monic a and b, whose lcm has key v (with a's
        position bits), as unsorted terms, and the key offsets da, db of its
        two multiples."""
        da, db = v - a.lead_v, v - b.lead_v
        terms = [(vt + da, ct) for vt, ct in a.tail]
        terms.extend((vt + db, -ct) for vt, ct in b.tail)
        return terms, da, db

    def _monic(self, terms, rep=None):
        """Terms, and the representation rep when given, divided by the lead coefficient."""
        fld = self.ring.field
        lc = terms[0][1]
        if lc != fld.one:
            inv = fld.inv(lc)
            terms = [(v, fld.mul(c, inv)) for v, c in terms]
            if rep is not None:
                rep = [(v, fld.mul(c, inv)) for v, c in rep]
        return terms, rep


def _gm_update(order, group, cp) -> list:
    """The Gebauer-Moeller update for the new lead of `cp` among those of
    `group`, which share its position: the pairs (g, cp) it keeps, as
    (g.index, packed lcm).  It reads leads only, packed in the scalar
    `order`: l2 divides l iff (l ^ l2 ^ (l - l2)) & borrow is 0.

    One chain pass in (lcm, coprime first, index) order keeps a pair only if
    no lcm kept before it divides its own: a divisor of a packed lcm is
    never a larger int, and among equal lcms the first stays.  A pair of
    polynomial leads (no position bits) with disjoint supports is coprime:
    it counts as kept for that test but is not returned.
    """
    lcm, borrow = order.lcm, order.low << _EXP_BITS
    h, poly = cp.packed, not cp.lead_v >> order.total_bits
    cand = sorted(
        (lcm(g.packed, h), not poly or bool(g.support & cp.support), g.index) for g in group
    )
    kept, queued = [], []
    for l, shared, gi in cand:
        if all((l ^ l2 ^ (l - l2)) & borrow for l2 in kept):
            kept.append(l)
            if shared:
                queued.append((gi, l))
    return queued


class Engine(_PairLoop):
    """The Gebauer-Moeller pair loop over monic packed elements, for
    minimal-generator selection (`select`).

    The elements enter one `DegreeBucketReducers`; a module vector's keys
    carry position bits above the scalar order's (`ModuleOrder`), a
    polynomial's carry none.  An element pairs only with the elements whose
    leads share its position (`groups`), and runs the Gebauer-Moeller
    update among them (`_criteria_pairs`), which only queues and reads the
    leads' packed exponents, so the loop decodes no key.  Pairs of lcm
    degree past `degree_bound`, at most 255, are dropped and counted as
    truncated.  `add` refuses an element with a term above its lead's
    degree, so no S-polynomial or reduction step passes the degree of its
    pair or of the term it reduces: the cap rule (`polyring`) holds.  The
    library enters homogeneous elements only.  It takes no budget: a
    selection's candidates come from a capped loop or a complete colon, and
    its degree bound is its top candidate's degree, so `run(d)` completes
    the basis through degree d whenever d is within the bound.
    """

    def __init__(self, ring: PolyRing, *, degree_bound=None):
        super().__init__(ring, degree_bound)
        self.groups: dict = {}  # lead position bits -> the elements whose leads sit there

    def add(self, terms):
        """Enter a nonzero element (descending packed terms), made monic."""
        terms, _ = self._monic(terms)
        cp = compile_terms(terms, self.ring, len(self.basis))
        degree = self.ring.order.degree
        if any(degree(v) > cp.lead_deg for v, _ in cp.tail):
            raise ValueError("the engine takes no element with a term above its lead's degree")
        group = self.groups.setdefault(cp.lead_v >> self.ring.order.total_bits, [])
        self._criteria_pairs(cp, group)
        group.append(cp)
        self.basis.append(cp)
        self.reducers.add(cp)
        self.stats.elements_added += 1

    def _push(self, i, j, lcm):
        v = self.ring.order.key(lcm)
        deg = self.ring.order.degree(v)
        if deg > self.degree_bound:
            self.stats.pairs_truncated += 1
            return
        heappush(self.heap, (deg, self.serial, i, j, v))
        self.serial += 1

    def _criteria_pairs(self, cp: CompiledPoly, group: list):
        """Queue the pairs `_gm_update` keeps in descending index; count the rest as pruned."""
        queued = _gm_update(self.ring.order, group, cp)
        self.stats.pairs_pruned += len(group) - len(queued)
        for gi, l in sorted(queued, reverse=True):
            self._push(gi, cp.index, l)

    def run(self, through: Optional[int] = None) -> None:
        """Process the waiting pairs of lcm degree <= through (all of them
        when None)."""
        heap, basis, stats = self.heap, self.basis, self.stats
        fld, bits = self.ring.field, self.ring.order.total_bits
        while heap and (through is None or heap[0][0] <= through):
            deg, _, i, j, v = heappop(heap)
            a, b = basis[i], basis[j]
            terms, _, _ = self._spoly(a, b, (a.lead_v >> bits << bits) | v)
            stats.spairs_reduced += 1
            if deg > stats.max_degree_processed:
                stats.max_degree_processed = deg
            rem = normal_form(terms, self.reducers, fld)
            if rem:
                self.add(rem)
            else:
                stats.zero_reductions += 1
        stats.seconds = time.monotonic() - self.start

    def select(self, candidates) -> list:
        """Indices of the minimal generators among `candidates`, homogeneous
        (degree, terms) pairs in nondecreasing degree, beyond what the engine
        holds.

        Each candidate is decided against the basis completed through its
        degree: it is kept iff its normal form is nonzero, and that normal
        form enters the basis.  A candidate past the degree bound is decided
        against the basis truncated at the bound, so a caller that needs its
        degree asks `require` of the engine.
        """
        kept = []
        for k, (d, terms) in enumerate(candidates):
            self.run(d)
            rem = normal_form(terms, self.reducers, self.ring.field)
            if rem:
                kept.append(k)
                self.add(rem)
        return kept


class SignatureLoop(_PairLoop):
    """The signature loop (GVW: Gao, Volny & Wang, Math. Comp. 85, 2016) for
    homogeneous polynomials and module vectors.

    Each element h carries a signature t*e_i, the leading module monomial of
    one representation h = sum(c_k * f_k) over the generators.  Its key is
    i above the scalar key of t (the position bits of a module key), and
    signatures compare as (total degree, key): by degree, which is the
    element's own, then generator index, then t.  The generators take their
    indices from a canonical sort, on degree and then their monic terms, so
    no count depends on the input order.

    The queue holds J-pairs in ascending (degree, signature, lcm): generator
    i with signature e_i, and for a pair (g, h) with lcm L the larger of the
    multiplied signatures (L / lead g) sig(g) and (L / lead h) sig(h) with
    their S-polynomial.  A pair whose two are equal is dropped, and so is
    every pair past `degree_bound`, at most 255, counted as truncated.  Of
    equal signatures, which pop in sequence, only the first is examined.  A
    J-pair of signature t*e_i is dropped, and counted as pruned, when
      - F5: the lead of an element of smaller index divides t, so t*e_i is
        the signature of a principal syzygy (checked when queued, and again
        when popped);
      - syzygy: the signature of an earlier zero reduction divides it;
      - cover: an element whose signature divides it, multiplied into it,
        has a lead below L.
    A survivor counts as one reduced pair, and the budget, a nonnegative
    int or None, caps those: before each pair the loop stops once it has
    reduced `budget` of them, and `exhausted` says so.  A survivor is
    reduced by regular top reduction (`normal_form` with a signature): zero
    records its signature as a syzygy's, anything else enters the basis,
    made monic, with the J-pair's signature.  A multiplied
    signature has at most its pair's degree, so it keeps the cap rule
    (`polyring`).  Pairs pop in ascending degree, so a cut run is truncated
    one degree below its next pair (`truncation_degree`); it need not hold
    the generators it had not reached.

    With `tracked` generators f_0, ..., f_(m-1) the loop also records
    relations among them modulo the ideal of `gens` (GVW; the G2V step of
    Gao, Guan & Volny, ISSAC 2010, is m = 1).  They take the indices after
    those of `gens`, in their own canonical sort.  Each element of a
    tracked index carries its coefficients u over them, as packed module
    terms at position k for f_k (`ModuleOrder` of rank m; `reps`, None at
    an untracked index): e_k / lc(f_k) for f_k's entry, x^da u_a - x^db u_b
    for a J-pair, less c x^delta u_r for each top-reduction step by an
    element r with coefficients.  A zero reduction at a tracked index
    records its u in `relations`, and u . (f_0, ..., f_(m-1)) lies in the
    ideal (for vectors, in ideal*S^m).  With no `gens`, the relations and
    the Koszul relations generate the syzygies of the f_k through the
    degree bound.

    A generator, tracked or not, may also be a module vector F, a tuple of
    polynomials of one degree keyed in `ModuleOrder(order, len(F))`; the
    tracked ones are all polynomials or all vectors, and every vector of a
    run has one rank.  Polynomial elements act on every position: they
    reduce vector terms and pair with a vector at its position, and two
    vectors pair only at a shared one.  A multiplied signature adds only
    its multiplier's scalar offset.  The F5 check at F's index holds, as
    g*F lies in ideal*S^m for g in the ideal; among vector elements it
    finds no reducer, as two vectors have no principal syzygy.  With one
    tracked f or F the relations and the elements of untracked index form a
    Groebner basis of (ideal : F) (`quotient_generators`), complete through
    degree D - deg F under a degree bound D.

    The constructor checks every caller's input: each generator and tracked
    vector nonzero and homogeneous, one vector rank, and every nonzero
    polynomial or component from `ring` or a ring of its signature (another
    ring's keys name other monomials), and a budget nonnegative; anything
    else raises ValueError.
    """

    def __init__(
        self,
        ring: PolyRing,
        gens: Sequence[Polynomial],
        *,
        degree_bound=None,
        budget: Optional[int] = None,
        tracked: Sequence = (),
    ):
        super().__init__(ring, degree_bound)
        if budget is not None and budget < 0:
            raise ValueError("the S-pair budget must be nonnegative")
        self.budget = budget
        order, fld = ring.order, ring.field
        for f in (*gens, *tracked):
            for p in f if isinstance(f, tuple) else (f,):
                if p.terms:
                    ring.check(p, "generators")
        inputs = [
            vector_terms(f, ModuleOrder(order, len(f))) if isinstance(f, tuple) else list(f.terms)
            for f in (*gens, *tracked)
        ]
        homogeneous = all(t and len({order.degree(v) for v, _ in t}) == 1 for t in inputs)
        ranks = {len(f) if isinstance(f, tuple) else 0 for f in tracked}
        ranks |= {len(f) for f in gens if isinstance(f, tuple)}
        if not homogeneous or len(ranks) > 1:
            raise ValueError("the signature loop needs nonzero homogeneous input, one vector rank")
        self.bits = order.total_bits
        self.sigs: list = []  # per element, its signature key
        self.reps: list = []  # per element, its coefficients of the tracked generators or None
        self.relations: list = []  # coefficients recorded at the zero reductions
        self.morder = ModuleOrder(order, len(tracked)) if tracked else None
        self.untracked = first = len(gens)  # the first tracked index
        # per index: degree, monic terms and the entry's coefficients, e_k / lc(f_k)
        self.gens = []
        for _, deg, monic, k, lc in sorted(
            (k >= first, order.degree(t[0][0]), self._monic(t)[0], k, t[0][1])
            for k, t in enumerate(inputs)
        ):
            u = None if k < first else [(self.morder.encode(k - first, order.unit_v), fld.inv(lc))]
            self.gens.append((deg, monic, u))
        self.covers = [[] for _ in self.gens]  # per index: (packed t, signature, lead) of its elements
        self.syz = [[] for _ in self.gens]  # per index: packed t of the zero reductions
        for i, (deg, terms, _) in enumerate(self.gens):
            self._queue(deg, i << self.bits | order.unit_v, terms[0][0], -1, i)

    def _queue(self, deg, sig, v, i, j):
        heappush(self.heap, (deg, sig, v, self.serial, i, j))
        self.serial += 1

    def _rewritable(self, sig, v=None) -> bool:
        """The F5 and syzygy criteria, and given its lead key v the cover
        criterion, for a J-pair of signature key sig; u divides the packed
        e iff (e ^ u ^ (e - u)) & borrow is 0."""
        order, bits = self.ring.order, self.bits
        index, e = sig >> bits, order.packed(sig)
        borrow = order.low << _EXP_BITS
        for u in self.syz[index]:
            if not (e ^ u ^ (e - u)) & borrow:
                return True
        if v is not None:
            for u, s, lead in self.covers[index]:
                if not (e ^ u ^ (e - u)) & borrow and lead + sig - s < v:
                    return True
        t = sig & ((1 << bits) - 1)
        return self.reducers.find(t, (index << bits, self.sigs)) is not None

    def _add(self, terms, sig, rep=None) -> None:
        """Enter a reduced nonzero element of signature key sig, made monic
        with its tracked coefficients `rep` when it has them, and queue its
        J-pairs with every element before it."""
        terms, rep = self._monic(terms, rep)
        self.reps.append(rep)
        order, bits, sigs, stats = self.ring.order, self.bits, self.sigs, self.stats
        cp = compile_terms(terms, self.ring, len(self.basis))
        lcm, key, degree, bound = order.lcm, order.key, order.degree, self.degree_bound
        h, absent, scalar = cp.packed, order.low ^ cp.support, (1 << bits) - 1
        pos, lead = cp.lead_v >> bits, cp.lead_v & scalar  # 0 for a polynomial; the scalar key
        # a variable of lead g absent from lead h adds at least 1 to the lcm
        slack = bound - cp.lead_deg
        for g in self.basis:
            if pos and g.lead_v >> bits not in (0, pos):
                continue  # two vectors pair only at one lead position
            if (g.support & absent).bit_count() > slack:
                stats.pairs_truncated += 1
                continue
            l = lcm(g.packed, h)
            v = key(l)
            deg = degree(v)
            if deg > bound:
                stats.pairs_truncated += 1
                continue
            sg, sh = sigs[g.index] + v - (g.lead_v & scalar), sig + v - lead  # scalar offsets
            if sg == sh:
                stats.pairs_pruned += 1
                continue
            top, i, j = (sg, g.index, cp.index) if sg > sh else (sh, cp.index, g.index)
            if self._rewritable(top):
                stats.pairs_pruned += 1
                continue
            # a polynomial pairs with a vector at the vector's position
            self._queue(deg, top, v | (pos or g.lead_v >> bits) << bits, i, j)
        self.basis.append(cp)
        self.reducers.add(cp)
        sigs.append(sig)
        self.covers[sig >> bits].append((order.packed(sig), sig, cp.lead_v))
        stats.elements_added += 1

    def run(self) -> None:
        """Process every J-pair, until the budget cuts the run."""
        heap, basis, stats = self.heap, self.basis, self.stats
        order, fld, bits = self.ring.order, self.ring.field, self.bits
        first = self.untracked << bits  # the least tracked signature key
        budget = float("inf") if self.budget is None else self.budget
        last = None
        while heap:
            if stats.spairs_reduced >= budget:
                self.exhausted = f"S-pair budget ({budget}) exhausted"
                break
            deg, sig, v, _, i, j = heappop(heap)
            seen, last = sig == last, sig
            if seen or self._rewritable(sig, v):
                stats.pairs_pruned += 1
                continue
            if i < 0:
                terms, da, db = self.gens[j][1], 0, 0
            else:
                terms, da, db = self._spoly(basis[i], basis[j], v)
            stats.spairs_reduced += 1
            if deg > stats.max_degree_processed:
                stats.max_degree_processed = deg
            record = [] if sig >= first else None
            rem = normal_form(terms, self.reducers, fld, record, signature=(sig, self.sigs))
            rep = None if record is None else self._coefficient(i, j, da, db, record)
            if rem:
                self._add(rem, sig, rep)
            else:
                stats.zero_reductions += 1
                self.syz[sig >> bits].append(order.packed(sig))
                if rep is not None:
                    self.relations.append(rep)
        stats.seconds = time.monotonic() - self.start

    def _coefficient(self, i, j, da, db, record) -> list:
        """The tracked coefficients of a reduced J-pair of tracked index:
        the entry's own for a generator (i < 0, then j is its index), else
        x^da reps[i] - x^db reps[j], less each recorded step's multiple of
        an element that has coefficients, as descending packed module terms
        from the product kernel `sum_of_products`."""
        unit, one, reps = self.ring.order.unit_v, self.ring.field.one, self.reps
        if i < 0:
            parts = [(self.gens[j][2], ((unit, one),), 1)]
        else:
            parts = [(reps[i], ((da + unit, one),), 1), (reps[j], ((db + unit, one),), -1)]
        parts += [(reps[idx], ((delta + unit, cf),), -1) for idx, delta, cf in record]
        return sum_of_products([pt for pt in parts if pt[0] is not None], unit, self.ring.field.p)

    def quotient_generators(self) -> list:
        """Position 0 of the relations, made monic and compiled, and the
        compiled elements of untracked index: with one tracked f or vector
        F, a Groebner basis of (ideal : F) once the run is complete.  With
        one tracked generator the relations are rank-1 module terms, so
        masking off their position bits keeps the terms in order."""
        scalar, first = (1 << self.bits) - 1, self.untracked << self.bits
        out = [
            compile_terms(self._monic([(v & scalar, c) for v, c in u])[0], self.ring)
            for u in self.relations
        ]
        out += [g for g, sig in zip(self.basis, self.sigs) if sig < first]
        return out


def buchberger(
    gens: Sequence[Polynomial],
    *,
    budget: Optional[int] = None,
    degree_bound: Optional[int] = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by homogeneous `gens`,
    from one signature loop, which refuses inhomogeneous or mixed-ring input.

    degree_bound: process only pairs of lcm total degree <= bound, and
    return a basis flagged as truncated (correct through that degree)
    unless no pair was dropped, or the Gebauer-Moeller update over the
    minimal leads keeps none past the bound (`_settled`).  So whether a run
    that dropped pairs is complete is read off the leads of the reduced
    basis alone, whatever the order of `gens`.  A budget cut truncates the
    basis one degree below the next pair; it is never settled, since
    generators of that degree or above may not have entered.  A truncated
    basis holds only its elements through the truncation degree: the loop's
    elements above it, generators above a bound among them, are dropped
    once `_settled` has read their leads, before `interreduce`, whose output
    they cannot change: a kept tail term has its element's degree.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    loop = SignatureLoop(ring, gens, degree_bound=degree_bound, budget=budget)
    loop.run()
    stats, cut, truncation_degree = loop.stats, loop.exhausted, loop.truncation_degree
    elements = loop.basis
    del loop  # its reducer store, signatures and queue
    start, order = time.monotonic(), ring.order
    # the elements whose leads are not minimal are freed before
    # `interreduce` builds the reduced basis, which bounds peak memory
    elements = _minimal(elements, order)
    if truncation_degree is not None and not cut and _settled(elements, truncation_degree, order):
        truncation_degree = None
    if truncation_degree is not None:  # only once settled: the elements above decide it
        elements = [g for g in elements if g.lead_deg <= truncation_degree]
    basis = interreduce(ring, elements, truncation_degree=truncation_degree, stats=stats)
    stats.seconds += time.monotonic() - start
    return basis


def _settled(elements, bound: int, order) -> bool:
    """Whether the Gebauer-Moeller update (`_gm_update`) over the leads of
    the minimal compiled `elements`, sorted, of a run truncated at `bound`
    keeps no pair past the bound.  Every pair it keeps within the bound
    reduces to zero, since the basis is complete through the bound, so the
    basis is then complete."""
    return not any(
        order.degree(order.key(l)) > bound
        for k, cp in enumerate(elements) for _, l in _gm_update(order, elements[:k], cp)
    )


def interreduce(ring: PolyRing, elements, *, truncation_degree=None, stats=None) -> GroebnerBasis:
    """The monic compiled `elements`, sorted by lead and minimal as
    `_minimal` returns them, each with its tail in normal form, as a
    `GroebnerBasis` with the given truncation degree and stats: the reduced
    basis, when they are the minimal elements of a Groebner basis.

    The elements are taken in ascending lead order, and each tail is reduced
    against the elements already reduced, which one store holds: a tail term
    lies below its lead, and a lead that divides it is no larger than it, so
    every element that could reduce it comes earlier and is already filed.
    A reduction step adds only terms below the one it removes, so the
    remainder follows the lead in descending order; the reduced element is
    compiled once and filed in the store the basis answers from.
    """
    reducers, fld, polys = DegreeBucketReducers(ring.order), ring.field, []
    for g in elements:
        terms = ((g.lead_v, g.lc), *normal_form(g.tail, reducers, fld))
        reducers.add(compile_terms(terms, ring))
        polys.append(Polynomial(ring, terms))
    return GroebnerBasis(ring, polys, reducers, truncation_degree=truncation_degree, stats=stats)


def _minimal(elements, order) -> list:
    """The compiled `elements`, sorted by lead, whose lead no kept lead
    divides (of equal leads the first stays): the leads of the reduced
    basis, when `elements` is a basis.  Applied to a list that is not a
    Groebner basis it may lose part of the ideal: a member whose lead
    another lead divides is dropped with its tail, which the others need
    not generate."""
    borrow = order.low << _EXP_BITS
    kept, leads = [], []
    for g in sorted(elements, key=lambda g: g.lead_v):
        e = g.packed
        if all((e ^ a ^ (e - a)) & borrow for a in leads):
            kept.append(g)
            leads.append(e)
    return kept


# -- intersection / quotient ---------------------------------------------------


def intersect_ideals(
    gens_a: Sequence[Polynomial],
    gens_b: Sequence[Polynomial],
    *,
    budget: Optional[int] = None,
) -> list:
    """Reduced Groebner basis of (A intersect B) in the ring's order, from
    one signature loop over the rank-2 vectors (a, a), a in A, and (b, 0),
    b in B, in position-over-term order.  c lies in both ideals exactly when
    (0, c) is a combination of them, so the second components of the basis
    elements whose leads sit at position 1 form a Groebner basis of the
    meet.  The loop raises ValueError on inhomogeneous input, and a budget
    cut or a pair past total degree 255 (the cap) raises
    IncompleteBasisError."""
    if not gens_a or not gens_b:
        raise ValueError("both ideals need at least one generator")
    ring = gens_a[0].ring
    vectors = [(f, f) for f in gens_a if f] + [(g, ring.zero) for g in gens_b if g]
    loop = SignatureLoop(ring, vectors, budget=budget)
    loop.run()
    require(loop, refusal=f"intersection needs a complete module basis ({_cut_at(loop)})")
    morder, scalar = ModuleOrder(ring.order, 2), (1 << ring.order.total_bits) - 1
    # position 1 is the last, so an element led there has every term there
    meet = [
        compile_terms([(v & scalar, c) for v, c in ((g.lead_v, g.lc), *g.tail)], ring)
        for g in loop.basis
        if morder.decode(g.lead_v)[0] == 1
    ]
    return list(interreduce(ring, _minimal(meet, ring.order)))


def _cut_at(loop) -> str:
    """Why a finished loop is incomplete, as a refusal that `require` formats:
    the budget's reason, or the degree that pairs past the cap truncate it at."""
    return loop.exhausted or "pairs past the cap; truncated at {d}"


def colon_ideal(
    gens: Sequence[Polynomial],
    fs: Sequence[Polynomial],
    *,
    budget: Optional[int] = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of (ideal : (f_1, ..., f_m)) for homogeneous
    input and fs of one degree, complete, with the work counts of its one
    signature loop.

    The fs are tracked as one module vector F in one signature loop over
    `gens` (`SignatureLoop`): c lies in (ideal : F) exactly when c*F lies in
    ideal*S^m, and the loop's relations with its elements of untracked
    index form a Groebner basis of that quotient.  A module position carries
    no degree shift, so F must be homogeneous: the loop raises ValueError on
    fs of two degrees, as on any inhomogeneous input or input from another
    ring, and a budget cut or a pair past total degree 255 (the cap) raises
    IncompleteBasisError.  The result is the reduced Groebner basis in the
    ring's own order, which is unique.
    """
    gens = [g for g in gens if not g.is_zero()]
    fs = [f for f in fs if not f.is_zero()]
    if not fs:
        raise ValueError("quotient by the zero ideal is undefined here")
    if not gens:
        raise ValueError("the ideal needs at least one nonzero generator")
    ring = gens[0].ring
    loop = SignatureLoop(ring, gens, budget=budget, tracked=[tuple(fs)])
    loop.run()
    require(loop, refusal=f"quotient needs a complete signature loop ({_cut_at(loop)})")
    elements = _minimal(loop.quotient_generators(), ring.order)
    return interreduce(ring, elements, stats=loop.stats)
