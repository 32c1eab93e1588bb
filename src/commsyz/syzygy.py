"""Trace-form syzygies of the commutator entries and the first-syzygy module.

A syzygy here is a plain tuple (a_1, ..., a_{n^2}) of polynomials with
sum a_k f_k = 0 over the commutator entries f_k, the same vectors every
module routine below takes.  Reading a matrix A row by row produces such a
tuple exactly when tr(A(XY-YX)) = 0, which links the word rules to honest
module elements.

The module half of the file holds the callers of the pair loops on
free-module vectors, keyed in the position-over-term order
(`polyring.ModuleOrder`, `vector_terms`): module bases and membership,
each from one signature loop over homogeneous vectors
(`groebner.SignatureLoop`), and the first-syzygy module of the minimal
generators.  Its generators come from one signature loop with every
generator tracked, whose zero reductions give the relations that, with the
Koszul relations, generate the module through the bound, and one
Gebauer-Moeller selection run (`groebner.Engine.select`) keeps a minimal
set of them degree by degree.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .genmat import CommutatorSystem, GenericMatrix
from .groebner import Budget, Engine, GBStats, SignatureLoop, require
from .polyring import (
    DegreeBucketReducers,
    ModuleOrder,
    PolyRing,
    Polynomial,
    decompile_vector,
    normal_form,
    vector_terms,
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


def tuple_from_matrix(a: GenericMatrix, system: CommutatorSystem) -> tuple:
    """Row-major flattening of A, so that sum a_k f_k = tr(A(XY-YX))."""
    n = system.n
    if a.size != n:
        raise ValueError(f"matrix size {a.size} does not match system size {n}")
    return tuple(a[i, j] for i in range(1, n + 1) for j in range(1, n + 1))


def trace_residual(source, system: CommutatorSystem) -> Polynomial:
    """tr(A(XY-YX)) = sum a_k f_k over the row-major entries of A; A may be a
    matrix or a word expression (`trace_residuals`)."""
    if isinstance(source, WordExpr):
        return trace_residuals([source], system)[0]
    return system.ring.dot(zip(tuple_from_matrix(source, system), system.commutators))


def trace_residuals(exprs: Sequence[WordExpr], system: CommutatorSystem) -> list:
    """[tr(A(XY-YX)) for the matrix A of each word expression], with no
    matrix of a full word's degree ever formed.

    A word W = W'l with last letter l has tr(W Z) = sum_ij W'_ij (lZ)_ji, so
    the letter moves onto Z: X Z and Y Z are formed once (negated once for a
    minus sign), the empty word takes +-Z, and a one-letter word pairs the
    identity with lZ.  Each proper prefix W' is formed once, from its parent
    prefix times a letter, and held only until the last expression that
    reads it or forms a child from it.  Each expression's residual is one
    `dot` over all its words; the sums are those of the matrix route,
    bracketed differently, so the polynomials are equal."""
    ring, Z, span = system.ring, system.Z, range(1, system.n + 1)
    letters = {"X": system.X, "Y": system.Y}
    last = {}  # prefix of length >= 2 -> index of the last expression that uses it
    for k, expr in enumerate(exprs):
        for w in expr.words:
            p = w[:-1]
            while len(p) > 1:
                new = p not in last
                last[p] = k
                if not new:
                    break
                p = p[:-1]  # read here to form its new child
    drop = {}
    for p, k in last.items():
        drop.setdefault(k, []).append(p)
    held = dict(letters)
    moved = {("", 1): Z}  # (last letter, sign) -> +-(lZ); the empty word's "" -> +-Z

    def onto_z(letter, sign):
        m = moved.get((letter, sign))
        if m is None:
            m = -onto_z(letter, 1) if sign < 0 else letters[letter] * Z
            moved[letter, sign] = m
        return m

    def prefix(p):
        m = held.get(p)
        if m is None:
            held[p] = m = prefix(p[:-1]) * letters[p[-1]]
        return m

    out = []
    for k, expr in enumerate(exprs):
        pairs = []
        for w, s in zip(expr.words, expr.signs):
            right = onto_z(w[-1:], s)
            if len(w) < 2:  # W' is the identity
                pairs.extend((ring.one, right[i, i]) for i in span)
            else:
                left = prefix(w[:-1])
                pairs.extend((left[i, j], right[j, i]) for i in span for j in span)
        out.append(ring.dot(pairs))
        for p in drop.get(k, ()):
            del held[p]
    return out


def is_trace_syzygy(source, system: CommutatorSystem) -> bool:
    """Test of tr(A(XY-YX)) = 0 in the system's ring: exact over QQ (the
    CLI and the verify suite batch theirs through `trace_residuals` on
    `DeskContext.system_qq`); over GF(p) it tests only modulo p."""
    return trace_residual(source, system).is_zero()


def restrict_to_minimal(entries: Sequence[Polynomial], system: CommutatorSystem) -> tuple:
    """Rewrite a syzygy over all n^2 entries as one over the n^2 - 1 minimal
    generators.

    The dropped entry is the last diagonal one, f_{n^2} = -(sum of the other
    diagonal entries); its coefficient folds into the other diagonals.
    """
    last = system.n ** 2  # 1-based position of the last diagonal entry
    a_last = entries[last - 1]
    diag = set(system.diagonal_indices)
    head = enumerate(entries[: last - 1], start=1)
    return tuple(a - a_last if k in diag else a for k, a in head)


# -- free-module vectors with a position-over-term order ----------------------


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


def module_normal_form(terms, reducers: DegreeBucketReducers, field):
    """Normal form of a compiled module term list; the scalar kernel does it."""
    return normal_form(terms, reducers, field)


class ModuleBasis:
    """A complete or truncated module Groebner basis: the elements of a
    finished pair loop, with its reducer store, flagged complete or
    truncated at a degree as a `GroebnerBasis` is.  A truncated basis holds
    only the loop's elements of lead degree through its truncation degree,
    as `buchberger` keeps them."""

    def __init__(self, loop, morder: ModuleOrder):
        self.ring = loop.ring
        self.rank = morder.rank
        self.morder = morder
        self.complete = loop.complete
        self.truncation_degree = d = loop.truncation_degree
        self.stats = loop.stats
        if d is None:
            self.size, self.reducers = len(loop.basis), loop.reducers
        else:
            kept = [g for g in loop.basis if g.lead_deg <= d]
            self.size, self.reducers = len(kept), DegreeBucketReducers(loop.ring.order, kept)

    def __len__(self):
        return self.size

    def _check(self, vec) -> None:
        """Refuse a vector of another rank or from a ring of another signature."""
        if len(vec) != self.rank:
            raise ValueError(f"vector of rank {len(vec)} in a module of rank {self.rank}")
        for p in vec:
            self.ring.check(p)

    def reduce(self, vec):
        self._check(vec)
        if vector_is_zero(vec) or not self.size:
            return tuple(vec)
        rem = module_normal_form(vector_terms(vec, self.morder), self.reducers, self.ring.field)
        return decompile_vector(self.ring, self.rank, rem, self.morder)

    def contains(self, vec) -> bool:
        self._check(vec)
        if vector_is_zero(vec):
            return True
        # only a truncated basis reads the degree; a mixed-degree vector has none
        degree = None if self.complete else vector_degree(vec)
        require(self, degree, refusal="module basis only valid through degree {d}")
        return vector_is_zero(self.reduce(vec))


def module_buchberger(
    vectors: Sequence,
    *,
    degree_bound: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> ModuleBasis:
    """Groebner basis of the submodule the vectors generate, in the
    position-over-term order, from one signature loop over them
    (`SignatureLoop`): two vectors pair only when their leads share a
    position.  Every vector must be homogeneous, its nonzero components of
    one degree and ring, and all of one rank; the loop raises ValueError.
    degree_bound truncates by that degree.
    """
    vectors = [tuple(v) for v in vectors if not vector_is_zero(v)]
    if not vectors:
        raise ValueError("no nonzero vectors")
    ring = next(p for p in vectors[0] if not p.is_zero()).ring
    loop = SignatureLoop(ring, vectors, degree_bound=degree_bound, budget=budget)
    loop.run()
    return ModuleBasis(loop, ModuleOrder(ring.order, len(vectors[0])))


def module_membership(vec, generators: Sequence, *, budget: Optional[Budget] = None) -> bool:
    """Is vec in the submodule generated by `generators`?

    The input must be homogeneous (ValueError otherwise), and the basis is
    truncated at vec's degree.  A budget cut that truncates it below that
    degree raises IncompleteBasisError instead of answering.
    """
    vec = tuple(vec)
    if vector_is_zero(vec):
        return True
    generators = [tuple(g) for g in generators if not vector_is_zero(g)]
    if not generators:
        return False
    basis = module_buchberger(generators, degree_bound=vector_degree(vec), budget=budget)
    return basis.contains(vec)


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


@dataclass
class FirstSyzygies:
    """Minimal first-syzygy data for the minimal generators, complete through
    `degree_bound` or, as a basis is, truncated at `truncation_degree`: the
    counts, generators and sources then hold only the degrees through it."""

    rank: int
    degree_bound: int
    counts: dict          # coefficient degree -> number of minimal generators
    generators: list      # the kept minimal generating vectors (rank-length tuples)
    sources: list         # parallel to generators: 'koszul' or 'pair'
    truncation_degree: Optional[int]  # None when complete through the bound
    stats: GBStats

    @property
    def complete(self) -> bool:
        return self.truncation_degree is None


def first_syzygies(
    system: CommutatorSystem,
    degree_bound: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> FirstSyzygies:
    """Generating set and graded minimal-generator counts of the first-syzygy
    module of the n^2 - 1 minimal commutator generators.

    Counts are per coefficient degree (a 'linear' syzygy has degree 1).  The
    default bound is n: one degree past the conjectured maximum, n - 1.

    The candidates are the Koszul relations and the relations of one
    signature loop with every generator tracked and no others
    (`SignatureLoop`): every J-pair of degree <= bound + 2 that passes its
    criteria is reduced, each zero reduction records a syzygy, and with the
    Koszul relations those generate every syzygy of the generators through
    the bound.  One module engine then selects the minimal ones, Koszul
    relations first within each degree; `stats` are the signature loop's.
    The budget caps each of the two runs.  A cut truncates the result at
    the lower of the two runs' degrees: the loop's truncation degree less
    2, as the generators are quadrics, and the selection's.  A result
    truncated at or past the bound is complete.
    """
    n = system.n
    bound = n if degree_bound is None else degree_bound
    gens = system.minimal_gens
    if not gens:
        return FirstSyzygies(rank=0, degree_bound=bound, counts={}, generators=[], sources=[],
                             truncation_degree=None, stats=GBStats())
    ring = gens[0].ring
    m = len(gens)
    loop = SignatureLoop(ring, [], degree_bound=bound + 2, budget=budget, tracked=gens)
    loop.run()
    morder = loop.morder  # the relations' keys, position k for gens[k]
    top = bound if loop.complete else min(bound, loop.truncation_degree - 2)

    # Components of a syzygy vector are the cofactors, so the vector's own
    # homogeneous degree is the coefficient degree used for grading/counting.
    koszul_vecs = _koszul_vectors(gens) if top >= 2 else []
    candidates = [(2, vector_terms(v, morder), "koszul") for v in koszul_vecs]
    for terms in loop.relations:
        d = ring.order.degree(terms[0][0])
        if d <= top:
            candidates.append((d, terms, "pair"))
    candidates.sort(key=lambda c: c[0])

    selection = Engine(ring, degree_bound=top, budget=budget)
    kept = [candidates[k] for k in selection.select([c[:2] for c in candidates])]
    if not selection.complete:  # every kept candidate lies at or below it
        top = min(top, selection.truncation_degree)
    return FirstSyzygies(
        rank=m,
        degree_bound=bound,
        counts=dict(sorted(Counter(d for d, _, _ in kept).items())),
        generators=[decompile_vector(ring, m, terms, morder) for _, terms, _ in kept],
        sources=[src for _, _, src in kept],
        truncation_degree=None if top >= bound else top,
        stats=loop.stats,
    )
