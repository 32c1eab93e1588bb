"""Brute-force cross-checks used by the test suite.

Everything here is deliberately naive — explicit monomial enumeration,
sparse Gaussian elimination over a prime field, raw subset enumeration —
so that it shares no code path with the library engines it checks.  The
division oracle works on exponent tuples with sort keys written out from the
orders' definitions; it reads only an order's name, never its packed keys.
`first_divisor` is the reducer choice it makes at each step, on its own: the
reference for a reducer store's `find`.  Polynomials are read and built only
through the edge API (`Polynomial.exponent_terms`, `PolyRing.poly`), so
nothing here depends on how a ring lays out its keys.

The one exception is `restart_selection`, the reference for the engine's
minimal-generator selection: it is the older algorithm, which builds a fresh
truncated basis with the library for every (kept, degree) state, and the
selection it is compared with decides everything within one engine run.
`colon_by_meets` is likewise the older colon: it computes every element
quotient by a meet with a principal ideal and exact division
(`colon_by_element`) and meets them all, the reference for a colon whose
quotient comes from the signature loop.  Its meets are `engine_meet`, the
meet by one Gebauer-Moeller `Engine` run over rank-2 vectors, so no step
of it runs the signature loop it checks.  `criteria_pairs` is the
engine's pair-criteria step as it was written on exponent tuples, the
reference for the packed one, and `module_basis_all_pairs` is a module
Groebner basis over every same-position pair with no criteria at all, the
reference for the criteria in module runs.  `engine_run` drives the
Gebauer-Moeller `Engine` over polynomials, as `buchberger` did for
homogeneous input before the signature loop, and `engine_basis` is the
reduced basis it gives: the reference route for the signature loop.
`engine_module` is one such run over vectors with its module basis, and
`engine_meet` is the meet it gives, as `intersect_ideals` computed it
before the signature loop took module runs.  `settled_by_engine` is
`buchberger`'s completeness test as it ran on a fresh `Engine` over the
reduced basis: the reference for `groebner._settled`, which reads leads
alone.
`near_cap_binomials` is input data for both near the 8-bit cap, in three
variables of n=2 (`spread`), and `n2_ring` builds the n=2 rings the tests
run under grevlex, lex and a block elimination order.  `divide` and
`exact_div` are multivariate division by the library's `normal_form`, the
division `colon_by_element` and `det_bareiss` take their exact quotients
with; `det_bareiss` is fraction-free elimination and `det_cofactor` a
first-row expansion with ring arithmetic alone, the two references for
`genmat.det`.  `candidate_matrix` builds the diagonal-column matrix a
`conjecture.knutson_candidates` label tuple names, by powers of the
generic matrices, since the predictor itself builds none.
`trace_residual_by_matrix` is tr(A(XY-YX)) of a word expression by the
direct route, the full matrix A = `eval_expr` and one `dot` of its
entries with the f_k: the reference for `trace_residuals`, which never
forms A.  `evaluate` and `hilbert_function` are the
point evaluation and the Hilbert function of a numerator, which only tests
ask for.  `finished` is the library's finish (`_minimal`, then
`interreduce`) over compiled elements, the one way a test builds a
`GroebnerBasis` of its own; `reduced` is that finish over polynomials,
which it makes monic (`monic`) and compiles, and `as_polynomials` wraps
compiled elements as polynomials: the finish itself takes compiled
elements only.
"""

import random
from itertools import combinations, combinations_with_replacement
from math import comb

from commsyz.fields import GF
from commsyz.genmat import GenericMatrix, diagonal_entries, matrix_from_columns
from commsyz.groebner import Engine, _minimal, interreduce
from commsyz.polyring import (
    BlockElimination,
    DegreeBucketReducers,
    ModuleOrder,
    PolyRing,
    Polynomial,
    compile_poly,
    decompile,
    decompile_vector,
    normal_form,
    vector_terms,
)
from commsyz.syzygy import ModuleBasis, eval_expr, tuple_from_matrix


def monomials_of_degree(nvars: int, degree: int) -> list:
    """All exponent tuples of the given total degree, as tuples of ints."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def rank_mod_p(rows, p: int) -> int:
    """Rank of a sparse integer matrix over GF(p).

    Rows are {column_key: coeff} dicts; column keys need only be hashable
    and mutually comparable.
    """
    pivots = {}
    rank = 0
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            col = max(row)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: (v * inv) % p for c, v in row.items()}
                rank += 1
                break
            factor = row[col]
            merged = {}
            for c in set(row) | set(piv):
                v = (row.get(c, 0) - factor * piv.get(c, 0)) % p
                if v:
                    merged[c] = v
            row = merged
    return rank


def ideal_component_dim(gens, degree: int, p: int) -> int:
    """dim of the degree-`degree` graded piece of the ideal the gens generate.

    Builds every monomial multiple of every generator landing in that degree
    and row-reduces.  Generators must be homogeneous with int coefficients
    (a prime-field ring).
    """
    rows = []
    for g in gens:
        shift = degree - g.degree()
        if shift < 0:
            continue
        for m in monomials_of_degree(g.ring.nvars, shift):
            row = {}
            for mon, c in g.exponent_terms():
                key = tuple(a + b for a, b in zip(m, mon))
                row[key] = row.get(key, 0) + c
            rows.append(row)
    return rank_mod_p(rows, p)


def syzygy_space_dim(gens, coeff_degree: int, p: int) -> int:
    """dim of the space of degree-`coeff_degree` syzygy vectors of the gens.

    Kernel dimension of (a_1..a_r) -> sum a_i g_i restricted to coefficient
    vectors of the given degree, computed as domain dim minus image rank.
    """
    if not gens:
        return 0
    nvars = gens[0].ring.nvars
    degs = {g.degree() for g in gens}
    assert len(degs) == 1, "oracle wants equigenerated input"
    domain = len(gens) * len(monomials_of_degree(nvars, coeff_degree))
    target = coeff_degree + degs.pop()
    return domain - ideal_component_dim(gens, target, p)


def count_monomials_outside(leads, nvars: int, degree: int) -> int:
    """Number of degree-`degree` monomials divisible by no lead exponent."""
    leads = [tuple(g) for g in leads]
    count = 0
    for mon in monomials_of_degree(nvars, degree):
        if not any(all(e >= f for e, f in zip(mon, lead)) for lead in leads):
            count += 1
    return count


def hilbert_function(numerator, nvars: int, degree: int) -> int:
    """Dimension of the degree-`degree` component of a quotient whose
    Hilbert series is numerator / (1-t)^nvars."""
    terms = enumerate(numerator[: degree + 1])
    return sum(c * comb(nvars - 1 + degree - k, nvars - 1) for k, c in terms)


def evaluate(f, point):
    """f at `point`, one field element per ring variable, by repeated
    multiplication over its exponent tuples."""
    fld = f.ring.field
    total = fld.coerce(0)
    for mon, c in f.exponent_terms():
        for e, x in zip(mon, point):
            for _ in range(e):
                c = fld.mul(c, x)
        total = fld.add(total, c)
    return total


def selection_bidegrees_brute(n: int, cutoff=None) -> dict:
    """Raw subset enumeration behind the row-profile recurrence.

    Selections are n distinct cells (i, j) with i + j <= n - 1 that include
    (0, 0), capped at total degree `cutoff` (default n(n-1)/2, the largest
    degree the predictions concern); returns {total degree: set of
    componentwise bidegree sums}.
    """
    if cutoff is None:
        cutoff = n * (n - 1) // 2
    cells = [
        (i, j)
        for i in range(n)
        for j in range(n - i)
        if (i, j) != (0, 0)
    ]
    out: dict = {}
    for combo in combinations(cells, n - 1):
        dx = sum(i for i, _ in combo)
        dy = sum(j for _, j in combo)
        if dx + dy <= cutoff:
            out.setdefault(dx + dy, set()).add((dx, dy))
    return dict(sorted(out.items()))


# -- monomials as exponent tuples ----------------------------------------------


def mon_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mon_divides(a, b):
    """True if monomial a divides b."""
    return all(x <= y for x, y in zip(a, b))


def mon_div(a, b):
    """Exponent tuple of a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mon_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mon_degree(a):
    return sum(a)


def first_divisor(leads, query):
    """Index of the reducer a store's find(query) must return, or None.

    leads: the reducers' leads in insertion order and query, each a
    (position, exps) pair (a polynomial sits at position 0).  Among the leads
    at the query's position that divide it, the one of least total degree
    wins, and on a tie the one inserted first.
    """
    pos, exps = query
    hits = [(sum(e), i) for i, (p, e) in enumerate(leads) if p == pos and mon_divides(e, exps)]
    return min(hits)[1] if hits else None


def naive_combine(terms, field) -> dict:
    """{exponent tuple: coeff} from (exponent tuple, coeff) pairs, equal
    monomials merged with the field's addition and zeros dropped."""
    acc = {}
    for mon, c in terms:
        mon = tuple(mon)
        acc[mon] = field.add(acc.get(mon, field.coerce(0)), field.coerce(c))
    return {mon: c for mon, c in acc.items() if not field.is_zero(c)}


def largest_product_exponent(pairs) -> int:
    """Largest single exponent over every term product a_i * b_j of the pairs,
    cancelled or not; 0 when there is no product."""
    return max(
        (x + y for a, b in pairs for ma, _ in a.exponent_terms() for mb, _ in b.exponent_terms()
         for x, y in zip(ma, mb)),
        default=0,
    )


def naive_products(pairs, field) -> dict:
    """sum(a * b) over the pairs as {exponent tuple: coeff}, zeros dropped.

    Term by term on exponent tuples with the field's own operations; nothing
    is encoded, so exponents past the packed cap pass through unchecked.
    """
    acc = {}
    for a, b in pairs:
        for ma, ca in a.exponent_terms():
            for mb, cb in b.exponent_terms():
                mon = tuple(x + y for x, y in zip(ma, mb))
                acc[mon] = field.add(acc.get(mon, field.coerce(0)), field.mul(ca, cb))
    return {mon: c for mon, c in acc.items() if not field.is_zero(c)}


def rotations_brute(w: str) -> set:
    return {w[k:] + w[:k] for k in range(max(len(w), 1))}


def _grevlex_key(exps):
    # higher degree wins; on a tie the smaller last differing exponent wins
    return (sum(exps), tuple(-e for e in reversed(exps)))


def order_key(order):
    """Sort key on exponent tuples that ranks monomials as `order` does."""
    if order.name == "grevlex":
        return _grevlex_key
    if order.name == "lex":
        return tuple
    if order.name == "elim":
        k = order.front
        return lambda exps: (_grevlex_key(exps[:k]), _grevlex_key(exps[k:]))
    raise ValueError(f"no reference key for order {order.name!r}")


def naive_division(f: dict, divisors: list, key, field, cap=None):
    """Full reduction of f by the divisors, term by term on exponent tuples.

    f and every divisor are {(position, exps): coeff} dicts; a polynomial
    sits at position 0.  Position over term: a smaller position is larger,
    and `key` ranks exponent tuples within one position.  The largest
    remaining term is reduced by the first divisor, by lead degree and then
    listed position, whose lead sits at its position and divides it; a term
    no lead divides moves to the remainder.  Returns (remainder, quotients)
    with quotients[i] = {exps: coeff}, so f = sum q_i g_i + remainder.  With
    a `cap`, a step whose multiple q * g has an exponent past it raises
    OverflowError.
    """
    term_key = lambda t: (-t[0], key(t[1]))
    leads = [max(g, key=term_key) for g in divisors]
    search = sorted(range(len(divisors)), key=lambda i: sum(leads[i][1]))
    work = {t: c for t, c in f.items() if not field.is_zero(c)}
    rem = {}
    quotients = [{} for _ in divisors]
    while work:
        t = max(work, key=term_key)
        c = work.pop(t)
        pos, exps = t
        for i in search:
            lpos, lexps = leads[i]
            if lpos == pos and all(a <= b for a, b in zip(lexps, exps)):
                break
        else:
            rem[t] = c
            continue
        g = divisors[i]
        q = tuple(b - a for a, b in zip(lexps, exps))
        if cap is not None and any(a + b > cap for _, ge in g for a, b in zip(q, ge)):
            raise OverflowError(f"step exponent past {cap}")
        cf = field.mul(c, field.inv(g[leads[i]]))
        quotients[i][q] = field.add(quotients[i].get(q, field.coerce(0)), cf)
        for (gpos, gexps), gc in g.items():
            if (gpos, gexps) == leads[i]:
                continue
            m = (gpos, tuple(a + b for a, b in zip(gexps, q)))
            v = field.add(work.get(m, field.coerce(0)), field.neg(field.mul(cf, gc)))
            if field.is_zero(v):
                work.pop(m, None)
            else:
                work[m] = v
    return rem, quotients


def monic(f):
    """f divided by its lead coefficient."""
    return f.scale(f.ring.field.inv(f.terms[0][1]))


def finished(ring, elements):
    """The library's finish over monic compiled elements: `_minimal`, then
    `interreduce`, whose `GroebnerBasis` this returns."""
    return interreduce(ring, _minimal(elements, ring.order))


def reduced(polys):
    """`finished` over the nonzero polys, each made monic and compiled."""
    polys = [p for p in polys if p]
    return finished(polys[0].ring, [compile_poly(monic(p)) for p in polys])


def as_polynomials(ring, elements) -> list:
    """Compiled elements as polynomials, term for term."""
    return [Polynomial(ring, ((g.lead_v, g.lc), *g.tail)) for g in elements]


def interreduce_against_others(polys) -> list:
    """Reference interreduction: drop every element whose lead another kept
    lead divides, then reduce each kept element against the others alone."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    ring = polys[0].ring
    fld = ring.field
    key = order_key(ring.order)
    lead = lambda p: max((mon for mon, _ in p.exponent_terms()), key=key)
    as_terms = lambda p: {(0, mon): c for mon, c in p.exponent_terms()}
    polys = sorted(polys, key=lambda p: key(lead(p)))
    kept = []
    for p in polys:
        lm = lead(p)
        if any(all(a <= b for a, b in zip(lead(q), lm)) for q in kept):
            continue
        kept.append(p)
    out = []
    for k, p in enumerate(kept):
        others = [as_terms(q) for q in kept[:k] + kept[k + 1:]]
        rem, _ = naive_division(as_terms(p), others, key, fld)
        if rem:
            inv = fld.inv(rem[max(rem, key=lambda t: key(t[1]))])
            out.append(ring.poly([(e, fld.mul(c, inv)) for (_, e), c in rem.items()]))
    out.sort(key=lambda p: key(lead(p)))
    return out


def verify_basis(basis, gens=None):
    """Brute-force check on exponent tuples: every S-polynomial of two basis
    elements (no criteria applied) and every given generator leaves no
    remainder under naive division by the basis.  Returns (ok, failures)."""
    ring = basis.ring
    fld = ring.field
    key = order_key(ring.order)
    as_terms = lambda p: {(0, mon): c for mon, c in p.exponent_terms()}
    elems = [as_terms(g) for g in basis.elements]
    leads = [max(g, key=lambda t: key(t[1])) for g in elems]

    def multiple(g, lead, lcm):
        q = tuple(a - b for a, b in zip(lcm, lead[1]))
        inv = fld.inv(g[lead])
        return {(0, tuple(a + b for a, b in zip(e, q))): fld.mul(c, inv) for (_, e), c in g.items()}

    failures = []
    for a, b in combinations(range(len(elems)), 2):
        lcm = tuple(max(x, y) for x, y in zip(leads[a][1], leads[b][1]))
        s = multiple(elems[a], leads[a], lcm)
        for t, c in multiple(elems[b], leads[b], lcm).items():
            s[t] = fld.add(s.get(t, fld.coerce(0)), fld.neg(c))
        s = {t: c for t, c in s.items() if not fld.is_zero(c)}
        if naive_division(s, elems, key, fld)[0]:
            failures.append(f"S-pair ({a},{b}) does not reduce to zero")
    for k, g in enumerate(gens or ()):
        if naive_division(as_terms(g), elems, key, fld)[0]:
            failures.append(f"generator {k} is not in the basis ideal")
    return (not failures, failures)


def restart_selection(base, candidates, basis_at, degree, is_zero) -> list:
    """Reference minimal-generator selection by restarts.

    Walks the candidates in the given (nondecreasing degree) order and keeps
    one iff it does not reduce to zero against `basis_at(base + kept, d)`, a
    fresh basis truncated at its degree d, built once per (number kept, d)
    state; with nothing to reduce against, the candidate is kept.
    """
    kept, basis, state = [], None, None
    for g in candidates:
        d = degree(g)
        if base or kept:
            if state != (len(kept), d):
                basis, state = basis_at(base + kept, d), (len(kept), d)
            if is_zero(basis.reduce(g)):
                continue
        kept.append(g)
    return kept


def colon_by_element(gens, f) -> list:
    """Generators of (ideal : f) = (1/f) * (ideal intersect (f)), by a meet
    with the principal ideal (f) and exact division."""
    if f.is_zero():
        raise ValueError("cannot form a quotient by the zero element")
    return [exact_div(g, f) for g in engine_meet(gens, [f])]


def colon_by_meets(gens, fs) -> list:
    """Reference (ideal : (f_1, ..., f_m)): the interreduced meet of every
    element quotient, each one a meet with a principal ideal."""
    result = colon_by_element(gens, fs[0])
    for f in fs[1:]:
        result = engine_meet(result, colon_by_element(gens, f))
    return list(reduced(result))


def criteria_pairs(leads: list, degree_bound=None):
    """Reference for `Engine._criteria_pairs`, on exponent tuples.

    leads: the lead of every basis element by index, the new element last.
    Filters the new pairs by the chain, equal-lcm and coprime criteria.
    Returns (the pairs offered to the queue in order as (i, j, lcm), pruned
    count, truncated count); an offered pair past `degree_bound` is
    truncated, not queued.
    """
    h = len(leads) - 1
    lmh = leads[h]
    pruned = truncated = 0
    cand = [
        (g, mon_lcm(leads[g], lmh), not any(x and y for x, y in zip(leads[g], lmh)))
        for g in range(h)
    ]
    kept = []
    while cand:
        gi, l, coprime = cand.pop()
        if not coprime:
            shadowed = any(mon_divides(l2, l) for _, l2, _ in cand) or any(
                mon_divides(l2, l) for _, l2, _ in kept
            )
            if shadowed:
                pruned += 1
                continue
        kept.append((gi, l, coprime))
    offered = []
    for gi, l, coprime in kept:
        if coprime:
            pruned += 1
            continue
        offered.append((gi, h, l))
        if degree_bound is not None and mon_degree(l) > degree_bound:
            truncated += 1
    return offered, pruned, truncated


def n2_ring(field, order, front=1):
    """PolyRing(2, field) under `order`, where "elim" stands for two grevlex
    blocks with the first `front` variables (x_1_1, ...) in front."""
    return PolyRing(2, field, BlockElimination(8, front) if order == "elim" else order)


#: positions of x_1_1, x_1_2 and y_1_1 among the 8 variables of n=2: in this
#: order under lex, and x_1_1 alone in front of an "elim" n2_ring
THREE = (0, 1, 4)


def spread(exps) -> tuple:
    """An exponent triple as the exponents of x_1_1, x_1_2, y_1_1 at n=2."""
    out = [0] * 8
    for i, e in zip(THREE, exps):
        out[i] = e
    return tuple(out)


def near_cap_binomials(order, seed):
    """Homogeneous binomials of degree 383 in three variables (`spread`)
    whose exponents lie near 0, 128 and 255: products and reductions among
    them pass the 8-bit cap in some variable, which `check_product` must
    catch."""
    rng = random.Random(seed)
    ring = n2_ring(GF(101), order)
    near = [0, 1, 2, 126, 127, 128, 129, 253, 254, 255]
    monomials = set()
    while len(monomials) < 12:
        a, b = rng.choice(near), rng.choice(near)
        if 0 <= 383 - a - b <= 255:
            monomials.add((a, b, 383 - a - b))
    monomials = sorted(monomials)
    rng.shuffle(monomials)
    return [
        ring.poly({spread(monomials[k]): 1, spread(monomials[k + 1]): rng.randint(1, 100)})
        for k in range(0, len(monomials), 2)
    ]


def module_basis_all_pairs(vectors, key, field) -> list:
    """Reference module Groebner basis in position-over-term order, on
    exponent tuples: Buchberger over every pair of elements whose leads
    share a position, with no criteria, each S-vector reduced by
    `naive_division`.  vectors: {(position, exps): coeff} dicts, as
    `naive_division` takes them; so are the elements returned."""
    term_key = lambda t: (-t[0], key(t[1]))
    basis = [dict(v) for v in vectors if v]
    leads = [max(g, key=term_key) for g in basis]

    def multiple(k, lcm):
        pos, lead = leads[k]
        q = tuple(a - b for a, b in zip(lcm, lead))
        inv = field.inv(basis[k][leads[k]])
        return {(p, mon_mul(e, q)): field.mul(c, inv) for (p, e), c in basis[k].items()}

    pairs = list(combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop()
        if leads[i][0] != leads[j][0]:
            continue
        lcm = mon_lcm(leads[i][1], leads[j][1])
        s = multiple(i, lcm)
        for t, c in multiple(j, lcm).items():
            s[t] = field.add(s.get(t, field.coerce(0)), field.neg(c))
        s = {t: c for t, c in s.items() if not field.is_zero(c)}
        rem, _ = naive_division(s, basis, key, field)
        if rem:
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(rem)
            leads.append(max(rem, key=term_key))
    return basis


def engine_run(gens, bound=None) -> Engine:
    """A finished Gebauer-Moeller `Engine` run over the polynomials gens."""
    engine = Engine(gens[0].ring, degree_bound=bound)
    for g in gens:
        engine.add(g.terms)
    engine.run()
    return engine


def engine_basis(gens, bound=None):
    """The reduced basis of an `engine_run`, as `buchberger` returns it."""
    return finished(gens[0].ring, engine_run(gens, bound).basis)


def settled_by_engine(polys, bound) -> bool:
    """Whether an `Engine` truncated at `bound`, entered with the reduced
    basis `polys` in lead order, queues no pair past the bound: its
    Gebauer-Moeller update only, with no pair reduced."""
    engine = Engine(polys[0].ring, degree_bound=bound)
    for g in polys:
        engine.add(g.terms)
        if engine.stats.pairs_truncated:
            return False
    return True


def engine_module(vectors, bound=None):
    """A finished `Engine` run over nonzero vectors of one rank, in
    position-over-term order, and its `ModuleBasis`."""
    ring = next(p for p in vectors[0] if p).ring
    morder = ModuleOrder(ring.order, len(vectors[0]))
    engine = Engine(ring, degree_bound=bound)
    for vec in vectors:
        engine.add(vector_terms(vec, morder))
    engine.run()
    return engine, ModuleBasis(engine, morder)


def engine_meet(gens_a, gens_b) -> list:
    """Reduced basis of (A intersect B) from one `engine_module` run over
    the vectors (a, a) and (b, 0): the interreduced second components of
    its elements whose leads sit at position 1.  Any input is taken."""
    ring = gens_a[0].ring
    vectors = [(f, f) for f in gens_a if f] + [(g, ring.zero) for g in gens_b if g]
    engine, basis = engine_module(vectors)
    return list(reduced([
        decompile_vector(ring, 2, ((g.lead_v, g.lc), *g.tail), basis.morder)[1]
        for g in engine.basis
        if basis.morder.decode(g.lead_v)[0] == 1
    ]))


def divide(f, divisors):
    """Multivariate division: f = sum(q_i * g_i) + r.

    Deterministic given the ring's order and the divisors: at each step the
    first divisor, by lead degree and then listed position, whose lead
    divides the current lead is used.  No monomial of r is divisible by any
    divisor lead.  The library's `normal_form`, with its quotients rebuilt
    from the recorded steps.
    """
    ring = f.ring
    gs = list(divisors)
    if any(g.is_zero() for g in gs):
        raise ValueError("zero divisor in division")
    reducers = DegreeBucketReducers(ring.order, (compile_poly(g, i) for i, g in enumerate(gs)))
    record = []
    r = decompile(ring, normal_form(f.terms, reducers, ring.field, record))
    # each step reduces a smaller term, so no quotient key repeats
    unit = ring.order.unit_v
    qacc = [[] for _ in gs]
    for idx, delta, cf in record:
        qacc[idx].append((delta + unit, cf))
    return [decompile(ring, q) for q in qacc], r


def exact_div(f, g):
    """Quotient f / g, raising if the division is not exact."""
    qs, r = divide(f, [g])
    if not r.is_zero():
        raise ValueError("division is not exact")
    return qs[0]


def det_bareiss(m):
    """Determinant by fraction-free (Bareiss) elimination, whose divisions
    are exact by construction: the division route, against which
    `genmat.det`'s signed sum of products is compared."""
    ring = m.ring
    n = m.size
    if n == 0:
        return ring.one
    a = [list(row) for row in m.rows]
    sign = 1
    prev = ring.one
    for k in range(n - 1):
        if a[k][k].is_zero():
            for r in range(k + 1, n):
                if not a[r][k].is_zero():
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return ring.zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = ring.dot([(a[i][j], a[k][k]), (-a[i][k], a[k][j])])
                a[i][j] = exact_div(num, prev)
            a[i][k] = ring.zero
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return d if sign == 1 else -d


def det_cofactor(m):
    """Determinant by first-row expansion, memoized on the surviving column
    set: ring arithmetic alone, sharing no loop with `genmat.det`'s
    row-by-row expansion or with `det_bareiss`."""
    ring = m.ring
    n = m.size
    rows = m.rows
    memo: dict = {}

    def minor(cols: tuple):
        got = memo.get(cols)
        if got is not None:
            return got
        r = n - len(cols)
        if len(cols) == 1:
            val = rows[r][cols[0]]
        else:
            val = ring.zero
            for pos, c in enumerate(cols):
                entry = rows[r][c]
                if entry.is_zero():
                    continue
                term = entry * minor(cols[:pos] + cols[pos + 1:])
                val = val + term if pos % 2 == 0 else val - term
        memo[cols] = val
        return val

    return ring.one if n == 0 else minor(tuple(range(n)))


def candidate_matrix(system, labels):
    """The matrix whose columns are the diagonals of the matrices that
    `labels` name, each E, X, Y, X^a or Y^a."""
    columns = []
    for label in labels:
        letter, _, a = label.partition("^")
        power = GenericMatrix.identity(system.ring, system.n)
        for _ in range(0 if letter == "E" else int(a or 1)):
            power = power * (system.X if letter == "X" else system.Y)
        columns.append(diagonal_entries(power))
    return matrix_from_columns(system.ring, columns)


def trace_residual_by_matrix(expr, system):
    """tr(A(XY-YX)) of a word expression from its full matrix A."""
    entries = tuple_from_matrix(eval_expr(expr, system), system)
    return system.ring.dot(zip(entries, system.commutators))
