"""Brute-force cross-checks used by the test suite.

Everything here is deliberately naive — explicit monomial enumeration,
sparse Gaussian elimination over a prime field, raw subset enumeration —
so that it shares no code path with the library engines it checks.  The one
exception is `interreduce_against_others`, which reuses the library's
division kernel on purpose: it checks how `groebner.interreduce` organizes
its reductions, not the kernel itself.
"""

from itertools import combinations, combinations_with_replacement

from commsyz.groebner import DegreeBucketReducers
from commsyz.polyring import compile_poly, decompile, mon_divides, normal_form


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
            for mon, c in g.terms:
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


def naive_products(pairs, field) -> dict:
    """sum(a * b) over the pairs as {exponent tuple: coeff}, zeros dropped.

    Term by term on exponent tuples with the field's own operations; nothing
    is encoded, so exponents past the packed cap pass through unchecked.
    """
    acc = {}
    for a, b in pairs:
        for ma, ca in a.terms:
            for mb, cb in b.terms:
                mon = tuple(x + y for x, y in zip(ma, mb))
                acc[mon] = field.add(acc.get(mon, field.zero), field.mul(ca, cb))
    return {mon: c for mon, c in acc.items() if not field.is_zero(c)}


def rotations_brute(w: str) -> set:
    return {w[k:] + w[:k] for k in range(max(len(w), 1))}


def interreduce_against_others(polys) -> list:
    """Reference interreduction: each kept element is reduced against a
    reducer set compiled afresh from the k-1 others (quadratic compiles)."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    ring = polys[0].ring
    order = ring.order
    enc = order.encode
    polys = sorted(polys, key=lambda p: enc(p.lm()))
    kept = []
    for p in polys:
        lm = p.lm()
        if any(mon_divides(q.lm(), lm) for q in kept):
            continue
        kept.append(p)
    out = []
    for k, p in enumerate(kept):
        others = kept[:k] + kept[k + 1:]
        if not others:
            out.append(p.monic())
            continue
        reducers = DegreeBucketReducers(
            compile_poly(q, order, i) for i, q in enumerate(others)
        )
        rem = normal_form(
            [(enc(m), c) for m, c in p.terms], reducers, order, ring.field
        )
        q = decompile(ring, rem, order)
        if not q.is_zero():
            out.append(q.monic())
    out.sort(key=lambda p: enc(p.lm()))
    return out
