import gc
from collections import Counter

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commsyz import fixtures
from commsyz.fields import GF, QQ
from commsyz.genmat import GenericMatrix, build_system
from commsyz.groebner import Budget, IncompleteBasisError, SignatureLoop, buchberger
from commsyz.polyring import Grevlex, PolyRing
from commsyz.syzygy import (
    ModuleOrder,
    _koszul_vectors,
    decompile_vector,
    eval_expr,
    eval_word,
    first_syzygies,
    is_trace_syzygy,
    module_buchberger,
    module_membership,
    restrict_to_minimal,
    trace_residual,
    trace_residuals,
    tuple_from_matrix,
    vector_degree,
    vector_is_zero,
)
from commsyz.verify import WORD_DEGREE, DeskContext, check_trace_rules
from commsyz.words import WordExpr, binomial_expr, candidates

from oracles import (
    monomials_of_degree,
    n2_ring,
    naive_products,
    rank_mod_p,
    syzygy_space_dim,
    trace_residual_by_matrix,
)

P = 32003


def test_eval_word_and_expr():
    sys = build_system(2, QQ)
    assert eval_word("", sys) == GenericMatrix.identity(sys.ring, 2)
    assert eval_word("XY", sys) == sys.X * sys.Y
    assert eval_word("XYX", sys) == sys.X * sys.Y * sys.X
    e = binomial_expr("XY", "YX", "binomial-sum")
    assert eval_expr(e, sys) == sys.X * sys.Y + sys.Y * sys.X
    d = WordExpr(words=("XX", "YY"), signs=(1, -1))
    assert eval_expr(d, sys) == sys.X * sys.X - sys.Y * sys.Y


def test_tuple_matrix_roundtrip_and_residual():
    sys = build_system(2, GF(P))
    t = tuple_from_matrix(sys.X, sys)
    assert t == (sys.X[1, 1], sys.X[1, 2], sys.X[2, 1], sys.X[2, 2])
    # row-major flattening: a_k pairs with the column-major f_k so that
    # sum a_k f_k = tr(A (XY - YX))
    Z = sys.X * sys.Y - sys.Y * sys.X
    manual = sys.ring.zero
    for i in (1, 2):
        for j in (1, 2):
            manual = manual + sys.X[i, j] * Z[j, i]
    assert trace_residual(sys.X, sys) == manual
    assert is_trace_syzygy(sys.X, sys) == manual.is_zero()


def test_identity_matrix_is_a_syzygy_and_units_are_not():
    for n in (2, 3):
        sys = build_system(n, GF(P))
        E = GenericMatrix.identity(sys.ring, n)
        assert is_trace_syzygy(E, sys)
        unit = GenericMatrix.from_entries(
            sys.ring, n, lambda i, j: sys.ring.one if (i, j) == (1, 2) else sys.ring.zero
        )
        # tr(E_12 (XY-YX)) is the (2,1) commutator entry, i.e. f_2 column-major
        assert trace_residual(unit, sys) == sys.f(2)
        assert not is_trace_syzygy(unit, sys)


def test_word_candidates_are_syzygies_over_the_rationals():
    sys = build_system(2, QQ)
    for expr in candidates(4):
        assert is_trace_syzygy(expr, sys), str(expr)


# three non-syzygies, then the empty word, minus signs and a repeated expression
EXTRAS = [
    WordExpr(words=("XY",), signs=(1,)),
    WordExpr(words=("XXYY",), signs=(1,)),
    WordExpr(words=("XY", "YX"), signs=(1, -1)),
    WordExpr(words=("",), signs=(-1,)),
    WordExpr(words=("", "X", "XY"), signs=(1, -1, -1)),
    WordExpr(words=("YXY", "Y"), signs=(-1, -1)),
    WordExpr(words=("XY",), signs=(1,)),
]


@pytest.mark.parametrize("field", (QQ, GF(P)), ids=repr)
@pytest.mark.parametrize("n, degree", [(2, 5), (3, 5), (4, 4)])
def test_trace_residuals_equal_the_matrix_route(n, degree, field):
    """The batch residuals are the polynomials of the direct route, zero or not."""
    sys = build_system(n, field)
    exprs = candidates(degree)
    got = trace_residuals(exprs + EXTRAS, sys)
    assert got == [trace_residual_by_matrix(e, sys) for e in exprs + EXTRAS]
    rules, extras = got[: len(exprs)], got[len(exprs) :]
    assert all(r.is_zero() for r in rules)
    assert not any(r.is_zero() for r in extras[:3])
    assert extras[3].is_zero() and extras[-1] == extras[0]  # tr(-Z) = 0
    assert [trace_residual(e, sys) for e in EXTRAS] == extras


def test_trace_rules_form_each_prefix_once_below_the_word_degree(monkeypatch):
    """`check_trace_rules` at n=4 forms each proper prefix of length >= 2
    once, plus X*Z and Y*Z, and no matrix with entries of degree WORD_DEGREE."""
    ctx = DeskContext()
    ctx.system_qq(4)  # built before counting: its Z is one product
    degrees = []
    product = GenericMatrix.__mul__

    def counting(a, b):
        m = product(a, b)
        degrees.append(max(e.degree() for row in m.rows for e in row))
        return m

    monkeypatch.setattr(GenericMatrix, "__mul__", counting)
    assert check_trace_rules(ctx, 4)[0] == "PASS"
    words = {w for e in candidates(WORD_DEGREE) for w in e.words}
    prefixes = {w[:k] for w in words for k in range(2, len(w))}
    assert len(degrees) == len(prefixes) + 2 <= 29
    assert max(degrees) < WORD_DEGREE


def test_trace_residuals_drop_each_prefix_after_its_last_use(monkeypatch):
    """Fewer matrices are alive at any expression's `dot` than there are
    prefixes: each is freed once no later expression reads it."""
    sys = build_system(2, QQ)
    exprs = candidates(WORD_DEGREE)
    ring, dots = sys.ring, sys.ring.dots

    def alive():
        return sum(type(o) is GenericMatrix for o in gc.get_objects())

    before, seen = alive(), []

    def counting(sums):
        if len(sums) == 1:  # one expression's residual, not a matrix product
            seen.append(alive() - before)
        return dots(sums)

    monkeypatch.setattr(ring, "dots", counting)
    trace_residuals(exprs, sys)
    prefixes = {w[:k] for e in exprs for w in e.words for k in range(2, len(w))}
    assert len(seen) == len(exprs)
    assert max(seen) < len(prefixes)


def test_koszul_relations_are_valid_and_counted():
    for n in (2, 3):
        sys = build_system(n, GF(P))
        ks = _koszul_vectors(sys.commutators)
        nsq = n * n
        assert len(ks) == nsq * (nsq - 1) // 2
        for t in ks[:10]:
            assert sys.ring.dot(zip(t, sys.commutators)).is_zero()


def test_restrict_to_minimal_preserves_the_relation():
    sys = build_system(3, GF(P))
    m = eval_word("XY", sys) + eval_word("YX", sys)
    assert is_trace_syzygy(m, sys)
    restricted = restrict_to_minimal(tuple_from_matrix(m, sys), sys)
    gens = sys.minimal_gens
    assert len(restricted) == len(gens) == 8
    total = sys.ring.zero
    for a, f in zip(restricted, gens):
        total = total + a * f
    assert total.is_zero()


def test_syzygy_tuple_validation():
    sys = build_system(2, GF(P))
    with pytest.raises(ValueError):
        tuple_from_matrix(GenericMatrix.identity(sys.ring, 3), sys)


exps = st.tuples(*[st.integers(0, 2)] * 8)


@given(pos=st.integers(0, 7), e=exps)
def test_module_order_roundtrip(pos, e):
    scalar = Grevlex(8)
    morder = ModuleOrder(scalar, rank=8)
    v = morder.encode(pos, scalar.encode(e))
    assert morder.decode(v) == (pos, scalar.encode(e))
    assert scalar.decode(morder.decode(v)[1]) == tuple(e)
    assert v >> scalar.total_bits  # every vector key carries position bits


def test_vector_helpers():
    sys = build_system(2, GF(P))
    ring = sys.ring
    v = (ring.x(1, 1), ring.zero, ring.y(2, 2))
    assert not vector_is_zero(v)
    assert vector_is_zero((ring.zero,) * 3)
    assert vector_degree(v) == 1
    with pytest.raises(ValueError):
        vector_degree((ring.x(1, 1), ring.one))  # mixed degrees
    assert vector_degree((ring.zero,)) == -1


def test_first_syzygies_smallest_case():
    sys = build_system(2, GF(P))
    fs = first_syzygies(sys)
    assert fs.rank == 3
    assert fs.counts == {1: 2}
    assert fs.complete
    gens = sys.minimal_gens
    for vec in fs.generators:
        total = sys.ring.zero
        for a, f in zip(vec, gens):
            total = total + a * f
        assert total.is_zero()


def test_first_syzygy_counts_match_linear_algebra(ctx):
    """Degree-1 syzygy space dimensions recomputed by raw row reduction."""
    for n in (2, 3):
        sys = ctx.system(n)
        assert syzygy_space_dim(sys.minimal_gens, 1, P) == 2


def test_no_new_degree_two_syzygies_for_the_smallest_case(ctx):
    """At n=2 every degree-2 syzygy lies in Koszul + shifts of the linear ones."""
    sys = ctx.system(2)
    ring = sys.ring
    fs = ctx.first_syzygies(2)
    linear = [vec for vec in fs.generators if vector_degree(vec) == 1]
    span_rows = []

    def add_vector(vec):
        row = {}
        for pos, f in enumerate(vec):
            for mon, c in f.terms:
                row[(pos, mon)] = c
        span_rows.append(row)

    for vec in _koszul_vectors(sys.minimal_gens):
        add_vector(vec)
    monomials = ring.names
    for vec in linear:
        for name in monomials:
            x = ring.var(name)
            add_vector(tuple(x * a for a in vec))
    span_dim = rank_mod_p(span_rows, P)
    assert syzygy_space_dim(sys.minimal_gens, 2, P) == span_dim


def _equigenerated(rng, ring):
    """3-5 forms of degree 2 in 5 of the n=2 variables, each of 1-3 terms
    with coefficients 1..100, so that many pairs reduce to zero."""
    live = [ring.var(name) for name in rng.sample(ring.names, 5)]
    gens = []
    for _ in range(rng.randint(3, 5)):
        f = sum((ring.const(rng.randint(1, 100)) * rng.choice(live) * rng.choice(live)
                 for _ in range(rng.randint(1, 3))), ring.zero)
        if f:
            gens.append(f)
    return gens


def _mod_p(f, order):
    """The image in GF(32003) of a form over QQ with integer coefficients."""
    return n2_ring(GF(P), order).poly({mon: int(c) for mon, c in f.exponent_terms()})


def _rows(vec, degree, p):
    """The monomial multiples of a homogeneous vector in coefficient degree
    `degree`, as {(position, exps): coeff mod p} rows."""
    nvars = next(a for a in vec if a).ring.nvars
    shift = degree - vector_degree(vec)
    rows = []
    for m in monomials_of_degree(nvars, shift) if shift >= 0 else ():
        row = {}
        for pos, a in enumerate(vec):
            for mon, c in a.exponent_terms():
                if isinstance(c, Fraction):
                    c = c.numerator * pow(c.denominator, -1, p)
                row[(pos, tuple(x + y for x, y in zip(m, mon)))] = c % p
        rows.append(row)
    return rows


@pytest.mark.parametrize("order", ("grevlex", "lex"))
@pytest.mark.parametrize("field", ("gf7", "gf32003", "qq"))
def test_the_tracked_relations_and_the_koszul_relations_span_the_syzygies(field, order):
    """Six seeded equigenerated ideals per field and order, every generator
    tracked by the signature loop through coefficient degree 3: each
    relation is a syzygy, and in each coefficient degree d <= 3 the
    monomial multiples of the Koszul relations and the relations span the
    whole syzygy space, whose dimension graded linear algebra gives
    (`syzygy_space_dim`).  Over QQ the ranks are taken mod 32003; a rank
    mod p is at most the rank over QQ, and the kernel dimension mod p at
    least the one over QQ, so their equality holds over QQ too."""
    fld = {"gf7": GF(7), "gf32003": GF(P), "qq": QQ}[field]
    p = fld.p or P
    bound, relations = 3, 0
    for seed in range(6):
        ring = n2_ring(fld, order)
        gens = _equigenerated(random.Random(f"{field}-{order}-{seed}"), ring)
        loop = SignatureLoop(ring, [], degree_bound=bound + 2, tracked=gens)
        loop.run()
        vecs = [decompile_vector(ring, len(gens), u, loop.morder) for u in loop.relations]
        for vec in vecs:
            assert naive_products(zip(vec, gens), fld) == {}, seed
        vecs += _koszul_vectors(gens)
        images = gens if fld.p else [_mod_p(g, order) for g in gens]
        relations += len(loop.relations)
        for d in range(bound + 1):
            rows = [row for vec in vecs for row in _rows(vec, d, p)]
            assert rank_mod_p(rows, p) == syzygy_space_dim(images, d, p), (seed, d)
    assert relations > 0


def test_membership_queries():
    sys = build_system(2, GF(P))
    ring = sys.ring
    fs = first_syzygies(sys)
    gens = fs.generators
    # each generator is trivially a member; a unit vector is not a syzygy
    assert module_membership(gens[0], gens)
    unit = tuple(ring.one if k == 0 else ring.zero for k in range(3))
    assert not module_membership(unit, gens)
    with pytest.raises(ValueError):
        module_membership(unit, [gens[0] + (ring.zero,)])
    # a vector of another rank is refused, not read at the wrong positions
    basis = module_buchberger(gens)
    for vec in (gens[0] + (ring.zero,), (ring.zero,) * 3 + (ring.one,)):
        with pytest.raises(ValueError, match="rank"):
            basis.contains(vec)
    assert module_membership((ring.zero,) * 3, [])
    assert not module_membership(unit, [])


def test_module_membership_refuses_a_vector_from_another_ring():
    """A component from a ring of another order or size is refused, not
    read as whatever monomial its key names in this ring."""
    ring = PolyRing(2, GF(P))
    a, b, c, d = ring.x(1, 1), ring.x(1, 2), ring.y(1, 1), ring.y(1, 2)
    basis = module_buchberger([(a, b), (c, d)])
    assert basis.contains((a * c, b * c))
    for other in (PolyRing(2, GF(P), order="lex"), PolyRing(3, GF(P))):
        vec = (other.x(1, 1) * other.y(1, 1), b * c)
        with pytest.raises(ValueError, match="incompatible rings"):
            basis.contains(vec)
        with pytest.raises(ValueError, match="incompatible rings"):
            basis.reduce(vec)


def test_truncated_module_basis_is_flagged_like_a_truncated_ideal_basis(ctx):
    ring = PolyRing(1, GF(101))
    a, b = ring.x(1, 1), ring.y(1, 1)
    zero = ring.zero
    vecs = [(a * a, b * b), (a * b, a * a)]
    ideal = buchberger([a * a + b * b, a * b], degree_bound=2)
    module = module_buchberger(vecs, degree_bound=2)
    assert module.stats.pairs_truncated > 0
    assert (module.complete, module.truncation_degree) == (False, 2)
    assert (ideal.complete, ideal.truncation_degree) == (False, 2)
    # within the bound the truncated basis still answers
    assert module.contains(vecs[1]) and not module.contains((a * a, zero))
    with pytest.raises(IncompleteBasisError):
        module.contains((a * a * b, zero))
    full = module_buchberger(vecs)
    assert (full.complete, full.truncation_degree) == (True, None)
    # cut before the first generator, of degree 2, enters
    cut = module_buchberger(vecs, budget=Budget(max_spairs=0))
    assert (cut.complete, cut.truncation_degree) == (False, 1)
    with pytest.raises(IncompleteBasisError):
        cut.contains(vecs[0])
    # like a truncated `buchberger` basis, a cut one holds only its elements
    # through the truncation degree: the loop reached 64, 30 of degree 3
    cut = module_buchberger(
        ctx.first_syzygies(3, 4).generators, degree_bound=4, budget=Budget(max_spairs=80)
    )
    assert (cut.truncation_degree, len(cut)) == (2, 34)
    stored = [r for groups in cut.reducers.positions.values() for _, g in groups for _, r in g]
    assert len(stored) == 34 and all(r.lead_deg <= 2 for r in stored)


#: (n, bound) -> {S-pair budget: the cut run's truncation degree, None when
#: complete}: the tracked loop's truncation degree less 2, except at n=3
#: under 150 pairs, where the loop completes and the selection is cut
#: before its degree-4 pairs
CUT_TRUNCATIONS = {
    (2, 2): {b: -1 if b < 3 else 0 if b < 6 else None for b in range(12)},
    (3, 4): {5: -1, 20: 0, 60: 2, 100: 3, 150: 3, 200: None},
}


def test_first_syzygies_respects_budget():
    """A budget cut truncates the first syzygies at a coefficient degree t,
    and the cut run answers exactly through t: its counts, generators and
    sources are those of the complete run of degree <= t.  At n=2 every cut
    below 6 pairs lands before the linear syzygies, so no degree-2 Koszul
    relation may be counted as minimal."""
    for (n, bound), truncations in CUT_TRUNCATIONS.items():
        system = build_system(n, GF(P))
        full = first_syzygies(system, degree_bound=bound)
        assert full.complete
        for spairs, t in truncations.items():
            fs = first_syzygies(system, degree_bound=bound, budget=Budget(max_spairs=spairs))
            assert fs.truncation_degree == t, (n, spairs)
            top = bound if t is None else t
            through = [vector_degree(v) <= top for v in full.generators]
            assert fs.counts == {d: c for d, c in full.counts.items() if d <= top}
            assert fs.generators == [v for v, keep in zip(full.generators, through) if keep]
            assert fs.sources == [s for s, keep in zip(full.sources, through) if keep]


def test_three_by_three_counts_and_sources(ctx):
    fs = ctx.first_syzygies(3)
    assert fs.counts == {1: 2, 2: 31}
    assert fs.complete
    assert Counter(fs.sources) == {"koszul": 28, "pair": 5}
    assert fs.rank == 8
    gens = ctx.system(3).minimal_gens
    for vec in fs.generators:
        total = ctx.system(3).ring.zero
        for a, f in zip(vec, gens):
            total = total + a * f
        assert total.is_zero()


def test_koszul_candidates_respect_the_degree_bound():
    fs = first_syzygies(build_system(3, GF(P)), degree_bound=1)
    assert fs.counts == {1: 2}
    assert set(fs.sources) == {"pair"} and fs.complete


def test_four_by_four_linear_and_quadratic_syzygies_match_the_fixture():
    """Fixture cells (2,3), (2,4) and (2,5) of the partial n=4 resolution
    are the minimal first syzygies of coefficient degree 1, 2 and 3."""
    cells = fixtures.load_betti_table("n4_resolution_partial").cells
    fs = first_syzygies(build_system(4, GF(P)), degree_bound=3)
    assert fs.counts == {1: cells[(2, 3)], 2: cells[(2, 4)], 3: cells[(2, 5)]}
    assert fs.complete
