"""The one Buchberger engine: its minimal-generator selection against the
restart-based reference, the absence of restarts, budget cuts that must not
answer silently, and the 8-bit guard on the representations the signature
loop tracks."""

import random

import pytest

from commsyz import groebner, syzygy, verify
from commsyz.fields import GF, QQ
from commsyz.genmat import build_system
from commsyz.groebner import (
    Budget,
    Engine,
    IncompleteBasisError,
    SignatureLoop,
    buchberger,
    intersect_ideals,
    require,
)
from commsyz.hilbert import hilbert_of_basis
from commsyz.polyring import PolyRing
from commsyz.syzygy import (
    ModuleOrder,
    decompile_vector,
    first_syzygies,
    module_buchberger,
    module_membership,
    vector_degree,
    vector_is_zero,
    vector_terms,
)
from commsyz.verify import minimal_new_generators

from oracles import (
    engine_module,
    engine_run,
    n2_ring,
    naive_products,
    restart_selection,
    spread,
)

FIELDS = (GF(7), GF(32003), QQ)
CUT = Budget(max_spairs=0)


def _forms(ring, rng, degree, nterms):
    """A random form of the given degree in four of the ring's variables."""
    live = [ring.x(1, 1), ring.x(1, 2), ring.y(1, 1), ring.y(2, 1)]
    f = ring.zero
    for _ in range(nterms):
        m = ring.const(rng.randint(1, 6))
        for _ in range(degree):
            m = m * rng.choice(live)
        f = f + m
    return f


def _with_dependents(rng, items, combine):
    """items, then three rounds of one repeated item and one combination of
    earlier items (dependent candidates)."""
    out = list(items)
    for _ in range(3):
        out.append(rng.choice(out))
        out.append(combine(rng.sample(out, min(2, len(out)))))
    return out


def _scalar_case(field, seed):
    rng = random.Random(seed)
    ring = PolyRing(2, field)
    base = [_forms(ring, rng, rng.randint(1, 2), 2) for _ in range(rng.randint(0, 2))]
    gens = [_forms(ring, rng, rng.randint(1, 3), rng.randint(1, 3)) for _ in range(5)]

    def combine(parts):
        d = max(p.degree() for p in parts)
        return sum((p * _forms(ring, rng, d - p.degree(), 2) if d > p.degree() else p * ring.const(3)
                    for p in parts if not p.is_zero()), ring.zero)

    return base, _with_dependents(rng, base + gens, combine)[len(base):]


def _module_case(field, rank, seed):
    rng = random.Random(seed)
    ring = PolyRing(2, field)
    vecs = []
    for _ in range(5):
        d = rng.randint(1, 2)
        vecs.append(tuple(_forms(ring, rng, d, 2) if rng.random() < 0.7 else ring.zero
                          for _ in range(rank)))

    def combine(parts):
        d = max(vector_degree(v) for v in parts) + 1
        acc = [ring.zero] * rank
        for v in parts:
            c = _forms(ring, rng, d - vector_degree(v), 1)
            acc = [a + c * x for a, x in zip(acc, v)]
        return tuple(acc)

    vecs = [v for v in _with_dependents(rng, vecs, combine) if not vector_is_zero(v)]
    return sorted(vecs, key=vector_degree)


def _engine_vector_selection(vecs):
    ring = next(p for p in vecs[0] if not p.is_zero()).ring
    morder = ModuleOrder(ring.order, len(vecs[0]))
    engine = Engine(ring)
    return [vecs[k] for k in engine.select([(vector_degree(v), vector_terms(v, morder)) for v in vecs])]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_scalar_selection_matches_the_restart_reference(field):
    kept_counts = []
    for seed in range(12):
        base, gens = _scalar_case(field, seed)
        cand = sorted((g for g in gens if not g.is_zero()), key=lambda g: (g.degree(), g.terms[0][0]))
        want = restart_selection(
            base, cand, lambda gs, d: buchberger(gs, degree_bound=d),
            lambda g: g.degree(), lambda g: g.is_zero(),
        )
        got = minimal_new_generators(base, gens)
        assert got == want, seed
        kept_counts.append((len(cand), len(got)))
    # the cases mix kept and dropped candidates
    assert any(k < c for c, k in kept_counts) and all(k > 0 for _, k in kept_counts)


@pytest.mark.parametrize("rank", (2, 3))
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_vector_selection_matches_the_restart_reference(field, rank):
    dropped = 0
    for seed in range(8):
        vecs = _module_case(field, rank, 100 * rank + seed)
        want = restart_selection(
            [], vecs, lambda gs, d: module_buchberger(gs, degree_bound=d),
            vector_degree, vector_is_zero,
        )
        got = _engine_vector_selection(vecs)
        assert got == want, seed
        dropped += len(vecs) - len(got)
    assert dropped > 0


def test_selections_never_restart_a_basis(ctx, monkeypatch):
    system = build_system(3, GF(32003))
    base = list(ctx.system(3).off_diagonal_gens)
    colon = ctx.colon_generators(3)

    def restart(*args, **kwargs):
        raise AssertionError("a selection rebuilt a basis")

    monkeypatch.setattr(syzygy, "module_buchberger", restart)
    monkeypatch.setattr(groebner, "buchberger", restart)
    monkeypatch.setattr(verify, "buchberger", restart)
    assert first_syzygies(system, degree_bound=4).counts == {1: 2, 2: 31}
    assert len(minimal_new_generators(base, colon)) == 5


def test_rank_one_vectors_keep_the_vector_pair_policy():
    """A rank-1 vector's keys carry position bits like any vector's, so
    neither loop takes the shortcut it takes for the same polynomials: two
    vectors have no principal syzygy for the signature loop's F5 check, and
    no coprime criterion in the engine.  Both reduce the pair of (x,) and
    (y,) to zero, where the pair of x and y is pruned; the signature loop
    also counts its two generator entries."""
    ring = PolyRing(1, GF(101))
    x, y = ring.x(1, 1), ring.y(1, 1)
    counts = lambda s: (s.spairs_reduced, s.zero_reductions, s.pairs_pruned)
    assert counts(module_buchberger([(x,), (y,)]).stats) == (3, 1, 0)
    assert counts(buchberger([x, y]).stats) == (2, 0, 1)
    assert counts(engine_module([(x,), (y,)])[0].stats) == (1, 1, 0)
    assert counts(engine_run([x, y]).stats) == (0, 0, 1)


def test_membership_against_a_cut_basis_raises():
    ring = PolyRing(2, GF(32003))
    a, b = ring.x(1, 1), ring.y(1, 1)
    gens = [((a + b) * a,), (a * a,)]
    assert module_membership((b * a,), gens)
    with pytest.raises(IncompleteBasisError):
        module_membership((b * a,), gens, budget=CUT)


def test_selection_against_a_cut_basis_raises():
    ring = PolyRing(2, GF(32003))
    a, b, c = ring.x(1, 1), ring.y(1, 1), ring.x(1, 2)
    cand = [a * a + b * c, a * b, b * b * c]  # b^2c = b(a^2 + bc) - a(ab)
    assert len(minimal_new_generators([], cand)) == 2
    with pytest.raises(IncompleteBasisError):
        minimal_new_generators([], cand, budget=CUT)


# -- one gate for cut and truncated bases --------------------------------------

R = PolyRing(1, GF(101))
A, B = R.x(1, 1), R.y(1, 1)
GENS = [A * A + B * B, A * B]  # their one S-pair, of degree 3, adds B^3
VECS = [(A * A, B * B), (A * B, A * A)]
#: engine arguments of each kind of basis; "truncated" drops every pair past 2
KINDS = {"complete": {}, "cut": {"budget": CUT}, "truncated": {"degree_bound": 2}}


def _select(kind, f):
    """Select f against a finished run over GENS (a cut one cut at degree 3),
    asking the gate for f's degree as a caller of `select` does."""
    engine = Engine(R, **KINDS[kind])
    for g in GENS:
        engine.add(g.terms)
    engine.run()
    kept = engine.select([(f.degree(), f.terms)])
    require(engine, f.degree(), refusal="selected only through degree {d}")
    return kept


def _intersect(kind):
    if kind != "truncated":
        return intersect_ideals([A], [B], **KINDS[kind])
    # intersect_ideals runs its own signature loop, with no bound; flag it truncated
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SignatureLoop, "complete", False)
        mp.setattr(SignatureLoop, "truncation_degree", 9)
        return intersect_ideals([A], [B])


#: consumer -> (its questions of degree <= 2, or None when it only asks about
#: the whole ideal; a question past degree 2), each a function of the kind
GATE = {
    "GroebnerBasis.contains": (
        lambda k: [buchberger(GENS, **KINDS[k]).contains(f) for f in (A * B, A * A)],
        lambda k: buchberger(GENS, **KINDS[k]).contains(B ** 3),
    ),
    "ModuleBasis.contains": (
        lambda k: [module_buchberger(VECS, **KINDS[k]).contains(v) for v in (VECS[1], (A * A, R.zero))],
        lambda k: module_buchberger(VECS, **KINDS[k]).contains((A * A * B, R.zero)),
    ),
    "hilbert_of_basis": (None, lambda k: hilbert_of_basis(buchberger(GENS, **KINDS[k]))),
    "intersect_ideals": (None, _intersect),
    "Engine.select": (
        lambda k: [_select(k, f) for f in (A * B, A * A)],
        lambda k: _select(k, B ** 3),
    ),
}


#: the consumers whose cut run is truncated at degree 2 or above: the
#: selection runs after the engine is cut at its degree-3 pair, while every
#: other cut comes before a degree-2 generator enters (truncated at 1)
CUT_AT_2 = {"Engine.select"}


@pytest.mark.parametrize("consumer", list(GATE))
def test_every_consumer_asks_the_one_gate(consumer):
    within, past = GATE[consumer]
    past("complete")
    for kind in ("cut", "truncated"):
        with pytest.raises(IncompleteBasisError):
            past(kind)
    if within is not None:
        assert within("truncated") == within("complete")
        if consumer in CUT_AT_2:
            assert within("cut") == within("complete")
        else:
            with pytest.raises(IncompleteBasisError):
                within("cut")


def test_a_selection_after_a_cut_reads_its_truncation_off_the_queue():
    """A run cut at its degree-6 pair is truncated at 5.  Keeping a^2 and
    ab + c^2 then queues their degree-3 pair, which lowers the truncation to
    2, so the selection stops at the degree-3 candidate ac^2, which that
    pair would show to lie in the ideal, rather than keep it."""
    ring = PolyRing(2, GF(32003))
    a, b, c = ring.x(1, 1), ring.x(1, 2), ring.x(2, 1)
    engine = Engine(ring, budget=CUT)
    for g in (a * a * b * b, b * b * c * c):
        engine.add(g.terms)
    engine.run()
    assert engine.truncation_degree == 5
    low = [a * a, a * b + c * c]
    assert engine.select([(2, f.terms) for f in low]) == [0, 1]
    assert engine.truncation_degree == 2
    assert engine.select([(3, (a * c * c).terms), (3, (a * a * c).terms)]) == []


def test_first_syzygies_under_a_cut_report_lower_bounds():
    """A cut run is a truncation: its counts are the complete run's through
    the truncation degree, so they bound the complete counts from below."""
    fs = first_syzygies(build_system(3, GF(32003)), degree_bound=4, budget=CUT)
    assert not fs.complete
    assert all(fs.counts.get(d, 0) <= c for d, c in {1: 2, 2: 31}.items())
    assert set(fs.counts) <= {1, 2}
    assert all(d <= fs.truncation_degree for d in fs.counts)


def _tracked(k):
    """Signature loop, through degree 300, with w^200*y^5 - z^205, w*y^10
    and w^k*y^5*z^205 tracked (w, y, z: x_1_1, x_1_2, y_1_1 under lex).
    The pair of the first two gives y^5*z^205, whose coefficients carry
    w^199 e_1; it top-reduces the third generator's entry by w^k, which
    shifts that coefficient past the cap at k = 57, while every polynomial
    and signature step stays within it."""
    ring = n2_ring(QQ, "lex")
    w, y, z = (ring.poly({spread(e): 1}) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    gens = [w**200 * y**5 - z**205, w * y**10, w**k * y**5 * z**205]
    loop = SignatureLoop(ring, [], degree_bound=300, tracked=gens)
    loop.run()
    return ring, gens, loop


def test_tracked_representations_are_guarded_at_the_cap():
    ring, gens, loop = _tracked(56)
    assert loop.stats.max_degree_processed == 266 and loop.relations
    for terms in loop.relations:
        vec = decompile_vector(ring, len(gens), terms, loop.morder)
        assert naive_products(zip(vec, gens), ring.field) == {}
    with pytest.raises(OverflowError):
        _tracked(57)


def test_tracking_refuses_inhomogeneous_input():
    ring = PolyRing(1, GF(101))
    x, y = ring.x(1, 1), ring.y(1, 1)
    with pytest.raises(ValueError):
        SignatureLoop(ring, [], tracked=[x * x + y])
    with pytest.raises(ValueError):
        SignatureLoop(ring, [x * x + y], tracked=[x])
