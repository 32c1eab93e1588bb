"""The engine's pair criteria on packed exponents, pinned to the tuple version.

`Engine._criteria_pairs` tests divisibility, lcm and support on packed ints.
It is the one chain pass of the Gebauer-Moeller update over the new pairs,
with no B criterion, so the queue is the only record of waiting pairs.
Each of its steps is compared here with `oracles.criteria_pairs`, the same
step written on exponent tuples, from the same leads: the pairs offered to
the queue (in order, so the pop order is the same) and the pruned and
truncated counts must agree.
`buchberger` hands homogeneous input to the signature loop, so these tests
drive an `Engine` directly (`oracles.engine_run`).
The inputs are seeded random homogeneous ideals under grevlex, lex and elim,
binomial ideals whose exponents sit near 128 and 255, binomials whose leads
divide one another (so that a new pair is dropped only because a lead
coprime to the new one divides its partner's lead), and shuffled n=3
generators.  The work counts of three commutator bases are pinned on the
Gebauer-Moeller engine, and those of the signature loop are pinned too and
must not depend on the order of the generators.  The reducer store, the
criteria and the signature loop must decode and encode nothing, in
polynomial runs and in the module run of a meet.
"""

import random
from collections import Counter

import pytest

from commsyz.fields import GF
from commsyz.groebner import Engine, SignatureLoop, buchberger, colon_ideal, intersect_ideals
from commsyz.polyring import DegreeBucketReducers, Grevlex, ModuleOrder, PolyRing
from commsyz.syzygy import (
    ModuleBasis,
    first_syzygies,
    module_buchberger,
    vector_degree,
    vector_terms,
)

from oracles import (
    criteria_pairs,
    engine_module,
    engine_run,
    module_basis_all_pairs,
    mon_divides,
    mon_lcm,
    n2_ring,
    naive_division,
    near_cap_binomials,
    order_key,
)

ORDERS = ("grevlex", "lex", "elim")


@pytest.fixture
def checked(monkeypatch):
    """Run every criteria step beside the tuple reference; returns the list
    that records each checked step."""
    steps = []
    step, push = Engine._criteria_pairs, Engine._push

    def as_tuple(order, e):
        return order.decode(order.key(e))

    def recorded_push(self, i, j, lcm):
        self.offered.append((i, j, as_tuple(self.ring.order, lcm)))
        push(self, i, j, lcm)

    def checked_step(self, cp, group):
        order = self.ring.order
        leads = [order.decode(g.lead_v) for g in self.basis] + [order.decode(cp.lead_v)]
        want = criteria_pairs(leads, self.degree_bound)
        before = (self.stats.pairs_pruned, self.stats.pairs_truncated)
        self.offered = []
        step(self, cp, group)
        got = (
            self.offered,
            self.stats.pairs_pruned - before[0],
            self.stats.pairs_truncated - before[1],
        )
        assert got == want
        steps.append(len(leads))

    monkeypatch.setattr(Engine, "_push", recorded_push)
    monkeypatch.setattr(Engine, "_criteria_pairs", checked_step)
    return steps


def _dropped_by_a_coprime_lead(leads, offered):
    """The new pairs (g, h) of one step that no other new pair with h rules
    out, yet were not offered: only a lead c coprime to h with lead(c) |
    lead(g) drops such a pair.  One flag each: lcm(c, h) == lcm(g, h)."""
    h = len(leads) - 1
    coprime = [g for g in range(h) if not any(x and y for x, y in zip(leads[g], leads[h]))]
    lcms = {g: mon_lcm(leads[g], leads[h]) for g in range(h) if g not in coprime}
    offered = {g for g, _, _ in offered}
    flags = []
    for g, l in lcms.items():
        if g in offered or any(
            mon_divides(l2, l) and (l2 != l or j < g) for j, l2 in lcms.items() if j != g
        ):
            continue
        flags.append(any(mon_lcm(leads[c], leads[h]) == l for c in coprime))
    return flags


@pytest.fixture
def dropped(checked, monkeypatch):
    """Beside the tuple reference, collect `_dropped_by_a_coprime_lead` of
    every step."""
    flags = []
    step = Engine._criteria_pairs

    def counted(self, cp, group):
        order = self.ring.order
        leads = [order.decode(g.lead_v) for g in self.basis] + [order.decode(cp.lead_v)]
        step(self, cp, group)
        flags.extend(_dropped_by_a_coprime_lead(leads, self.offered))

    monkeypatch.setattr(Engine, "_criteria_pairs", counted)
    return flags


def _binomial(ring, rng, lead):
    """lead + k * (lead with one degree of its first variable moved to the
    last variable): the moved term is lower under grevlex, lex and elim alike,
    so every order keeps `lead` as the lead."""
    tail = list(lead)
    tail[next(k for k, e in enumerate(lead) if e)] -= 1
    tail[-1] += 1
    return ring.poly({tuple(lead): 1, tuple(tail): rng.randint(1, 100)})


def _divisible_leads(order, seed):
    """Binomials in the order c, c * a (or the two swapped), ..., then h: c
    lies in x_2_1, x_2_2 and a, h in x_1_1, x_1_2, so c is coprime to h
    while c divides the lead of its multiple."""
    rng = random.Random(seed)
    ring = n2_ring(GF(32003), order, front=2)
    names = list(ring.names)
    left = [names.index(f"x_1_{j}") for j in (1, 2)]
    right = [names.index(f"x_2_{j}") for j in (1, 2)]

    def monomial(variables, degree):
        e = [0] * len(names)
        for _ in range(degree):
            e[rng.choice(variables)] += 1
        return e

    gens = []
    for _ in range(rng.randint(2, 3)):
        c = monomial(right, rng.randint(1, 2))
        multiple = [x + y for x, y in zip(c, monomial(left, rng.randint(1, 2)))]
        pair = [_binomial(ring, rng, c), _binomial(ring, rng, multiple)]
        rng.shuffle(pair)
        gens += pair
    gens += [_binomial(ring, rng, monomial(left, rng.randint(1, 2))) for _ in range(2)]
    return gens


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("seed", range(6))
def test_a_coprime_lead_dividing_a_lead_drops_pairs(checked, dropped, order, seed):
    gens = _divisible_leads(order, seed)
    engine_run(gens, 5)
    assert len(checked) >= len(gens)
    assert dropped


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("swap", (False, True))
def test_a_coprime_lead_drops_a_pair_of_equal_lcm(checked, dropped, order, swap):
    """c = x_2_1, g = x_1_1 x_2_1, h = x_1_1^2: lcm(g, h) = lcm(c, h)."""
    ring = n2_ring(GF(32003), order, front=2)
    rng = random.Random(1)
    names = list(ring.names)

    def lead(**exps):
        return [exps.get(name, 0) for name in names]

    pair = [_binomial(ring, rng, lead(x_2_1=1)), _binomial(ring, rng, lead(x_1_1=1, x_2_1=1))]
    if swap:
        pair.reverse()
    engine_run(pair + [_binomial(ring, rng, lead(x_1_1=2))], 5)
    assert len(checked) >= 3
    assert any(dropped)


def _random_ideal(order, seed):
    rng = random.Random(seed)
    ring = n2_ring(GF(32003), order, front=2)
    live = [ring.var(name) for name in rng.sample(ring.names, 6)]
    gens = []
    for _ in range(rng.randint(4, 7)):
        degree = rng.randint(2, 3)
        f = ring.zero
        for _ in range(rng.randint(1, 3)):
            m = ring.const(rng.randint(1, 100))
            for _ in range(degree):
                m = m * rng.choice(live)
            f = f + m
        gens.append(f)
    return gens


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("seed", range(6))
def test_criteria_match_the_tuple_reference_on_random_ideals(checked, order, seed):
    gens = _random_ideal(order, seed)
    engine_run(gens, 5)
    assert len(checked) >= len(gens)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("bound", (383, 400))
def test_criteria_match_the_tuple_reference_near_the_cap(checked, order, seed, bound):
    """Degree-170 binomials: a bound past the cap is the cap, so the pairs
    past total degree 255 are truncated, as the reference counts them."""
    gens = near_cap_binomials(order, seed)
    engine = engine_run(gens, bound)
    assert engine.degree_bound == 255 and engine.stats.pairs_truncated
    assert len(checked) >= len(gens)


@pytest.mark.parametrize("seed", range(3))
def test_criteria_match_the_tuple_reference_on_shuffled_n3_generators(checked, ctx, seed):
    gens = list(ctx.system(3).minimal_gens)
    random.Random(seed).shuffle(gens)
    engine = engine_run(gens)
    assert len(checked) == engine.stats.elements_added == 27


def _counts(stats):
    s = stats
    return (s.spairs_reduced, s.zero_reductions, s.pairs_pruned, s.pairs_truncated, s.elements_added)


def test_commutator_basis_work_counts_are_pinned(ctx):
    gens = list(ctx.system(3).minimal_gens)
    assert _counts(engine_run(gens).stats) == (101, 82, 250, 0, 27)
    gens = list(ctx.system(4).minimal_gens)
    assert _counts(engine_run(gens, 4).stats) == (286, 163, 8149, 1018, 138)


def test_shuffled_n4_degree_5_work_counts_are_pinned(ctx):
    """The `gb-n4-d5` benchmark job at seed 3, on the Gebauer-Moeller engine."""
    gens = list(ctx.system(4).minimal_gens)
    random.Random(3).shuffle(gens)
    assert _counts(engine_run(gens, 5).stats) == (972, 766, 22057, 1281, 221)


def test_signature_loop_work_counts_are_pinned(ctx):
    """The signature loop's counts on the bases `buchberger` computes: the
    n=3 bases of I and J, and I at n=4 through degree 4.  Each generator's
    own entry counts as one reduced pair."""
    system = ctx.system(3)
    assert _counts(buchberger(list(system.minimal_gens)).stats) == (114, 27, 3635, 0, 87)
    assert _counts(buchberger(list(system.off_diagonal_gens)).stats) == (48, 0, 1086, 0, 48)
    gens = list(ctx.system(4).minimal_gens)
    assert _counts(buchberger(gens, degree_bound=4).stats) == N4_D4_COUNTS


N4_D4_COUNTS = (213, 10, 279, 20026, 203)


@pytest.mark.parametrize("seed", range(8))
def test_signature_loop_counts_do_not_depend_on_the_generator_order(ctx, seed):
    """The generators take their signature indices from a canonical sort,
    so every shuffle of the n=4 generators gives the same counts."""
    gens = list(ctx.system(4).minimal_gens)
    random.Random(seed).shuffle(gens)
    assert _counts(buchberger(gens, degree_bound=4).stats) == N4_D4_COUNTS


@pytest.mark.parametrize("seed", (1, 3, 9001))
def test_shuffled_n4_degree_5_signature_counts_are_pinned(ctx, seed):
    """The `gb-n4-d5` benchmark job at three seeds: 56 of its 629 reduced
    pairs reduce to zero, where the Gebauer-Moeller engine has 766 of 972."""
    gens = list(ctx.system(4).minimal_gens)
    random.Random(seed).shuffle(gens)
    basis = buchberger(gens, degree_bound=5)
    assert _counts(basis.stats) == (629, 56, 2881, 160383, 573)
    assert (len(basis), basis.complete, basis.truncation_degree) == (220, False, 5)


def test_lookup_and_criteria_decode_nothing(ctx, monkeypatch):
    """The n=3 basis of I under grevlex, by the Gebauer-Moeller engine and
    by the signature loop; the n=3 colon, one run of the signature loop
    with the vector of both diagonal entries tracked (138 elements, those
    of the tracked index with their coefficients), under grevlex, with no
    meet and no basis of J; the meet a colon falls back to, one signature
    loop over rank-2 vectors whose 259 elements each pair only within their
    lead position; and the n=3 first syzygies, one signature loop with all 8 generators tracked
    (63 elements, 83 reduced J-pairs, each with its coefficients) and a
    module selection: no reducer `add`, `find`, criteria step or
    signature-loop step encodes or decodes a monomial or a module key."""
    calls = Counter()
    inside = [0]

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(self, *args):
            if inside[0]:
                calls[name] += 1
            return original(self, *args)

        return wrapper

    def entering(name, owner):
        original = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            order = self.order if owner is DegreeBucketReducers else self.ring.order
            calls[f"{owner.__name__}.{name}@{order.name}"] += 1
            inside[0] += 1
            try:
                return original(self, *args, **kwargs)
            finally:
                inside[0] -= 1

        return wrapper

    for order in (Grevlex, ModuleOrder):
        for name in ("encode", "decode"):
            monkeypatch.setattr(order, name, counting(order, name))
    for name in ("add", "find"):
        monkeypatch.setattr(DegreeBucketReducers, name, entering(name, DegreeBucketReducers))
    monkeypatch.setattr(Engine, "_criteria_pairs", entering("_criteria_pairs", Engine))
    for name in ("_add", "_rewritable", "_coefficient"):
        monkeypatch.setattr(SignatureLoop, name, entering(name, SignatureLoop))
    engine_run(list(ctx.system(3).minimal_gens))
    assert calls["DegreeBucketReducers.find@grevlex"] > 1000
    assert calls["Engine._criteria_pairs@grevlex"] == 27
    assert calls["encode"] == calls["decode"] == 0

    calls.clear()
    buchberger(list(ctx.system(3).minimal_gens))
    assert calls["DegreeBucketReducers.find@grevlex"] > 1000
    assert calls["SignatureLoop._add@grevlex"] == 87
    assert calls["SignatureLoop._rewritable@grevlex"] > 1000
    assert calls["encode"] == calls["decode"] == 0

    system = ctx.system(3)
    base = list(system.off_diagonal_gens)
    diag = [system.f(k) for k in system.diagonal_indices[:-1]]
    calls.clear()
    colon_ideal(base, diag)
    assert calls["SignatureLoop._add@grevlex"] == 138
    assert calls["SignatureLoop._coefficient@grevlex"] > 100
    assert calls["SignatureLoop._rewritable@grevlex"] > 1000
    assert calls["DegreeBucketReducers.find@grevlex"] > 1000
    assert calls["Engine._criteria_pairs@grevlex"] == 0
    assert calls["encode"] == calls["decode"] == 0

    calls.clear()
    intersect_ideals(base, [diag[0]])
    assert calls["DegreeBucketReducers.add@grevlex"] > 100
    assert calls["DegreeBucketReducers.find@grevlex"] > 1000
    assert calls["SignatureLoop._add@grevlex"] == 259
    assert calls["Engine._criteria_pairs@grevlex"] == 0
    assert calls["encode"] == calls["decode"] == 0

    calls.clear()
    first_syzygies(system)
    assert calls["SignatureLoop._add@grevlex"] == 63
    assert calls["SignatureLoop._coefficient@grevlex"] == 83
    assert calls["SignatureLoop._rewritable@grevlex"] > 500
    assert calls["encode"] == calls["decode"] == 0


# -- module runs: the criteria within one lead position ------------------------


def _as_dict(vec, order):
    return {(pos, order.decode(v)): c for pos, p in enumerate(vec) for v, c in p.terms}


def _minimal_leads(leads) -> set:
    """The (position, exps) leads that no other lead at their position divides."""
    leads = set(leads)
    return {
        (p, e) for p, e in leads
        if not any(q == p and f != e and mon_divides(f, e) for q, f in leads)
    }


def _module_run(vectors):
    """A finished untracked `Engine` over the vectors (`oracles.engine_module`),
    its `ModuleBasis` and its leads as (position, exps)."""
    engine, basis = engine_module(vectors)
    leads = []
    for g in engine.basis:
        pos, v = basis.morder.decode(g.lead_v)
        leads.append((pos, engine.ring.order.decode(v)))
    return engine, basis, leads


def _random_vectors(rng, ring, rank):
    """3-5 vectors whose nonzero components are forms of one degree, 1 or 2,
    in 4 of the n=2 variables; and the form maker."""
    live = [ring.var(name) for name in rng.sample(ring.names, 4)]

    def form(degree):
        f = ring.zero
        for _ in range(rng.randint(1, 3)):
            m = ring.const(rng.randint(1, 100))
            for _ in range(degree):
                m = m * rng.choice(live)
            f = f + m
        return f

    vectors = []
    for _ in range(rng.randint(3, 5)):
        d = rng.randint(1, 2)
        vec = tuple(form(d) if rng.random() < 0.7 else ring.zero for _ in range(rank))
        if any(vec):
            vectors.append(vec)
    return vectors, form


@pytest.mark.parametrize("order", ("grevlex", "lex"))
@pytest.mark.parametrize("seed", range(12))
def test_module_criteria_match_the_all_pairs_reference(order, seed):
    """Seeded vectors of rank 2-3: the engine, which runs the Gebauer-Moeller
    criteria among the elements of each lead position, and the all-pairs
    reference give the same minimal leads at every position and the same
    membership answers."""
    rng = random.Random(seed)
    field = GF(7) if seed % 2 else GF(32003)
    ring = n2_ring(field, order)
    rank = 2 + seed % 2
    vectors, form = _random_vectors(rng, ring, rank)
    engine, basis, leads = _module_run(vectors)
    key = order_key(ring.order)
    ref = module_basis_all_pairs([_as_dict(v, ring.order) for v in vectors], key, field)
    ref_leads = [max(g, key=lambda t: (-t[0], key(t[1]))) for g in ref]
    assert _minimal_leads(leads) == _minimal_leads(ref_leads)
    members = [
        tuple(sum((c * p for c, p in zip(cs, comp)), ring.zero) for comp in zip(*vectors))
        for cs in ([form(1) for _ in vectors] for _ in range(3))
    ]
    others = [tuple(form(2) for _ in range(rank)) for _ in range(3)]
    for probe in members + others + [(form(2),) + (ring.zero,) * (rank - 1)]:
        want = not naive_division(_as_dict(probe, ring.order), ref, key, field)[0]
        assert basis.contains(probe) == want
    assert all(basis.contains(probe) for probe in members)


def test_module_criteria_prune_pairs():
    """The criteria do drop pairs in the module runs of the reference test."""
    pruned = 0
    for seed in range(12):
        rng = random.Random(seed)
        vectors, _ = _random_vectors(rng, n2_ring(GF(32003), "grevlex"), 2 + seed % 2)
        pruned += _module_run(vectors)[0].stats.pairs_pruned
    assert pruned > 0


@pytest.mark.parametrize("order", ("grevlex", "lex"))
@pytest.mark.parametrize("seed", range(12))
def test_module_bases_reduce_as_the_engine_does(order, seed):
    """Seeded vectors of rank 2-3: the signature loop's module basis
    (`module_buchberger`) and the Gebauer-Moeller engine's
    (`oracles.engine_module`) give every probe the same normal form, so the
    same membership answers.  The probes are combinations of the vectors of
    one degree, each also with one random term added, and random vectors."""
    rng = random.Random(f"module-{order}-{seed}")
    ring = n2_ring(GF(7) if seed % 2 else GF(32003), order)
    rank = 2 + seed % 2
    vectors, form = _random_vectors(rng, ring, rank)
    got, want = module_buchberger(vectors), engine_module(vectors)[1]
    members = [
        tuple(sum((c * p for c, p in zip(cs, comp)), ring.zero) for comp in zip(*vectors))
        for cs in ([form(3 - vector_degree(v)) for v in vectors] for _ in range(3))
    ]
    nudged = [vec[:-1] + (vec[-1] + form(3),) for vec in members]
    others = [tuple(form(3) for _ in range(rank)) for _ in range(3)]
    answers = set()
    for probe in members + nudged + others:
        assert got.reduce(probe) == want.reduce(probe)
        assert got.contains(probe) == want.contains(probe)
        answers.add(got.contains(probe))
    assert all(got.contains(probe) for probe in members)
    assert answers == {True, False}


def test_leads_dividing_across_positions_queue_and_prune_nothing():
    """(0, x*y + z^2) and (0, x*z + w^2) wait as one queued pair at position 1 with
    lcm x*y*z.  (x, 0) divides that lcm and both leads, but at position 0:
    it forms no pair with them and prunes nothing, and the pair's S-vector
    (0, z^3 - y*w^2) ends up in the module."""
    ring = PolyRing(2, GF(101))
    x, y, z, w = ring.x(1, 1), ring.x(1, 2), ring.x(2, 1), ring.x(2, 2)
    zero = ring.zero
    vectors = [(zero, x * y + z * z), (zero, x * z + w * w)]
    morder = ModuleOrder(ring.order, 2)
    engine = Engine(ring)
    for vec in vectors:
        engine.add(vector_terms(vec, morder))
    assert [g.lead_v for g in engine.basis] == [
        morder.encode(1, (x * y).terms[0][0]), morder.encode(1, (x * z).terms[0][0])
    ]
    waiting = list(engine.heap)
    assert len(waiting) == 1
    engine.add(vector_terms((x, zero), morder))
    assert engine.heap == waiting
    assert engine.stats.pairs_pruned == 0
    engine.add(vector_terms((y, w), morder))  # one pair, with (x, 0)
    assert len(engine.heap) == 2
    engine.run()
    basis = ModuleBasis(engine, morder)
    assert basis.contains((zero, z ** 3 - y * w ** 2))
    assert not basis.contains((zero, z ** 3))
