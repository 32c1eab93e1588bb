from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commsyz.conjecture import (
    colon_bidegrees,
    first_betti_prediction,
    first_betti_total,
    knutson_bidegree_feasible,
    knutson_candidates,
    resolution_shape,
    selection_params,
)
from commsyz.fields import GF
from commsyz.fixtures import load_betti_table
from commsyz.genmat import build_system, det

from oracles import selection_bidegrees_brute


def test_selection_params_frozen_values():
    p3 = selection_params(3)
    assert (p3.k, p3.s, p3.d_min, p3.d_max) == (2, 0, 2, 3)
    assert (p3.count_min, p3.count_max) == (1, 4)
    p4 = selection_params(4)
    assert (p4.k, p4.s, p4.d_min, p4.d_max) == (2, 1, 4, 6)
    assert (p4.count_min, p4.count_max) == (3, 7)
    assert selection_params(6).d_min == 8
    with pytest.raises(ValueError):
        selection_params(1)


@settings(deadline=None)
@given(n=st.integers(2, 7))
def test_selection_recurrence_matches_subset_enumeration(n):
    assert colon_bidegrees(n) == selection_bidegrees_brute(n)
    # and with the cap lifted, every selection degree appears
    big = n * n
    assert colon_bidegrees(n, degree_cutoff=big) == selection_bidegrees_brute(n, big)


def test_selection_degree_window_and_extreme_counts():
    for n in range(2, 13):
        params = selection_params(n)
        table = colon_bidegrees(n)
        assert sorted(table) == list(range(params.d_min, params.d_max + 1))
        assert len(table[params.d_min]) == params.count_min
        assert len(table[params.d_max]) == params.count_max
        # the top degree realizes every split of d_max
        assert table[params.d_max] == {
            (x, params.d_max - x) for x in range(params.d_max + 1)
        }


def test_selection_degree_cutoff():
    full = colon_bidegrees(4)
    cut = colon_bidegrees(4, degree_cutoff=5)
    assert sorted(cut) == [4, 5]
    assert all(cut[d] == full[d] for d in cut)


def test_colon_bidegrees_smallest_cases():
    assert colon_bidegrees(2) == {1: {(1, 0), (0, 1)}}
    assert colon_bidegrees(3) == {
        2: {(1, 1)},
        3: {(3, 0), (2, 1), (1, 2), (0, 3)},
    }


def test_first_syzygy_count_predictions():
    assert first_betti_prediction(2) == {1: 2}
    assert first_betti_prediction(3) == {1: 2, 2: 31}
    assert first_betti_prediction(4) == {1: 2, 2: 108, 3: 4}
    assert first_betti_prediction(5) == {1: 2, 2: 279, 3: 4, 4: 5}
    assert first_betti_prediction(6) == {1: 2, 2: 598, 3: 4, 4: 5, 5: 6}
    with pytest.raises(ValueError):
        first_betti_prediction(1)
    for n in range(3, 13):
        assert first_betti_total(n) == sum(first_betti_prediction(n).values())


def test_shape_smallest_case_is_the_whole_resolution():
    shape = resolution_shape(2)
    assert shape.cells == {(0, 0): 1, (1, 2): 3, (2, 3): 2}


def test_shape_three_by_three_against_the_known_table():
    """The closed-form skeleton vs the fully computed table.

    The display fixture presents all 9 generators; dropping the redundant
    one removes a single generator and the single syzygy it brings.
    """
    display = load_betti_table("n3_betti_display")
    actual = dict(display.cells)
    assert actual.pop((2, 2)) == 1
    actual[(1, 2)] = actual[(1, 2)] - 1
    shape = resolution_shape(3)
    # two staircase cells are known to predict low; everything else numeric
    # must agree exactly, and only four cells carry no prediction at all
    differs = {(3, 5): (16, 32), (5, 8): (24, 32)}
    unknowns = {(3, 6), (4, 7), (4, 8), (5, 9)}
    for pos, val in shape.cells.items():
        if pos in differs:
            predicted, known = differs[pos]
            assert val == predicted
            assert actual.get(pos) == known
        elif pos in unknowns:
            assert val == "?"
        else:
            assert val == actual.get(pos, 0), pos
    for pos, val in actual.items():
        if pos not in unknowns and pos not in differs:
            assert shape.cells.get(pos, 0) == val, pos
    with pytest.raises(ValueError):
        resolution_shape(1)


def test_shape_front_matches_display_fixtures():
    """Generator and first-syzygy predictions against the larger displays."""
    for n in (4, 5, 6):
        display = load_betti_table(f"n{n}_betti_display")
        shape = resolution_shape(n)
        assert shape.entry(1, 2) == n * n - 1
        assert display.entry(1, 2) == n * n  # all entries presented
        prediction = first_betti_prediction(n)
        compared = 0
        for h, count in prediction.items():
            if h == 1:
                continue  # absorbed into the display's redundant-generator row
            shown = display.entry(2, 2 + h)
            if shown:  # the larger displays truncate the column early
                assert shown == count, (n, h)
                compared += 1
        assert compared >= 2


def test_knutson_candidate_roster():
    """The n=3 roster, and at n = 2, 3, 4 every candidate matrix has a
    nonzero determinant of the stated bidegree."""
    sys3 = build_system(3, GF(32003))
    roster = [(labels, bid) for labels, _, bid in knutson_candidates(sys3, 2)]
    assert roster == [
        (("E", "X", "Y"), (1, 1)),
        (("E", "X", "X^2"), (3, 0)),
        (("E", "X^2", "Y"), (2, 1)),
        (("E", "X", "Y^2"), (1, 2)),
        (("E", "Y", "Y^2"), (0, 3)),
        (("E", "X^2", "Y^2"), (2, 2)),
    ]
    for n in (2, 3, 4):
        cands = knutson_candidates(build_system(n, GF(32003)), n - 1)
        assert len(cands) == comb(2 * n - 2, n - 1)
        for _, mat, bid in cands:
            d = det(mat)
            assert not d.is_zero()
            assert d.bidegree() == bid


def test_knutson_candidate_bidegrees_cover_the_colon_predictions():
    sys3 = build_system(3, GF(32003))
    cands = knutson_candidates(sys3, 2)
    available = {bid for _, _, bid in cands}
    predicted = set().union(*colon_bidegrees(3).values())
    assert predicted <= available


def test_knutson_feasibility():
    assert not knutson_bidegree_feasible(4, (2, 2))
    assert not knutson_bidegree_feasible(2, (1, 1))
    assert not knutson_bidegree_feasible(3, (0, 0))
    assert knutson_bidegree_feasible(3, (1, 1))
    assert knutson_bidegree_feasible(3, (3, 0))
    assert not knutson_bidegree_feasible(3, (-1, 2))


@given(n=st.integers(2, 6), dx=st.integers(0, 8), dy=st.integers(0, 8))
def test_knutson_feasibility_is_symmetric(n, dx, dy):
    assert knutson_bidegree_feasible(n, (dx, dy)) == knutson_bidegree_feasible(
        n, (dy, dx)
    )


def test_knutson_feasibility_admits_every_realized_bidegree():
    for n, max_power in ((2, 3), (3, 4)):
        sys = build_system(n, GF(101))
        cands = knutson_candidates(sys, max_power=max_power)
        assert cands
        for _, _, bid in cands:
            assert knutson_bidegree_feasible(n, bid), (n, bid)
