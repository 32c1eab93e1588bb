import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commsyz.conjecture import knutson_candidates
from commsyz.fields import GF, QQ
from commsyz.genmat import (
    GenericMatrix,
    build_system,
    cayley_hamilton_residue,
    char_poly_coeffs,
    det,
    diagonal_entries,
    first_row_expansion_residual,
    matrix_from_columns,
    product_rewrite_residue_2x2,
)

from oracles import candidate_matrix, det_bareiss, det_cofactor


def column(m, j):
    """1-based column j of m as a list of entries."""
    return [m[i, j] for i in range(1, m.size + 1)]


def test_commutator_entries_enumerated_column_major():
    for n in (2, 3):
        sys = build_system(n, GF(32003))
        Z = sys.X * sys.Y - sys.Y * sys.X
        for k in range(1, n * n + 1):
            i = (k - 1) % n + 1
            j = (k - 1) // n + 1
            assert sys.f(k) == Z[i, j]
        with pytest.raises(ValueError):
            sys.f(0)
        with pytest.raises(ValueError):
            sys.f(n * n + 1)


def test_diagonal_indices_and_generator_slices():
    sys3 = build_system(3, GF(32003))
    assert sys3.diagonal_indices == (1, 5, 9)
    assert len(sys3.commutators) == 9
    assert len(sys3.off_diagonal_gens) == 6
    assert len(sys3.minimal_gens) == 8
    sys2 = build_system(2, GF(32003))
    assert sys2.diagonal_indices == (1, 4)
    assert len(sys2.minimal_gens) == 3
    # the diagonal of a commutator sums to zero, so one entry is redundant
    ring = sys3.ring
    total = ring.zero
    for k in sys3.diagonal_indices:
        total = total + sys3.f(k)
    assert total.is_zero()


def test_generators_are_bihomogeneous_quadrics():
    sys = build_system(3, GF(32003))
    for k in range(1, 10):
        f = sys.f(k)
        assert f.degree() == 2
        assert f.bidegree() == (1, 1)


def test_matrix_algebra_basics():
    sys = build_system(2, QQ)
    X, Y = sys.X, sys.Y
    E = GenericMatrix.identity(sys.ring, 2)
    assert (X + Y) - Y == X
    assert X * E == X and E * X == X
    assert (-X) + X == X - X
    assert (X * Y).trace() == (Y * X).trace()
    assert X.scale(sys.ring.const(2)) == X + X
    assert matrix_from_columns(sys.ring, [column(X, 1), column(X, 2)]) == X


def test_matrices_of_different_sizes_do_not_combine():
    sys3 = build_system(3, QQ)
    E2 = GenericMatrix.identity(sys3.ring, 2)
    for op in (operator.add, operator.sub, operator.mul):
        for a, b in ((sys3.X, E2), (E2, sys3.X)):
            with pytest.raises(ValueError, match="size mismatch"):
                op(a, b)


def test_det_known_values():
    sys = build_system(2, QQ)
    ring = sys.ring
    E = GenericMatrix.identity(ring, 2)
    assert det(E) == ring.one
    assert det(sys.X) == ring.x(1, 1) * ring.x(2, 2) - ring.x(1, 2) * ring.x(2, 1)
    # repeated column
    m = matrix_from_columns(ring, [column(sys.X, 1), column(sys.X, 1)])
    assert det(m).is_zero()


def test_det_is_multiplicative():
    for n in (2, 3):
        sys = build_system(n, QQ)
        assert det(sys.X * sys.Y) == det(sys.X) * det(sys.Y)


def test_det_alternates_on_column_swap():
    sys = build_system(3, QQ)
    cols = [column(sys.X, j) for j in (1, 2, 3)]
    d = det(matrix_from_columns(sys.ring, cols))
    swapped = det(matrix_from_columns(sys.ring, [cols[1], cols[0], cols[2]]))
    assert swapped == -d


def test_char_poly_and_cayley_hamilton():
    for n in (2, 3):
        sys = build_system(n, QQ)
        coeffs = char_poly_coeffs(sys.X)
        assert len(coeffs) == n + 1
        assert coeffs[0] == sys.ring.one
        assert coeffs[1] == -sys.X.trace()
        assert coeffs[-1] == det(sys.X).scale(sys.ring.field.coerce((-1) ** n))
        assert cayley_hamilton_residue(sys.X).is_zero()
        assert cayley_hamilton_residue(sys.Y).is_zero()


def test_product_rewrite_identity_2x2():
    sys = build_system(2, QQ)
    assert product_rewrite_residue_2x2(sys).is_zero()
    with pytest.raises(ValueError):
        product_rewrite_residue_2x2(build_system(3, QQ))


def test_trace_of_diagonal_entries():
    sys = build_system(3, QQ)
    diag = diagonal_entries(sys.X)
    total = sys.ring.zero
    for d in diag:
        total = total + d
    assert total == sys.X.trace()


def _random_columns(ring, rng, size, count, terms=3):
    cols = []
    nvars = ring.nvars
    for _ in range(count):
        col = []
        for _ in range(size):
            f = ring.zero
            for _ in range(terms):
                mon = tuple(rng.choice((0, 1)) for _ in range(nvars))
                f = f + ring.poly({mon: rng.randrange(1, 100)})
            col.append(f)
        cols.append(col)
    return cols


def test_first_row_expansion_residual_vanishes():
    # Laplace-style alternating identity: one more column than rows
    rng = random.Random(7)
    for n, field in ((2, QQ), (3, GF(32003))):
        sys = build_system(n, field)
        cols = _random_columns(sys.ring, rng, n, n + 1, terms=2)
        assert first_row_expansion_residual(sys.ring, cols).is_zero()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_det_by_both_routes_on_random_matrices(seed):
    rng = random.Random(seed)
    sys = build_system(2, GF(101))
    ring = sys.ring
    cols = _random_columns(ring, rng, 3, 3, terms=2)
    m = matrix_from_columns(ring, cols)
    # expansion along the first row must agree with det
    minors = []
    for j in range(3):
        sub = [[cols[c][r] for c in range(3) if c != j] for r in (1, 2)]
        minors.append(
            sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
        )
    expected = (
        m[1, 1] * minors[0] - m[1, 2] * minors[1] + m[1, 3] * minors[2]
    )
    assert det(m) == expected == det_cofactor(m) == det_bareiss(m)


SINGULAR = ("zero row", "equal rows", "zero first column")


def _square(ring, rng, size, shape):
    """A random size x size matrix of two-term entries, made singular by
    `shape` or, for "zero corner", given a zero (1, 1) entry above a nonzero
    one, so that elimination must swap rows before its first step."""
    cols = _random_columns(ring, rng, size, size, terms=2)
    rows = [[col[i] for col in cols] for i in range(size)]
    if size >= 2:
        if shape == "zero row":
            rows[rng.randrange(size)] = [ring.zero] * size
        elif shape == "equal rows":
            i, j = rng.sample(range(size), 2)
            rows[j] = list(rows[i])
        elif shape == "zero first column":
            for row in rows:
                row[0] = ring.zero
        elif shape == "zero corner":
            rows[0][0], rows[1][0] = ring.zero, ring.x(1, 1)
    return GenericMatrix(ring, rows)


@pytest.mark.parametrize("shape", ("random", "zero corner") + SINGULAR)
@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)], ids=repr)
def test_det_by_three_routes_on_random_matrices(field, shape):
    """Products only, fraction-free elimination and cofactor expansion agree
    on every size from 0 to 5."""
    rng = random.Random(f"{field!r} {shape}")
    ring = build_system(2, field).ring
    for size in range(6):
        m = _square(ring, rng, size, shape)
        d = det(m)
        assert d == det_bareiss(m) == det_cofactor(m), (size, m)
        if shape in SINGULAR and size >= 2:
            assert d.is_zero()
        if shape == "zero corner" and size >= 2:
            assert m[1, 1].is_zero() and not m[2, 1].is_zero()


def test_det_by_both_routes_on_the_checks_matrices():
    """The matrices the knutson_candidates labels name at n = 2, 3, 4, among
    them every one whose determinant a check takes, and the three of
    check_colon_ideal."""
    seen = []
    for n, field in ((2, QQ), (3, GF(32003)), (4, QQ)):
        system = build_system(n, field)
        seen += [candidate_matrix(system, labels) for labels, _ in knutson_candidates(n, n - 1)]
    sys = build_system(3, GF(32003))
    X, Y = sys.X, sys.Y
    E = GenericMatrix.identity(sys.ring, 3)
    for ms in ((E, X, X * Y + Y * X), (E, Y, X * X), (E, X, Y)):
        seen.append(matrix_from_columns(sys.ring, [diagonal_entries(m) for m in ms]))
    assert [m.size for m in seen].count(4) == 20
    for m in seen:
        assert det(m) == det_cofactor(m) == det_bareiss(m)
