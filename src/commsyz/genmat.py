"""Generic matrices over a polynomial ring and the commutator entry system.

Two n x n matrices X = (x_i_j) and Y = (y_i_j) of independent variables are
the basic objects.  The commutator Z = XY - YX supplies n^2 quadratic
polynomials f_1, ..., f_{n^2}, enumerated column by column:

    f_k = Z[i][j]  with  i = ((k-1) mod n) + 1,  j = ((k-1) div n) + 1,

so f_1 = Z_11, f_2 = Z_21, ..., f_{n+1} = Z_12, and the diagonal entries sit
at positions 1, n+2, 2n+3, ....  Since trace(Z) = 0, dropping the last
diagonal entry leaves n^2 - 1 generators of the same ideal.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

from .fields import QQ
from .polyring import PolyRing, Polynomial


class GenericMatrix:
    """Immutable square matrix with polynomial entries."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring: PolyRing, rows):
        self.ring = ring
        self.rows = tuple(tuple(row) for row in rows)
        size = len(self.rows)
        if any(len(r) != size for r in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, ring: PolyRing, size: int) -> "GenericMatrix":
        return cls(
            ring,
            [[ring.one if i == j else ring.zero for j in range(size)] for i in range(size)],
        )

    @classmethod
    def from_entries(cls, ring: PolyRing, size: int, entry: Callable[[int, int], Polynomial]):
        """Build from a 1-based entry function."""
        return cls(ring, [[entry(i + 1, j + 1) for j in range(size)] for i in range(size)])

    @property
    def size(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i - 1][j - 1]

    def __mul__(self, other):
        if isinstance(other, GenericMatrix):
            n = self.size
            if other.size != n:
                raise ValueError("size mismatch")
            b, cols = other.rows, range(n)
            sums = [[(a[k], b[k][j]) for k in cols] for a in self.rows for j in cols]
            flat = self.ring.dots(sums)
            return GenericMatrix(self.ring, [flat[i : i + n] for i in range(0, n * n, n)])
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def _entrywise(self, other, op) -> "GenericMatrix":
        if other.size != self.size:
            raise ValueError("size mismatch")
        return GenericMatrix(
            self.ring,
            [[op(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __neg__(self):
        return GenericMatrix(self.ring, [[-a for a in row] for row in self.rows])

    def scale(self, c) -> "GenericMatrix":
        if not isinstance(c, Polynomial):
            c = self.ring.const(c)
        return GenericMatrix(self.ring, [[a * c for a in row] for row in self.rows])

    def trace(self) -> Polynomial:
        acc = self.ring.zero
        for i in range(self.size):
            acc = acc + self.rows[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def __eq__(self, other):
        return isinstance(other, GenericMatrix) and self.rows == other.rows

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.rows)
        return f"GenericMatrix[{body}]"


def matrix_from_columns(ring: PolyRing, columns: Sequence[Sequence[Polynomial]]) -> GenericMatrix:
    size = len(columns)
    for col in columns:
        if len(col) != size:
            raise ValueError("need as many entries per column as columns")
    return GenericMatrix(ring, [[columns[j][i] for j in range(size)] for i in range(size)])


def diagonal_entries(m: GenericMatrix) -> list:
    return [m[i, i] for i in range(1, m.size + 1)]


def first_row_expansion_residual(ring: PolyRing, columns) -> Polynomial:
    """sum_k (-1)^k columns[k][0] * det(the other columns).

    Expanding a square matrix whose first row is repeated along its first
    row: identically zero for any m columns of length m-1.
    """
    m = len(columns)
    for col in columns:
        if len(col) != m - 1:
            raise ValueError("need m columns of length m-1")
    acc = ring.zero
    for k in range(m):
        others = [columns[i] for i in range(m) if i != k]
        term = columns[k][0] * det(matrix_from_columns(ring, others))
        acc = acc - term if k % 2 else acc + term
    return acc


def det(m: GenericMatrix) -> Polynomial:
    """Determinant as the signed sum over permutations, built one row at a
    time from products and sums alone: no pivot search and no division.

    `minors[S]` is the determinant of the first |S| rows on the column set
    S, held as a bitmask.  Expanding it along its last row, column j enters
    with one sign flip for each column of S to the right of j.  Each row is
    one `ring.dots` call.
    """
    n = m.size
    minors = {0: m.ring.one}
    for row in m.rows:
        signed = [(a, -a) for a in row]
        sums: dict = {}
        for cols, minor in minors.items():
            for j in range(n):
                if not cols >> j & 1:
                    pair = (signed[j][(cols >> j).bit_count() & 1], minor)
                    sums.setdefault(cols | 1 << j, []).append(pair)
        minors = dict(zip(sums, m.ring.dots(list(sums.values()))))
    return minors[(1 << n) - 1]


@dataclass(frozen=True)
class CommutatorSystem:
    """The ring, the two generic matrices, and the commutator entries."""

    ring: PolyRing
    X: GenericMatrix
    Y: GenericMatrix
    Z: GenericMatrix
    commutators: tuple  # f_1, ..., f_{n^2}; entry k-1 is f_k

    @property
    def n(self) -> int:
        return self.ring.n

    def f(self, k: int) -> Polynomial:
        """1-based commutator entry f_k (column-major enumeration)."""
        if not 1 <= k <= len(self.commutators):
            raise ValueError(f"entry index {k} outside 1..{len(self.commutators)}")
        return self.commutators[k - 1]

    @property
    def diagonal_indices(self) -> tuple:
        """1-based positions of Z_ii among the f_k: 1, n+2, 2n+3, ..."""
        n = self.n
        return tuple((i - 1) * (n + 1) + 1 for i in range(1, n + 1))

    @property
    def off_diagonal_gens(self) -> list:
        """The n^2 - n off-diagonal entries (a regular sequence)."""
        diag = set(self.diagonal_indices)
        return [f for k, f in enumerate(self.commutators, start=1) if k not in diag]

    @property
    def minimal_gens(self) -> list:
        """n^2 - 1 generators: all entries except the last diagonal one, which
        equals minus the sum of the other diagonal entries."""
        last = self.diagonal_indices[-1]
        return [f for k, f in enumerate(self.commutators, start=1) if k != last]


def build_system(n: int, field=QQ, order="grevlex") -> CommutatorSystem:
    ring = PolyRing(n, field, order)
    X = GenericMatrix.from_entries(ring, n, ring.x)
    Y = GenericMatrix.from_entries(ring, n, ring.y)
    Z = X * Y - Y * X
    fs = tuple(Z[i, j] for j in range(1, n + 1) for i in range(1, n + 1))
    return CommutatorSystem(ring=ring, X=X, Y=Y, Z=Z, commutators=fs)


def char_poly_coeffs(m: GenericMatrix) -> list:
    """[1, c_1, ..., c_n] with det(tI - M) = t^n + c_1 t^{n-1} + ... + c_n,
    by the trace recursion M_k = M(M_{k-1} + c_{k-1} I), c_k = -tr(M_k)/k."""
    ring = m.ring
    fld = ring.field
    n = m.size
    if fld.p is not None and fld.p <= n:
        raise ValueError(
            f"characteristic {fld.p} is too small for the trace recursion on size {n}"
        )
    coeffs = [ring.one]
    mk = m
    ident = GenericMatrix.identity(ring, n)
    for k in range(1, n + 1):
        ck = mk.trace().scale(fld.neg(fld.inv(fld.coerce(k))))
        coeffs.append(ck)
        if k < n:
            mk = m * (mk + ident.scale(ck))
    return coeffs


def cayley_hamilton_residue(m: GenericMatrix) -> GenericMatrix:
    """M^n + c_1 M^{n-1} + ... + c_n I; the zero matrix when the recursion and
    matrix arithmetic are both right."""
    coeffs = char_poly_coeffs(m)
    n = m.size
    acc = GenericMatrix.identity(m.ring, n).scale(coeffs[-1])
    power = GenericMatrix.identity(m.ring, n)
    for k in range(n - 1, -1, -1):
        power = power * m
        acc = acc + power.scale(coeffs[k])
    return acc


def product_rewrite_residue_2x2(system: CommutatorSystem) -> GenericMatrix:
    """For n=2: YX - [ (tr(XY)-tr(X)tr(Y)) E + tr(Y) X + tr(X) Y - XY ],
    which vanishes identically."""
    if system.n != 2:
        raise ValueError("this rewrite is specific to 2 x 2 matrices")
    ring = system.ring
    X, Y = system.X, system.Y
    E = GenericMatrix.identity(ring, 2)
    txy = (X * Y).trace()
    tx = X.trace()
    ty = Y.trace()
    rhs = E.scale(txy - tx * ty) + X.scale(ty) + Y.scale(tx) - X * Y
    return Y * X - rhs
