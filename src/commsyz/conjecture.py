"""Closed-form predictors for the structure of the commutator quotient.

Everything here is arithmetic on conjectured patterns: the first-syzygy
column, the bidegrees of the colon-ideal generators through a cell-selection
enumeration, a skeleton of the full Betti table, and the
diagonal-determinant candidates with their bidegree feasibility test.  None
of it verifies anything; the verification lives in the computational
modules, and the CLI labels this output as conjecture.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, isqrt
from typing import Optional

from .genmat import (
    CommutatorSystem,
    GenericMatrix,
    diagonal_entries,
    matrix_from_columns,
)
from .hilbert import GradedBettiTable

PRODUCT_MARK = "p"
UNKNOWN_MARK = "?"


@dataclass(frozen=True)
class SelectionParams:
    """Degree data for selections of n cells from the triangular table.

    Cells (i, j) with i + j <= n - 1 are chosen, always including (0, 0);
    k is the number of full rows that fit, s the leftover cells, a the
    per-axis degree of the full-row block.
    """

    n: int
    k: int
    s: int
    a: int
    d_min: int
    d_max: int
    count_min: int
    count_max: int


def selection_params(n: int) -> SelectionParams:
    if n < 2:
        raise ValueError("need n >= 2")
    # largest k with k(k+1)/2 <= n
    k = (isqrt(8 * n + 1) - 1) // 2
    s = n - k * (k + 1) // 2
    a = k * (k * k - 1) // 6
    d_min = k * (k * k - 1) // 3 + (s * k if s else 0)
    d_max = n * (n - 1) // 2
    count_min = 1 if s == 0 else s * (k - s + 1) + 1
    return SelectionParams(
        n=n,
        k=k,
        s=s,
        a=a,
        d_min=d_min,
        d_max=d_max,
        count_min=count_min,
        count_max=d_max + 1,
    )


def colon_bidegrees(n: int, degree_cutoff: Optional[int] = None) -> dict:
    """Total degree -> set of bidegrees achievable by an n-cell selection.

    A selection takes n distinct cells (i, j) with i + j <= n - 1 including
    (0, 0); its bidegree is the componentwise sum.  Chosen m cells of row r
    contribute m*r to the total degree and any x-sum in
    [C(m,2), m*r - C(m,2)], so a row-count profile is enough state for the
    enumeration (this scales to n in the dozens, where the raw cell-subset
    enumeration would not).  Each state keeps its x-sums as an int bitset.
    """
    params = selection_params(n)
    cutoff = params.d_max if degree_cutoff is None else degree_cutoff
    # state: (cells used, total degree) -> bitset of achievable x-degree sums
    states = {(1, 0): 1}  # row 0 is the single forced cell (0, 0)
    for r in range(1, n):
        nxt: dict = {}
        for (used, deg), xsums in states.items():
            for m in range(0, min(r + 1, n - used) + 1):
                ndeg = deg + m * r
                if ndeg > cutoff:
                    break
                lo = comb(m, 2)
                span = m * r - 2 * lo
                # xsums moved by every offset 0..span: double the run of
                # offsets 0..width-1, then one overlapping shift reaches span
                spread, width = xsums, 1
                while 2 * width <= span + 1:
                    spread |= spread << width
                    width *= 2
                spread |= spread << (span + 1 - width)
                key = (used + m, ndeg)
                nxt[key] = nxt.get(key, 0) | spread << lo
        states = nxt
    out: dict = {}
    for (used, deg), xsums in states.items():
        if used != n or deg > cutoff:
            continue
        bits = bin(xsums)[:1:-1]
        out.setdefault(deg, set()).update((x, deg - x) for x, b in enumerate(bits) if b == "1")
    return dict(sorted(out.items()))


def selection_problems(n: int, table: Optional[dict] = None) -> list:
    """Problems of the bidegree table at n (`colon_bidegrees(n)` unless given),
    read through d_max, against the closed forms: the degree window, the
    extreme-degree counts and one contiguous x-run per degree."""
    params = selection_params(n)
    if table is None:
        table = colon_bidegrees(n)
    table = {d: cells for d, cells in table.items() if d <= params.d_max}
    if (min(table, default=None), max(table, default=None)) != (params.d_min, params.d_max):
        return [f"degree range at n={n}"]
    problems = []
    if len(table[params.d_min]) != params.count_min:
        problems.append(f"minimum-degree count at n={n}")
    if len(table[params.d_max]) != params.count_max:
        problems.append(f"maximum-degree count at n={n}")
    for d, cells in table.items():
        xs = sorted(x for x, _ in cells)
        if xs != list(range(xs[0], xs[0] + len(xs))):
            problems.append(f"non-contiguous bidegree run at n={n}, degree {d}")
    return problems


def first_betti_prediction(n: int) -> dict:
    """Conjectured minimal first-syzygy counts, keyed by coefficient degree.

    Row 1 holds the two linear syzygies; row 2 the Koszul relations plus
    three more; rows h = 3..n-1 hold h+1 each.  n=2 is degenerate: only the
    linear row exists there.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    col = {1: 2}
    if n >= 3:
        col[2] = comb(n * n - 1, 2) + 3
    for h in range(3, n):
        col[h] = h + 1
    return col


def first_betti_total(n: int) -> int:
    """Closed form for the predicted number of first syzygies (n >= 3)."""
    return comb(n * n - 1, 2) + comb(n + 1, 2) - 1


def resolution_shape(n: int) -> GradedBettiTable:
    """Skeleton of the conjectured Betti table of the commutator quotient.

    Numbered cells come from closed forms: the generator count, the
    first-syzygy column, the two-cell staircase h(n^2-1) / h+1 along rows
    h = 1..n(n-1)/2, and the final column spliced from the colon-ideal
    degree counts.  Cells only believed to follow a product structure carry
    'p'; cells with no prediction at all carry '?'.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    params = selection_params(n)
    nsq1 = n * n - 1
    h_max = n * (n - 1) // 2
    last_col = n * n - n
    last_row = n * (n - 1) - params.d_min

    cells: dict = {}

    def put(i: int, row: int, value) -> None:
        key = (i, i + row)
        prev = cells.get(key)
        if prev is None or isinstance(prev, str):
            cells[key] = value
        elif not isinstance(value, str) and prev != value:
            raise AssertionError(f"conflicting predictions at {key}: {prev} vs {value}")

    put(0, 0, 1)
    put(1, 1, nsq1)
    for h, count in first_betti_prediction(n).items():
        put(2, h, count)
    for h in range(1, h_max + 1):
        put(2 * h - 1, h, h * nsq1)
        put(2 * h, h, h + 1)
    for d, bidegs in colon_bidegrees(n).items():
        put(last_col, last_col - d, len(bidegs))
    for r in range(3, n):
        for i in range(3, 2 * r - 1):
            if (i, i + r) not in cells:
                put(i, r, PRODUCT_MARK)
    for r in range(n, last_row + 1):
        for i in range(max(r, 3), min(2 * r - 1, last_col)):
            if (i, i + r) not in cells:
                put(i, r, UNKNOWN_MARK)
    return GradedBettiTable(cells)


# -- diagonal-determinant candidates -------------------------------------------


def _power_columns(system: CommutatorSystem, max_power: int) -> list:
    """Labeled diagonal columns: (label, bidegree, column entries)."""
    ident = GenericMatrix.identity(system.ring, system.n)
    out = [("E", (0, 0), diagonal_entries(ident))]
    for letter, mat in (("X", system.X), ("Y", system.Y)):
        power = ident
        for a in range(1, max_power + 1):
            power = power * mat
            bideg = (a, 0) if letter == "X" else (0, a)
            out.append(
                (f"{letter}^{a}" if a > 1 else letter, bideg, diagonal_entries(power))
            )
    return out


def knutson_candidates(system: CommutatorSystem, max_power: int) -> list:
    """Matrices whose columns are the diagonals of the identity and of
    distinct powers of the two generic matrices, through `max_power`.

    Returns (label tuple, matrix, bidegree) triples, deterministically
    ordered by total degree then bidegree then labels.  The determinant of
    each matrix is a nonzero polynomial of that bidegree; none is taken
    here, so a caller takes only those it reads.
    """
    n = system.n
    columns = _power_columns(system, max_power)
    first, rest = columns[0], columns[1:]
    picks = []
    for combo in combinations(rest, n - 1):
        labels = (first[0],) + tuple(c[0] for c in combo)
        dx = sum(c[1][0] for c in combo)
        dy = sum(c[1][1] for c in combo)
        picks.append(((dx + dy, dy, dx, labels), (dx, dy), combo))
    picks.sort(key=lambda t: t[0])
    return [
        (labels, matrix_from_columns(system.ring, [first[2]] + [c[2] for c in combo]), bideg)
        for (_, _, _, labels), bideg, combo in picks
    ]


def knutson_bidegree_feasible(n: int, target) -> bool:
    """Can (dx, dy) arise as the bidegree of a diagonal-power determinant?

    The identity column is mandatory, leaving n-1 distinct pure-power
    columns: p of x-type with distinct positive exponents summing to dx
    (impossible unless dx >= p(p+1)/2, or p = 0 with dx = 0), and likewise
    q = n-1-p of y-type.
    """
    dx, dy = target
    if dx < 0 or dy < 0:
        return False
    for p in range(0, n):
        q = n - 1 - p
        ok_x = (dx == 0) if p == 0 else (dx >= p * (p + 1) // 2)
        ok_y = (dy == 0) if q == 0 else (dy >= q * (q + 1) // 2)
        if ok_x and ok_y:
            return True
    return False
