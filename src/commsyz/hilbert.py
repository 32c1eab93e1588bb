"""Hilbert series from leading-term ideals, graded Betti tables, and the
Euler-characteristic bridge between them.

The numerator of a quotient's Hilbert series over (1-t)^nvars is computed
from the minimal generators of the leading-term ideal by a pivot recursion
that runs on the packed leads (`MonomialOrder.packed`, each exponent in a
byte of its own), the monomials of the basis itself.
The same numerator equals the alternating sum of graded Betti numbers, which
is what euler_constraints checks (solving for symbolic entries where the
known ones determine them).  splice_tail reflects the Betti table of the
canonical module onto the tail of the quotient's resolution.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .groebner import require
from .polyring import _EXP_CAP

Cell = Union[int, str]


# -- integer polynomials in t as coefficient lists ----------------------------


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_sub(a: Sequence[int], b: Sequence[int]) -> list:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for j, y in enumerate(b):
        out[j] -= y
    return _trim(out)


def _poly_shift(a: Sequence[int], k: int) -> list:
    return [0] * k + list(a) if a else []


def divide_by_one_minus_t(num: Sequence[int]) -> Optional[list]:
    """Quotient num / (1-t) as a coefficient list, or None when t=1 is not
    a root."""
    if sum(num) != 0:
        return None
    q = []
    acc = 0
    for c in list(num)[:-1]:
        acc += c
        q.append(acc)
    return _trim(q)


# -- numerator of a monomial-ideal quotient -----------------------------------


def _degree(e: int) -> int:
    """Total degree of packed exponents: the sum of the int's bytes."""
    return sum(e.to_bytes((e.bit_length() + 7) // 8, "little"))


def minimal_monomials(leads, order) -> tuple:
    """The minimal generators of the monomial ideal that the packed leads
    generate, ascending; a divisor is never a larger packed int."""
    divides = order.divides
    out = []
    for e in sorted(set(leads)):
        if not any(divides(a, e) for a in out):
            out.append(e)
    return tuple(out)


def monomial_quotient_numerator(leads, order) -> list:
    """Numerator of the Hilbert series of S/(monomial ideal) over
    (1-t)^nvars, from the ideal's packed leads under `order`.

    Pivot recursion (Bigatti, JPAA 119, 1997) on the variable that most
    leads other than pure powers hold; the result is independent of pivot
    choices.  A variable is its support bit, which is also the packed x_i,
    a pure power has one support bit, and the colon by x_i subtracts that
    bit from each lead that holds it.
    """
    support = order.support

    def rec(mons: tuple) -> list:
        if not mons:
            return [1]
        if mons[0] == 0:
            return []  # the ideal contains 1
        pures, mixed = [], []
        for e in mons:
            s = support(e)
            (mixed if s & (s - 1) else pures).append(e)
        if len(mixed) <= 1:
            out = [1]
            for g in pures:
                out = _poly_sub(out, _poly_shift(out, _degree(g)))  # times 1 - t^deg g
            if mixed:
                m = mixed[0]
                colon = [1]
                for g in pures:
                    b = support(g)
                    d = g // b - (m // b & _EXP_CAP)  # positive: m is not a multiple of g
                    colon = _poly_sub(colon, _poly_shift(colon, d))
                out = _poly_sub(out, _poly_shift(colon, _degree(m)))
            return out
        freq: dict = {}
        for e in mixed:
            s = support(e)
            while s:
                b = s & -s
                freq[b] = freq.get(b, 0) + 1
                s ^= b
        pivot = max(freq, key=freq.get)
        byte = pivot * _EXP_CAP
        # S/(I) splits along x_pivot: K(I) = K(I + (x_pivot)) + t*K(I : x_pivot)
        plus = minimal_monomials([e for e in mons if not e & byte] + [pivot], order)
        colon = minimal_monomials([e - pivot if e & byte else e for e in mons], order)
        return _poly_sub(rec(plus), _poly_shift([-c for c in rec(colon)], 1))

    return rec(minimal_monomials(leads, order))


@dataclass(frozen=True)
class HilbertSeries:
    """numerator(t) / (1-t)^nvars with integer numerator coefficients."""

    numerator: tuple
    nvars: int

    def coefficient(self, j: int) -> int:
        return self.numerator[j] if 0 <= j < len(self.numerator) else 0

    def reduced(self):
        """(minimal numerator, number of (1-t) factors cancelled)."""
        num = list(self.numerator)
        c = 0
        while num:
            q = divide_by_one_minus_t(num)
            if q is None:
                break
            num = q
            c += 1
        return tuple(num), c

    @property
    def dimension(self) -> int:
        """Krull dimension: nvars minus the numerator's order of vanishing
        at t=1; -1 for the zero series, the zero module's."""
        _, c = self.reduced()
        return self.nvars - c if any(self.numerator) else -1

    @property
    def multiplicity(self) -> int:
        q, _ = self.reduced()
        return sum(q)

    def __str__(self):
        parts = []
        for k, c in enumerate(self.numerator):
            if c == 0:
                continue
            mono = "1" if k == 0 else ("t" if k == 1 else f"t^{k}")
            mag = abs(c)
            body = mono if (mag == 1 and k > 0) else (str(mag) if k == 0 else f"{mag}*{mono}")
            parts.append(("- " if c < 0 else "+ ") + body)
        num = " ".join(parts).lstrip("+ ").replace("+ -", "- ") or "0"
        if parts and parts[0].startswith("- "):
            num = "-" + num[2:]
        return f"({num}) / (1-t)^{self.nvars}"


def hilbert_of_basis(basis) -> HilbertSeries:
    """Hilbert series of the quotient by the ideal of a full Groebner basis."""
    require(basis, refusal="Hilbert series needs a complete, untruncated basis")
    order = basis.ring.order
    leads = [order.packed(g.terms[0][0]) for g in basis]
    return HilbertSeries(tuple(monomial_quotient_numerator(leads, order)), order.nvars)


# -- graded Betti tables -------------------------------------------------------

class GradedBettiTable:
    """Map (homological degree i, internal degree j) -> count or symbol.

    Displayed in the standard layout: column i, row j - i.  Symbolic cells
    are strings: a name like 'c', a lower bound like '6902+', or a marker.
    `computed` flags the cells backed by direct computation (the rest of a
    conjectured table being inferred); `stated_totals` holds column totals
    as published, which are re-derived rather than trusted.
    """

    def __init__(
        self,
        cells: dict,
        computed=(),
        stated_totals: Optional[Sequence[Cell]] = None,
    ):
        clean = {}
        for (i, j), v in cells.items():
            if isinstance(v, int):
                if v < 0:
                    raise ValueError(f"negative Betti number at {(i, j)}")
                if v == 0:
                    continue
            clean[(int(i), int(j))] = v
        self.cells = clean
        self.computed = frozenset((int(i), int(j)) for i, j in computed)
        self.stated_totals = tuple(stated_totals) if stated_totals is not None else None

    def __eq__(self, other):
        return isinstance(other, GradedBettiTable) and self.cells == other.cells

    def __len__(self):
        return len(self.cells)

    def entry(self, i: int, j: int) -> Cell:
        return self.cells.get((i, j), 0)

    @property
    def max_col(self) -> int:
        return max((i for i, _ in self.cells), default=0)

    @property
    def min_row(self) -> int:
        return min((j - i for i, j in self.cells), default=0)

    @property
    def max_row(self) -> int:
        return max((j - i for i, j in self.cells), default=0)

    def column_sum(self, i: int):
        """(sum of numeric cells, list of symbolic cells) in column i."""
        base = 0
        symbols = []
        for (ci, _), v in self.cells.items():
            if ci != i:
                continue
            if isinstance(v, int):
                base += v
            else:
                symbols.append(v)
        return base, symbols

    #: a lower bound 'N+', as a symbolic cell, a stated total or one of `totals`
    LOWER_BOUND_RE = re.compile(r"^\d+\+$")

    def totals(self) -> list:
        """Recomputed column totals; 'N+' when symbolic cells are present."""
        out = []
        for i in range(self.max_col + 1):
            base, symbols = self.column_sum(i)
            out.append(f"{base}+" if symbols else base)
        return out

    def to_entries(self) -> list:
        """JSON-ready cell list."""
        return [
            {"i": i, "j": j, "count": v}
            for (i, j), v in sorted(self.cells.items())
        ]

    @classmethod
    def from_entries(cls, entries, computed=(), stated_totals=None):
        cells = {}
        for e in entries:
            cells[(int(e["i"]), int(e["j"]))] = e["count"]
        return cls(cells, computed=computed, stated_totals=stated_totals)

    def display(self) -> str:
        ncols = self.max_col + 1
        grid = [["total:"] + [str(t) for t in self.totals()]]
        for r in range(self.min_row, self.max_row + 1):
            row = [f"{r}:"]
            for i in range(ncols):
                v = self.entry(i, i + r)
                row.append("." if v == 0 else str(v))
            grid.append(row)
        widths = [max(len(row[k]) for row in grid) for k in range(ncols + 1)]
        return "\n".join(
            " ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in grid
        )

    def __repr__(self):
        return f"GradedBettiTable({len(self.cells)} cells, cols 0..{self.max_col})"


# -- Euler characteristic constraints ------------------------------------------


@dataclass
class EulerConstraint:
    """sum_i (-1)^i beta_{i,j} = numerator coefficient of t^j, written as
    constant + sum(coeffs[sym] * sym) = target."""

    degree: int
    constant: int
    coeffs: dict
    target: int

    @property
    def determined(self) -> bool:
        return not self.coeffs

    @property
    def satisfied(self) -> Optional[bool]:
        if self.coeffs:
            return None
        return self.constant == self.target

    def __str__(self):
        if not self.coeffs:
            return f"degree {self.degree}: {self.constant} = {self.target}"
        lhs = []
        for sym, c in sorted(self.coeffs.items()):
            if c == 1:
                lhs.append(f"+ {sym}")
            elif c == -1:
                lhs.append(f"- {sym}")
            else:
                lhs.append(f"{'+' if c > 0 else '-'} {abs(c)}*{sym}")
        txt = " ".join(lhs).lstrip("+ ")
        return f"degree {self.degree}: {txt} = {self.target - self.constant}"


def euler_constraints(table: GradedBettiTable, series: HilbertSeries) -> list:
    """Per-degree alternating-sum constraints between a Betti table and the
    Hilbert numerator.

    Fully determined degrees must match exactly (ValueError otherwise);
    degrees involving symbolic cells come back as residual linear relations.
    """
    degrees = {j for _, j in table.cells}
    degrees.update(j for j, c in enumerate(series.numerator) if c != 0)
    out = []
    violations = []
    for j in sorted(degrees):
        constant = 0
        coeffs: dict = {}
        for (ci, cj), v in table.cells.items():
            if cj != j:
                continue
            sign = -1 if ci % 2 else 1
            if isinstance(v, int):
                constant += sign * v
            else:  # an unknown; a lower bound 'N+' is named b{i}_{j}
                sym = f"b{ci}_{cj}" if GradedBettiTable.LOWER_BOUND_RE.match(v) else v
                coeffs[sym] = coeffs.get(sym, 0) + sign
        coeffs = {s: c for s, c in coeffs.items() if c != 0}
        con = EulerConstraint(
            degree=j,
            constant=constant,
            coeffs=coeffs,
            target=series.coefficient(j),
        )
        if con.satisfied is False:
            violations.append(con)
        out.append(con)
    if violations:
        detail = "; ".join(str(c) for c in violations)
        raise ValueError(f"Euler constraints violated: {detail}")
    return out


def residual_relations(constraints) -> list:
    """The constraints still carrying unknowns."""
    return [c for c in constraints if not c.determined]


# -- canonical-module splice ----------------------------------------------------


def canonical_splice_shift(n: int) -> int:
    """Total degree of the off-diagonal regular sequence: (n^2-n) quadrics."""
    return 2 * (n * n - n)


def splice_tail(canonical: GradedBettiTable, codim: int, sigma: int) -> GradedBettiTable:
    """Reflect the canonical module's table onto the resolution tail:
    beta_{codim-i, sigma-j}(quotient) = beta_{i,j}(canonical)."""
    cells = {}
    computed = []
    for (i, j), v in canonical.cells.items():
        pos = (codim - i, sigma - j)
        cells[pos] = v
        if (i, j) in canonical.computed:
            computed.append(pos)
    return GradedBettiTable(cells, computed=computed)
