"""Formal words in the letters X, Y and the cyclic-permutation trace rules.

A word stands for a product of the two generic matrices; its trace is
invariant under cyclic rotation of the letters.  That single fact yields
test-free certificates that certain coefficient matrices A satisfy
tr(A(XY-YX)) = 0: a word M qualifies on its own when M.XY and M.YX are
rotations of each other, and two words M1, M2 qualify jointly, as a sum
when M1.XY ~ M2.YX and M2.XY ~ M1.YX, or as a difference when
M1.XY ~ M2.XY and M1.YX ~ M2.YX.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

MONOMIAL = "monomial"
BINOMIAL_SUM = "binomial-sum"
BINOMIAL_DIFFERENCE = "binomial-difference"
EXPLICIT = "explicit"


def word_bidegree(w: str) -> tuple:
    """(#X, #Y) of a word."""
    nx = w.count("X")
    ny = w.count("Y")
    if nx + ny != len(w):
        raise ValueError(f"word {w!r} has letters outside X, Y")
    return (nx, ny)


def rotations(w: str) -> list:
    if not w:
        return [""]
    return [w[i:] + w[:i] for i in range(len(w))]


def cyclic_equal(w1: str, w2: str) -> bool:
    """True iff w2 is a rotation of w1 (doubled-string containment)."""
    return len(w1) == len(w2) and (w1 == w2 or w2 in w1 + w1)


def monomial_rule(w: str) -> bool:
    """True iff the single word w certifies tr(w.(XY-YX)) = 0."""
    return cyclic_equal(w + "XY", w + "YX")


def binomial_rule(m1: str, m2: str) -> Optional[str]:
    """Classify the pair: 'binomial-sum', 'binomial-difference', or None.

    The classification is purely combinatorial; candidate generation only
    pairs words that individually fail the monomial rule.
    """
    if cyclic_equal(m1 + "XY", m2 + "YX") and cyclic_equal(m2 + "XY", m1 + "YX"):
        return BINOMIAL_SUM
    if cyclic_equal(m1 + "XY", m2 + "XY") and cyclic_equal(m1 + "YX", m2 + "YX"):
        return BINOMIAL_DIFFERENCE
    return None


def _format_word(w: str) -> str:
    if not w:
        return "E"
    out = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        run = j - i
        out.append(w[i] if run == 1 else f"{w[i]}^{run}")
        i = j
    return "".join(out)


@dataclass(frozen=True)
class WordExpr:
    """A signed formal sum of words; the coefficient matrix it denotes is
    the corresponding signed sum of matrix products."""

    words: tuple
    signs: tuple
    rule: str = EXPLICIT

    def __post_init__(self):
        if not self.words:
            raise ValueError("an expression needs at least one word")
        if len(self.words) != len(self.signs):
            raise ValueError("words and signs must pair up")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")
        for w in self.words:
            word_bidegree(w)  # validates the alphabet

    @property
    def degree(self) -> int:
        return max(len(w) for w in self.words)

    def bidegree(self) -> Optional[tuple]:
        """Shared (#X, #Y) of all words, or None if they disagree."""
        bids = {word_bidegree(w) for w in self.words}
        return bids.pop() if len(bids) == 1 else None

    def __str__(self):
        parts = []
        for k, (w, s) in enumerate(zip(self.words, self.signs)):
            body = _format_word(w)
            if k == 0:
                parts.append(body if s == 1 else f"-{body}")
            else:
                parts.append(f"+ {body}" if s == 1 else f"- {body}")
        return " ".join(parts)


def monomial_expr(w: str) -> WordExpr:
    return WordExpr(words=(w,), signs=(1,), rule=MONOMIAL)


def binomial_expr(m1: str, m2: str, kind: str) -> WordExpr:
    """Canonical binomial: lexicographically smaller word first; for a
    difference the smaller word carries the plus sign."""
    a, b = sorted((m1, m2))
    if kind == BINOMIAL_SUM:
        return WordExpr(words=(a, b), signs=(1, 1), rule=kind)
    if kind == BINOMIAL_DIFFERENCE:
        return WordExpr(words=(a, b), signs=(1, -1), rule=kind)
    raise ValueError(f"not a binomial kind: {kind!r}")


def candidates(max_degree: int) -> list:
    """All rule-certified expressions of degree <= max_degree.

    Monomial candidates are deduplicated per cyclic class (the
    lexicographically least passing rotation represents the class); binomial
    candidates pair words that fail the monomial rule, each unordered pair
    once.  Output order: degree, then the word tuple, then rule kind.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    out = []
    for d in range(max_degree + 1):
        words = ["".join(p) for p in product("XY", repeat=d)]
        passing = {w for w in words if monomial_rule(w)}
        exprs = []
        seen_classes = set()
        for w in sorted(words):
            if w not in passing:
                continue
            cls = min(rotations(w))
            if cls in seen_classes:
                continue
            seen_classes.add(cls)
            rep = min(r for r in set(rotations(w)) if r in passing)
            exprs.append(monomial_expr(rep))
        failing = sorted(set(words) - passing)
        for a, b in combinations(failing, 2):
            kind = binomial_rule(a, b)
            if kind is not None:
                exprs.append(binomial_expr(a, b, kind))
        exprs.sort(key=lambda e: (e.words, e.rule))
        out.extend(exprs)
    return out
