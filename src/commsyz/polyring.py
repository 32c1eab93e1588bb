"""Sparse multivariate polynomials over Q or GF(p) with pluggable monomial orders.

Variables describe entries of n x n generic matrices: x_i_j and y_i_j,
optionally preceded by auxiliary elimination variables t_k.  Every order
packs an exponent tuple into one integer V such that

    V(m1) > V(m2)  iff  m1 > m2 in the order, and
    V(m1 * m2) = V(m1) + V(m2) - V(1),

and a monomial *is* its key: `Polynomial.terms` is a strictly descending
tuple of (V, coeff).  Sums merge keys, a monomial multiple shifts them, the
total degree is read off a key, and the division kernel runs on the same
keys.  Exponent tuples exist only at the edges: `PolyRing.poly`, `var` and
`parse` encode (refusing exponents outside 0..255); printing, `lm`,
bidegrees, substitution, Hilbert leads and pair criteria decode; and
`embed`/`project` decode and re-encode across orders.

Products go through one kernel, `PolyRing.dot(pairs)` = sum(a * b): per call
each distinct input has its coefficients scaled to ints over one denominator
(1 over GF(p)), term products accumulate in an int dict keyed by
V(a) + V(b) - V(1), and the surviving keys are sorted once.  Additivity holds
only while every exponent stays within the 8-bit cap, so every key sum
(products, monomial shifts, reduction steps, S-polynomials) first raises
OverflowError if some variable would pass 255, where a key would otherwise
borrow silently from its neighbour; total degrees read from the keys settle
almost every check without decoding.
"""
from __future__ import annotations

import re
from bisect import insort
from fractions import Fraction
from heapq import heappush, heappop
from math import lcm
from typing import NamedTuple, Sequence

from .fields import QQ

_EXP_BITS = 8
_EXP_CAP = (1 << _EXP_BITS) - 1
_DEG_BITS = 24

NOT_BIHOMOGENEOUS = "not bihomogeneous"


class VarId(NamedTuple):
    """One ring variable: matrix entry x_i_j / y_i_j or an auxiliary t_k."""

    block: str          # 'x', 'y' or 't'
    row: int            # 1-based; 0 for aux
    col: int            # 1-based; 0 for aux
    aux_index: int = 0  # 1-based position among aux vars; 0 for matrix entries

    @property
    def name(self) -> str:
        if self.block == "t":
            return f"t_{self.aux_index}"
        return f"{self.block}_{self.row}_{self.col}"


class MonomialOrder:
    """Base class: a total multiplicative well-order on exponent tuples."""

    name = "?"

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.unit_v = 0  # V(1); subclasses overwrite
        self.total_bits = 0  # every encoding fits in this many bits

    def encode(self, exps: Sequence[int]) -> int:
        raise NotImplementedError

    def decode(self, v: int) -> tuple:
        raise NotImplementedError

    def degree(self, v: int) -> int:
        """Total degree of the monomial whose key is v."""
        return sum(self.decode(v))

    def greater(self, e1, e2) -> bool:
        return self.encode(e1) > self.encode(e2)

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash((type(self).__name__, self.nvars))

    def __repr__(self):
        return f"{self.name}({self.nvars})"


def _bad_exponent(e):
    if e < 0:
        return ValueError(f"negative exponent {e}")
    return OverflowError(f"exponent {e} exceeds order capacity {_EXP_CAP}")


def _grevlex_encode(exps, n):
    deg = 0
    v = 0
    for e in reversed(exps):
        if not 0 <= e <= _EXP_CAP:
            raise _bad_exponent(e)
        deg += e
        v = (v << _EXP_BITS) | (_EXP_CAP - e)
    if deg >= 1 << _DEG_BITS:
        raise OverflowError("total degree exceeds order capacity")
    return (deg << (_EXP_BITS * n)) | v


def _grevlex_decode(v, n):
    exps = []
    for _ in range(n):
        exps.append(_EXP_CAP - (v & _EXP_CAP))
        v >>= _EXP_BITS
    return tuple(exps)


class Grevlex(MonomialOrder):
    """Graded reverse lexicographic; ties go to the smaller trailing exponent."""

    name = "grevlex"

    def __init__(self, nvars: int):
        super().__init__(nvars)
        self.unit_v = (1 << (_EXP_BITS * nvars)) - 1
        self.total_bits = _EXP_BITS * nvars + _DEG_BITS

    def encode(self, exps):
        return _grevlex_encode(exps, self.nvars)

    def decode(self, v):
        return _grevlex_decode(v, self.nvars)

    def degree(self, v):
        return v >> (_EXP_BITS * self.nvars)


class Lex(MonomialOrder):
    """Pure lexicographic on the ring's variable priority sequence."""

    name = "lex"

    def __init__(self, nvars: int):
        super().__init__(nvars)
        self.unit_v = 0
        self.total_bits = _EXP_BITS * nvars

    def encode(self, exps):
        v = 0
        for e in exps:
            if not 0 <= e <= _EXP_CAP:
                raise _bad_exponent(e)
            v = (v << _EXP_BITS) | e
        return v

    def decode(self, v):
        exps = []
        for _ in range(self.nvars):
            exps.append(v & _EXP_CAP)
            v >>= _EXP_BITS
        return tuple(reversed(exps))


class BlockElimination(MonomialOrder):
    """Two grevlex blocks; the leading (elimination) block dominates.

    The first `front` variables form the elimination block, so any monomial
    containing one of them beats every monomial in the remaining variables.
    """

    name = "elim"

    def __init__(self, nvars: int, front: int):
        super().__init__(nvars)
        if not 0 < front < nvars:
            raise ValueError("elimination block must be a proper nonempty prefix")
        self.front = front
        self._rest = nvars - front
        self._rest_bits = _EXP_BITS * self._rest + _DEG_BITS
        self.total_bits = self._rest_bits + _EXP_BITS * front + _DEG_BITS
        self.unit_v = (((1 << (_EXP_BITS * front)) - 1) << self._rest_bits) | (
            (1 << (_EXP_BITS * self._rest)) - 1
        )

    def encode(self, exps):
        vf = _grevlex_encode(exps[: self.front], self.front)
        vr = _grevlex_encode(exps[self.front:], self._rest)
        return (vf << self._rest_bits) | vr

    def decode(self, v):
        ef = _grevlex_decode(v >> self._rest_bits, self.front)
        er = _grevlex_decode(v & ((1 << self._rest_bits) - 1), self._rest)
        return ef + er

    def degree(self, v):
        vf, vr = v >> self._rest_bits, v & ((1 << self._rest_bits) - 1)
        return (vf >> (_EXP_BITS * self.front)) + (vr >> (_EXP_BITS * self._rest))

    def __repr__(self):
        return f"elim({self.front}|{self._rest})"


def make_order(spec, nvars: int, naux: int = 0) -> MonomialOrder:
    if isinstance(spec, MonomialOrder):
        if spec.nvars != nvars:
            raise ValueError("order arity does not match ring")
        return spec
    if spec == "grevlex":
        return Grevlex(nvars)
    if spec == "lex":
        return Lex(nvars)
    if spec == "elim":
        if naux == 0:
            raise ValueError("elimination order needs auxiliary variables up front")
        return BlockElimination(nvars, naux)
    raise ValueError(f"unknown monomial order {spec!r}")


def mon_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mon_divides(a, b):
    """True if monomial a divides b."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def mon_div(a, b):
    """Exponent tuple of a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mon_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def mon_degree(a):
    return sum(a)


def check_product(a, b, order: MonomialOrder):
    """Raise OverflowError if a product of a term of `a` and a term of `b`
    (packed term lists) could pass the cap, judged on each side's largest
    exponent per variable; a module key decodes to its scalar part."""
    tops = [map(max, zip(*[order.decode(v) for v, _ in t])) for t in (a, b)]
    if any(x + y > _EXP_CAP for x, y in zip(*tops)):
        raise OverflowError(f"product exponent exceeds order capacity {_EXP_CAP}")


class PolyRing:
    """k[t_*, x_i_j, y_i_j] for one matrix size n.

    Variable priority is aux vars first (highest), then x entries row-major,
    then y entries row-major, matching the default grevlex priority
    x_1_1 > x_1_2 > ... > y_n_n with any aux variables above all of them.
    """

    def __init__(self, n: int, field=QQ, order="grevlex", naux: int = 0):
        if n < 1:
            raise ValueError("matrix size must be >= 1")
        self.n = n
        self.field = field
        self.naux = naux
        vids = [VarId("t", 0, 0, k + 1) for k in range(naux)]
        vids += [VarId("x", i + 1, j + 1) for i in range(n) for j in range(n)]
        vids += [VarId("y", i + 1, j + 1) for i in range(n) for j in range(n)]
        self.variables = tuple(vids)
        self.nvars = len(vids)
        self.order = make_order(order, self.nvars, naux)
        self._index = {v.name: i for i, v in enumerate(vids)}
        self.zero = Polynomial(self, ())
        self.one = Polynomial(self, ((self.order.unit_v, field.one),))

    # -- construction -----------------------------------------------------

    def var(self, name: str) -> "Polynomial":
        try:
            i = self._index[name]
        except KeyError:
            raise ValueError(f"no variable {name!r} in this ring") from None
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, ((self.order.encode(exps), self.field.one),))

    def x(self, i: int, j: int) -> "Polynomial":
        return self.var(f"x_{i}_{j}")

    def y(self, i: int, j: int) -> "Polynomial":
        return self.var(f"y_{i}_{j}")

    def const(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        if self.field.is_zero(c):
            return self.zero
        return Polynomial(self, ((self.order.unit_v, c),))

    def poly(self, terms) -> "Polynomial":
        """Canonicalize a {exponent tuple: coeff} dict or iterable of pairs."""
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        fld = self.field
        enc = self.order.encode
        for mon, c in items:
            if len(mon) != self.nvars:
                raise ValueError("monomial arity does not match ring")
            v = enc(mon)
            c = fld.coerce(c)
            prev = acc.get(v)
            acc[v] = c if prev is None else fld.add(prev, c)
        return decompile(self, acc.items())

    def dot(self, pairs) -> "Polynomial":
        """sum(a * b for a, b in pairs) in one pass; see the module docstring."""
        p = self.field.p
        packed = {}  # id(f) -> (f, top, den, terms); holding f keeps every id unique

        def pack(f):
            got = packed.get(id(f))
            if got is None:
                if f.ring is not self and not self.same_signature(f.ring):
                    raise ValueError("polynomials from incompatible rings")
                terms, den = f.terms, 1
                if not p:
                    den = lcm(*[c.denominator for _, c in terms])
                    terms = [(v, c.numerator * (den // c.denominator)) for v, c in terms]
                packed[id(f)] = got = (f, f.degree(), den, terms)
            return got

        work = []
        common = 1
        for a, b in pairs:
            _, top_a, den_a, ta = pack(a)
            _, top_b, den_b, tb = pack(b)
            if not ta or not tb:
                continue
            if top_a + top_b > _EXP_CAP:
                check_product(ta, tb, self.order)
            work.append((ta, tb, den_a * den_b))
            common = lcm(common, den_a * den_b)
        shift = self.order.unit_v
        acc = {}
        get = acc.get
        for ta, tb, den in work:
            scale = common // den
            if len(ta) < len(tb):
                ta, tb = tb, ta
            for vb, cb in tb:
                vb -= shift
                cb *= scale
                for va, ca in ta:
                    v = va + vb
                    acc[v] = get(v, 0) + ca * cb
        if p:
            live = [(v, r) for v, c in acc.items() if (r := c % p)]
        else:
            live = [(v, Fraction(c, common)) for v, c in acc.items() if c]
        live.sort(reverse=True)
        return Polynomial(self, tuple(live))

    def same_signature(self, other: "PolyRing") -> bool:
        return (
            self.n == other.n
            and self.naux == other.naux
            and self.field == other.field
            and self.order == other.order
        )

    # -- gradings ----------------------------------------------------------

    def mon_bidegree(self, mon) -> tuple:
        """(x-degree, y-degree) of a monomial; aux exponents must be zero."""
        na, nsq = self.naux, self.n * self.n
        if any(mon[:na]):
            raise ValueError("bidegree undefined for auxiliary variables")
        return (sum(mon[na: na + nsq]), sum(mon[na + nsq:]))

    # -- ring extension for elimination ------------------------------------

    def with_elimination_vars(self, extra: int = 1) -> "PolyRing":
        return PolyRing(self.n, self.field, "elim", naux=self.naux + extra)

    def embed(self, f: "Polynomial", target: "PolyRing") -> "Polynomial":
        """Map f into target, which has the same x/y blocks and >= naux."""
        pad = target.naux - self.naux
        if pad < 0 or target.n != self.n or target.field != self.field:
            raise ValueError("incompatible target ring")
        zeros = (0,) * pad
        return target.poly([(zeros + mon, c) for mon, c in f.exponent_terms()])

    def project(self, f: "Polynomial", target: "PolyRing") -> "Polynomial":
        """Drop leading aux exponents (they must all be zero in f)."""
        drop = self.naux - target.naux
        if drop < 0 or target.n != self.n or target.field != self.field:
            raise ValueError("incompatible target ring")
        out = []
        for mon, c in f.exponent_terms():
            if any(mon[:drop]):
                raise ValueError("polynomial still involves eliminated variables")
            out.append((mon[drop:], c))
        return target.poly(out)

    # -- text format --------------------------------------------------------

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)

    def __repr__(self):
        return f"PolyRing(n={self.n}, field={self.field!r}, order={self.order!r}, naux={self.naux})"


class Polynomial:
    """Immutable sparse polynomial: (V, coeff) terms, keys strictly descending."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self.terms = terms

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def lm(self):
        """Leading monomial (exponent tuple)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.ring.order.decode(self.terms[0][0])

    def lc(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    def exponent_terms(self) -> list:
        """(exponent tuple, coeff) pairs, leading term first."""
        dec = self.ring.order.decode
        return [(dec(v), c) for v, c in self.terms]

    def degree(self):
        """Total degree, or -1 for the zero polynomial."""
        deg = self.ring.order.degree
        return max([deg(v) for v, _ in self.terms], default=-1)

    def is_homogeneous(self) -> bool:
        deg = self.ring.order.degree
        return len({deg(v) for v, _ in self.terms}) <= 1

    def bidegree(self):
        """Common (x-degree, y-degree) of all terms, else a marker string.

        The zero polynomial is degenerate and reports (0, 0).
        """
        if not self.terms:
            return (0, 0)
        ring = self.ring
        seen = {ring.mon_bidegree(mon) for mon, _ in self.exponent_terms()}
        if len(seen) > 1:
            return NOT_BIHOMOGENEOUS
        return seen.pop()

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.ring is not other.ring and not self.ring.same_signature(other.ring):
            raise ValueError("polynomials from incompatible rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._check(other)
        fld = self.ring.field
        acc = dict(self.terms)
        for v, c in other.terms:
            prev = acc.get(v)
            if prev is None:
                acc[v] = c
            else:
                s = fld.add(prev, c)
                if fld.is_zero(s):
                    del acc[v]
                else:
                    acc[v] = s
        return Polynomial(self.ring, tuple(sorted(acc.items(), reverse=True)))

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, tuple((v, neg(c)) for v, c in self.terms))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        return self.ring.dot(((self, other),))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self.ring.const(other) - self

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def scale(self, c):
        c = self.ring.field.coerce(c)
        if self.ring.field.is_zero(c):
            return self.ring.zero
        mul = self.ring.field.mul
        return Polynomial(self.ring, tuple((v, mul(cc, c)) for v, cc in self.terms))

    def monic(self):
        if not self.terms:
            return self
        return self.scale(self.ring.field.inv(self.lc()))

    def mul_monomial(self, mon, c=None):
        """Multiply by c * x^mon: every key shifts by V(mon) - V(1), no re-sort."""
        fld = self.ring.field
        c = fld.one if c is None else fld.coerce(c)
        if fld.is_zero(c):
            return self.ring.zero
        order = self.ring.order
        v = order.encode(mon)
        if self.degree() + sum(mon) > _EXP_CAP:
            check_product(self.terms, ((v, c),), order)
        shift = v - order.unit_v
        return Polynomial(self.ring, tuple((v + shift, fld.mul(cc, c)) for v, cc in self.terms))

    def exact_div(self, g: "Polynomial") -> "Polynomial":
        """Quotient self / g, raising if the division is not exact."""
        qs, r = divide(self, [g])
        if not r.is_zero():
            raise ValueError("division is not exact")
        return qs[0]

    def substitute(self, values: dict):
        """Evaluate at {var name: field element}; all variables must be given."""
        fld = self.ring.field
        vals = [fld.coerce(values[v.name]) for v in self.ring.variables]
        total = fld.zero
        for mon, c in self.exponent_terms():
            term = c
            for e, val in zip(mon, vals):
                for _ in range(e):
                    term = fld.mul(term, val)
            total = fld.add(total, term)
        return total

    # -- comparisons / hashing ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if other == 0:
                return not self.terms
            return NotImplemented
        return self.terms == other.terms and self.ring.same_signature(other.ring)

    def __hash__(self):
        return hash(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<{format_polynomial(self)}>"


# -- text format ---------------------------------------------------------------

_VAR_RE = re.compile(r"^([xy])_(\d+)_(\d+)$|^t_(\d+)$")
_COEFF_RE = re.compile(r"^\d+(/\d+)?$")


def format_polynomial(f: Polynomial) -> str:
    """Render in the shared text format: `c*v^e*...` terms joined by ` + `/` - `."""
    if not f.terms:
        return "0"
    fld = f.ring.field
    names = [v.name for v in f.ring.variables]
    chunks = []
    for k, (mon, c) in enumerate(f.exponent_terms()):
        neg = False
        if fld.p is None and c < 0:
            neg, c = True, -c
        factors = []
        for name, e in zip(names, mon):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        cs = fld.coeff_str(c)
        if not factors:
            body = cs
        elif cs == "1":
            body = "*".join(factors)
        else:
            body = "*".join([cs] + factors)
        if k == 0:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    """Parse the text format; whitespace is free, `-` both binds and separates."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return ring.zero
    pieces = re.findall(r"[+-]?[^+-]+", s)
    if "".join(pieces) != s:
        raise ValueError(f"cannot tokenize polynomial text {text!r}")
    fld = ring.field
    terms = []
    for piece in pieces:
        sign = 1
        if piece[0] == "+":
            piece = piece[1:]
        elif piece[0] == "-":
            sign = -1
            piece = piece[1:]
        if not piece:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = Fraction(sign)
        exps = [0] * ring.nvars
        for factor in piece.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            if _COEFF_RE.match(factor):
                coeff *= Fraction(factor)
                continue
            if "^" in factor:
                base, _, expo = factor.partition("^")
                e = int(expo)
            else:
                base, e = factor, 1
            if e < 0:
                raise ValueError("negative exponent")
            if not _VAR_RE.match(base):
                raise ValueError(f"bad variable token {base!r}")
            try:
                idx = ring._index[base]
            except KeyError:
                raise ValueError(f"variable {base!r} not in ring") from None
            exps[idx] += e
        terms.append((tuple(exps), fld.coerce(coeff)))
    return ring.poly(terms)


# -- division kernel -------------------------------------------------------------
#
# Polynomials and module vectors run through the kernel as (V, coeff) terms.
# A reducer store answers find(V) -> compiled entry or None, so one
# normal-form loop serves both.


class CompiledPoly:
    """A nonzero polynomial or module vector as packed (V, coeff) terms.

    Built from its descending terms, the lead's exponents and tail_deg, the
    largest total degree among the other terms.
    """

    __slots__ = (
        "index", "lead_v", "lead_exps", "lead_deg", "mask", "tail", "tail_deg", "lc", "lc_inv"
    )

    def __init__(self, terms, lead_exps, tail_deg, field, index: int = -1):
        self.index = index
        self.lead_v, self.lc = terms[0]
        self.lead_exps = lead_exps
        self.lead_deg = sum(lead_exps)
        self.mask = var_mask(lead_exps)
        self.tail = terms[1:]
        self.tail_deg = tail_deg
        self.lc_inv = field.inv(self.lc)


def var_mask(exps) -> int:
    m = 0
    for i, e in enumerate(exps):
        if e:
            m |= 1 << i
    return m


def compile_terms(terms, ring: PolyRing, index: int = -1) -> CompiledPoly:
    """CompiledPoly over nonempty descending packed terms of a polynomial or
    of a module vector, whose position bits sit above the order's keys."""
    order = ring.order
    scalar = (1 << order.total_bits) - 1
    tail_deg = max([order.degree(v & scalar) for v, _ in terms[1:]], default=0)
    return CompiledPoly(terms, order.decode(terms[0][0]), tail_deg, ring.field, index)


def compile_poly(f: Polynomial, index: int = -1) -> CompiledPoly:
    """CompiledPoly over f's own terms, which are already keyed and sorted."""
    if f.is_zero():
        raise ValueError("cannot compile the zero polynomial")
    return compile_terms(f.terms, f.ring, index)


def check_multiple(q, cp: CompiledPoly, order: MonomialOrder):
    """Raise OverflowError if x^q times a tail term of cp would pass the cap;
    past the bound deg(q) + cp.tail_deg the tail is decoded (decoders read
    only the exponent fields, so a module key decodes to its scalar part)."""
    if sum(q) + cp.tail_deg <= _EXP_CAP:
        return
    for t, _ in cp.tail:
        if any(x + y > _EXP_CAP for x, y in zip(q, order.decode(t))):
            raise OverflowError(f"reduction exponent exceeds order capacity {_EXP_CAP}")


def decompile(ring: PolyRing, terms) -> Polynomial:
    """Polynomial from (V, coeff) terms with distinct keys: drop zeros, sort on V."""
    is_zero = ring.field.is_zero
    return Polynomial(ring, tuple(sorted([t for t in terms if not is_zero(t[1])], reverse=True)))


class DegreeBucketReducers:
    """Reducer store bucketed by lead total degree (smallest degree wins).

    find(v) decodes the packed key v with the store's order and returns the
    first reducer, by lead degree and then insertion, whose lead divides it,
    after `check_multiple` has cleared the step.
    """

    __slots__ = ("order", "by_deg", "degrees")

    def __init__(self, order: MonomialOrder, entries=()):
        self.order = order
        self.by_deg: dict[int, list] = {}
        self.degrees: list[int] = []
        for cp in entries:
            self.add(cp)

    def add(self, cp: CompiledPoly):
        bucket = self.by_deg.get(cp.lead_deg)
        if bucket is None:
            self.by_deg[cp.lead_deg] = [cp]
            insort(self.degrees, cp.lead_deg)
        else:
            bucket.append(cp)

    def find(self, v):
        exps = self.order.decode(v)
        deg = sum(exps)
        emask = var_mask(exps)
        for d in self.degrees:
            if d > deg:
                return None
            for r in self.by_deg[d]:
                if r.mask & ~emask:
                    continue
                le = r.lead_exps
                ok = True
                for i in range(len(exps)):
                    if le[i] > exps[i]:
                        ok = False
                        break
                if ok:
                    if deg - d + r.tail_deg > _EXP_CAP:
                        check_multiple(mon_div(exps, le), r, self.order)
                    return r
        return None


def normal_form(terms, reducers, field, record=None):
    """Reduce a compiled term list to normal form against `reducers`.

    terms: sized iterable of (V, coeff); reducers: any store with find(V).
    Over GF(p) every coefficient is kept reduced mod p.  Returns the
    remainder as a descending list of (V, coeff).  When `record` is a list,
    appends one event (reducer_index, delta_v, coeff) per reduction step,
    where the subtracted multiple is coeff * monomial(delta_v + V(1)) * reducer.
    """
    p = field.p
    acc = {}
    heap = []
    for v, c in terms:
        prev = acc.get(v)
        if prev is None:
            acc[v] = c
            heappush(heap, -v)
        else:
            s = prev + c
            if p:
                s %= p
            if s:
                acc[v] = s
            else:
                del acc[v]
    rem = []
    find = reducers.find
    while heap:
        v = -heappop(heap)
        c = acc.pop(v, None)
        if not c:
            continue
        red = find(v)
        if red is None:
            rem.append((v, c))
            continue
        cf = c * red.lc_inv
        if p:
            cf %= p
        delta = v - red.lead_v
        if record is not None:
            record.append((red.index, delta, cf))
        for vt, ct in red.tail:
            vn = vt + delta
            prev = acc.get(vn)
            if prev is None:
                s = -cf * ct
                if p:
                    s %= p
                acc[vn] = s
                heappush(heap, -vn)
            else:
                s = prev - cf * ct
                if p:
                    s %= p
                if s:
                    acc[vn] = s
                else:
                    del acc[vn]
    return rem


def divide(f: Polynomial, divisors: Sequence[Polynomial]):
    """Multivariate division: f = sum(q_i * g_i) + r.

    Deterministic given the ring's order and the divisors: at each step the
    first divisor, by lead degree and then listed position, whose lead
    divides the current lead is used.  No monomial of r is divisible by any
    divisor lead.
    """
    ring = f.ring
    gs = list(divisors)
    if any(g.is_zero() for g in gs):
        raise ValueError("zero divisor in division")
    reducers = DegreeBucketReducers(ring.order, (compile_poly(g, i) for i, g in enumerate(gs)))
    record = []
    r = decompile(ring, normal_form(f.terms, reducers, ring.field, record))
    # each step reduces a smaller term, so no quotient key repeats
    unit = ring.order.unit_v
    qacc = [[] for _ in gs]
    for idx, delta, cf in record:
        qacc[idx].append((delta + unit, cf))
    return [decompile(ring, q) for q in qacc], r
