"""Sparse multivariate polynomials over Q or GF(p) with pluggable monomial orders.

Variables describe entries of n x n generic matrices: x_i_j and y_i_j.
Every order packs an exponent tuple into one integer V such that

    V(m1) > V(m2)  iff  m1 > m2 in the order, and
    V(m1 * m2) = V(m1) + V(m2) - V(1),

and a monomial *is* its key: `Polynomial.terms` is a strictly descending
tuple of (V, coeff).  Sums merge keys, a monomial multiple shifts them, the
total degree is read off a key, and the division kernel runs on the same
keys.  Exponent tuples exist only at the edges: `PolyRing.poly`, `var` and
`parse` encode (refusing exponents outside 0..255); printing and
bidegrees decode.  A free-module vector's keys carry position bits above
its scalar order's (`ModuleOrder`).  Divisibility, lcm and support tests
(reducer lookup, pair criteria, cap checks, the Hilbert recursion) run on
`MonomialOrder.packed(V)`, one int per monomial with each exponent in its
own byte, read off the key with one `&` and one `^` (see `MonomialOrder`).

Products go through one kernel, `sum_of_products`, which accumulates term
products in a dict keyed by V(a) + V(b) - V(1) and sorts the keys once; it
serves `PolyRing.dots(sums)`, a list of sum(a * b) over the pairs of each
sum, and the module representations the signature loop tracks.
`PolyRing.dot(pairs)` is one sum of `dots`, and a matrix product is one
`dots` call.  Over QQ, `dots` packs each distinct operand once per call (its
Fraction coefficients as int numerators over one denominator), and the kernel
builds one Fraction per distinct coefficient sum, which every term with that
coefficient shares; Fractions are immutable, so sharing is safe.

Additivity holds only while every exponent stays within the 8-bit cap,
where a key would otherwise borrow silently from its neighbour.  So every key sum (products, reduction steps, S-polynomials)
first passes the one cap rule, `check_product(e, terms, order)`, which
raises OverflowError if packed exponents e plus those of some term pass
255 in a variable.  Products pass the lcm of one side's exponents; a
reduction step or an S-polynomial passes the multiplier, lcm - lead.  Total
degrees read from the keys settle almost every check before it is called.
"""
from __future__ import annotations

import re
from bisect import insort
from fractions import Fraction
from functools import reduce
from heapq import heappush, heappop
from math import lcm
from typing import Sequence

from .fields import QQ

_EXP_BITS = 8
_EXP_CAP = (1 << _EXP_BITS) - 1
_DEG_BITS = 24
_DEG_MASK = (1 << _DEG_BITS) - 1
_SERIAL_BITS = 32  # insertion serials in a reducer store's ranks

NOT_BIHOMOGENEOUS = "not bihomogeneous"


class MonomialOrder:
    """Base class: a total multiplicative well-order on exponent tuples.

    A key holds each exponent in a byte of its own (as 255 - e in the bytes
    `flip` covers) beside degree fields.  packed(v) = (v & exp_mask) ^ flip
    is the int whose bytes are the exponents, with a module key's position
    bits dropped, and `low` has the low bit of each exponent byte set.  On
    packed ints a divides b iff b - a borrows out of no byte, and a + b
    passes the cap iff it carries out of one: (b ^ a ^ (b -/+ a)) & (low << 8)
    is nonzero exactly then, for every exponent 0..255.
    """

    name = "?"

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.total_bits = 0  # every encoding fits in this many bits; subclasses overwrite

    def _layout(self, blocks, flip: bool):
        """Packed-exponent constants from the exponent blocks: (shift, count,
        shift of the block's degree field or None)."""
        fields = [(((1 << (_EXP_BITS * count)) - 1) << shift, d) for shift, count, d in blocks]
        self.exp_mask = sum(field for field, _ in fields)
        self.low = self.exp_mask // _EXP_CAP
        self.flip = self.exp_mask if flip else 0
        self.unit_v = self.flip  # V(1)
        self._degree_fields = [(field, d) for field, d in fields if d is not None]
        self._nbytes = self.total_bits // _EXP_BITS
        # lcm works on alternate bytes, each with the next byte as its guard
        even = int("00ff" * (self._nbytes // 2 + 1), 16) & self.exp_mask
        self._lanes = [(m, (self.low & m) << _EXP_BITS) for m in (even, self.exp_mask ^ even)]
        units = [[int(i == k) for i in range(self.nvars)] for k in range(self.nvars)]
        self._var_bytes = [self.packed(self.encode(u)).bit_length() // _EXP_BITS for u in units]

    def encode(self, exps: Sequence[int]) -> int:
        raise NotImplementedError

    def decode(self, v: int) -> tuple:
        """Exponent tuple of the monomial whose (scalar or module) key is v."""
        b = self.packed(v).to_bytes(self._nbytes, "little")
        return tuple(map(b.__getitem__, self._var_bytes))

    def packed(self, v: int) -> int:
        """Packed exponents of the monomial whose (scalar or module) key is v."""
        return (v & self.exp_mask) ^ self.flip

    def key(self, e: int) -> int:
        """Scalar key of the monomial with packed exponents e."""
        v = e ^ self.flip
        for field, shift in self._degree_fields:
            v |= sum((e & field).to_bytes(self._nbytes, "little")) << shift
        return v

    def degree(self, v: int) -> int:
        """Total degree of the monomial whose (scalar or module) key is v."""
        return sum(self.packed(v).to_bytes(self._nbytes, "little"))

    def divides(self, a: int, b: int) -> bool:
        """Packed a divides packed b: no byte of b - a borrows."""
        return not (b ^ a ^ (b - a)) & (self.low << _EXP_BITS)

    def lcm(self, a: int, b: int) -> int:
        """Packed lcm: the larger exponent of each byte."""
        out = 0
        for lanes, guard in self._lanes:
            x, y = a & lanes, b & lanes
            t = ((x | guard) - y) & guard  # guard kept iff x >= y
            out |= y ^ ((x ^ y) & (t - (t >> _EXP_BITS)))
        return out

    def support(self, e: int) -> int:
        """The low bit of every nonzero byte of packed e."""
        s = e | e >> 4
        s |= s >> 2
        return (s | s >> 1) & self.low

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


class Grevlex(MonomialOrder):
    """Graded reverse lexicographic; ties go to the smaller trailing exponent."""

    name = "grevlex"

    def __init__(self, nvars: int):
        super().__init__(nvars)
        self.total_bits = _EXP_BITS * nvars + _DEG_BITS
        self._deg_shift = _EXP_BITS * nvars
        self._layout([(0, nvars, self._deg_shift)], flip=True)

    def encode(self, exps):
        return _grevlex_encode(exps, self.nvars)

    def degree(self, v):
        return (v >> self._deg_shift) & _DEG_MASK


class Lex(MonomialOrder):
    """Pure lexicographic on the ring's variable priority sequence."""

    name = "lex"

    def __init__(self, nvars: int):
        super().__init__(nvars)
        self.total_bits = _EXP_BITS * nvars
        self._layout([(0, nvars, None)], flip=False)

    def encode(self, exps):
        v = 0
        for e in exps:
            if not 0 <= e <= _EXP_CAP:
                raise _bad_exponent(e)
            v = (v << _EXP_BITS) | e
        return v


class BlockElimination(MonomialOrder):
    """Two grevlex blocks; the leading (elimination) block dominates.

    The first `front` variables form the elimination block, so any monomial
    containing one of them beats every monomial in the remaining variables.
    `make_order` has no spec for it: a ring takes it as an instance.
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
        self._layout(
            [
                (0, self._rest, _EXP_BITS * self._rest),
                (self._rest_bits, front, self._rest_bits + _EXP_BITS * front),
            ],
            flip=True,
        )

    def encode(self, exps):
        vf = _grevlex_encode(exps[: self.front], self.front)
        vr = _grevlex_encode(exps[self.front:], self._rest)
        return (vf << self._rest_bits) | vr

    def degree(self, v):
        vf, vr = v >> self._rest_bits, v & ((1 << self._rest_bits) - 1)
        return ((vf >> (_EXP_BITS * self.front)) & _DEG_MASK) + (vr >> (_EXP_BITS * self._rest))

    def __repr__(self):
        return f"elim({self.front}|{self._rest})"


class ModuleOrder:
    """Position-over-term: e_0 > e_1 > ...; the scalar order breaks ties.

    A module monomial (position p, scalar monomial with key v) encodes as
    ((rank - p) << shift) | v, so integer comparison is the module order and
    adding a scalar multiplier's offset preserves position.  The position
    bits are never 0, so every vector key carries them and no polynomial
    key does.
    """

    def __init__(self, scalar: MonomialOrder, rank: int):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self.shift = scalar.total_bits
        self._smask = (1 << self.shift) - 1

    def encode(self, pos: int, v: int) -> int:
        return ((self.rank - pos) << self.shift) | v

    def decode(self, v: int):
        """(position, scalar key) of a module key."""
        return (self.rank - (v >> self.shift), v & self._smask)


def vector_terms(vec: Sequence["Polynomial"], morder: ModuleOrder) -> list:
    """Descending module (V, coeff) terms: positions in order, each descending."""
    encode = morder.encode
    return [(encode(pos, v), c) for pos, p in enumerate(vec) for v, c in p.terms]


def decompile_vector(ring: "PolyRing", rank: int, terms, morder: ModuleOrder):
    """The rank-length tuple of polynomials whose module terms are `terms`,
    descending with distinct keys and no zero coefficient: each position's
    terms then follow one another in descending order."""
    buckets = [[] for _ in range(rank)]
    for v, c in terms:
        pos, sv = morder.decode(v)
        buckets[pos].append((sv, c))
    return tuple(Polynomial(ring, tuple(b)) for b in buckets)


def make_order(spec, nvars: int) -> MonomialOrder:
    if isinstance(spec, MonomialOrder):
        if spec.nvars != nvars:
            raise ValueError("order arity does not match ring")
        return spec
    if spec == "grevlex":
        return Grevlex(nvars)
    if spec == "lex":
        return Lex(nvars)
    raise ValueError(f"unknown monomial order {spec!r}")


def sum_of_products(work, unit: int, p, common=1) -> list:
    """sum(scale * a * b) over `work` items (a, b, scale) of term lists, as
    a descending term list keyed by V(a) + V(b) - unit.  Each sum is reduced
    mod p over GF(p) and divided by `common` over QQ, one Fraction per distinct
    sum shared by the terms that carry it; callers check the cap."""
    acc = {}
    get = acc.get
    for ta, tb, scale in work:
        if len(ta) < len(tb):
            ta, tb = tb, ta
        for vb, cb in tb:
            vb -= unit
            cb *= scale
            for va, ca in ta:
                v = va + vb
                acc[v] = get(v, 0) + ca * cb
    if p:
        live = [(v, r) for v, c in acc.items() if (r := c % p)]
    else:
        shared = {c: Fraction(c, common) for c in set(acc.values()) if c}
        live = [(v, shared[c]) for v, c in acc.items() if c]
    live.sort(reverse=True)
    return live


def check_product(e: int, terms, order: MonomialOrder):
    """The one cap rule: raise OverflowError if the packed exponents `e` plus
    those of some term of `terms` (a scalar or module term list) pass 255 in
    some variable, which is a carry out of that variable's byte."""
    carry = order.low << _EXP_BITS
    for v, _ in terms:
        t = order.packed(v)
        if (e ^ t ^ (e + t)) & carry:
            raise OverflowError(f"product exponent exceeds order capacity {_EXP_CAP}")


def packed_lcm(terms, order: MonomialOrder) -> int:
    """Each variable's largest exponent over a term list, packed: a product
    with it passes the cap iff a product with one of the terms does."""
    return reduce(order.lcm, [order.packed(v) for v, _ in terms], 0)


class PolyRing:
    """k[x_i_j, y_i_j] for one matrix size n.

    Variable priority is the x entries row-major, then the y entries
    row-major: x_1_1 > x_1_2 > ... > y_n_n.
    """

    def __init__(self, n: int, field=QQ, order="grevlex"):
        if n < 1:
            raise ValueError("matrix size must be >= 1")
        self.n = n
        self.field = field
        self.names = tuple(f"{b}_{i + 1}_{j + 1}" for b in "xy" for i in range(n) for j in range(n))
        self.nvars = len(self.names)
        self.order = make_order(order, self.nvars)
        self._index = {name: i for i, name in enumerate(self.names)}
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
        """sum(a * b for a, b in pairs); one sum of `dots`."""
        return self.dots([pairs])[0]

    def dots(self, sums) -> list:
        """[dot(pairs) for pairs in sums], packing each distinct operand once
        for the whole call; see the module docstring."""
        p, unit = self.field.p, self.order.unit_v
        packed = {}  # id(f) -> (f, top, den, terms); holding f keeps every id unique

        def pack(f):
            got = packed.get(id(f))
            if got is None:
                self.check(f)
                terms, den = f.terms, 1
                if not p:
                    den = lcm(*[c.denominator for _, c in terms])
                    terms = [(v, c.numerator * (den // c.denominator)) for v, c in terms]
                packed[id(f)] = got = (f, f.degree(), den, terms)
            return got

        out = []
        for pairs in sums:
            work = []
            common = 1
            for a, b in pairs:
                _, top_a, den_a, ta = pack(a)
                _, top_b, den_b, tb = pack(b)
                if not ta or not tb:
                    continue
                if top_a + top_b > _EXP_CAP:
                    check_product(packed_lcm(ta, self.order), tb, self.order)
                work.append((ta, tb, den_a * den_b))
                common = lcm(common, den_a * den_b)
            work = [(ta, tb, common // den) for ta, tb, den in work]
            out.append(Polynomial(self, tuple(sum_of_products(work, unit, p, common))))
        return out

    def same_signature(self, other: "PolyRing") -> bool:
        return self.n == other.n and self.field == other.field and self.order == other.order

    def check(self, f: "Polynomial", what: str = "polynomials") -> None:
        """Refuse f unless its ring's packed keys name this ring's monomials."""
        if f.ring is not self and not self.same_signature(f.ring):
            raise ValueError(f"{what} from incompatible rings")

    # -- gradings ----------------------------------------------------------

    def mon_bidegree(self, mon) -> tuple:
        """(x-degree, y-degree) of a monomial."""
        nsq = self.n * self.n
        return (sum(mon[:nsq]), sum(mon[nsq:]))

    # -- text format --------------------------------------------------------

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)

    def __repr__(self):
        return f"PolyRing(n={self.n}, field={self.field!r}, order={self.order!r})"


class Polynomial:
    """Immutable sparse polynomial: (V, coeff) terms, keys strictly descending."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self.terms = terms

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

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

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self.ring.check(other)
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

_VAR_RE = re.compile(r"^[xy]_\d+_\d+$")
_COEFF_RE = re.compile(r"^\d+(/\d+)?$")


def format_polynomial(f: Polynomial) -> str:
    """Render in the shared text format: `c*v^e*...` terms joined by ` + `/` - `."""
    if not f.terms:
        return "0"
    fld = f.ring.field
    names = f.ring.names
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
    pieces = re.findall(r"[+-]?(?:[^+-]|(?<=\^)[+-])+", s)  # a sign after ^ stays in its term
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
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in the term {piece!r}") from None
                continue
            base, caret, expo = factor.partition("^")
            if caret and not (expo.isascii() and expo.isdigit()):
                raise ValueError(f"bad exponent in the factor {factor!r} of {text!r}")
            e = int(expo) if caret else 1
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
# One reducer store, `DegreeBucketReducers`, answers find(V) -> compiled
# entry or None for both, so one normal-form loop serves both.


class CompiledPoly:
    """A nonzero polynomial or module vector as packed (V, coeff) terms.

    Built from its descending terms, the scalar order, the lead's total
    degree and tail_deg, the largest total degree among the other terms.
    The lead's packed exponents (`packed`) and their support mask serve
    every divisibility test.
    """

    __slots__ = (
        "index", "lead_v", "packed", "support", "lead_deg", "tail", "tail_deg", "lc", "lc_inv"
    )

    def __init__(self, terms, order: MonomialOrder, lead_deg, tail_deg, field, index: int = -1):
        self.index = index
        self.lead_v, self.lc = terms[0]
        self.packed = order.packed(self.lead_v)
        self.support = order.support(self.packed)
        self.lead_deg = lead_deg
        self.tail = terms[1:]
        self.tail_deg = tail_deg
        self.lc_inv = field.inv(self.lc)


def compile_terms(terms, ring: PolyRing, index: int = -1) -> CompiledPoly:
    """CompiledPoly over nonempty descending packed terms of a polynomial or
    of a module vector, whose position bits sit above the order's keys."""
    order = ring.order
    degs = [order.degree(v) for v, _ in terms]
    return CompiledPoly(terms, order, degs[0], max(degs[1:], default=0), ring.field, index)


def compile_poly(f: Polynomial, index: int = -1) -> CompiledPoly:
    """CompiledPoly over f's own terms, which are already keyed and sorted."""
    if f.is_zero():
        raise ValueError("cannot compile the zero polynomial")
    return compile_terms(f.terms, f.ring, index)


def decompile(ring: PolyRing, terms) -> Polynomial:
    """Polynomial from (V, coeff) terms with distinct keys: drop zeros, sort on V."""
    is_zero = ring.field.is_zero
    return Polynomial(ring, tuple(sorted([t for t in terms if not is_zero(t[1])], reverse=True)))


class DegreeBucketReducers:
    """Reducer store indexed by lead position, then anchor variable
    (smallest lead degree wins).

    find(v) returns the first reducer, by lead degree and then insertion,
    whose lead divides v's monomial and sits at v's position or at 0, after
    `check_product` has cleared the step.  A reducer is filed under its
    lead's position bits, `lead_v >> order.total_bits`: 0 for a polynomial,
    which acts on every position, never 0 for a module vector
    (`ModuleOrder`), which acts only at its own.  Within a position each
    reducer sits in the group of its anchor, the low bit of the highest
    nonzero byte of its lead's packed exponents (0 for a constant lead),
    kept sorted by rank = (lead degree, insertion serial).  A group whose
    anchor variable is absent from v is skipped with one test; a group that
    is scanned stops at its first divisor or at the best rank found so far,
    so the least rank among the groups' first divisors is the answer.  It
    decodes nothing: a reducer whose support mask is not within v's is
    skipped, and the rest face the borrow test on packed exponents.

    find(v, signature) is the regular lookup of the signature loop, with
    signature = (s, sigs), s the signature key of the element reduced and
    sigs[r.index] that of reducer r: a divisor qualifies only if
    sigs[r.index] plus the scalar offset of v - r.lead_v, its multiplied
    signature, is below s; past the cap `check_product` clears it first.
    """

    __slots__ = ("order", "scalar", "positions", "serial")

    def __init__(self, order: MonomialOrder, entries=()):
        self.order = order
        self.scalar = (1 << order.total_bits) - 1  # the keys below any position bits
        self.positions: dict = {}  # position bits -> [(anchor bit, [(rank, reducer)] sorted)]
        self.serial = 0
        for cp in entries:
            self.add(cp)

    def add(self, cp: CompiledPoly):
        anchor = cp.support and 1 << (cp.support.bit_length() - 1)
        groups = self.positions.setdefault(cp.lead_v >> self.order.total_bits, [])
        for bit, group in groups:
            if bit == anchor:
                break
        else:
            group = []
            groups.append((anchor, group))
        # ranks are unique, so insort never compares two reducers
        insort(group, (cp.lead_deg << _SERIAL_BITS | self.serial, cp))
        self.serial += 1

    def find(self, v, signature=None):
        order, positions, scalar = self.order, self.positions, self.scalar
        groups = positions.get(v >> order.total_bits, ())
        if v > scalar and 0 in positions:
            groups = [*groups, *positions[0]]
        e = order.packed(v)
        deg = order.degree(v)
        absent = order.low ^ order.support(e)
        borrow = order.low << _EXP_BITS
        best = None
        limit = (deg + 1) << _SERIAL_BITS
        for anchor, group in groups:
            if anchor & absent:
                continue
            for rank, r in group:
                if rank >= limit:
                    break
                if r.support & absent:
                    continue
                a = r.packed
                if (e ^ a ^ (e - a)) & borrow:
                    continue
                if signature is not None:
                    s, sigs = signature
                    sig = sigs[r.index]
                    if deg > _EXP_CAP:
                        check_product(e - a, ((sig, 0),), order)
                    if sig + ((v - r.lead_v) & scalar) >= s:
                        continue
                best, limit = r, rank
                break
        if best is not None and deg - best.lead_deg + best.tail_deg > _EXP_CAP:
            check_product(e - best.packed, best.tail, order)
        return best


def normal_form(terms, reducers, field, record=None, signature=None):
    """Reduce a compiled term list to normal form against `reducers`.

    terms: sized iterable of (V, coeff); reducers: any store with find(V).
    Returns the remainder as a descending list of (V, coeff).  When `record`
    is a list, appends one event (reducer_index, delta_v, coeff) per
    reduction step, where the subtracted multiple is
    coeff * monomial(delta_v + V(1)) * reducer.  Every key enters the
    accumulator once: a step adds only keys below the one it reduces, which
    was popped for good.  Over GF(p) a key's int sum is reduced mod p once,
    when it is popped, so the remainder and the recorded coefficients are
    residues in 1..p-1 and a key whose sum is a multiple of p is dropped.

    With `signature` = (s, sigs) it is regular top reduction in the
    signature loop: each step takes `reducers.find(V, signature)`, a reducer
    of multiplied signature below s, and the loop stops at the first term
    that has none, returning it and every term below it as they stand.
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
            acc[v] = prev + c
    rem = []
    find = reducers.find
    while heap:
        v = -heappop(heap)
        c = acc.pop(v)
        if p:
            c %= p
        if not c:
            continue
        red = find(v) if signature is None else find(v, signature)
        if red is None:
            rem.append((v, c))
            if signature is not None:  # top reduction ends here
                for w, d in sorted(acc.items(), reverse=True):
                    if p:
                        d %= p
                    if d:
                        rem.append((w, d))
                return rem
            continue
        cf = c * red.lc_inv
        if p:
            cf %= p
        delta = v - red.lead_v
        if record is not None:
            record.append((red.index, delta, cf))
        neg = -cf
        for vt, ct in red.tail:
            vn = vt + delta
            prev = acc.get(vn)
            if prev is None:
                acc[vn] = neg * ct
                heappush(heap, -vn)
            else:
                acc[vn] = prev + neg * ct
    return rem

