from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from commsyz.fields import GF, QQ, field_from_name, is_prime

PRIMES = [2, 3, 5, 7, 101, 32003]


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for m in range(2, 32):
        assert is_prime(m) == (m in primes)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert is_prime(32003)
    assert not is_prime(32001)


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)


@given(
    p=st.sampled_from(PRIMES),
    a=st.integers(-(10**6), 10**6),
    b=st.integers(-(10**6), 10**6),
)
def test_gf_ring_axioms(p, a, b):
    fld = GF(p)
    x, y = fld.coerce(a), fld.coerce(b)
    assert 0 <= x < p
    assert fld.add(x, y) == (a + b) % p
    assert fld.mul(x, y) == (a * b) % p
    assert fld.add(x, fld.neg(y)) == (a - b) % p
    assert fld.add(x, fld.neg(x)) == fld.coerce(0)


@given(p=st.sampled_from(PRIMES), a=st.integers(1, 10**6))
def test_gf_inverse(p, a):
    fld = GF(p)
    x = fld.coerce(a)
    if x == 0:
        with pytest.raises(ZeroDivisionError):
            fld.inv(x)
    else:
        assert fld.mul(x, fld.inv(x)) == fld.one


@given(a=st.fractions(max_denominator=50), b=st.fractions(max_denominator=50))
def test_qq_field_ops(a, b):
    assert QQ.add(a, b) == a + b
    assert QQ.mul(a, b) == a * b
    if b:
        assert QQ.mul(a, QQ.inv(b)) == a / b
    assert QQ.coerce(7) == Fraction(7)


def test_field_from_name():
    assert field_from_name("q") is QQ
    assert field_from_name("gf:32003") == GF(32003)
    with pytest.raises(ValueError):
        field_from_name("gf:4")
    with pytest.raises(ValueError):
        field_from_name("banana")


def test_gf_coerce_refuses_denominators_divisible_by_p():
    assert GF(7).coerce(Fraction(1, 3)) == 5
    assert GF(7).coerce(Fraction(-2, 5)) == 1
    for x in (Fraction(1, 7), Fraction(3, 14), Fraction(-5, 49)):
        with pytest.raises(ZeroDivisionError, match=r"GF\(7\)"):
            GF(7).coerce(x)
    assert GF(32003).coerce(Fraction(1, 7)) == pow(7, -1, 32003)


def test_coeff_str_signs():
    fld = GF(32003)
    assert fld.coeff_str(fld.coerce(-1)) == "32002"
    assert QQ.coeff_str(Fraction(-3, 2)) == "-3/2"
