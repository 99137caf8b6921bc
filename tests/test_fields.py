from fractions import Fraction

import pytest

from nalg.fields import GF, Mod, PrimeField, QQ, Rationals, is_prime


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(-3, 25):
        assert is_prime(n) == (n in primes)


def test_is_prime_mersenne():
    assert is_prime(2**61 - 1)


def test_is_prime_strong_pseudoprime_to_bases_up_to_7():
    assert not is_prime(3215031751)


def test_is_prime_strong_pseudoprime_to_bases_up_to_31():
    assert not is_prime(3825123056546413051)


def test_is_prime_strong_pseudoprime_to_bases_up_to_37():
    # 399165290221 * 798330580441, the least strong pseudoprime to the
    # first 12 prime bases (Jiang and Deng, Math. Comp. 83, 2014): only
    # base 41 exposes it
    assert 318665857834031151167461 == 399165290221 * 798330580441
    assert not is_prime(318665857834031151167461)


def test_is_prime_rejects_values_above_the_bound():
    with pytest.raises(ValueError, match="too large"):
        is_prime(2**127 - 1)


def test_mod_arithmetic_matches_integers():
    """Exhaustive check against plain integer arithmetic mod p."""
    for p in (2, 3, 5, 7):
        f = GF(p)
        for a in range(p):
            for b in range(p):
                x, y = f.of(a), f.of(b)
                assert (x + y).r == (a + b) % p
                assert (x - y).r == (a - b) % p
                assert (x * y).r == (a * b) % p
                if b % p != 0:
                    assert ((x / y) * y).r == a % p


def test_mod_inverse_exhaustive():
    for p in (2, 3, 5, 7, 11, 13):
        f = GF(p)
        for a in range(1, p):
            inv = f.of(a).inverse()
            assert (f.of(a) * inv) == 1


def test_mod_division_by_zero():
    f = GF(5)
    with pytest.raises(ZeroDivisionError):
        f.of(1) / f.of(0)
    with pytest.raises(ZeroDivisionError):
        f.of(0).inverse()


def test_mod_int_mixing():
    f = GF(7)
    a = f.of(3)
    assert a + 4 == 0
    assert 4 + a == 0
    assert a * 5 == 1
    assert 2 - a == 6
    assert a == 10
    assert a != 4


def test_mod_cross_prime_rejected():
    a = GF(5).of(2)
    b = GF(7).of(2)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    assert a != b


def test_mod_negation_and_bool():
    f = GF(5)
    assert (-f.of(2)).r == 3
    assert not f.of(0)
    assert f.of(1)
    assert -f.of(0) == 0


def test_mod_power():
    f = GF(13)
    for a in range(1, 13):
        # Fermat: a^(p-1) = 1
        assert f.of(a) ** 12 == 1
    assert f.of(2) ** 0 == 1


def test_rationals_basic():
    q = QQ
    assert q.char == 0
    assert q.zero == Fraction(0)
    assert q.one == Fraction(1)
    assert q.of(3) == Fraction(3)
    assert q.of(Fraction(1, 2)) + q.of(Fraction(1, 3)) == Fraction(5, 6)


def test_rationals_parse_format_round_trip():
    q = QQ
    for text in ("0", "1", "-1", "2/3", "-7/5", "10"):
        assert q.format(q.parse(text)) == text


def test_prime_field_parse_and_format():
    f = GF(7)
    assert f.parse("3") == 3
    assert f.parse("-1") == 6
    assert f.parse("1/2") == 4  # 2 * 4 = 8 = 1
    assert f.format(f.of(6)) == "6"
    with pytest.raises(ValueError):
        f.parse("x")


def test_prime_field_of_fraction():
    f = GF(5)
    assert f.of(Fraction(1, 2)) == 3
    assert f.of(Fraction(7, 3)) == f.of(7) / f.of(3)
    with pytest.raises(ZeroDivisionError):
        f.of(Fraction(1, 5))


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def test_sqrt_minus_one():
    # i^2 = -1 must hold whenever the element exists
    assert GF(5).sqrt_minus_one == 2
    assert GF(13).sqrt_minus_one == 5
    assert GF(2).sqrt_minus_one == 1
    assert GF(17).sqrt_minus_one == 4
    for p in (5, 13, 17, 29):
        i = GF(p).sqrt_minus_one
        assert i * i == GF(p).of(-1)
    assert QQ.sqrt_minus_one is None


def test_sqrt_minus_one_missing():
    for p in (3, 7, 11, 19):
        with pytest.raises(ValueError):
            GF(p).sqrt_minus_one


def test_sqrt_minus_one_large_prime():
    # the smaller of the two roots of x^2 + 1 modulo 10^18 + 9
    assert GF(10**18 + 9).sqrt_minus_one == 333333333000000003


def test_sqrt_minus_one_missing_large_prime():
    with pytest.raises(ValueError, match="p = 3 mod 4"):
        GF(2**61 - 1).sqrt_minus_one


def test_field_equality():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert QQ == Rationals()
    assert QQ != GF(5)
    assert hash(GF(5)) == hash(GF(5))


def test_characteristics():
    assert QQ.char == 0
    assert GF(2).char == 2
    assert GF(13).char == 13
