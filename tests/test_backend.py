from fractions import Fraction

import pytest
from sympy import factorint, isprime, prevprime
from sympy import divisors as sympy_divisors

from congsym.backend import (PSI_12, divisors, factor_int, is_prime,
                             prev_prime, rat, rat_str, egcd, sl2_order,
                             XorShift64)
from congsym import linalg as la


def test_rat_arithmetic():
    assert rat is Fraction
    assert rat(1, 2) + rat(1, 3) == rat(5, 6)
    assert rat(2, 4) == rat(1, 2)
    assert isinstance(rat(-7, 3) * 2, Fraction)
    assert [rat_str(x) for x in (rat(-7, 3), rat(6, 3), 5)] == ["-7/3", "2",
                                                                 "5"]


def test_egcd_and_inverse():
    for a, b in [(12, 18), (35, 64), (-9, 24), (1, 1)]:
        g, x, y = egcd(a, b)
        assert a * x + b * y == g
    # inverses mod n are pow(a, -1, n): 0 mod 1, ValueError for a non-unit
    assert pow(3, -1, 7) == 5
    assert (pow(11, -1, 16) * 11) % 16 == 1
    assert pow(5, -1, 1) == 0
    with pytest.raises(ValueError):
        pow(6, -1, 16)


def test_factor_and_divisors():
    """factor_int, divisors and is_prime as the program uses them: primes
    in increasing order, divisors in increasing order, and no prime below
    2 (a -p of 1, 0 or -3 is an input error)."""
    assert factor_int(360) == {2: 3, 3: 2, 5: 1}
    assert list(factor_int(2 * 3 * 7 * 7 * 101)) == [2, 3, 7, 101]
    assert factor_int(1) == {}
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert is_prime(97) and not is_prime(91)
    assert not any(is_prime(n) for n in (1, 0, -3))
    for n in (0, -12):
        with pytest.raises(ValueError):
            factor_int(n)


def test_number_theory_matches_sympy():
    """factor_int, divisors and is_prime equal sympy's factorint, divisors
    and isprime for every n < 10^5."""
    for n in range(1, 10 ** 5):
        assert factor_int(n) == factorint(n), n
        assert divisors(n) == sympy_divisors(n), n
        assert is_prime(n) == isprime(n), n


@pytest.mark.parametrize("n", [561, 41041, 3215031751, 3825123056546413051])
def test_is_prime_rejects_pseudoprimes(n):
    """Carmichael numbers (561, 41041), the least strong pseudoprime to the
    bases 2, 3, 5 and 7 (3215031751) and one to every prime base up to 23
    (3825123056546413051) are composite."""
    assert not isprime(n)
    assert not is_prime(n)


def test_is_prime_near_the_bound():
    """Miller-Rabin to the bases 2, ..., 37 is proven below PSI_12; at and
    above it is_prime raises instead of guessing."""
    assert PSI_12 == 318665857834031151167461
    for n in (2 ** 61 - 1, 2 ** 61 + 1, prevprime(PSI_12), PSI_12 - 2):
        assert is_prime(n) == isprime(n), n
    for n in (PSI_12, PSI_12 + 1, 2 ** 89 - 1):
        with pytest.raises(ValueError):
            is_prime(n)


def test_prev_prime_is_sympys():
    """prev_prime and charpoly's chain of primes below 2^60 equal sympy's
    prevprime."""
    for n in (3, 4, 100, 7919, 7920, 2 ** 31):
        assert prev_prime(n) == prevprime(n)
    with pytest.raises(ValueError):
        prev_prime(2)
    q = 2 ** 60
    for i in range(20):
        q = prevprime(q)
        assert la._charpoly_prime(i) == q


def test_sl2_order():
    assert sl2_order(1) == 1
    assert sl2_order(11) == 1320
    assert sl2_order(16) == 3072


def test_prng_deterministic():
    a = XorShift64(5)
    b = XorShift64(5)
    seq_a = [a.next_u64() for _ in range(10)]
    seq_b = [b.next_u64() for _ in range(10)]
    assert seq_a == seq_b
    assert XorShift64(6).next_u64() != seq_a[0]
    r = XorShift64(0)
    assert all(1 <= r.randint(1, 9) <= 9 for _ in range(100))
