import pytest
from sympy import QQ, divisors, factorint, isprime

from congsym.backend import rat, rat_str, egcd, sl2_order, XorShift64


def test_rat_arithmetic():
    assert rat is QQ
    assert rat(1, 2) + rat(1, 3) == rat(5, 6)
    assert rat(2, 4) == rat(1, 2)
    assert isinstance(rat(-7, 3) * 2, QQ.dtype)
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
    """sympy's factorint, divisors and isprime, as the program uses them:
    divisors in increasing order, and no prime below 2 (a -p of 1, 0 or -3
    is an input error)."""
    assert factorint(360) == {2: 3, 3: 2, 5: 1}
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert isprime(97) and not isprime(91)
    assert not any(isprime(n) for n in (1, 0, -3))


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
