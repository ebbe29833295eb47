from sympy import QQ

from congsym.backend import (rat, rat_str, egcd, inv_mod, factor_int,
                             divisors, is_prime, sl2_order, XorShift64)


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
    assert inv_mod(3, 7) == 5
    assert (inv_mod(11, 16) * 11) % 16 == 1


def test_factor_and_divisors():
    assert factor_int(360) == {2: 3, 3: 2, 5: 1}
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert is_prime(97) and not is_prime(91)


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
