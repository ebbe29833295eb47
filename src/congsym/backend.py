"""Exact rational arithmetic and small integer utilities.  Factoring,
primality and divisors are sympy's (factorint, isprime, divisors), and
inverses mod n are pow(a, -1, n).

The program's one rational type is sympy's QQ: rat(n, d) is QQ(n, d), whose
elements are gmpy2's mpq when sympy finds gmpy2 and sympy's pure-Python
PythonMPQ otherwise.  The linear algebra hands these elements to sympy's
DomainMatrix over QQ as they are.

The PRNG used for seeded random Hecke combinations is xorshift64*.  Seed s
is scrambled by splitmix64 into the 64-bit state (a bijection, so distinct
seeds give distinct states; a zero result is replaced by the golden-ratio
constant 0x9E3779B97F4A7C15).  Default seed is 0 everywhere.
"""

from sympy import QQ, factorint

rat = QQ
RAT_IMPL = QQ.dtype.__name__

ONE = rat(1)


def rat_str(v):
    """A rational (or int) as "n" or "n/d"."""
    if v.denominator == 1:
        return str(v.numerator)
    return "%d/%d" % (v.numerator, v.denominator)


def egcd(a, b):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def sl2_order(n):
    """|SL2(Z/nZ)| = n^3 * prod over p|n of (1 - 1/p^2)."""
    if n == 1:
        return 1
    order = n ** 3
    for p in factorint(n):
        order = order // (p * p) * (p * p - 1)
    return order


class XorShift64:
    """xorshift64* generator; deterministic, documented, seedable."""

    def __init__(self, seed=0):
        # splitmix64 scramble: a bijection of the seed, so distinct seeds
        # get distinct nonzero states
        x = (seed + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 31
        self.state = x or 0x9E3779B97F4A7C15

    def next_u64(self):
        x = self.state
        x ^= (x >> 12)
        x ^= (x << 25) & 0xFFFFFFFFFFFFFFFF
        x ^= (x >> 27)
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF

    def randint(self, lo, hi):
        """Uniform-ish integer in [lo, hi] (span far below 2^64)."""
        return lo + self.next_u64() % (hi - lo + 1)
