"""Exact rational arithmetic and small integer utilities.

The program's one rational type is the standard library's Fraction.
Factoring (by trial division), primality, divisors and prev_prime need no
sympy, whose import costs more than the set-up and the plus space.
Inverses mod n are pow(a, -1, n).

The PRNG used for seeded random Hecke combinations is xorshift64*.  Seed s
is scrambled by splitmix64 into the 64-bit state (a bijection, so distinct
seeds give distinct states; a zero result is replaced by the golden-ratio
constant 0x9E3779B97F4A7C15).  Default seed is 0 everywhere.
"""

from fractions import Fraction

rat = Fraction
RAT_IMPL = "Fraction"

# Miller-Rabin to these 12 bases is proven for n < PSI_12 (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PSI_12 = 318665857834031151167461


def is_prime(n):
    """Whether the integer n is prime; ValueError for n >= PSI_12."""
    if n >= PSI_12:
        raise ValueError("primality of %d is not proven by the Miller-Rabin "
                         "bases 2, ..., 37 (n >= %d)" % (n, PSI_12))
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1    # 2^s exactly divides n - 1
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1
               or any(pow(a, d << i, n) == n - 1 for i in range(s))
               for a in _MR_BASES)


def prev_prime(n):
    """The largest prime below n > 2."""
    if n <= 2:
        raise ValueError("no prime below %d" % n)
    return next(p for p in range(n - 1, 1, -1) if is_prime(p))


def factor_int(n):
    """{p: e} for the primes p dividing n >= 1, in increasing order, by
    trial division."""
    if n < 1:
        raise ValueError("cannot factor %d" % n)
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def divisors(n):
    """The positive divisors of n >= 1 in increasing order."""
    out = [1]
    for p, e in factor_int(n).items():
        out = [d * p ** i for d in out for i in range(e + 1)]
    return sorted(out)


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
    for p in factor_int(n):
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
