"""Factorization over Z of integer polynomials, by Zassenhaus's method.

Polynomials are lists of integers, highest degree first (the gf_ form of
polys), and residues mod m for the arithmetic mod m.  factor_zz splits a
polynomial into primitive, coprime square-free parts by Yun's algorithm,
on gcds computed mod primes and proven by exact division.  Each part is
factored mod a small odd prime p (distinct-degree factorization by
polys.gf_ddf, then Cantor and Zassenhaus's equal-degree splitting), the
factors are lifted to p^l past a bound on the coefficients of any factor
over Z by quadratic Hensel lifting, and the lifts are recombined by
subsets, each candidate proven a factor by exact division (Zassenhaus, "On
Hensel factorization I", J. Number Theory 1, 1969; Cantor and Zassenhaus,
Math. Comp. 36, 1981; von zur Gathen and Gerhard, Modern Computer
Algebra, 3rd ed., 2013, chapters 14 and 15).
"""

from itertools import combinations, count
from math import comb, gcd, isqrt

from .backend import XorShift64, is_prime
from .linalg import _charpoly_prime
from .polys import (_gf_mulmod, _gf_powmod, _gf_strip, gf_ddf, gf_div, gf_gcd,
                    gf_mul)

# how many odd primes a square-free part is split mod, for the one with the
# fewest factors and the factor degrees that all of them allow
SPLIT_PRIMES = 3


def factor_zz(f):
    """[(h, m)]: the irreducible factors h over Z of the nonconstant integer
    polynomial f, primitive with positive leading coefficient, and their
    multiplicities m; f is the product of the h^m up to an integer."""
    k = len(f) - len(_gf_strip(f[::-1]))        # x^k exactly divides f
    out = [([1, 0], k)] if k else []
    f = _primitive(f[:len(f) - k])
    if len(f) > 1:
        out += [(h, m) for part, m in _sqf_parts(f)
                for h in _factor_sqf(part)]
    return out


def _primitive(f):
    """f divided by its content, with a positive leading coefficient."""
    c = gcd(*f)
    return [x // c for x in f] if f[0] > 0 else [-x // c for x in f]


def _derivative(f):
    n = len(f) - 1
    return _gf_strip([c * (n - i) for i, c in enumerate(f[:-1])])


def _add(f, g, m=0, c=1):
    """f + c g, its coefficients reduced mod m unless m is 0."""
    k = len(f) - len(g)
    h = [x + c * y for x, y in zip([0] * -k + f, [0] * k + g)]
    return _gf_strip([x % m for x in h] if m else h)


def _quo(f, g):
    """f / g when the nonzero g divides f over Z, else None."""
    f, n = list(f), len(g) - 1
    k = len(f) - n
    for i in range(k):
        c, r = divmod(f[i], g[0])
        if r:
            return None
        f[i] = c
        if c:
            for j in range(1, n + 1):
                f[i + j] -= c * g[j]
    return f[:max(k, 0)] if not any(f[max(k, 0):]) else None


def _norm(f):
    """An integer at least the Euclidean norm of f."""
    return isqrt(sum(c * c for c in f)) + 1


def _gcd(f, g):
    """The gcd of the nonzero integer polynomial f and g, primitive with a
    positive leading coefficient.  With c = gcd(lc f, lc g), c times the
    monic gcd mod a prime q not dividing c is the reduction of c h / lc h
    for h the gcd over Z, unless q is one of the finitely many primes where
    the degree jumps up; a prime of smaller degree discards the ones before
    it.  By Mignotte's bound c h / lc h has coefficients at most 2^deg h
    times the norm of f and of g, so it is the symmetric residue mod a
    product of primes past twice that, and is proven by dividing f and g."""
    if not g:
        return _primitive(f)
    c = gcd(f[0], g[0])
    bound = 2 * min(_norm(f), _norm(g))
    deg = len(f) + 1
    for i in count():
        q = _charpoly_prime(i)
        if c % q == 0:
            continue
        h = gf_gcd(_gf_strip([x % q for x in f]),
                   _gf_strip([x % q for x in g]), q)
        if len(h) == 1:
            return [1]
        if len(h) > deg:
            continue
        if len(h) < deg:
            deg, res, mod = len(h), [0] * len(h), 1
        t = pow(mod, -1, q)
        res = [x + mod * ((y * c - x) * t % q) for x, y in zip(res, h)]
        mod *= q
        if mod > bound << deg:
            h = _primitive([x - mod if 2 * x > mod else x for x in res])
            if _quo(f, h) is not None and _quo(g, h) is not None:
                return h


def _sqf_parts(f):
    """[(a_i, i)] with f = prod a_i^i, the a_i square-free, coprime and
    nonconstant, for f primitive with positive leading coefficient, by
    Yun's algorithm ("On square-free decomposition algorithms", SYMSAC
    1976): with b_1 = f / gcd(f, f'), c_1 = f' / gcd(f, f') and
    d_i = c_i - b_i', a_i = gcd(b_i, d_i), b_(i+1) = b_i / a_i and
    c_(i+1) = d_i / a_i.  Every quotient is exact over Z, as each a_i is
    primitive (Gauss)."""
    d = _derivative(f)
    a = _gcd(f, d)
    b, c = _quo(f, a), _quo(d, a)
    out = []
    for i in count(1):
        if len(b) == 1:
            return out
        d = _add(c, _derivative(b), 0, -1)
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c = _quo(b, a), _quo(d, a)


def _factor_sqf(f):
    """The irreducible factors over Z of a square-free primitive f of
    positive leading coefficient with f(0) != 0.

    f is split mod each of SPLIT_PRIMES odd primes p that do not divide its
    leading coefficient and keep it square-free (gf_ddf).  The degree of a
    factor over Z is a sum of degrees of factors mod every such p, so where
    no degree between 0 and deg f is one at all of them, f is irreducible.
    Otherwise the irreducible factors mod the p with the fewest factors
    (_edf) are lifted to p^l (_lift), for p^l past twice the bound
    C(n - 1, (n - 1) // 2) |f|_2 on the coefficients of b h / lc h for a
    factor h of f, b = lc f (the Mahler measure of b h / lc h is at most
    that of f), and recombined (_recombine)."""
    n = len(f) - 1
    if n == 1:
        return [f]
    degrees = (1 << n + 1) - 1      # bit d: d may be a factor's degree
    splits = []
    for p in count(3, 2):
        if len(splits) == SPLIT_PRIMES:
            break
        if not is_prime(p) or f[0] % p == 0:
            continue
        t = pow(f[0], -1, p)
        fp = [x * t % p for x in f]
        if len(gf_gcd(fp, _gf_strip([x % p for x in _derivative(fp)]), p)) > 1:
            continue
        ddf = list(gf_ddf(fp, p))
        sums = 1
        for k, g in ddf:
            for _ in range((len(g) - 1) // k):
                sums |= sums << k
        degrees &= sums
        if degrees == 1 | 1 << n:
            return [f]
        splits.append((sum((len(g) - 1) // k for k, g in ddf), p, ddf))
    _, p, ddf = min(splits)
    rng = XorShift64(p)
    fs = [h for k, g in ddf for h in _edf(g, k, p, rng)]
    l, pl = 1, p
    while pl <= 2 * comb(n - 1, (n - 1) // 2) * _norm(f):
        l, pl = l + 1, pl * p
    return _recombine(f, _lift(f, fs, p, l), pl, degrees)


def _edf(g, k, p, rng):
    """The monic irreducible factors of g over Z/p, for an odd prime p and
    g monic, square-free and a product of irreducibles of degree k, by
    Cantor and Zassenhaus's splitting: for a random a of degree below
    deg g, a^((p^k - 1)/2) is 1 or -1 mod each factor, so
    gcd(a^((p^k - 1)/2) - 1, g) splits g unless all signs agree, which has
    probability below 1/2."""
    if len(g) - 1 == k:
        return [g]
    mulmod = _gf_mulmod(g, p)
    while True:
        a = _gf_strip([rng.randint(0, p - 1) for _ in range(len(g) - 1)])
        if len(a) < 2:
            continue
        b = _gf_powmod(a, (p ** k - 1) // 2, mulmod)
        d = gf_gcd(g, _add(b, [1], p, -1), p)
        if 1 < len(d) < len(g):
            return (_edf(d, k, p, rng)
                    + _edf(gf_div(g, d, p)[0], k, p, rng))


def _gcdex(f, g, p):
    """(s, t) with s f + t g = 1 over Z/p, deg s < deg g and deg t < deg f,
    for coprime f and g, by the extended Euclidean algorithm."""
    r0, r1, s0, s1, t0, t1 = f, g, [1], [], [], [1]
    while r1:
        q, r = gf_div(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _add(s0, gf_mul(q, s1, p), p, -1)
        t0, t1 = t1, _add(t0, gf_mul(q, t1, p), p, -1)
    u = pow(r0[0], -1, p)
    return [x * u % p for x in s0], [x * u % p for x in t0]


def _hensel_step(f, g, h, s, t, m):
    """From f = g h and s g + t h = 1 mod m, h monic, deg s < deg h and
    deg t < deg g, the same mod m^2 (von zur Gathen and Gerhard, Algorithm
    15.10).  Each product is one big-integer product (polys.gf_mul)."""
    M = m * m
    e = _add([x % M for x in f], gf_mul(g, h, M), M, -1)
    q, r = gf_div(gf_mul(s, e, M), h, M)
    g = _add(_add(g, gf_mul(t, e, M), M), gf_mul(q, g, M), M)
    h = _add(h, r, M)
    b = _add(_add(gf_mul(s, g, M), gf_mul(t, h, M), M), [1], M, -1)
    c, d = gf_div(gf_mul(s, b, M), h, M)
    s = _add(s, d, M, -1)
    t = _add(_add(t, gf_mul(t, b, M), M, -1), gf_mul(c, g, M), M, -1)
    return g, h, s, t


def _lift(f, fs, p, l):
    """The monic factors mod p^l of f that reduce to the monic, pairwise
    coprime fs mod p, for f = (lc f) prod fs mod p and p not dividing lc f:
    fs is split in halves, f = g h mod p for g = (lc f) prod of the first
    and h prod of the second, the pair is lifted by Hensel steps mod p^2,
    p^4, ... to p^l or past it, and each half is lifted within its part."""
    pl = p ** l
    if len(fs) == 1:
        u = pow(f[0], -1, pl)
        return [[x * u % pl for x in f]]
    k = len(fs) // 2
    g, h = [f[0] % p], [1]
    for u in fs[:k]:
        g = gf_mul(g, u, p)
    for u in fs[k:]:
        h = gf_mul(h, u, p)
    s, t = _gcdex(g, h, p)
    m = p
    while m < pl:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return (_lift([x % pl for x in g], fs[:k], p, l)
            + _lift([x % pl for x in h], fs[k:], p, l))


def _recombine(f, gs, pl, degrees):
    """The irreducible factors over Z of f from the monic lifts gs of its
    factors mod p, f = (lc f) prod gs mod pl, with pl past twice the bound
    of _factor_sqf.  A factor h over Z reduces to c times the product of a
    subset S of gs, and b prod S (b = lc f) reduces that of b h / lc h: so
    its symmetric residue mod pl is b h / lc h, whose constant term divides
    b f(0).  Subsets are tried by size, skipping those whose degree the bit
    mask degrees rules out; a candidate that passes the constant test is a
    factor when it divides f, which then loses it.  f is irreducible once
    no subset of at most half of what is left is a factor, as the
    complement of a factor's subset is one too."""
    out = []
    s = 1
    while 2 * s <= len(gs):
        b = f[0]
        for S in combinations(range(len(gs)), s):
            if not degrees >> sum(len(gs[i]) - 1 for i in S) & 1:
                continue
            c = b
            for i in S:
                c = c * gs[i][-1] % pl
            if 2 * c > pl:
                c -= pl
            if not c or b * f[-1] % c:
                continue
            G = [b % pl]
            for i in S:
                G = gf_mul(G, gs[i], pl)
            G = _primitive([x - pl if 2 * x > pl else x for x in G])
            q = _quo(f, G)
            if q is not None:
                out.append(G)
                f = q
                gs = [g for i, g in enumerate(gs) if i not in S]
                break
        else:
            s += 1
    return out + [f]
