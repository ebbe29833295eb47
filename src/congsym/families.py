"""Named constructors for subgroups of GL2(Z/N).

Provided families: gamma0, gamma1, gamma_full, gamma (principal, trivial
group), ns / ns_plus (non-split Cartan and its normalizer; prime level, or
squarefree odd composite, from generators at each prime lifted by CRT), and
s4 (the quaternion-based projectively-S4 group at an odd prime).
"""

from math import gcd

from .backend import factor_int, is_prime
from .groups import close_group, crt_matrix, IDENT, S_MAT, T_MAT, mat_mod


def _unit_generators(N):
    """Generators of (Z/N)*: each unit in increasing order that is not in the
    subgroup generated by those taken before it."""
    gens = []
    reached = {1 % N}
    for u in range(1, N):
        if gcd(u, N) == 1 and u not in reached:
            gens.append(u)
            new = reached
            while new:
                new = {x * u % N for x in new} - reached
                reached |= new
    return gens


def gamma0(N):
    """Borel-type group inducing Gamma_0(N) (lower-left entry 0 mod N)."""
    gens = [T_MAT]
    for u in _unit_generators(N):
        gens.append((u, 0, 0, 1))
        gens.append((1, 0, 0, u))
    return close_group(N, gens)


def gamma1(N):
    """Group inducing Gamma_1(N): diagonal (1, *) and upper triangular."""
    return close_group(N, [T_MAT] + [(1, 0, 0, u)
                                     for u in _unit_generators(N)])


def gamma_full(N):
    """All of GL2(Z/N), inducing SL2(Z)."""
    return close_group(N, [S_MAT, T_MAT] + [(1, 0, 0, u)
                                            for u in _unit_generators(N)])


def gamma_principal(N):
    """Trivial group, inducing the principal congruence subgroup Gamma(N)."""
    return close_group(N, [])


def least_nonresidue(p):
    for u in range(2, p):
        if pow(u, (p - 1) // 2, p) == p - 1:
            return u
    raise ValueError("no quadratic non-residue mod %d" % p)


def _cartan_generator(p, u):
    """(x, y), the first in the order of y then x, with x + y sqrt(u) of
    order p^2 - 1 in F_p[sqrt(u)]^*, the cyclic non-split Cartan: z has
    that order when z^((p^2 - 1)/r) != 1 for each prime r | p^2 - 1."""
    def mul(z, w):
        return ((z[0] * w[0] + u * z[1] * w[1]) % p,
                (z[0] * w[1] + z[1] * w[0]) % p)

    def power(z, e):
        out = (1, 0)
        while e:
            if e & 1:
                out = mul(out, z)
            z = mul(z, z)
            e >>= 1
        return out

    n = p * p - 1
    return next((x, y) for y in range(1, p) for x in range(p)
                if all(power((x, y), n // r) != (1, 0) for r in factor_int(n)))


def _ns_like(N, plus):
    """Generated, at each p | N, by one x + y sqrt(u) of order p^2 - 1
    (_cartan_generator; u the least non-residue, x + y sqrt(u) the matrix
    ((x, u y), (y, x))), which generates the cyclic non-split Cartan, and
    with plus by diag(1, -1); each lifted by CRT with the identity at the
    other primes."""
    if N % 2 == 0 or N < 3:
        raise ValueError("non-split Cartan level must be an odd prime or "
                         "squarefree odd composite, got %d" % N)
    fac = factor_int(N)
    if any(e > 1 for e in fac.values()):
        raise ValueError("non-split Cartan level must be squarefree, got %d" % N)
    gens = []
    for p in sorted(fac):
        u = least_nonresidue(p)
        x, y = _cartan_generator(p, u)
        local = [(x, u * y % p, y, x)]
        if plus:
            local.append((1, 0, 0, p - 1))
        gens += [crt_matrix(g, p, IDENT, N // p) for g in local]
    return close_group(N, gens)


def ns(N):
    """Non-split Cartan subgroup at level N."""
    return _ns_like(N, False)


def ns_plus(N):
    """Normalizer of the non-split Cartan at level N."""
    return _ns_like(N, True)


def s4(p):
    """Quaternion-unit construction of the projectively-S4 subgroup mod p."""
    if not is_prime(p) or p == 2:
        raise ValueError("s4 family requires an odd prime")
    i = (0, p - 1, 1, 0)
    j = None
    for s in range(p):
        for t in range(p):
            if (s * s + t * t + 1) % p == 0:
                j = (s, t, t, (-s) % p)
                break
        if j:
            break
    k = mat_mod((i[0] * j[0] + i[1] * j[2], i[0] * j[1] + i[1] * j[3],
                 i[2] * j[0] + i[3] * j[2], i[2] * j[1] + i[3] * j[3]), p)
    gens = [(p - 1, 0, 0, p - 1)]
    for q in (i, j, k):
        gens.append(tuple((a + b) % p for a, b in zip(IDENT, q)))
        gens.append(tuple((a - b) % p for a, b in zip(IDENT, q)))
    return close_group(p, gens)


FAMILY_BUILDERS = {
    "gamma0": gamma0,
    "gamma1": gamma1,
    "gamma_full": gamma_full,
    "gamma": gamma_principal,
    "ns": ns,
    "ns_plus": ns_plus,
    "s4": s4,
}


def build_family(tag, param):
    if tag not in FAMILY_BUILDERS:
        raise ValueError("unknown family %r (known: %s)"
                         % (tag, ", ".join(sorted(FAMILY_BUILDERS))))
    if param < 1:
        raise ValueError("family parameter must be positive, got %d" % param)
    return FAMILY_BUILDERS[tag](param)
