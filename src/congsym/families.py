"""Named constructors for subgroups of GL2(Z/N).

Provided families: gamma0, gamma1, gamma_full, gamma (principal, trivial
group), ns / ns_plus (non-split Cartan and its normalizer; prime level, or
squarefree odd composite assembled by CRT), and s4 (the quaternion-based
projectively-S4 group at an odd prime).
"""

from math import gcd

from .backend import factor_int, is_prime
from .groups import (close_group, group_from_elements, crt_matrix, S_MAT,
                     T_MAT, mat_mod)


def _unit_range(N):
    return [u for u in range(1, N) if gcd(u, N) == 1]


def gamma0(N):
    """Borel-type group inducing Gamma_0(N) (lower-left entry 0 mod N)."""
    gens = [T_MAT]
    for u in _unit_range(N):
        gens.append((u, 0, 0, 1))
        gens.append((1, 0, 0, u))
    return close_group(N, gens)


def gamma1(N):
    """Group inducing Gamma_1(N): diagonal (1, *) and upper triangular."""
    gens = [T_MAT]
    for u in _unit_range(N):
        gens.append((1, 0, 0, u))
    return close_group(N, gens)


def gamma_full(N):
    """All of GL2(Z/N), inducing SL2(Z)."""
    gens = [S_MAT, T_MAT]
    for u in _unit_range(N):
        gens.append((1, 0, 0, u))
    return close_group(N, gens)


def gamma_principal(N):
    """Trivial group, inducing the principal congruence subgroup Gamma(N)."""
    return close_group(N, [])


def least_nonresidue(p):
    for u in range(2, p):
        if pow(u, (p - 1) // 2, p) == p - 1:
            return u
    raise ValueError("no quadratic non-residue mod %d" % p)


def _ns_elements_prime(p):
    u = least_nonresidue(p)
    elems = []
    for a in range(p):
        for b in range(p):
            if a == 0 and b == 0:
                continue
            elems.append((a, (u * b) % p, b, a))
    return elems


def _ns_plus_elements_prime(p):
    base = _ns_elements_prime(p)
    out = list(base)
    for a, ub, b, d in base:
        # multiply by diag(1, -1) on the right
        out.append((a, (-ub) % p, b, (-d) % p))
    return out


def _crt_element_product(parts):
    """parts: list of (modulus, element list); CRT-combine to the product level."""
    N, elems = parts[0]
    for n2, elems2 in parts[1:]:
        elems = [crt_matrix(g, N, h, n2) for g in elems for h in elems2]
        N *= n2
    return N, elems


def _ns_like(N, local):
    if N % 2 == 0 or N < 3:
        raise ValueError("non-split Cartan level must be an odd prime or "
                         "squarefree odd composite, got %d" % N)
    fac = factor_int(N)
    if any(e > 1 for e in fac.values()):
        raise ValueError("non-split Cartan level must be squarefree, got %d" % N)
    parts = [(p, local(p)) for p in sorted(fac)]
    level, elems = _crt_element_product(parts)
    return group_from_elements(level, set(elems))


def ns(N):
    """Non-split Cartan subgroup at level N."""
    return _ns_like(N, _ns_elements_prime)


def ns_plus(N):
    """Normalizer of the non-split Cartan at level N."""
    return _ns_like(N, _ns_plus_elements_prime)


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
    one = (1, 0, 0, 1)
    gens = [(p - 1, 0, 0, p - 1)]
    for q in (i, j, k):
        gens.append(tuple((a + b) % p for a, b in zip(one, q)))
        gens.append(tuple((a - b) % p for a, b in zip(one, q)))
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
    return FAMILY_BUILDERS[tag](param)
