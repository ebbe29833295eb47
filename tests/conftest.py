from math import lcm

import pytest
from sympy import factorint

from congsym.backend import rat
from congsym.groups import (close_group, coset_table, crt_matrix, mat_det,
                            mat_mod, mat_mul, IDENT)
from congsym.families import build_family
from congsym import linalg as la
from congsym import spaces as sp
from congsym import spectra as spec


def space_for(tag, param, k=2):
    return sp.build_space(coset_table(build_family(tag, param)), k)


def Z(rows):
    """The matrix of rows of ints and Fractions, lists or dicts column ->
    value, in the integer form of linalg: (den, sparse integer rows), den
    the least."""
    rows = [r if isinstance(r, dict) else dict(enumerate(r)) for r in rows]
    d = lcm(*(x.denominator for r in rows for x in r.values()))
    return d, [{j: x.numerator * (d // x.denominator) for j, x in r.items()
                if x} for r in rows]


def dense(m, ncols=None):
    """The rows of the matrix m = (den, rows) as lists of Fractions, ncols
    long (by default as many as there are rows)."""
    den, rows = m
    n = len(rows) if ncols is None else ncols
    return [[rat(r.get(j, 0), den) for j in range(n)] for r in rows]


def coords(S, col):
    """The coordinates S.reduce gives as a sparse column over S.den, as a
    list of Fractions."""
    return [rat(col.get(i, 0), S.den) for i in range(S.dim)]


def identity(n):
    return 1, [{i: 1} for i in range(n)]


def combine(*terms):
    """The matrix sum of c m over the pairs (c, m) of a rational c and a
    matrix m of one shape, in the integer form of linalg."""
    rows = [{} for _ in terms[0][1][1]]
    for c, (den, m) in terms:
        for acc, row in zip(rows, m):
            for j, x in row.items():
                acc[j] = acc.get(j, 0) + rat(c) * x / den
    return Z(rows)


def rank(rows):
    """The rank of sparse rows, by linalg.echelon."""
    return len(la.echelon(rows)[1])


def closure_elements(N, gens):
    """Every element of the subgroup of GL2(Z/N) generated by gens, by
    breadth-first closure over all of G: the reference for close_group,
    which keeps generators of G0 and one element per determinant."""
    gens = [mat_mod(g, N) for g in gens]
    elements = {mat_mod(IDENT, N)}
    frontier = list(elements)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mat_mul(x, g, N)
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
        frontier = nxt
    return elements


def ns_elements(N, plus):
    """Every element of the non-split Cartan at squarefree odd N (with plus,
    of its normalizer), listed at each prime as a + b sqrt(u) (and its
    product with diag(1, -1)) and combined by CRT: the reference for
    families.ns and families.ns_plus, which build from generators."""
    level, elems = 1, [mat_mod(IDENT, 1)]
    for p in sorted(factorint(N)):
        u = next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1)
        local = [(a, u * b % p, b, a) for a in range(p) for b in range(p)
                 if a or b]
        if plus:
            local += [(a, -ub % p, b, -d % p) for a, ub, b, d in local]
        elems = [crt_matrix(g, level, h, p) for g in elems for h in local]
        level *= p
    return set(elems)


def kernel_of_factor_power(m, g, e):
    """ker g(m)^e by Horner evaluation of g(m), e - 1 products and one
    rational kernel: the reference for linalg.primary_components."""
    k = la.mat_poly_eval(g, m)
    ke = k
    for _ in range(e - 1):
        ke = la.mat_mul(ke, k)
    return la.kernel(ke, len(m[1]))


@pytest.fixture(scope="session")
def s_gamma0_11():
    return space_for("gamma0", 11)


@pytest.fixture(scope="session")
def ctx_gamma0_11(s_gamma0_11):
    return spec.SpectralContext(s_gamma0_11)


@pytest.fixture(scope="session")
def s_ns_plus_13():
    return space_for("ns_plus", 13)


@pytest.fixture(scope="session")
def ctx_ns_plus_13(s_ns_plus_13):
    return spec.SpectralContext(s_ns_plus_13)


@pytest.fixture(scope="session")
def s_level1_k12():
    return space_for("gamma_full", 1, k=12)


@pytest.fixture(scope="session")
def g_8e1():
    return close_group(8, [(7, 0, 0, 7), (2, 3, 3, 5), (0, 7, 7, 7),
                           (3, 0, 0, 3), (4, 7, 7, 3)])


@pytest.fixture(scope="session")
def g_h155():
    return close_group(16, [(1, 3, 12, 3), (1, 1, 12, 7), (1, 3, 0, 3),
                            (1, 0, 2, 3)])


@pytest.fixture(scope="session")
def g_level16():
    return close_group(16, [(2, 1, 3, 2), (0, 3, 5, 8), (1, 0, 0, 5),
                            (1, 8, 0, 3)])
