import pytest
import sympy
from sympy import QQ, factorint
from sympy.polys.matrices import DomainMatrix

from congsym.backend import rat, XorShift64
from congsym import linalg as la
from congsym import spectra as spec
from congsym.polys import UniPoly, factor_rational_poly

from conftest import (Z, dense, identity, kernel_of_factor_power, rank,
                      space_for)

M = Z


def test_mat_basics():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert la.mat_mul(a, b) == M([[2, 1], [4, 3]])
    rng = XorShift64(3)
    c, d = rng.randint(1, 9), rng.randint(1, 9)
    assert la.seeded_random_combination([a, b], 3) == \
        M([[c, 2 * c + d], [3 * c + d, 4 * c]])
    assert la.from_columns(*a, 2) == M([[1, 3], [2, 4]])
    assert la.mat_mul(a, M([[1], [0]])) == M([[1], [3]])
    # one normal form: the least denominator, so equal matrices are equal
    assert la.mat_mul(M([[rat(1, 2), rat(1, 6)]]), M([[3], [3]])) == \
        (1, [{0: 2}])
    assert la.normalize(6, [{0: 4, 2: -2}, {}]) == (3, [{0: 2, 2: -1}, {}])


def test_kernel_conventions():
    # right kernel: m v = 0
    m = M([[1, 1, 0], [0, 0, 1]])
    ker = la.kernel(m, 3)
    # v[free] = 1 and v[pivot] = -(reduced entry): the basis callers print
    assert ker == M([[-1, 1, 0]])
    for v in dense(ker, 3):
        assert all(sum(r[j] * v[j] for j in range(3)) == 0
                   for r in dense(m, 3))


def test_rank_and_row_space():
    rows = M([[1, 2, 3], [2, 4, 6], [0, 1, 0]])[1]
    assert rank(rows) == 2
    basis = la.echelon(rows)[0]
    assert len(basis) == 2
    assert rank(basis + [{0: 3, 1: 7, 2: 9}]) == rank(basis)
    assert rank(basis + [{2: 1}]) != rank(basis)


def test_charpoly():
    m = M([[2, 0], [0, 3]])
    assert la.charpoly(m) == UniPoly([6, -5, 1])
    n = M([[0, 1], [-1, 0]])
    f = la.charpoly(n)
    assert f == UniPoly([1, 0, 1])
    assert not any(la.mat_poly_eval(f, n)[1])


def test_restrict_to_invariant_subspace():
    m = M([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    basis = M([[1, 0, 0], [0, 0, 1]])
    r = la.restrict_to_invariant_subspace(m, basis)
    assert la.charpoly(r) == UniPoly([3, -4, 1])


def _restrict_by_rref(m, basis):
    """Coordinates of m * basis[j] read off the reduced form of
    [B^t | m B^t]."""
    n, d = len(m[1]), len(basis[1])
    bt = dense(la.from_columns(*basis, n), d)
    mbt = dense(la.mat_mul(m, la.from_columns(*basis, n)), d)
    red, pivots = la.echelon(Z([r + s for r, s in zip(bt, mbt)])[1])
    assert pivots == list(range(d))
    return Z([{j - d: x for j, x in row.items() if j >= d} for row in red])


def _row_space_basis(rows):
    """The reduced echelon basis of the span of rational rows."""
    return Z(la.echelon(Z(rows)[1])[0])


def _inverse(Q):
    """Q^-1 for an invertible square matrix of rational rows, read off the
    reduced form of [Q | 1]."""
    n = len(Q)
    red, _ = la.echelon(Z([row + e for row, e in
                           zip(Q, dense(identity(n)))])[1])
    return Z([{j - n: x for j, x in row.items() if j >= n} for row in red])


def _random_matrix(rng, n, k):
    return [[rat(rng.randint(-4, 4)) for _ in range(k)] for _ in range(n)]


def test_restrict_matches_rref_on_random_invariant_subspaces():
    # m = Q [[A, C], [0, D]] Q^-1 leaves V, the span of the first k columns
    # of Q, invariant, and its restriction to V has the charpoly of A
    rng = XorShift64(11)
    for n, k in [(3, 1), (4, 2), (6, 3), (8, 5), (9, 8)]:
        while True:
            Q = _random_matrix(rng, n, n)
            if rank(Z(Q)[1]) == n:
                break
        blk = _random_matrix(rng, n, n)
        for i in range(k, n):
            blk[i][:k] = [rat(0)] * k
        m = la.mat_mul(la.mat_mul(Z(Q), Z(blk)), _inverse(Q))
        v = [list(col) for col in zip(*Q)][:k]
        # V with unit columns at its pivots, and at the free columns of
        # its annihilator
        for basis in (_row_space_basis(v), la.kernel(la.kernel(Z(v), n), n)):
            assert len(basis[1]) == k
            r = la.restrict_to_invariant_subspace(m, basis)
            assert r == _restrict_by_rref(m, basis)
            assert la.charpoly(r) == la.charpoly(
                Z([row[:k] for row in blk[:k]]))


@pytest.mark.parametrize("param", [13, 17])
def test_restrict_matches_rref_on_plus_basis(param):
    ctx = spec.SpectralContext(space_for("ns_plus", param))
    for p in (2, 3):
        T = ctx.full_op(p)
        assert la.restrict_to_invariant_subspace(T, ctx.basis) == \
            _restrict_by_rref(T, ctx.basis)


def test_restrict_rejects_bad_bases():
    # e_0 -> e_1 leaves the span of e_0 not invariant
    with pytest.raises(ValueError, match="not invariant"):
        la.restrict_to_invariant_subspace(M([[0, 0], [1, 0]]), M([[1, 0]]))
    # [[1, 1, 0], [0, 1, 1]] has the unit columns 0 and 2; these have none
    # for some vector
    for basis in ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[2, 1, 0], [0, 1, 1]],
                  [[1, 0], [1, 0]]):
        with pytest.raises(ValueError, match="no unit column"):
            la.restrict_to_invariant_subspace(
                identity(len(basis[0])), M(basis))


def test_seeded_combination_deterministic():
    ops = [M([[1, 0], [0, 0]]), M([[0, 0], [0, 1]])]
    assert la.seeded_random_combination(ops, 7) == \
        la.seeded_random_combination(ops, 7)


def _companion(f):
    """Companion matrix of a monic UniPoly f: charpoly f, cyclic."""
    d = f.degree
    return [[rat(1) if i == j + 1 else rat(0) for j in range(d - 1)]
            + [-f[i]] for i in range(d)]


def _planted(blocks, seed):
    """Q diag(blocks) Q^-1 for a random invertible integer Q."""
    n = sum(len(b) for b in blocks)
    m = [[rat(0)] * n for _ in range(n)]
    i = 0
    for b in blocks:
        for r, row in enumerate(b):
            m[i + r][i:i + len(b)] = row
        i += len(b)
    rng = XorShift64(seed)
    while True:
        Q = _random_matrix(rng, n, n)
        if rank(Z(Q)[1]) == n:
            break
    return la.mat_mul(la.mat_mul(Z(Q), Z(m)), _inverse(Q))


X = UniPoly([0, 1])
G1 = X - 1
G2 = X * X + 1
G3 = X ** 3 - X - 1
# irreducible, with denominators
H1 = X + UniPoly([rat(2, 5)])
H2 = X * X - X * rat(1, 2) + UniPoly([rat(1, 3)])

PLANTED = {
    # charpoly (x - 1)(x^2 + 1)(x^3 - x - 1)
    "squarefree": ([_companion(G1), _companion(G2), _companion(G3)],
                   [1, 1, 1]),
    # two cyclic blocks of x^2 + 1: one start vector spans only one
    "semisimple square": ([_companion(G2), _companion(G1), _companion(G2)],
                          [1, 2]),
    # three cyclic blocks of x^2 + 1: each start vector spans one more
    "three starts": ([_companion(G2), _companion(G2), _companion(G1),
                      _companion(G2)], [1, 3]),
    # one cyclic block of (x^2 + 1)^2: g(m) is not zero on its component
    "companion of a square": ([_companion(G2 ** 2), _companion(G1)],
                              [1, 2]),
    "denominators": ([_companion(H1), _companion(H2), _companion(H2 * H1)],
                     [2, 2]),
}


def _components_and_reference(name, seed=5):
    blocks, exponents = PLANTED[name]
    m = _planted(blocks, seed)
    fac = factor_rational_poly(la.charpoly(m))
    assert [e for _, e in fac] == exponents
    return m, fac, [kernel_of_factor_power(m, g, e) for g, e in fac]


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_primary_components_match_horner_kernel(name):
    m, fac, ref = _components_and_reference(name)
    assert la.primary_components(m, fac) == ref
    assert la.primary_components(m, fac, seed=9) == ref


def _denominator_prime(m):
    return min(factorint(m[0]))


def test_primary_components_skip_a_denominator_prime(monkeypatch):
    m, fac, ref = _components_and_reference("denominators")
    q = _denominator_prime(m)
    monkeypatch.setattr(la, "_PRIMES", (q,) + la._PRIMES)
    assert la.primary_components(m, fac) == ref
    monkeypatch.setattr(la, "_PRIMES", (q,))
    with pytest.raises(RuntimeError, match="not certified"):
        la.primary_components(m, fac)


def test_primary_components_over_small_primes(monkeypatch):
    """Primes near 1000 lift the larger entries only together, by CRT.  The
    component (-123457/99, 1) of x - 2 below lifts to -5/7, -517/522 and
    -4443/8440 mod one, two and three of them, and the certificate rejects
    each of these."""
    monkeypatch.setattr(la, "_PRIMES", tuple(sympy.primerange(1000, 1500)))
    for name in sorted(PLANTED):
        m, fac, ref = _components_and_reference(name, seed=7)
        assert la.primary_components(m, fac) == ref
    m = M([[1, rat(-123457, 99)], [0, 2]])
    fac = factor_rational_poly(la.charpoly(m))
    assert [g for g, _ in fac] == [X - 2, X - 1]
    assert la.primary_components(m, fac) == \
        [M([[rat(-123457, 99), 1]]), M([[1, 0]])]


def test_certificate_rejects_an_invariant_lift_with_the_wrong_charpoly():
    """m = diag(1, 1, 2) has charpoly (x - 1)^2 (x - 2).  The span of e_1 and
    e_3 is m-invariant and has the dimension of ker (m - 1)^2, but m has
    charpoly (x - 1)(x - 2) there: the modular charpoly rejects it.  A lift
    of the wrong dimension or not invariant is rejected before that."""
    da = M([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    g, h = X - 1, X - 2
    assert la._is_component(da, M([[1, 0, 0], [0, 1, 0]]), g, 2, [h])
    assert not la._is_component(da, M([[1, 0, 0], [0, 0, 1]]), g, 2, [h])
    assert not la._is_component(da, M([[1, 0, 0]]), g, 2, [h])
    assert not la._is_component(da, M([[1, 0, 1], [0, 1, 0]]), g, 2, [h])
    # planted in a random basis, with a cyclic block of (x - 1)^2 that one
    # eigenvector of it with the x - 2 block does not span
    m = _planted([_companion(G1 ** 2), _companion(X - 2)], 3)
    fac = factor_rational_poly(la.charpoly(m))
    assert fac == [(X - 2, 1), (X - 1, 2)]
    good = kernel_of_factor_power(m, X - 1, 2)
    assert la._is_component(m, good, X - 1, 2, [X - 2])
    wrong = _row_space_basis(
        dense(la.kernel(la.mat_poly_eval(X - 1, m), 3), 3)
        + dense(la.kernel(la.mat_poly_eval(X - 2, m), 3), 3))
    assert len(wrong[1]) == 2
    la.restrict_to_invariant_subspace(m, wrong)     # invariant: no raise
    assert not la._is_component(m, wrong, X - 1, 2, [X - 2])


def test_certificate_skips_a_prime_where_the_factors_meet(monkeypatch):
    """x - 1 and x - 1 - 11 meet mod 11, where a charpoly (x - 1)^a (x - 12)^b
    of the restriction would read as (x - 1)^2 and prove nothing; the
    certificate then goes on to the next prime."""
    da = M([[1, 0, 0], [0, 1, 0], [0, 0, 12]])
    g, h = X - 1, X - 12
    monkeypatch.setattr(la, "_PRIMES", (11,))
    assert not la._is_component(da, M([[1, 0, 0], [0, 1, 0]]), g, 2, [h])
    monkeypatch.setattr(la, "_PRIMES", (11, 13))
    assert la._is_component(da, M([[1, 0, 0], [0, 1, 0]]), g, 2, [h])
    assert not la._is_component(da, M([[1, 0, 0], [0, 0, 1]]), g, 2, [h])


def _berkowitz(m):
    """charpoly(m), highest degree first, by sympy's DomainMatrix.charpoly
    (Berkowitz over QQ), independent of the modular code under test."""
    n = len(m)
    if not n:
        return [QQ(1)]
    return DomainMatrix([list(row) for row in m], (n, n), QQ).charpoly()


def _random_rational(rng, n, num, den, zeros=0):
    """n x n with numerators in [-num, num], denominators in [1, den], and
    an entry 0 with chance zeros / (zeros + 1)."""
    return [[rat(rng.randint(-num, num), rng.randint(1, den))
             if rng.randint(0, zeros) == 0 else rat(0) for _ in range(n)]
            for _ in range(n)]


def test_charpoly_mod_matches_charpoly():
    """The Hessenberg charpoly mod q agrees with sympy's Berkowitz charpoly
    reduced mod q on random matrices, sparse ones where pivots must be
    searched for or are missing, and entries with denominators (read mod q
    as x * d^-1)."""
    rng = XorShift64(17)
    for q in (2, 3, 7, la._PRIMES[0]):
        for n in range(8):
            for trial in range(6):
                m = _random_rational(rng, n, 3, 1 if q < 10 else 4, zeros=2)
                expect = [x.numerator * pow(x.denominator, -1, q) % q
                          for x in _berkowitz(m)]
                rows = [dict(enumerate(x.numerator * pow(x.denominator, -1, q)
                                       for x in row)) for row in m]
                assert la._charpoly_mod(rows, q) == expect


def test_charpoly_mod_raises_on_a_failed_inverse():
    """Mod 15 the pivot 3 has no inverse: the reduction raises rather than
    skip it."""
    with pytest.raises(ValueError):
        la._charpoly_mod(M([[0, 1, 1], [3, 0, 1], [5, 1, 0]])[1], 15)


def test_charpoly_matches_berkowitz():
    """charpoly against sympy's Berkowitz charpoly on n = 0 and 1, the
    planted matrices, random rational matrices, dense and sparse, and
    matrices whose coefficient bound needs several primes."""
    assert la.charpoly((1, [])) == UniPoly([1])
    assert la.charpoly(M([[0]])) == X
    assert la.charpoly(M([[rat(-3, 7)]])) == X + UniPoly([rat(3, 7)])
    cases = [dense(_planted(blocks, seed)) for blocks, _ in PLANTED.values()
             for seed in (1, 5)]
    rng = XorShift64(23)
    for n in range(2, 12):
        cases.append(_random_rational(rng, n, 50, 12))
        cases.append(_random_rational(rng, n, 9, 3, zeros=4))
    for n, bits in [(6, 100), (12, 200)]:
        m = [[rat(rng.randint(-2 ** bits, 2 ** bits)) for _ in range(n)]
             for _ in range(n)]
        # more than the first prime is needed to exceed twice the bound
        assert la._charpoly_prime(0) <= 2 * la._coefficient_bound(M(m)[1])
        cases.append(m)
        cases.append([[x / 3 ** (i + j) for j, x in enumerate(row)]
                      for i, row in enumerate(m)])
    for m in cases:
        assert la.charpoly(M(m)) == UniPoly(_berkowitz(m)[::-1])


def test_charpoly_ignores_the_certificate_primes(monkeypatch):
    """charpoly reads its own primes, not the certificate's _PRIMES."""
    m = _planted([_companion(H2 * H1), _companion(G3)], 4)
    expect = la.charpoly(m)
    monkeypatch.setattr(la, "_PRIMES", (11,))
    assert la.charpoly(m) == expect == H2 * H1 * G3
