from fractions import Fraction

from congsym.backend import as_fraction
from congsym.groups import coset_table
from congsym.families import build_family
from congsym import linalg as la
from congsym import spaces as sp
from congsym import spectra as spec
from congsym.polys import UniPoly, factor_rational_poly

from conftest import space_for


def test_sturm_bound_spot_checks():
    assert spec.sturm_bound(2, coset_table(build_family("gamma0", 11))) == 1
    assert spec.sturm_bound(12, coset_table(build_family("gamma_full", 1))) == 1
    assert spec.sturm_bound(2, coset_table(build_family("gamma0", 33))) == 6


def test_good_primes():
    G = build_family("gamma0", 11)
    assert spec.good_primes(G, count=3) == [2, 3, 5]
    Gd = build_family("gamma", 11)
    assert spec.good_primes(Gd, upto=50) == [23, 43, 47][:len(
        spec.good_primes(Gd, upto=50))]


def test_context_kinds(ctx_gamma0_11, g_8e1):
    assert ctx_gamma0_11.kind == "plus"
    assert ctx_gamma0_11.dim == 1
    ctx = spec.SpectralContext(sp.build_space(coset_table(g_8e1), 2))
    assert ctx.kind == "cuspidal"
    assert ctx.dim == 2


def test_decompose_partitions(ctx_ns_plus_13):
    pieces = spec.decompose(ctx_ns_plus_13)
    assert sum(p.dimension for p in pieces) == ctx_ns_plus_13.dim
    assert [p.dimension for p in pieces] == [3]
    assert pieces[0].label == UniPoly([-1, -1, 2, 1])


def test_decompose_stability(ctx_ns_plus_13):
    a = spec.decompose(ctx_ns_plus_13, seed=0)
    b = spec.decompose(ctx_ns_plus_13, seed=0)
    assert [(p.dimension, p.label) for p in a] == \
        [(p.dimension, p.label) for p in b]


def test_pieces_are_invariant(ctx_ns_plus_13):
    ctx = ctx_ns_plus_13
    for piece in spec.decompose(ctx):
        for p in (2, 3, 5):
            imgs = [la.mat_vec(la.transpose(ctx.op(p)), v)
                    for v in piece.space]
            for img in imgs:
                assert la.in_row_space(piece.space, img)


def test_eigen_multiplicativity(ctx_ns_plus_13):
    piece = spec.decompose(ctx_ns_plus_13)[0]
    es = spec.eigen_system(piece, L=60)
    for m, n in [(2, 3), (2, 5), (3, 5), (4, 7), (2, 29)]:
        if m * n < 60:
            assert es.a(m * n) == es.a(m) * es.a(n)


def test_charpoly_is_minpoly_power(ctx_ns_plus_13):
    piece = spec.decompose(ctx_ns_plus_13)[0]
    f = la.charpoly(piece.op(2))
    fac = factor_rational_poly(f)
    assert len(fac) == 1
    g, e = fac[0]
    assert g.degree * e == piece.dimension


def test_dual_vector_space(ctx_ns_plus_13):
    ctx = ctx_ns_plus_13
    piece = spec.decompose(ctx)[0]
    dual = spec.dual_vector_space(ctx, piece)
    assert len(dual) == piece.dimension


def test_euler_factor_gamma0_11(ctx_gamma0_11):
    piece = spec.decompose(ctx_gamma0_11)[0]
    f2 = spec.local_euler_factor(piece, 2)
    assert f2 == UniPoly([1, 2, 2])
    f3 = spec.local_euler_factor(piece, 3)
    assert f3 == UniPoly([1, 1, 3])


def test_euler_factor_rejects_bad_prime(ctx_gamma0_11):
    piece = spec.decompose(ctx_gamma0_11)[0]
    try:
        spec.local_euler_factor(piece, 11)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError at p | N")


def test_weil_bound_integer_check(ctx_gamma0_11):
    piece = spec.decompose(ctx_gamma0_11)[0]
    es = spec.eigen_system(piece, L=30)
    for p in (2, 3, 5, 7, 13):
        ap = abs(as_fraction(es.a(p)))
        assert ap * ap <= Fraction(4 * p)


def test_eigen_system_determinism(ctx_ns_plus_13):
    piece = spec.decompose(ctx_ns_plus_13)[0]
    a = spec.eigen_system(piece, L=30, seed=0)
    b = spec.eigen_system(piece, L=30, seed=0)
    assert a.modulus == b.modulus
    assert all(a.a_str(n) == b.a_str(n) for n in range(1, 30))


def test_bad_primes_assumed_zero():
    S = space_for("gamma0", 22)
    ctx = spec.SpectralContext(S)
    pieces = spec.decompose(ctx)
    es = spec.eigen_system(pieces[0], L=30)
    assert es.assumed == {2, 11}
    assert es.a_str(2) == "0" and es.a_str(11) == "0"
    es2 = spec.eigen_system(pieces[0], L=30, default_bad_zero=False)
    assert es2.a_str(2) == "?"
    assert es2.a_str(6) == "?"
