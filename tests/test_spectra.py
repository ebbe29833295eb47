import math
from itertools import islice
from math import gcd

import pytest
import sympy
from sympy import factorint, isprime

from congsym.groups import coset_table
from congsym.families import build_family
from congsym import hecke as hk
from congsym import linalg as la
from congsym import spaces as sp
from congsym import spectra as spec
from congsym.polys import NumberField, UniPoly, factor_rational_poly

from congsym.backend import rat
from conftest import Z, dense, kernel_of_factor_power, rank, space_for


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
            imgs = la.mat_mul(piece.space, ctx.op(p))[1]
            for img in imgs:
                assert rank(piece.space[1] + [img]) == rank(piece.space[1])


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
    assert len(dual[1]) == piece.dimension
    # full-space functionals that pair perfectly with the piece
    full = la.mat_mul(piece.space, ctx.basis)
    assert rank(la.mat_mul(dual, la.from_columns(*full, ctx.S.dim))[1]) == \
        piece.dimension
    # v iota = v for every row v
    assert la.mat_mul(dual, sp.star_involution(ctx.S)) == dual


def test_operators_and_bases_are_integer_rows_over_one_denominator(
        ctx_ns_plus_13):
    """T_n, its restriction, the working basis, a piece's basis and its
    dual are pairs (den, rows) of a positive int den and rows of nonzero
    ints, with den the least: no Fraction matrix passes between them."""
    ctx = ctx_ns_plus_13
    piece = spec.decompose(ctx)[0]
    for m in (hk.hecke_tn_fast(ctx.S, 2), ctx.op(2), ctx.basis, piece.space,
              spec.dual_vector_space(ctx, piece)):
        den, rows = m
        assert type(den) is int and den > 0
        entries = [x for row in rows for x in row.values()]
        assert entries and all(type(x) is int and x for x in entries)
        assert gcd(den, *entries) == 1


def test_dual_vector_space_skips_a_bad_prime(monkeypatch):
    """A bad prime planted first: the dual of piece 0 of ns_plus 17 has
    entries from -3 to 2, which mod 3 reconstruct (|r|, s <= 1) to a wrong
    basis; the exact check rejects it, and the next prime, by CRT with 3,
    gives the same dual."""
    ctx = spec.SpectralContext(space_for("ns_plus", 17))
    piece = spec.decompose(ctx)[0]
    ref = spec.dual_vector_space(ctx, piece)
    lifts = []
    rational_lift = la._rational_lift

    def recorded(rows, mod):
        lifts.append((mod, rational_lift(rows, mod)))
        return lifts[-1][1]

    monkeypatch.setattr(la, "_rational_lift", recorded)
    monkeypatch.setattr(la, "_PRIMES", (3,) + la._PRIMES)
    assert spec.dual_vector_space(ctx, piece) == ref
    assert [mod for mod, _ in lifts] == [3, 3 * la._PRIMES[1]]
    assert lifts[0][1] is not None and lifts[0][1] != ref


def test_generator_of_an_irreducible_piece_has_an_irreducible_charpoly():
    """Piece 1 of ns_plus 23 is irreducible of dimension 4, and T_2 is -1
    on it, so an eigenvector of T_2 need not be one of T_3.  The generator
    is then an operator with an irreducible charpoly, and each a_p, as
    multiplication in the coefficient field, has the charpoly of T_p on
    the piece, which the rational a_p of T_2 taken as generator did not."""
    ctx = spec.SpectralContext(space_for("ns_plus", 23))
    piece = spec.decompose(ctx)[1]
    assert piece.dimension == 4 and not piece.isotypic
    assert la.charpoly(piece.op(2)) == UniPoly([1, 1]) ** 4
    es = spec.eigen_system(piece, L=12)
    assert es.field.degree == 4
    for p in (2, 3, 5, 7, 11):
        x = [es.a(p) * es.field.gen() ** i for i in range(4)]
        assert la.charpoly(Z([y.coeffs for y in x])) == \
            la.charpoly(piece.op(p))


def test_star_involution_built_once(monkeypatch):
    """The context builds iota once, and the dual's iota^t = 1 cut once, for
    all pieces and repeated eigensystems (the plus space takes the other
    shifted matrix, iota - 1 by mat_poly_eval)."""
    calls = {"iota": 0, "shift": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(spec, "star_involution",
                        counted("iota", sp.star_involution))
    monkeypatch.setattr(la, "mat_poly_eval",
                        counted("shift", la.mat_poly_eval))
    ctx = spec.SpectralContext(space_for("gamma0", 37))
    pieces = spec.decompose(ctx)
    assert len(pieces) == 2
    for _ in range(2):
        for piece in pieces:
            spec.eigen_system(piece, L=10)
    assert calls == {"iota": 1, "shift": 2}


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
        ap = es.a(p)
        assert ap * ap <= 4 * p


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


def _null_vector(rows, one):
    """A nonzero vector v with rows v = 0 for a singular square matrix over a
    field (rationals or a NumberField with unit one), by Gauss-Jordan
    elimination written here, apart from linalg: v is 1 at the first free
    column."""
    rows = [list(r) for r in rows]
    d = len(rows)
    pivots = []
    for col in range(d):
        r = len(pivots)
        k = next((i for i in range(r, d) if rows[i][col] != 0), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = one / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(d):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    free = next(j for j in range(d) if j not in pivots)
    v = [0 * one] * d
    v[free] = one
    for i, col in enumerate(pivots):
        v[col] = -rows[i][free]
    return v


def _reference_values(pieces, L, seed=0):
    """a_n, n < L, of each piece by the direct path: the full T_q on the
    Merel family, restricted to the working module and then to the piece,
    read off a left eigenvector of the generator over Q(a) (_null_vector,
    which shares no code with linalg); 0 at primes dividing N.  q runs over
    the prime powers, and a_n is multiplicative in coprime factors, where
    det(G) is all of (Z/N)*; otherwise (as on Gamma(N)) q runs over every n
    prime to N."""
    ctx = pieces[0].ctx
    S = ctx.S
    N = S.table.N
    multiplicative = len(S.G.det_image) == sum(
        1 for a in range(N) if math.gcd(a, N) == 1)
    ops = {}

    def op(q):
        if q not in ops:
            full = hk.hecke_tn_fast(S, q, hk.heilbronn_merel_set(q))
            ops[q] = la.restrict_to_invariant_subspace(full, ctx.basis)
        return ops[q]

    out = []
    for piece in pieces:
        primes, t, g = spec._generator(piece, seed)
        T = dense(next(islice(spec._generator_candidates(
            [piece.op(p) for p in primes], seed), t, None)))
        if g.degree == 1:
            one, root = rat(1), -g.coeffs[0]
            lift = lambda x: x
        else:
            F = NumberField(g)
            one, root = F.one(), F.gen()
            lift = F.elem
        d = piece.dimension
        c = _null_vector([[lift(T[j][i]) - (root if i == j else 0 * one)
                           for j in range(d)] for i in range(d)], one)
        j0 = next(i for i, x in enumerate(c) if x != 0)

        def value(q):
            R = dense(piece.restricted(op(q)))
            return sum((c[j] * lift(R[j][j0]) for j in range(d)),
                       0 * one) / c[j0]

        vals = {1: one}
        for n in range(2, L):
            fac = factorint(n)
            if any(N % p == 0 for p in fac):
                vals[n] = 0 * one
            elif not multiplicative:
                vals[n] = value(n)
            else:
                vals[n] = one
                for p, r in fac.items():
                    vals[n] = vals[n] * value(p ** r)
        out.append(vals)
    return out


@pytest.mark.parametrize("group", [
    "gamma0 11", "gamma0 37", "gamma1 13", "ns_plus 17", "gamma 6",
    "gamma 8", "h155", "8e1"])
def test_eigen_system_matches_direct_path(group, g_h155, g_8e1):
    if group == "h155":
        G = g_h155
    elif group == "8e1":
        G = g_8e1
    else:
        tag, param = group.split()
        G = build_family(tag, int(param))
    ctx = spec.SpectralContext(sp.build_space(coset_table(G), 2))
    pieces = spec.decompose(ctx)
    assert pieces
    for piece, ref in zip(pieces, _reference_values(pieces, 60)):
        es = spec.eigen_system(piece, L=60)
        assert [es.a(n) for n in range(1, 60)] == \
            [ref[n] for n in range(1, 60)]


def test_gamma8_composite_outside_det():
    """On Gamma(8), T_3 = T_11 = 0 (3 and 11 are not 1 mod 8), but T_33 is
    not: its charpoly on piece 0 is (x - 12)^2."""
    ctx = spec.SpectralContext(sp.build_space(
        coset_table(build_family("gamma", 8)), 2))
    piece = spec.decompose(ctx)[0]
    assert la.charpoly(piece.op(33)) == UniPoly([144, -24, 1])
    es = spec.eigen_system(piece, L=34)
    assert es.a(3) == 0 and es.a(11) == 0
    assert es.a(33) == 12


@pytest.mark.parametrize("tag,param,k", [
    ("gamma0", 33, 2), ("gamma0", 42, 2), ("gamma", 6, 4), ("gamma", 8, 2),
    ("gamma1", 13, 3), ("ns", 11, 2), ("ns_plus", 37, 2)])
def test_decompose_spaces_match_horner_kernels(tag, param, k, monkeypatch):
    """Every piece's basis is the list that the kernels of g(T_p)^e, by
    Horner evaluation, gave before the components were computed mod p."""
    ctx = spec.SpectralContext(space_for(tag, param, k))
    spaces = [pc.space for pc in spec.decompose(ctx)]
    monkeypatch.setattr(la, "primary_components", lambda m, fac, seed: [
        kernel_of_factor_power(m, g, e) for g, e in fac])
    assert spaces == [pc.space for pc in spec.decompose(ctx)]


@pytest.mark.parametrize("group", [
    "gamma0 11", "gamma0 37", "gamma0 42", "gamma1 13", "ns_plus 17",
    "ns_plus 29", "gamma 6", "gamma 8", "h155"])
def test_labels_are_charpolys(group, g_h155):
    """The label that decompose reads off the first factorization is the
    charpoly of T_p on the piece at its label prime.  On gamma0 42 a piece
    of T_5 splits again at a later prime and keeps its factor at 5."""
    if group == "h155":
        G = g_h155
    else:
        tag, param = group.split()
        G = build_family(tag, int(param))
    ctx = spec.SpectralContext(sp.build_space(coset_table(G), 2))
    pieces = spec.decompose(ctx)
    assert sum(p.dimension for p in pieces) == ctx.dim
    for piece in pieces:
        assert piece.label == la.charpoly(piece.op(piece.label_prime))


def test_bad_prime_operator_not_scalar():
    """U_3 on the 11a old space of gamma0 33 (piece 1) has charpoly
    x^2 + x + 3, so it has no eigenvalue on the piece."""
    ctx = spec.SpectralContext(space_for("gamma0", 33))
    U = la.restrict_to_invariant_subspace(
        hk.hecke_double_coset(ctx.S, (1, 0, 0, 3)), ctx.basis)
    piece = spec.decompose(ctx)[1]
    assert la.charpoly(piece.restricted(U)) == UniPoly([3, 1, 1])
    with pytest.raises(ValueError, match="not a scalar"):
        spec.eigen_system(piece, L=10, bad_ops={3: U})


def test_eichler_shimura_11a1(ctx_gamma0_11):
    """a_p = p + 1 - #E(F_p) for E = 11a1: y^2 + y = x^3 - x^2 - 10x - 20."""
    es = spec.eigen_system(spec.decompose(ctx_gamma0_11)[0], L=200)
    for p in range(2, 200):
        if not isprime(p) or p == 11:
            continue
        ys = {}
        for y in range(p):
            ys[(y * y + y) % p] = ys.get((y * y + y) % p, 0) + 1
        affine = sum(ys.get((x ** 3 - x * x - 10 * x - 20) % p, 0)
                     for x in range(p))
        assert es.a(p) == p + 1 - (affine + 1), p


def test_bad_prime_operator(ctx_gamma0_11):
    """U_11 acts on 11a1 by its split multiplicative sign, +1."""
    ctx = ctx_gamma0_11
    U = la.restrict_to_invariant_subspace(
        hk.hecke_double_coset(ctx.S, (1, 0, 0, 11)), ctx.basis)
    es = spec.eigen_system(spec.decompose(ctx)[0], L=14, bad_ops={11: U})
    assert es.a_str(11) == "1"
    assert es.assumed == set()
    assert [es.a_str(n) for n in range(1, 14)] == \
        ["1", "-2", "-1", "2", "1", "2", "-2", "0", "-2", "-2", "1", "-2",
         "4"]


def test_bad_prime_operator_on_two_pieces():
    """On gamma0 37 the working module holds two rational pieces; U_37 on
    each is the 1x1 restriction."""
    ctx = spec.SpectralContext(space_for("gamma0", 37))
    U = la.restrict_to_invariant_subspace(
        hk.hecke_double_coset(ctx.S, (1, 0, 0, 37)), ctx.basis)
    pieces = spec.decompose(ctx)
    assert [p.dimension for p in pieces] == [1, 1]
    signs = []
    for piece in pieces:
        es = spec.eigen_system(piece, L=38, bad_ops={37: U})
        assert es.a(37) == dense(piece.restricted(U))[0][0]
        signs.append(es.a_str(37))
    assert sorted(signs) == ["-1", "1"]


@pytest.mark.parametrize("p, expected", [(2, [1, 3, 5, 6, 4]),
                                         (3, [1, 2, 1, 6, 9])])
def test_euler_factor_is_norm_gamma1_13(p, expected):
    """det(1 - T_p X + p <sigma_p> X^2) on the degree-2 piece of gamma1 13
    is the norm of 1 - a_p X + (a_p^2 - a_(p^2)) X^2, with a_p and a_(p^2)
    from the direct path."""
    ctx = spec.SpectralContext(space_for("gamma1", 13))
    piece = spec.decompose(ctx)[0]
    ref = _reference_values([piece], p * p + 1)[0]
    ap, ap2 = ref[p], ref[p * p]
    a, X = sympy.symbols("a X")

    def expr(coeffs):
        return sum(sympy.Rational(c.numerator, c.denominator) * a ** i
                   for i, c in enumerate(coeffs))

    local = 1 - expr(ap.coeffs) * X + expr((ap * ap - ap2).coeffs) * X ** 2
    norm = sympy.Poly(sympy.resultant(expr(ap.field.modulus.coeffs), local, a),
                      X)
    assert norm.all_coeffs()[::-1] == expected
    factor = spec.local_euler_factor(piece, p)
    assert factor.coeffs == expected
