import pytest
from sympy import isprime

from congsym.groups import (coset_table, find_det_element, mat_det,
                            mat_inv_mod, mat_mod, mat_mul)
from congsym.families import build_family
from congsym import linalg as la
from congsym import spaces as sp
from congsym import hecke as hk

from conftest import coords, combine, dense, identity, space_for


def test_row_hnf_canonical():
    for m in [(2, 0, 0, 1), (1, 1, 0, 2), (0, -1, 2, 0), (3, 5, 1, 2)]:
        h = hk.row_hnf(m)
        assert h[2] == 0
        assert h[0] > 0 and h[3] > 0
        assert 0 <= h[1] < h[3] or h[3] == 1
        assert h[0] * h[3] == abs(mat_det(m))
    # the check survives python -O: it is a raise, not an assert
    for m in [(0, 1, 1, 0), (1, 2, 2, 4)]:
        with pytest.raises(ValueError, match="positive determinant"):
            hk.row_hnf(m)


def test_heilbronn_merel_sets():
    for n in (2, 3, 4, 6):
        H = hk.heilbronn_merel_set(n)
        for m in H:
            assert mat_det(m) == n
        assert len(set(H)) == len(H)    # each member has multiplicity one
    assert len(hk.heilbronn_merel_set(2)) >= 3


def test_condition_cn():
    for n in range(1, 16):
        assert hk.condition_cn_check(n, hk.heilbronn_merel_set(n))
    bad = hk.heilbronn_merel_set(5)
    assert not hk.condition_cn_check(5, bad[:-1])


def test_cremona_set_condition_cn():
    for p in range(3, 51):
        if isprime(p):
            H = hk.cremona_walk(p)
            assert all(mat_det(m) == p for m in H)
            assert len(set(H)) == len(H)
            assert hk.condition_cn_check(p, H)
    assert not hk.condition_cn_check(2, hk.cremona_walk(2))


def _materialised_cremona_family(p):
    """Cremona's family listed member by member, each formed from its
    continued-fraction step: the reference for cremona_walk."""
    out = [(1, 0, 0, p)]
    for r in range(-(p // 2), p // 2 + 1):
        x1, x2, y1, y2 = p, -r, 0, 1
        a, b = -p, r
        out.append((x1, x2, y1, y2))
        while b:
            q = (2 * abs(a) + abs(b)) // (2 * abs(b))
            if (a < 0) != (b < 0):
                q = -q
            a, b = -b, a - b * q
            x1, x2 = x2, q * x2 - x1
            y1, y2 = y2, q * y2 - y1
            out.append((x1, x2, y1, y2))
    return out


WALKED_SPACES = [("ns_plus", 13, 2), ("gamma1", 13, 3), ("gamma0", 11, 4),
                 ("gamma0", 23, 6), ("gamma_full", 1, 12)]


@pytest.mark.parametrize("tag, param, k", WALKED_SPACES)
def test_cremona_walk_equals_materialised_family(tag, param, k):
    """The walk from pre r_i mod N meets the products pre r_i M mod N of
    the listed family, in order, for every odd prime p < 200 and every coset
    r_i of a basis symbol; from the identity it is the family itself."""
    S = space_for(tag, param, k)
    N = S.table.N
    reps = sorted({i for _, i in S.basis_tags})
    for p in range(3, 200):
        if not isprime(p):
            continue
        family = _materialised_cremona_family(p)
        assert hk.cremona_walk(p) == family
        if N % p == 0:
            continue
        pre = mat_mod(tuple(pow(p, -1, N) * x
                            for x in find_det_element(S.G, p)), N)
        reduced = [mat_mod(M, N) for M in family]
        for i in reps:
            x = mat_mul(pre, S.table.reps_mod[i], N)
            assert hk.cremona_walk(p, x, N) == \
                [mat_mul(x, M, N) for M in reduced]


@pytest.mark.parametrize("tag, param", [("gamma0", 33), ("ns_plus", 17),
                                        ("gamma1", 13)])
def test_cremona_cosets_follow_the_matrix_walk(tag, param):
    """The walk on coset indices meets, in order, the cosets of the products
    of cremona_walk, from the start x = pre r_i of every column of T_p at
    k = 3 and every odd prime p <= 31 prime to N; the order is the one the
    polynomial action pairs with."""
    S = space_for(tag, param, 3)
    table = S.table
    N = table.N
    for p in range(3, 32):
        if not isprime(p) or N % p == 0:
            continue
        walk = hk.cremona_cosets(table, p)
        pre = mat_mod(tuple(pow(p, -1, N) * x
                            for x in find_det_element(S.G, p)), N)
        for _, i in S.basis_tags:
            x = mat_mul(pre, table.reps_mod[i], N)
            assert walk(x) == [table.coset_index_mod(y)
                               for y in hk.cremona_walk(p, x, N)]


ODD_PRIMES_30 = tuple(p for p in range(3, 30) if isprime(p))


@pytest.mark.parametrize("tag, param, k, primes", [
    ("gamma0", 11, 2, ODD_PRIMES_30),
    ("gamma0", 11, 4, ODD_PRIMES_30),
    ("gamma0", 23, 6, ODD_PRIMES_30),
    ("gamma1", 13, 2, ODD_PRIMES_30),
    ("ns_plus", 13, 2, ODD_PRIMES_30),
    ("gamma1", 13, 3, ODD_PRIMES_30),
    ("gamma_full", 1, 12, ODD_PRIMES_30),
])
def test_cremona_tp_equals_merel_tp(tag, param, k, primes):
    """The walked sweep at an odd prime equals the sweep of Merel's family,
    on the spaces of test_cremona_walk_equals_materialised_family and two
    more."""
    S = space_for(tag, param, k)
    for p in primes:
        assert hk.hecke_tn_fast(S, p) == \
            hk.hecke_tn_fast(S, p, hk.heilbronn_merel_set(p))


def test_sweep_in_two_steps(s_ns_plus_13):
    """Column t of T_n reduces the integer counts of hecke_counts, and the
    counts of T_n add up to the size of the family swept at weight 2:
    Cremona's at an odd prime, Merel's at 2 and at composite n."""
    S = s_ns_plus_13
    families = [(n, hk.heilbronn_merel_set(n)) for n in (2, 4, 9)]
    families += [(p, hk.cremona_walk(p)) for p in (3, 5)]
    for n, H in families:
        counts = hk.hecke_counts(S, n)
        full = hk.hecke_tn_fast(S, n)
        for t in range(S.dim):
            c = counts(t)
            assert all(isinstance(x, int) for x in c.values())
            assert sum(c.values()) == len(H)
            assert coords(S, S.reduce(c)) == [row[t] for row in dense(full)]


def test_one_symbol_column_is_matrix_column(s_ns_plus_13):
    for S in (s_ns_plus_13, space_for("gamma0", 11, 4)):
        for n in (1, 2, 3, 4, 9, 13):
            full = hk.hecke_tn_fast(S, n)
            counts = hk.hecke_counts(S, n)
            for t in range(S.dim):
                assert coords(S, S.reduce(counts(t))) == \
                    [row[t] for row in dense(full)]
        sig = hk.sigma_class(S, 2)
        D = dense(hk.diamond_operator(S, sig))
        for t in range(S.dim):
            assert coords(S, hk.diamond_column(S, sig, t)) == \
                [row[t] for row in D]


@pytest.mark.parametrize("tag, param", [("gamma1", 13), ("ns_plus", 13)])
def test_hecke_recursion_at_prime_powers(tag, param):
    """T_(p^2) = T_p^2 - p^(k-1) <sigma_p> and T_(p^3) = T_p T_(p^2) -
    p^(k-1) <sigma_p> T_p, with sigma_p = p^-1 delta_p^2; on gamma1 13 the
    inverse class fails."""
    S = space_for(tag, param)
    for p in (2, 3):
        tp, tp2 = hk.hecke_tn_fast(S, p), hk.hecke_tn_fast(S, p * p)
        sig = hk.sigma_class(S, p)
        pd = combine((p, hk.diamond_operator(S, sig)))
        assert tp2 == combine((1, la.mat_mul(tp, tp)), (-1, pd))
        assert hk.hecke_tn_fast(S, p ** 3) == \
            combine((1, la.mat_mul(tp, tp2)), (-1, la.mat_mul(pd, tp)))
        if tag == "gamma1":
            inv = hk.diamond_operator(S, mat_inv_mod(sig, S.table.N))
            assert tp2 != combine((1, la.mat_mul(tp, tp)), (-p, inv))


def test_double_coset_counts():
    Gamma = coset_table(build_family("gamma0", 11))
    assert len(hk.double_coset_reps(Gamma, (1, 0, 0, 1))) == 1
    assert len(hk.double_coset_reps(Gamma, (1, 0, 0, 2))) == 3
    assert len(hk.double_coset_reps(Gamma, (1, 0, 0, 11))) == 11


def test_merel_equals_naive_gamma0_11(s_gamma0_11):
    for p in (2, 3, 5, 7):
        assert hk.hecke_tp(s_gamma0_11, p, path="merel") == \
            hk.hecke_tp(s_gamma0_11, p, path="naive")
    with pytest.raises(ValueError):
        hk.hecke_tp(s_gamma0_11, 2, path="auto")
    # the naive path would give the one double coset of diag(1, n)
    for n in (4, 0, 1, -3):
        for path in ("merel", "naive"):
            with pytest.raises(ValueError, match="needs a prime"):
                hk.hecke_tp(s_gamma0_11, n, path=path)


def test_hecke_commutation(s_gamma0_11):
    S = s_gamma0_11
    t2 = hk.hecke_tn_fast(S, 2)
    t3 = hk.hecke_tn_fast(S, 3)
    assert la.mat_mul(t2, t3) == la.mat_mul(t3, t2)


def test_hecke_multiplicativity(s_gamma0_11):
    S = s_gamma0_11
    t2 = hk.hecke_tn_fast(S, 2)
    t3 = hk.hecke_tn_fast(S, 3)
    assert hk.hecke_tn_fast(S, 6) == la.mat_mul(t2, t3)
    # T_4 = T_2^2 - 2 <2> in weight 2; the diamond is trivial on gamma0
    t4 = hk.hecke_tn_fast(S, 4)
    expect = combine((1, la.mat_mul(t2, t2)), (-2, identity(S.dim)))
    assert t4 == expect


def test_hecke_vanishes_off_det_image():
    S = space_for("gamma", 3)
    assert not any(hk.hecke_tn_fast(S, 2)[1])


def test_hecke_paths_zero_off_det_image():
    # 3 mod 8 is not a determinant of Gamma(8): both paths give T_3 = 0
    S = space_for("gamma", 8)
    naive = hk.hecke_tp(S, 3, path="naive")
    assert naive == hk.hecke_tp(S, 3, path="merel")
    assert naive == (1, [{}] * S.dim)


def test_hecke_at_level_prime_is_not_merel(s_gamma0_11):
    assert not any(hk.hecke_tn_fast(s_gamma0_11, 11)[1])


def test_star_commutes_with_hecke(s_gamma0_11, s_ns_plus_13):
    for S in (s_gamma0_11, s_ns_plus_13):
        iota = sp.star_involution(S)
        for p in (2, 3):
            t = hk.hecke_tn_fast(S, p)
            assert la.mat_mul(iota, t) == la.mat_mul(t, iota)


def test_diamond_trivial_on_gamma0(s_gamma0_11):
    S = s_gamma0_11
    d = hk.diamond_operator(S, hk.sigma_class(S, 2))
    assert d == identity(S.dim)


def test_diamond_commutes_and_has_finite_order():
    S = space_for("ns", 13)
    sig = hk.sigma_class(S, 2)
    d = hk.diamond_operator(S, sig)
    t2 = hk.hecke_tn_fast(S, 2)
    assert la.mat_mul(d, t2) == la.mat_mul(t2, d)
    power = d
    for _ in range(40):
        if power == identity(S.dim):
            break
        power = la.mat_mul(power, d)
    else:
        raise AssertionError("diamond operator has unexpected order")


def test_element_of_det():
    G = build_family("gamma0", 11)
    a = hk.element_of_det(G, 2)
    assert mat_det(a) == 2


@pytest.mark.parametrize("k", [2, 4])
def test_degeneracy_alpha_beta_composition(k):
    """alpha_t beta_t is the index of K in Gamma0(11), and both maps commute
    with T_3.  At k = 4 alpha_t carries the scale det(t)^-(k-2)."""
    low = coset_table(build_family("gamma0", 11))
    high = coset_table(build_family("gamma0", 22))
    S_low = sp.build_space(low, k)
    S_high = sp.build_space(high, k)
    datas = hk.enumerate_degeneracy(high, low)
    # one t per double coset Gamma0(22) t Gamma0(11): 1, diag(1, 2) and the
    # two Fricke-type matrices; each K has index 3 = [Gamma0(11) : Gamma0(22)]
    assert [d.t for d in datas] == [(1, 0, 0, 1), (1, 0, 0, 2),
                                    (0, -1, 11, 0), (0, -1, 22, 0)]
    t3_low, t3_high = hk.hecke_tp(S_low, 3), hk.hecke_tp(S_high, 3)
    for d in datas:
        A = hk.degeneracy_alpha_dual(S_high, S_low, d)
        B = hk.degeneracy_beta_dual(S_low, S_high, d)
        idx = hk.coset_count_beta(d)
        assert idx == 3
        comp = la.mat_mul(A, B)
        assert comp == combine((idx, identity(S_low.dim)))
        assert la.mat_mul(A, t3_high) == la.mat_mul(t3_low, A)
        assert la.mat_mul(t3_high, B) == la.mat_mul(B, t3_low)
