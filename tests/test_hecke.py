import pytest

from congsym.backend import is_prime
from congsym.groups import coset_table, mat_det, mat_inv_mod
from congsym.families import build_family
from congsym import linalg as la
from congsym import spaces as sp
from congsym import hecke as hk

from conftest import space_for


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
        for mult, m in H.pairs:
            assert mat_det(m) == n
            assert mult >= 1
    assert len(hk.heilbronn_merel_set(2).pairs) >= 3


def test_condition_cn():
    for n in range(1, 16):
        assert hk.condition_cn_check(hk.heilbronn_merel_set(n))
    bad = hk.heilbronn_merel_set(5)
    mutated = hk.HeilbronnSet(5, bad.pairs[:-1])
    assert not hk.condition_cn_check(mutated)


def test_cremona_set_condition_cn():
    for p in range(3, 51):
        if is_prime(p):
            H = hk.heilbronn_cremona_set(p)
            assert all(u == 1 and mat_det(m) == p for u, m in H)
            assert hk.condition_cn_check(H)
            assert hk.heilbronn_set(p).pairs == H.pairs
    assert not hk.condition_cn_check(hk.heilbronn_cremona_set(2))
    assert hk.heilbronn_set(2).pairs == hk.heilbronn_merel_set(2).pairs
    assert hk.heilbronn_set(9).pairs == hk.heilbronn_merel_set(9).pairs


@pytest.mark.parametrize("tag, param, k, primes", [
    ("gamma0", 11, 2, (3, 5, 7, 13)),
    ("gamma0", 11, 4, (3, 5, 7)),
    ("gamma0", 23, 6, (3, 5)),
    ("gamma1", 13, 2, (3, 5, 7)),
    ("ns_plus", 13, 2, (3, 5, 7, 11)),
])
def test_cremona_tp_equals_merel_tp(tag, param, k, primes):
    S = space_for(tag, param, k)
    for p in primes:
        assert hk.hecke_tn_fast(S, p) == \
            hk.hecke_tn_fast(S, p, hk.heilbronn_merel_set(p))


def test_one_symbol_column_is_matrix_column(s_ns_plus_13):
    for S in (s_ns_plus_13, space_for("gamma0", 11, 4)):
        for n in (1, 2, 3, 4, 9, 13):
            full = hk.hecke_tn_fast(S, n)
            column = hk.hecke_sweep(S, n)
            for t in range(S.dim):
                assert column(t) == [row[t] for row in full]
        sig = hk.sigma_class(S, 2)
        D = hk.diamond_operator(S, sig)
        for t in range(S.dim):
            assert hk.diamond_column(S, sig, t) == [row[t] for row in D]


@pytest.mark.parametrize("tag, param", [("gamma1", 13), ("ns_plus", 13)])
def test_hecke_recursion_at_prime_powers(tag, param):
    """T_(p^2) = T_p^2 - p^(k-1) <sigma_p> and T_(p^3) = T_p T_(p^2) -
    p^(k-1) <sigma_p> T_p, with sigma_p = p^-1 delta_p^2; on gamma1 13 the
    inverse class fails."""
    S = space_for(tag, param)
    for p in (2, 3):
        tp, tp2 = hk.hecke_tn_fast(S, p), hk.hecke_tn_fast(S, p * p)
        sig = hk.sigma_class(S, p)
        pd = la.mat_scale(hk.diamond_operator(S, sig), S.one * p)
        assert tp2 == la.mat_sub(la.mat_mul(tp, tp), pd)
        assert hk.hecke_tn_fast(S, p ** 3) == \
            la.mat_sub(la.mat_mul(tp, tp2), la.mat_mul(pd, tp))
        if tag == "gamma1":
            inv = hk.diamond_operator(S, mat_inv_mod(sig, S.table.N))
            assert tp2 != la.mat_sub(la.mat_mul(tp, tp),
                                     la.mat_scale(inv, S.one * p))


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
    expect = la.mat_sub(la.mat_mul(t2, t2),
                        la.mat_scale(la.identity_matrix(S.dim),
                                     S.one * 2))
    assert t4 == expect


def test_hecke_vanishes_off_det_image():
    S = space_for("gamma", 3)
    assert la.is_zero_matrix(hk.hecke_tn_fast(S, 2))


def test_hecke_paths_zero_off_det_image():
    # 3 mod 8 is not a determinant of Gamma(8): both paths give T_3 = 0
    S = space_for("gamma", 8)
    naive = hk.hecke_tp(S, 3, path="naive")
    assert naive == hk.hecke_tp(S, 3, path="merel")
    assert naive == la.zero_matrix(S.dim, S.dim)


def test_hecke_at_level_prime_is_not_merel(s_gamma0_11):
    assert la.is_zero_matrix(hk.hecke_tn_fast(s_gamma0_11, 11))


def test_star_commutes_with_hecke(s_gamma0_11, s_ns_plus_13):
    for S in (s_gamma0_11, s_ns_plus_13):
        iota = sp.star_involution(S)
        for p in (2, 3):
            t = hk.hecke_tn_fast(S, p)
            assert la.mat_mul(iota, t) == la.mat_mul(t, iota)


def test_diamond_trivial_on_gamma0(s_gamma0_11):
    S = s_gamma0_11
    d = hk.diamond_operator(S, hk.sigma_class(S, 2))
    assert d == la.identity_matrix(S.dim)


def test_diamond_commutes_and_has_finite_order():
    S = space_for("ns", 13)
    sig = hk.sigma_class(S, 2)
    d = hk.diamond_operator(S, sig)
    t2 = hk.hecke_tn_fast(S, 2)
    assert la.mat_mul(d, t2) == la.mat_mul(t2, d)
    power = d
    for _ in range(40):
        if power == la.identity_matrix(S.dim):
            break
        power = la.mat_mul(power, d)
    else:
        raise AssertionError("diamond operator has unexpected order")


def test_element_of_det():
    G = build_family("gamma0", 11)
    a = hk.element_of_det(G, 2)
    assert mat_det(a) == 2


def test_degeneracy_alpha_beta_composition():
    low = coset_table(build_family("gamma0", 11))
    high = coset_table(build_family("gamma0", 22))
    S_low = sp.build_space(low, 2)
    S_high = sp.build_space(high, 2)
    datas = hk.enumerate_degeneracy(high, low)
    # one t per double coset Gamma0(22) t Gamma0(11): 1, diag(1, 2) and the
    # two Fricke-type matrices; each K has index 3 = [Gamma0(11) : Gamma0(22)]
    assert [d.t for d in datas] == [(1, 0, 0, 1), (1, 0, 0, 2),
                                    (0, -1, 11, 0), (0, -1, 22, 0)]
    for d in datas:
        A = hk.degeneracy_alpha_dual(S_high, S_low, d)
        B = hk.degeneracy_beta_dual(S_low, S_high, d)
        idx = hk.coset_count_beta(d)
        assert idx == 3
        comp = la.mat_mul(A, B)
        assert comp == la.mat_scale(
            la.identity_matrix(S_low.dim), S_low.one * idx)


def test_new_old_subspaces():
    S11 = space_for("gamma0", 11)
    c11 = sp.cuspidal_subspace(S11)
    assert len(hk.new_subspace(S11, c11)) == 2
    assert len(hk.old_subspace(S11, c11)) == 0
    S22 = space_for("gamma0", 22)
    c22 = sp.cuspidal_subspace(S22)
    assert len(hk.new_subspace(S22, c22)) == 0
    assert len(hk.old_subspace(S22, c22)) == 4


def test_phi_map_lands_in_cosets(s_gamma0_11):
    S = s_gamma0_11
    for mult, m in hk.heilbronn_merel_set(2).pairs:
        j = hk.phi_map(S, m)
        assert 0 <= j < S.table.index
