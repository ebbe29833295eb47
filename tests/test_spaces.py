import pytest

from congsym.backend import XorShift64, egcd, rat
from congsym.groups import coset_table, imat_adjugate, mat_mul
from congsym.families import build_family
from congsym import linalg as la
from congsym import spaces as sp
from congsym.spaces import (build_space, monomial, sym_action, cusp_count,
                            cuspidal_subspace, star_involution, plus_subspace,
                            boundary_map, cusp_normalize, NotRealType)

from conftest import Z, combine, coords, dense, identity, space_for

SIGMA = (0, -1, 1, 0)
TAU = (0, -1, 1, -1)
J = (-1, 0, 0, -1)


def symbol_coords(S, P, a, b):
    """Coordinates of the modular symbol P (x) {a, b}."""
    return coords(S, S.reduce(S.add_symbol({}, P, a, b)))


def manin_relation_defects(S):
    """Coordinate sums x + x.sigma, x + x.tau + x.tau^2, x - x.J over all
    basis symbols; all must vanish in the presented quotient."""
    defects = []
    tau2 = mat_mul(TAU, TAU)
    for (w, i) in S.basis_tags:
        P = monomial(S.m, w)
        r = S.table.reps[i]

        def act(h):
            return coords(S, S.reduce(S.add_manin(
                {}, sym_action(imat_adjugate(h), P), mat_mul(r, h))))

        x = coords(S, S.reduce(S.add_manin({}, P, r)))
        two = [a + b for a, b in zip(x, act(SIGMA))]
        three = [a + b + c for a, b, c in zip(x, act(TAU), act(tau2))]
        jrel = [a - b for a, b in zip(x, act(J))]
        for vec in (two, three, jrel):
            if any(c != 0 for c in vec):
                defects.append((w, i, vec))
    return defects


def test_sym_action_weight_zero():
    assert sym_action((1, 2, 3, 4), monomial(0, 0)) == monomial(0, 0)


def test_sym_action_composition():
    g = (1, 2, 0, 1)
    h = (2, 1, 1, 1)
    P = monomial(4, 1)
    lhs = sym_action(g, sym_action(h, P))
    rhs = sym_action(mat_mul(g, h), P)
    assert lhs == rhs


def test_cusp_helpers():
    assert cusp_normalize(-2, -4) == (1, 2)
    assert cusp_normalize(0, -3) == (0, 1)
    assert cusp_normalize(3, 0) == (1, 0)
    m = cusp_to_matrix((3, 7))
    assert m[0] == 3 and m[2] == 7
    assert m[0] * m[3] - m[1] * m[2] == 1


def test_dimensions_table():
    cases = [
        ("gamma0", 11, 2, 3, 2),
        ("gamma0", 22, 2, 7, 4),
        ("gamma_full", 1, 12, 3, 2),
        ("gamma_full", 1, 2, 0, 0),
        ("gamma1", 5, 2, 3, 0),
        ("gamma", 2, 2, 2, 0),
        ("ns_plus", 13, 2, 11, 6),
        # odd weight: -I is not in Gamma_1(N), and every cusp is regular
        # for N >= 5, so dim S_k = 2[(k-1)(g-1) + ((k-2)/2) eps_oo]
        # (Diamond-Shurman, Thm 3.6.1)
        ("gamma1", 5, 3, 4, 0),
        ("gamma1", 7, 3, 8, 2),
        ("gamma1", 11, 3, 20, 10),
        ("gamma1", 13, 3, 28, 16),
        ("gamma1", 7, 5, 16, 10),
    ]
    for tag, param, k, dim_full, dim_cusp in cases:
        S = space_for(tag, param, k)
        assert S.dim == dim_full, (tag, param, k)
        assert len(cuspidal_subspace(S)[1]) == dim_cusp, (tag, param, k)


def test_cusp_counts():
    assert cusp_count(coset_table(build_family("gamma0", 11))) == 2
    assert cusp_count(coset_table(build_family("gamma", 2))) == 3
    assert cusp_count(coset_table(build_family("gamma1", 5))) == 4
    assert cusp_count(coset_table(build_family("ns_plus", 13))) == 6
    # sum over d | N of phi(gcd(d, N/d)) for gamma0; N^2/2 prod (1 - p^-2)
    # for gamma(N), N > 2; sum over d | N of phi(d) phi(N/d) / 2 for
    # gamma1(N), N > 4
    for tag, param, cusps in [("gamma0", 48, 12), ("gamma", 8, 24),
                              ("gamma1", 4, 3), ("gamma1", 13, 12),
                              ("ns_plus", 37, 18), ("ns", 15, 8), ("s4", 13, 7),
                              ("gamma_full", 1, 1), ("gamma_full", 12, 1)]:
        assert cusp_count(coset_table(build_family(tag, param))) == cusps


def test_manin_relations_gamma0_11(s_gamma0_11):
    assert manin_relation_defects(s_gamma0_11) == []


def test_three_term_path_relation(s_gamma0_11):
    S = s_gamma0_11
    rng = XorShift64(3)
    for _ in range(12):
        cusps = []
        while len(cusps) < 3:
            u = rng.randint(-12, 12)
            v = rng.randint(0, 12)
            if (u, v) != (0, 0):
                cusps.append((u, v))
        a, b, c = cusps
        P = monomial(S.m, 0)
        total = [x + y + z for x, y, z in zip(symbol_coords(S, P, a, b),
                                              symbol_coords(S, P, b, c),
                                              symbol_coords(S, P, c, a))]
        assert all(t == 0 for t in total)


def test_boundary_of_path_sum_vanishes(s_gamma0_11):
    S = s_gamma0_11
    rows = boundary_map(S)[1]
    P = monomial(S.m, 0)
    vec = [x + y + z
           for x, y, z in zip(symbol_coords(S, P, (1, 0), (0, 1)),
                              symbol_coords(S, P, (0, 1), (1, 3)),
                              symbol_coords(S, P, (1, 3), (1, 0)))]
    assert rows
    for row in rows:
        assert sum(vec[i] * x for i, x in row.items()) == 0


def test_star_involution_square(s_gamma0_11):
    S = s_gamma0_11
    iota = star_involution(S)
    assert la.mat_mul(iota, iota) == identity(S.dim)


def test_plus_minus_dimensions(s_ns_plus_13):
    S = s_ns_plus_13
    cusp = cuspidal_subspace(S)
    iota = star_involution(S)
    plus = plus_subspace(S, iota)
    restr = la.restrict_to_invariant_subspace(iota, cusp)
    n = len(cusp[1])
    minus_dim = len(la.kernel(combine((1, restr), (1, identity(n))), n)[1])
    assert len(plus[1]) + minus_dim == n
    assert len(plus[1]) == 3


PLUS_GROUPS = [("ns_plus", 13, 2), ("ns_plus", 17, 2), ("ns_plus", 37, 2),
               ("gamma0", 11, 4), ("gamma0", 37, 2), ("gamma1", 13, 3)]


def _reference_plus(S, iota):
    """The +1 kernel of iota restricted to the cuspidal basis C, times C."""
    cusp = cuspidal_subspace(S)
    n = len(cusp[1])
    if not n:
        return 1, []
    restr = la.restrict_to_invariant_subspace(iota, cusp)
    shifted = combine((1, restr), (-1, identity(n)))
    return la.mat_mul(la.kernel(shifted, n), cusp)


def _up_to_sign_sorted(rows):
    keys = []
    for row in rows:
        first = next((x for x in row if x), 0)
        keys.append(tuple(-x if first < 0 else x for x in row))
    return sorted(keys)


@pytest.mark.parametrize("tag, param, k", PLUS_GROUPS)
def test_plus_basis_is_restricted_kernel(tag, param, k):
    S = space_for(tag, param, k)
    iota = star_involution(S)
    # iota is minus the action of eta = diag(-1, 1) on modular symbols:
    # P (x) {a, b} -> -P(x, -y) (x) {-a, -b}, checked on random symbols
    rng = XorShift64(7)
    for _ in range(6):
        w = rng.randint(0, S.m)
        (a0, a1), (b0, b1) = [(rng.randint(-9, 9), rng.randint(1, 9))
                              for _ in range(2)]
        P = monomial(S.m, w)
        image = la.mat_mul(iota, Z([[x] for x in symbol_coords(
            S, P, (a0, a1), (b0, b1))]))
        flipped = symbol_coords(S, sym_action((-1, 0, 0, 1), P),
                                (-a0, a1), (-b0, b1))
        assert image == Z([[-x] for x in flipped])
    assert la.mat_mul(iota, iota) == identity(S.dim)
    bt = boundary_map(S)
    assert _up_to_sign_sorted(dense(la.mat_mul(bt, iota), S.dim)) == \
        _up_to_sign_sorted(dense(bt, S.dim))
    plus = plus_subspace(S, iota)
    assert plus == _reference_plus(S, iota)
    assert plus[1]


def test_star_check_rejects_a_non_permutation(s_ns_plus_13):
    S = s_ns_plus_13
    bmat = boundary_map(S)
    den, rows = star_involution(S)
    sp._check_permutes_cusps(bmat, (den, rows))
    # column 0 doubled
    rows = [{j: 2 * x if j == 0 else x for j, x in row.items()}
            for row in rows]
    with pytest.raises(RuntimeError, match="permute the cusp classes"):
        sp._check_permutes_cusps(bmat, (den, rows))


# The reference boundary map: each cusp vector is lifted to SL2(Z), and every
# match of two vectors is confirmed by a witness gamma built and checked.

def cusp_to_matrix(cusp):
    """An SL2(Z) matrix whose first column is the given primitive vector."""
    u, v = cusp
    if (u, v) == (1, 0):
        return (1, 0, 0, 1)
    g, s, t = egcd(u, v)
    assert g == 1, "vector (%d, %d) is not primitive" % (u, v)
    if s * u + t * v != 1:
        s, t = -s, -t
    return (u, -t, v, s)


def orbit_table(Gamma):
    """T-orbit table: per coset a pair (orbit id, exponent), orbits numbered
    in the order of their least cosets and exponents counted from those."""
    ids = {}
    return [(ids.setdefault(cycle[0], len(ids)), e)
            for cycle, e in Gamma.t_cycles]


def vector_equiv(Gamma, tab, w1, w2):
    """Is there gamma in Gamma_G with gamma * w1 = w2 exactly, as primitive
    vectors?  The witness is built and checked."""
    h = cusp_to_matrix(w1)
    g_b = cusp_to_matrix(w2)
    i_h = Gamma.coset_index(h)
    i_b = Gamma.coset_index(g_b)
    if tab[i_h][0] != tab[i_b][0]:
        return False
    d = tab[i_h][1] - tab[i_b][1]
    mid = mat_mul(mat_mul(Gamma.reps[i_b], (1, d, 0, 1)),
                  imat_adjugate(Gamma.reps[i_h]))
    gamma_b = mat_mul(g_b, imat_adjugate(Gamma.reps[i_b]))
    gamma_h = mat_mul(h, imat_adjugate(Gamma.reps[i_h]))
    gamma = mat_mul(mat_mul(gamma_b, mid), imat_adjugate(gamma_h))
    assert Gamma.contains(gamma)
    assert (gamma[0] * w1[0] + gamma[1] * w1[1],
            gamma[2] * w1[0] + gamma[3] * w1[1]) == w2
    return True


def cusp_vanishing(Gamma, tab, a, m=0):
    """Does the boundary class of the primitive vector a die in the weight
    m+2 boundary space?  The class satisfies [-w] = (-1)^m [w], so it
    vanishes exactly when m is odd and some gamma maps a to -a."""
    return m % 2 == 1 and vector_equiv(Gamma, tab, a, (-a[0], -a[1]))


def _reference_boundary(S):
    """The boundary map by scanning every class found so far with
    vector_equiv, for w and for -w."""
    table = S.table
    tab = orbit_table(table)
    m = S.m
    cusps, vanished = [], []
    rows = [{} for _ in range(S.dim)]

    def add(t, w_vec, sign):
        for idx, rep in enumerate(cusps):
            for c in (1, -1):
                if vector_equiv(table, tab, rep, (c * w_vec[0], c * w_vec[1])):
                    coeff = -1 if c == -1 and m % 2 == 1 else 1
                    rows[t][idx] = rows[t].get(idx, 0) + sign * coeff
                    return
        for rep in vanished:
            for c in (1, -1):
                if vector_equiv(table, tab, rep, (c * w_vec[0], c * w_vec[1])):
                    return
        if cusp_vanishing(table, tab, w_vec, m):
            vanished.append(w_vec)
            return
        cusps.append(w_vec)
        rows[t][len(cusps) - 1] = rows[t].get(len(cusps) - 1, 0) + sign

    for t, (w, i) in enumerate(S.basis_tags):
        rep = table.reps[i]
        if w == m:
            add(t, (rep[0], rep[2]), 1)
        if w == 0:
            add(t, (rep[1], rep[3]), -1)
    matrix = [[row.get(j, 0) for j in range(len(cusps))] for row in rows]
    return cusps, matrix, vanished


# gamma1 4 at k = 7 reaches the irregular cusp 1/2, whose class vanishes
@pytest.mark.parametrize("group", [
    ("gamma0", 11, 4), ("gamma1", 13, 3), ("gamma1", 4, 7), ("gamma", 8, 2),
    ("ns", 11, 2), ("ns_plus", 37, 2), "g_h155", "g_8e1"])
def test_boundary_map_matches_scan(group, request):
    if isinstance(group, str):
        S = build_space(coset_table(request.getfixturevalue(group)), 2)
    else:
        S = space_for(*group)
    _, matrix, vanished = _reference_boundary(S)
    # a row per cusp class
    assert boundary_map(S) == Z([list(col) for col in zip(*matrix)])
    assert bool(vanished) == (group == ("gamma1", 4, 7))


@pytest.mark.parametrize("tag, param", [
    ("ns_plus", 13), ("gamma0", 11), ("gamma1", 13), ("gamma", 5),
    ("ns", 13), ("s4", 13), ("gamma_full", 1)])
def test_relation_cosets_are_the_integer_cosets(tag, param):
    """The cosets of r_i h for h = sigma, J, tau and tau^2, read off perm_S
    and perm_T, are those of the integer products r_i h.  gamma1 13 has no
    -I; ns_plus 13 and gamma0 11 are of real type."""
    Gamma = coset_table(build_family(tag, param))
    for h, cosets in zip((SIGMA, J, TAU, mat_mul(TAU, TAU)),
                         sp.relation_cosets(Gamma)):
        assert cosets == [Gamma.coset_index(mat_mul(r, h))
                          for r in Gamma.reps]


@pytest.mark.parametrize("tag, param, k", [
    ("ns_plus", 13, 2), ("ns_plus", 11, 4), ("gamma0", 11, 4),
    ("ns", 13, 2), ("gamma", 5, 3)])
def test_star_involution_matches_integer_conjugation(tag, param, k):
    """The star involution, which conjugates reps_mod[i] by eta mod N, is
    the one built from eta reps[i] eta^-1 over Z."""
    S = space_for(tag, param, k)
    cols = []
    for (w, i) in S.basis_tags:
        a, b, c, d = S.table.reps[i]
        j = S.table.coset_index((a, -b, -c, d))
        cols.append({pos: (-1) ** (S.m - w + 1) * x
                     for pos, x in S._cols[S.gen_index(w, j)]})
    assert star_involution(S) == la.from_columns(S.den, cols, S.dim)


def test_star_requires_real_type(g_8e1):
    S = build_space(coset_table(g_8e1), 2)
    with pytest.raises(NotRealType):
        star_involution(S)


def test_modular_symbol_wrapper(s_gamma0_11):
    S = s_gamma0_11
    P = monomial(S.m, 0)
    v = symbol_coords(S, P, (0, 1), (1, 0))
    assert len(v) == S.dim
    back = [a + b for a, b in zip(v, symbol_coords(S, P, (1, 0), (0, 1)))]
    assert all(c == 0 for c in back)


@pytest.mark.parametrize("tag, param, k", [("gamma1", 13, 3),
                                           ("ns_plus", 13, 2)])
def test_pull_back_pairs_rows_with_reduced_keys(tag, param, k):
    """pull_back(rows) is, for every free-symbol key, the integer D times
    the pairing of each row with the reduction of that key."""
    S = space_for(tag, param, k)
    rng = XorShift64(11)
    rows = [[rat(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(S.dim)]
            for _ in range(3)]
    den, table = S.pull_back(Z(rows))
    assert len(table) == S.table.index * (S.m + 1)
    for key, pulled in enumerate(table):
        col = coords(S, S.reduce({key: 1}))
        assert pulled == [den * sum(a * b for a, b in zip(row, col))
                          for row in rows]
        assert all(isinstance(x, int) for x in pulled)
