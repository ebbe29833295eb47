"""Randomized algebraic invariants (hypothesis)."""

from hypothesis import given, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from congsym.backend import rat
from congsym.groups import mat_mul, mat_det, imat_adjugate
from congsym.polys import UniPoly
from congsym.spaces import sym_action, monomial, cusp_normalize
from congsym import hecke as hk
from congsym import linalg as la

from conftest import Z

small_int = st.integers(min_value=-30, max_value=30)


def unimodular(entries):
    a, b = entries
    # (a, b; c, d) with ad - bc = 1 via a row of an extended-Euclid pair
    from math import gcd
    g = gcd(a, b)
    if g == 0:
        return (1, 0, 0, 1)
    a, b = a // g, b // g
    # find c, d with ad - bc = 1
    from congsym.backend import egcd
    _, d, c = egcd(a, -b)
    return (a, b, c, d)


@given(st.tuples(small_int, small_int), st.tuples(small_int, small_int))
@settings(max_examples=60, deadline=None)
def test_unimodular_helper(e1, e2):
    m = unimodular(e1)
    assert mat_det(m) == 1


@given(st.tuples(small_int, small_int), st.tuples(small_int, small_int),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_sym_action_is_multiplicative(e1, e2, w):
    g, h = unimodular(e1), unimodular(e2)
    P = monomial(4, w)
    assert sym_action(g, sym_action(h, P)) == sym_action(mat_mul(g, h), P)


@given(st.tuples(small_int, small_int))
@settings(max_examples=60, deadline=None)
def test_adjugate_identity(e):
    m = unimodular(e)
    assert mat_mul(m, imat_adjugate(m)) == (1, 0, 0, 1)


@given(st.tuples(small_int, small_int))
@settings(max_examples=60, deadline=None)
def test_row_hnf_is_left_invariant(e):
    g = unimodular(e)
    m = (2, 1, 0, 3)
    assert hk.row_hnf(mat_mul(g, m)) == hk.row_hnf(m)


@given(small_int, small_int)
@settings(max_examples=60, deadline=None)
def test_cusp_normalize_idempotent(u, v):
    c = cusp_normalize(u, v)
    assert cusp_normalize(*c) == c
    assert c[1] >= 0


poly_strategy = st.lists(st.integers(min_value=-9, max_value=9),
                         min_size=0, max_size=6)


@given(poly_strategy, poly_strategy)
@settings(max_examples=60, deadline=None)
def test_poly_ring_laws(cs, ds):
    f, g = UniPoly(cs), UniPoly(ds)
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * f == f * f + g * f


@given(poly_strategy, poly_strategy)
@settings(max_examples=60, deadline=None)
def test_poly_division(cs, ds):
    f, g = UniPoly(cs), UniPoly(ds)
    if g.is_zero():
        return
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.is_zero() or r.degree < g.degree


@given(st.integers(min_value=1, max_value=25))
@settings(max_examples=25, deadline=None)
def test_heilbronn_merel_condition(n):
    assert hk.condition_cn_check(n, hk.heilbronn_merel_set(n))


# sparse rational matrices: mostly zeros, small numerators and denominators,
# whole zero rows, and shapes down to 0 x 0 and n x 0
sparse_entry = st.one_of(
    st.just(0), st.just(0), st.just(0),
    st.builds(rat, st.integers(min_value=-9, max_value=9),
              st.integers(min_value=1, max_value=6)))


@st.composite
def sparse_matrix(draw):
    ncols = draw(st.integers(min_value=0, max_value=8))
    rows = draw(st.lists(st.one_of(
        st.just([0] * ncols),
        st.lists(sparse_entry, min_size=ncols, max_size=ncols)),
        max_size=8))
    return [[rat(x) for x in row] for row in rows]


@given(sparse_matrix())
@settings(max_examples=200, deadline=None)
def test_echelon_matches_sympy_gauss_jordan(rows):
    """la.echelon, its reduced form padded with zero rows, its rank and
    the kernel built on it, against sympy's DomainMatrix.rref(method="GJ")
    over QQ and the kernel read off that form."""
    ncols = len(rows[0]) if rows else 0
    dm = DomainMatrix([[QQ(x.numerator, x.denominator) for x in row]
                       for row in rows], (len(rows), ncols), QQ)
    red, pivots = dm.rref(method="GJ")
    expect = [[rat(int(x.numerator), int(x.denominator)) for x in row]
              for row in red.to_Matrix().tolist()] if rows else []
    got, got_pivots = la.echelon(
        [{j: x for j, x in enumerate(row) if x} for row in rows])
    assert got_pivots == list(pivots)
    assert got == [{j: x for j, x in enumerate(row) if x}
                   for row in expect[:len(pivots)]]
    assert got + [{}] * (len(rows) - len(got)) == \
        [{j: x for j, x in enumerate(row) if x} for row in expect]
    assert len(got) == len(pivots)
    null = red.nullspace_from_rref(pivots).to_Matrix().tolist() if rows else []
    kernel = [[rat(int(x.p), int(x.q)) for x in v] for v in null]
    assert la.kernel(Z(rows), ncols) == Z(kernel)
