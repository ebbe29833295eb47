from math import prod

import sympy
from hypothesis import given, settings, strategies as st

from conftest import space_for
from congsym import linalg as la
from congsym.backend import rat, XorShift64
from congsym.polys import (UniPoly, factor_rational_poly, is_irreducible_poly,
                           NumberField, CERTIFICATE_PRIMES, _irreducible_mod,
                           gf_ddf)
from congsym.spectra import SpectralContext


def P(*coeffs):
    return UniPoly(coeffs)


def test_arithmetic():
    f = P(1, 2, 1)          # 1 + 2x + x^2
    g = P(1, 1)             # 1 + x
    assert f == g * g
    assert (f - g * g).is_zero()
    assert f % g == P()
    assert f // g == g
    assert g ** 3 == P(1, 3, 3, 1)
    assert f.degree == 2 and P().degree == -1


def test_divmod_and_gcd():
    f = P(-1, 0, 1)         # x^2 - 1
    g = P(1, 1)
    q, r = f.divmod(g)
    assert q * g + r == f
    q, r = f.divmod(P(-1, 1))
    assert q * P(-1, 1) + r == f and r == P()
    q, r = P(1, 2, 1).divmod(P(-1, 1))
    assert q * P(-1, 1) + r == P(1, 2, 1) and r == P(4)


def test_factorization():
    f = P(-1, 0, 1) * P(2, 1) * P(2, 1)     # (x-1)(x+1)(x+2)^2
    fac = factor_rational_poly(f)
    assert fac == [(P(-1, 1), 1), (P(1, 1), 1), (P(2, 1), 2)]
    assert is_irreducible_poly(P(-1, -1, 2, 1))     # x^3+2x^2-x-1
    assert not is_irreducible_poly(P(-1, 0, 1))


def test_factorization_matches_sympy():
    """factor_rational_poly against sympy's factor_list, made monic, on
    products with repeated factors, rational content and denominators."""
    x = sympy.Symbol("x")
    rng = XorShift64(5)
    pieces = [P(-1, 1), P(1, 1), P(rat(2, 3), 1), P(1, 0, 1), P(-1, -1, 0, 1),
              P(rat(-1, 2), 0, 1), P(7, -3, 0, 0, 1), P(3, 0, -1, 2, 0, 1)]
    for trial in range(12):
        f = P(rat(rng.randint(1, 30), rng.randint(1, 30)) * (-1) ** trial)
        for g in pieces:
            f = f * g ** rng.randint(0, 3)
        if f.degree < 1:
            continue
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                   for i, c in enumerate(f.coeffs))
        expect = []
        for g, m in sympy.Poly(expr, x).factor_list()[1]:
            cs = [rat(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())]
            expect.append((UniPoly([c / cs[-1] for c in cs]), m))
        expect.sort(key=lambda gm: (gm[0].degree, gm[0].coeffs))
        assert factor_rational_poly(f) == expect


def _sympy_factors(f):
    """sympy's factor_list of f, made monic and sorted as factor_rational_poly
    sorts."""
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
               for i, c in enumerate(f.coeffs))
    out = []
    for g, m in sympy.Poly(expr, x).factor_list()[1]:
        cs = [rat(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())]
        out.append((UniPoly([c / cs[-1] for c in cs]), m))
    return sorted(out, key=lambda gm: (gm[0].degree, gm[0].coeffs))


def _certified(f):
    """The certificate primes that prove the integral f irreducible."""
    g = [int(c) for c in reversed(f.coeffs)]
    return [p for p in CERTIFICATE_PRIMES
            if g[0] % p and _irreducible_mod(g, p)]


def test_irreducible_but_reducible_mod_every_prime():
    """x^4 + 1 and x^4 - 10 x^2 + 1 (the minimal polynomial of
    sqrt 2 + sqrt 3) split mod every prime, so no prime proves them
    irreducible; the factoring over Z still returns each as one factor."""
    for f in (P(1, 0, 0, 0, 1), P(1, 0, -10, 0, 1)):
        assert _certified(f) == []
        assert factor_rational_poly(f) == [(f, 1)]
        assert is_irreducible_poly(f)


def test_product_of_cubics_irreducible_mod_small_primes():
    """x^3 + x^2 - 2x - 1 and x^3 + 2x^2 - x - 1 are each irreducible mod 2,
    3 and 5; their product is not, and the gcd with x^(p^3) - x at the
    last step, k = 6 / 2, shows it."""
    f, g = P(-1, -2, 1, 1), P(-1, -1, 2, 1)
    for h in (f, g):
        assert {2, 3, 5} <= set(_certified(h))
        assert factor_rational_poly(h) == [(h, 1)]
    assert _certified(f * g) == []
    assert factor_rational_poly(f * g) == [(f, 1), (g, 1)]
    assert not is_irreducible_poly(f * g)
    assert not is_irreducible_poly(f * f)


def test_leading_coefficient_divisible_by_certificate_primes():
    """A prime dividing the leading coefficient proves nothing and is
    skipped: with 2 * 3 * ... * 13 it, the cubic is proven irreducible mod
    a later prime; with every certificate prime it, it is factored over Z."""
    c = prod(p for p in CERTIFICATE_PRIMES if p <= 13)
    for lead in (c, prod(CERTIFICATE_PRIMES)):
        for f in (P(-1, -1, 2, lead), P(-1, -1, 2, lead) * P(1, lead)):
            assert all(p > 13 for p in _certified(f))
            assert factor_rational_poly(f) == _sympy_factors(f)
    assert _certified(P(-1, -1, 2, c)) != []
    assert _certified(P(-1, -1, 2, prod(CERTIFICATE_PRIMES))) == []


# small integer polynomials, highest degree first: a leading coefficient
# from a list with multiples of 3, 5 and 7 and negatives, then one to four
# more coefficients in [-9, 9]
_small_poly = st.tuples(
    st.sampled_from([1, 1, -1, 2, 3, -5, 6, 7, 15, -21, 35, 105]),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4))


@given(st.lists(st.tuples(_small_poly, st.integers(1, 3)), min_size=1,
                max_size=4),
       st.integers(0, 2), st.fractions(min_value=-50, max_value=50,
                                        max_denominator=12))
@settings(max_examples=120, deadline=None)
def test_factoring_matches_sympy_on_random_products(factors, k, content):
    """factor_rational_poly equals sympy's factor_list, made monic, on
    products of small integer polynomials to powers up to 3, times x^k
    (a zero constant term) and a rational content."""
    f = P(*([0] * k), content or 1)
    for (lead, rest), m in factors:
        f = f * P(*reversed([lead] + rest)) ** m
    assert factor_rational_poly(f) == _sympy_factors(f)


def test_swinnerton_dyer_needs_recombination():
    """x^8 - 40 x^6 + 352 x^4 - 960 x^2 + 576, the minimal polynomial of
    sqrt 2 + sqrt 3 + sqrt 5, is irreducible, but splits mod every prime
    into factors of degree at most 2: eight quadratics mod each odd prime
    from 7 on.  So neither the certificate nor the factor degrees allowed
    mod a few primes prove it irreducible; the recombination of the lifted
    factors does."""
    f = P(576, 0, -960, 0, 352, 0, -40, 0, 1)
    g = [int(c) for c in reversed(f.coeffs)]
    for p in (7, 11, 13, 17, 19, 23, 29, 31):
        assert [(k, len(h) - 1) for k, h in gf_ddf([c % p for c in g], p)] \
            == [(2, 8)]
    assert _certified(f) == []
    assert factor_rational_poly(f) == [(f, 1)]
    assert factor_rational_poly(f * f) == [(f, 2)]


def test_product_of_two_quartics_of_one_field():
    """(x^4 - 10 x^2 + 1)(x^4 - 16 x^2 + 16): both quartics define
    Q(sqrt 2, sqrt 3) and split into factors of degree at most 2 mod every
    prime, so recombination must find which of the lifted factors make up
    each."""
    f, g = P(1, 0, -10, 0, 1), P(16, 0, -16, 0, 1)
    assert factor_rational_poly(f * g) == [(f, 1), (g, 1)]
    assert factor_rational_poly(f * g * 7) == _sympy_factors(f * g)
    assert factor_rational_poly(f * g * g) == [(f, 1), (g, 2)]


def test_ns_plus_37_charpoly_has_nine_factors():
    """The degree-43 charpoly of T_2 on the plus space of ns_plus 37
    factors into 9 irreducibles (degrees 1, 1, 1, 1, 3, 3, 3, 3, 27), as
    sympy factors it."""
    f = la.charpoly(SpectralContext(space_for("ns_plus", 37)).op(2))
    assert f.degree == 43
    got = factor_rational_poly(f)
    assert [(g.degree, m) for g, m in got] == \
        [(1, 1)] * 4 + [(3, 1)] * 4 + [(27, 1)]
    assert got == _sympy_factors(f)


def test_number_field():
    K = NumberField(P(-2, 0, 1))            # Q(sqrt 2)
    a = K.gen()
    assert a * a == K.elem([2])
    inv = (K.one() + a).inverse()
    assert (K.one() + a) * inv == K.one()
    assert (a / a) == K.one()


def test_number_field_product_equals_polynomial_remainder():
    """The product reduced by the field's table of a^d ... a^(2d-2) is the
    remainder of the polynomial product by the modulus, for moduli of
    degree 1 to 6 and entries with denominators."""
    rng = XorShift64(3)
    for mod in (P(1, 1), P(-1, -1, 1), P(-1, -1, 2, 1), P(rat(1, 3), 0, -1, 1),
                P(3, 0, -1, 2, 0, 1), P(7, 1, 0, 0, -3, 0, 1)):
        K = NumberField(mod)
        for _ in range(30):
            x, y = (K.elem([rat(rng.randint(-9, 9), rng.randint(1, 4))
                            for _ in range(K.degree)]) for _ in range(2))
            expect = (P(*x.coeffs) * P(*y.coeffs)) % mod
            assert (x * y).coeffs == K.elem(expect.coeffs).coeffs
            assert len((x * y).coeffs) == K.degree


def test_to_str():
    assert P(-1, -1, 2, 1).to_str() == "x^3+2*x^2-x-1"
    assert P().to_str() == "0"
    K = NumberField(P(-2, 0, 1), var="a")
    assert (K.gen() * 3 - 1).to_str() == "3*a-1"
