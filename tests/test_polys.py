from math import prod

import sympy

from congsym.backend import rat, XorShift64
from congsym.polys import (UniPoly, factor_rational_poly, is_irreducible_poly,
                           NumberField, CERTIFICATE_PRIMES, _irreducible_mod)


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
    irreducible; sympy's factoring still returns each as one factor."""
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
    a later prime; with every certificate prime it, sympy factors it."""
    c = prod(p for p in CERTIFICATE_PRIMES if p <= 13)
    for lead in (c, prod(CERTIFICATE_PRIMES)):
        for f in (P(-1, -1, 2, lead), P(-1, -1, 2, lead) * P(1, lead)):
            assert all(p > 13 for p in _certified(f))
            assert factor_rational_poly(f) == _sympy_factors(f)
    assert _certified(P(-1, -1, 2, c)) != []
    assert _certified(P(-1, -1, 2, prod(CERTIFICATE_PRIMES))) == []


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
