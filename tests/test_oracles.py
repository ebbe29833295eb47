"""Checks of exact results against theorems, not against another path
through the same code: the genus formula for the cusp classes and the
cuspidal dimension, and Chen's isogeny across three groups."""

from fractions import Fraction

import pytest

from congsym import linalg as la
from congsym import spectra as spec
from congsym.groups import coset_table
from congsym.families import build_family
from congsym.hecke import hecke_double_coset
from congsym.polys import UniPoly
from congsym.spaces import build_space, cusp_count, cuspidal_subspace


def genus(Gamma):
    """g = 1 + mu/12 - nu2/4 - nu3/3 - nu_oo/2 (Diamond-Shurman, Thm 3.1.1),
    with mu, nu2 and nu3 the cosets of +-Gamma fixed by 1, S and
    tau = S T^-1, read off perm_S and perm_T, and nu_oo = cusp_count(Gamma).
    -I = S^2 is central, so a coset of +-Gamma is one coset of Gamma or two,
    the same number (pm) for all, and each map fixes either all or none of
    them."""
    n, s, t = Gamma.index, Gamma.perm_S, Gamma.perm_T
    t_inv = [0] * n
    for i, j in enumerate(t):
        t_inv[j] = i
    pm = 1 if s[s[0]] == 0 else 2

    def fixed(perm):
        return sum(perm(i) in (i, s[s[i]]) for i in range(n)) // pm

    mu = fixed(lambda i: i)
    nu2 = fixed(lambda i: s[i])
    nu3 = fixed(lambda i: t_inv[s[i]])
    g = (1 + Fraction(mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3)
         - Fraction(cusp_count(Gamma), 2))
    assert g.denominator == 1, g
    return int(g)


@pytest.mark.parametrize("tag, param, g", [
    ("gamma0", 11, 1), ("gamma0", 23, 2), ("gamma0", 37, 2),
    ("gamma0", 48, 3), ("gamma0", 64, 3), ("gamma1", 4, 0), ("gamma1", 5, 0),
    ("gamma1", 13, 2), ("gamma1", 16, 2), ("gamma", 2, 0), ("gamma", 7, 3),
    ("gamma", 8, 5), ("ns", 11, 4), ("ns", 15, 7), ("ns_plus", 13, 3),
    ("ns_plus", 17, 6), ("ns_plus", 37, 43), ("s4", 13, 3),
    ("gamma_full", 1, 0), ("gamma_full", 12, 0)])
def test_cuspidal_dimension_is_twice_the_genus(tag, param, g):
    Gamma = coset_table(build_family(tag, param))
    assert genus(Gamma) == g
    assert len(cuspidal_subspace(build_space(Gamma, 2))[1]) == 2 * g


def _charpolys(tag, param, primes):
    ctx = spec.SpectralContext(build_space(coset_table(
        build_family(tag, param)), 2))
    return [la.charpoly(ctx.op(l)) for l in primes]


@pytest.mark.parametrize("p", [11, 13, 17, 19, 23])
def test_chen_isogeny(p):
    """Jac X0+(p^2) ~ Jac X_ns+(p) x Jac X0(p), compatibly with T_l for
    l != p (I. Chen, Proc. LMS 77, 1998; de Smit-Edixhoven, Math. Res.
    Lett. 7, 2000): on the +1 space of the Fricke involution w_(p^2) in
    the working space of gamma0 p^2, T_l has the product of the charpolys
    of T_l on ns_plus p and on gamma0 p."""
    primes = (2, 3, 5)
    ctx = spec.SpectralContext(build_space(coset_table(
        build_family("gamma0", p * p)), 2))
    w = la.restrict_to_invariant_subspace(
        hecke_double_coset(ctx.S, (0, -1, p * p, 0)), ctx.basis)
    plus_w = la.kernel(la.mat_poly_eval(UniPoly([-1, 1]), w), ctx.dim)
    assert plus_w[1]
    ns = _charpolys("ns_plus", p, primes)
    old = _charpolys("gamma0", p, primes)
    for l, f, h in zip(primes, ns, old):
        t = la.restrict_to_invariant_subspace(ctx.op(l), plus_w)
        assert la.charpoly(t) == f * h, l
