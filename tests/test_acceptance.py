"""End-to-end regression criteria, one test per numbered requirement.

Each test checks exact values and, where stated, a wall-clock budget.
"""

import os
import subprocess
import sys
import time

import pytest

from congsym.groups import close_group, coset_table
from congsym.families import build_family
from congsym import linalg as la
from congsym import spaces as sp
from congsym import hecke as hk
from congsym import spectra as spec
from congsym.polys import UniPoly

from conftest import space_for
from test_spaces import manin_relation_defects


def _timed(budget):
    start = time.perf_counter()

    def check():
        elapsed = time.perf_counter() - start
        assert elapsed < budget, "exceeded %ss budget (%.2fs)" % (budget,
                                                                  elapsed)
    return check


def test_criterion_01_gamma0_11():
    done = _timed(1.0)
    S = space_for("gamma0", 11)
    ctx = spec.SpectralContext(S)
    assert S.dim == 3
    assert len(ctx.cuspidal) == 2
    assert ctx.dim == 1 and ctx.kind == "plus"
    assert ctx.op(2) == (1, [{0: -2}])
    assert ctx.op(3) == (1, [{0: -1}])
    piece = spec.decompose(ctx)[0]
    assert spec.local_euler_factor(piece, 2) == UniPoly([1, 2, 2])
    done()


def test_criterion_02_8e1_group(g_8e1):
    done = _timed(10.0)
    S = sp.build_space(coset_table(g_8e1), 2)
    cusp = sp.cuspidal_subspace(S)
    assert len(cusp[1]) == 2
    alpha = hk.element_of_det(g_8e1, 97)
    mat = la.restrict_to_invariant_subspace(
        hk.hecke_double_coset(S, alpha), cusp)
    assert mat == (1, [{0: 18}, {1: 18}])
    done()


def test_criterion_03_h155(g_h155):
    done = _timed(30.0)
    ctx = spec.SpectralContext(sp.build_space(coset_table(g_h155), 2))
    pieces = spec.decompose(ctx)
    assert len(pieces) == 1
    es = spec.eigen_system(pieces[0], L=100)
    assert es.field is None                     # rational eigensystem
    want = {5: -4, 9: -3, 13: -4, 17: -2, 29: -4, 37: 12, 41: -10,
            89: 10, 97: -18}
    for n, v in want.items():
        assert es.a(n) == v, "a_%d" % n
    for n in range(1, 100):
        if n % 2 == 0 or n % 4 == 3:
            assert es.a(n) == 0, "a_%d should vanish" % n
    done()


def test_criterion_04_level16_group(g_level16):
    done = _timed(30.0)
    ctx = spec.SpectralContext(sp.build_space(coset_table(g_level16), 2))
    pieces = spec.decompose(ctx)
    es = spec.eigen_system(pieces[0], L=100)
    want = {3: -2, 11: -6, 17: -6, 19: -2, 41: 6, 43: 10, 59: -6,
            67: 14, 97: 10}
    for n, v in want.items():
        assert es.a(n) == v, "a_%d" % n
    done()


def test_criterion_05_ns_plus_13():
    done = _timed(60.0)
    ctx = spec.SpectralContext(space_for("ns_plus", 13))
    assert ctx.kind == "plus" and ctx.dim == 3
    pieces = spec.decompose(ctx)
    assert [p.dimension for p in pieces] == [3]
    assert la.charpoly(ctx.op(2)) == UniPoly([-1, -1, 2, 1])
    es = spec.eigen_system(pieces[0], L=10)
    assert es.modulus == UniPoly([-1, -1, 2, 1])
    a = es.field.gen()
    assert es.a(2) == a
    assert es.a(3) == -(a * a) - 2 * a
    assert es.a(4) == a * a - 2
    assert es.a(5) == a * a + 2 * a - 2
    done()


def test_criterion_06_ns_plus_17():
    done = _timed(120.0)
    ctx = spec.SpectralContext(space_for("ns_plus", 17))
    pieces = spec.decompose(ctx)
    assert [p.dimension for p in pieces] == [1, 2, 3]
    assert pieces[0].label == UniPoly([1, 1])           # x+1
    assert pieces[1].label == UniPoly([-3, 1, 1])       # x^2+x-3
    assert pieces[2].label == UniPoly([1, -3, 0, 1])    # x^3-3x+1
    es = spec.eigen_system(pieces[0], L=10)
    assert es.a(2) == -1 and es.a(5) == 2 and es.a(7) == -4
    done()


def test_criterion_07_s4_13():
    ctx = spec.SpectralContext(space_for("s4", 13))
    pieces = spec.decompose(ctx)
    assert any(p.dimension == 3 and p.label == UniPoly([-1, -1, 2, 1])
               for p in pieces)


@pytest.mark.slow
def test_criterion_08_ns_plus_97():
    done = _timed(100.0)
    ctx = spec.SpectralContext(space_for("ns_plus", 97))
    pieces = spec.decompose(ctx)
    assert sorted(p.dimension for p in pieces) == \
        [3, 4, 4, 6, 7, 7, 12, 14, 24, 24, 24, 56, 168]
    done()


def test_criterion_09_property_suites():
    # Manin relations on 10 assorted spaces
    assorted = [("gamma0", 11, 2), ("gamma0", 22, 2), ("gamma0", 11, 4),
                ("gamma1", 5, 2), ("gamma1", 13, 2), ("gamma", 2, 2),
                ("gamma", 3, 2), ("ns", 13, 2), ("ns_plus", 13, 2),
                ("gamma_full", 1, 12)]
    for tag, param, k in assorted:
        S = space_for(tag, param, k)
        assert manin_relation_defects(S) == [], (tag, param, k)

    # Heilbronn-Merel family and a mutated failure
    for n in range(1, 31):
        assert hk.condition_cn_check(n, hk.heilbronn_merel_set(n)), n
    good = hk.heilbronn_merel_set(7)
    assert not hk.condition_cn_check(7, good[1:])

    # fast path vs double-coset path
    for tag, param in [("gamma0", 11), ("gamma1", 13), ("ns_plus", 13)]:
        S = space_for(tag, param)
        for p in (2, 3, 5, 7):
            assert hk.hecke_tp(S, p, path="merel") == \
                hk.hecke_tp(S, p, path="naive"), (tag, param, p)

    # commutativity and star-equivariance
    S = space_for("ns_plus", 13)
    t2, t3 = hk.hecke_tn_fast(S, 2), hk.hecke_tn_fast(S, 3)
    assert la.mat_mul(t2, t3) == la.mat_mul(t3, t2)
    iota = sp.star_involution(S)
    assert la.mat_mul(iota, t2) == la.mat_mul(t2, iota)

    # degeneracy maps on Gamma(11) -> Gamma0(11); the smaller curve is
    # realized with full determinant image so T_2 is available upstairs
    low = coset_table(build_family("gamma0", 11))
    high = coset_table(close_group(11, [(1, 0, 0, u) for u in range(2, 11)]))
    S_low = sp.build_space(low, 2)
    S_high = sp.build_space(high, 2)
    data = next(d for d in hk.enumerate_degeneracy(high, low)
                if d.t == (1, 0, 0, 1))
    A = hk.degeneracy_alpha_dual(S_high, S_low, data)
    B = hk.degeneracy_beta_dual(S_low, S_high, data)
    idx = hk.coset_count_beta(data)
    assert idx == 110
    assert la.mat_mul(A, B) == (1, [{i: idx} for i in range(S_low.dim)])
    t2_high = hk.hecke_tp(S_high, 2)
    t2_low = hk.hecke_tp(S_low, 2)
    assert la.mat_mul(A, t2_high) == la.mat_mul(t2_low, A)

    # Sturm bound spot checks
    assert spec.sturm_bound(2, low) == 1
    assert spec.sturm_bound(12, coset_table(build_family("gamma_full",
                                                         1))) == 1


def _cli_bytes(args):
    proc = subprocess.run([sys.executable, "-m", "congsym.cli"] + args,
                          capture_output=True, check=True)
    return proc.stdout


def test_criterion_10_cli_determinism():
    h155 = ["16", "[1,3,12,3]", "[1,1,12,7]", "[1,3,0,3]", "[1,0,2,3]"]
    lvl16 = ["16", "[2,1,3,2]", "[0,3,5,8]", "[1,0,0,5]", "[1,8,0,3]"]
    runs = [
        ["eigensystem"] + h155 + ["--seed", "0"],
        ["eigensystem"] + lvl16 + ["--seed", "0"],
        ["eigensystem", "ns_plus", "13", "--seed", "0"],
        ["decompose", "ns_plus", "17", "--seed", "0"],
    ]
    for args in runs:
        assert _cli_bytes(args) == _cli_bytes(args), args
