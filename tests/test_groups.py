import hashlib
import tracemalloc

import pytest

from math import gcd

from congsym.groups import (close_group, coset_table, lift_to_sl2,
                            gamma_generators, is_real_type, find_det_element,
                            mat_det, mat_inv_mod, mat_mod, mat_mul,
                            GroupTooLarge, S_MAT, T_MAT)
from congsym.families import build_family


def test_close_group_orders():
    assert build_family("gamma_full", 7).order() == 2016    # |GL2(F7)|
    assert build_family("gamma0", 11).order() == 1100       # Borel of GL2(F11)
    assert close_group(8, [(7, 0, 0, 7), (2, 3, 3, 5), (0, 7, 7, 7),
                           (3, 0, 0, 3), (4, 7, 7, 3)]).order() == 48


@pytest.mark.parametrize("N", [1, 2, 8, 12, 37, 48])
def test_families_from_unit_generators(N):
    """gamma0, gamma1 and gamma_full close over a generating set of (Z/N)*;
    their elements are those of the closure over every unit."""
    units = [u for u in range(1, N) if gcd(u, N) == 1]
    diag = [(1, 0, 0, u) for u in units]
    full = {
        "gamma0": [T_MAT] + diag + [(u, 0, 0, 1) for u in units],
        "gamma1": [T_MAT] + diag,
        "gamma_full": [S_MAT, T_MAT] + diag,
    }
    if N > 12:     # GL2(Z/37) and GL2(Z/48) have over a million elements
        del full["gamma_full"]
    for tag, gens in full.items():
        G = build_family(tag, N)
        assert G.elements == close_group(N, gens).elements, tag
        assert len(G.generators) <= len(gens)


def test_coset_table_indices():
    assert coset_table(build_family("gamma0", 11)).index == 12
    assert coset_table(build_family("gamma1", 5)).index == 24
    assert coset_table(build_family("gamma", 2)).index == 6
    assert coset_table(build_family("ns_plus", 13)).index == 78
    assert coset_table(build_family("gamma_full", 1)).index == 1


def test_coset_table_permutations():
    Gamma = coset_table(build_family("gamma0", 11))
    n = Gamma.index
    assert sorted(Gamma.perm_S) == list(range(n))
    assert sorted(Gamma.perm_T) == list(range(n))
    for i in range(n):
        assert Gamma.coset_index(Gamma.reps[i]) == i


@pytest.mark.parametrize("tag, param", [
    ("gamma0", 33), ("gamma1", 13), ("gamma", 8), ("gamma_full", 12),
    ("ns", 15), ("ns_plus", 13), ("s4", 13), ("gamma_full", 1)])
def test_coset_index_is_the_coset(tag, param):
    """For every x in SL2(Z/N), listed by brute force, x reps_mod[i]^-1 lies
    in G for i = coset_index_mod(x), and each coset is met |G0| times."""
    G = build_family(tag, param)
    Gamma = coset_table(G)
    N = G.N
    hits = [0] * Gamma.index
    for a in range(N):
        for b in range(N):
            for c in range(N):
                for d in range(N):
                    x = (a, b, c, d)
                    if (a * d - b * c - 1) % N:
                        continue
                    i = Gamma.coset_index_mod(x)
                    r = Gamma.reps_mod[i]
                    assert mat_mul(x, mat_inv_mod(r, N), N) in G.elements
                    hits[i] += 1
    assert hits == [len(G.G0)] * Gamma.index


@pytest.mark.parametrize("tag, param, digest", [
    ("ns_plus", 53, "7c9e66500d0fea8e061e86a424a6fd65"
                    "02b3e546476bed284e83d731b68f1b95"),
    ("gamma0", 33, "a0496157c76308ad84022967bc01b237"
                   "a727d18e6ee12205e3c4f0c0839378df"),
])
def test_coset_table_pinned(tag, param, digest):
    """The coset numbering and the S, T actions, as recorded from the
    coset table that kept a dict over all of SL2(Z/N)."""
    T = coset_table(build_family(tag, param))
    text = repr((T.reps_mod, T.perm_S, T.perm_T))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("param, limit_mib", [(53, 2), (97, 5)])
def test_coset_table_memory(param, limit_mib):
    """The table keeps O(N^2) entries: a dict over SL2(Z/N) took 15.4 MiB
    at ns_plus 53 and 108 MiB at ns_plus 97 under tracemalloc."""
    G = build_family("ns_plus", param)
    tracemalloc.start()
    try:
        coset_table(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2 ** 20


def test_lift_to_sl2():
    for N in (5, 11, 16):
        G = build_family("gamma_full", N)
        for g in list(sorted(G.G0))[:20]:
            m = lift_to_sl2(g, N)
            assert mat_det(m) == 1
            assert mat_mod(m, N) == g


def test_gamma_generators_membership():
    Gamma = coset_table(build_family("gamma0", 11))
    gens = gamma_generators(Gamma)
    assert gens
    for w in gens:
        assert Gamma.contains(w)


def test_real_type(g_8e1, g_h155):
    assert is_real_type(build_family("gamma0", 11))
    assert is_real_type(build_family("ns_plus", 13))
    assert not is_real_type(g_8e1)
    assert not is_real_type(g_h155)


def test_find_det_element():
    G = build_family("gamma0", 11)
    g = find_det_element(G, 2)
    assert (g[0] * g[3] - g[1] * g[2]) % 11 == 2
    with pytest.raises(ValueError):
        find_det_element(build_family("gamma", 11), 2)


def test_find_det_element_is_least():
    for G in (build_family("gamma0", 11), build_family("ns_plus", 13),
              build_family("gamma1", 8)):
        for n in G.det_image:
            least = min(g for g in G.elements if mat_det(g) % G.N == n)
            assert find_det_element(G, n) == least
            assert find_det_element(G, n + 5 * G.N) == least


def test_group_too_large():
    with pytest.raises(GroupTooLarge):
        coset_table(close_group(2 ** 9, []))
