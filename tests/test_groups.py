import hashlib
import random
import tracemalloc
from itertools import product
from math import gcd, prod

import pytest

from congsym import groups, hecke
from congsym.groups import (close_group, coset_table, lift_to_sl2,
                            gamma_generators, is_real_type, find_det_element,
                            mat_det, mat_inv_mod, mat_mod, mat_mul,
                            GroupTooLarge, ETA_MAT, IDENT, S_MAT, T_MAT)
from congsym.backend import factor_int, is_prime
from congsym.families import build_family
from congsym.spaces import build_space
from congsym.spectra import SpectralContext, decompose, eigen_system
from conftest import closure_elements, ns_elements


def test_close_group_orders():
    assert build_family("gamma_full", 7).order() == 2016    # |GL2(F7)|
    assert build_family("gamma0", 11).order() == 1100       # Borel of GL2(F11)
    assert close_group(8, [(7, 0, 0, 7), (2, 3, 3, 5), (0, 7, 7, 7),
                           (3, 0, 0, 3), (4, 7, 7, 3)]).order() == 48


@pytest.mark.parametrize("tag", ["ns", "ns_plus"])
def test_ns_orders(tag):
    """|G0| |det image| is |C| = p^2 - 1 for the non-split Cartan C mod a
    prime p (ns), the cyclic group one element of order p^2 - 1 generates,
    and 2 (p^2 - 1) for its normalizer (ns_plus); at a squarefree N the
    product of these over the primes of N."""
    per_prime = 2 if tag == "ns_plus" else 1
    for N in [p for p in range(3, 50) if is_prime(p)] + [15, 21]:
        G = build_family(tag, N)
        assert G.order0 * len(G.det_image) == prod(
            per_prime * (p * p - 1) for p in factor_int(N)), N


def assert_same_group(G, H):
    """G = H: the same order and determinants, and G's generators of G0 and
    each t_d of G in H, so G lies in H and has its order."""
    assert G.order() == H.order()
    assert G.det_image == H.det_image
    assert all(H.in_g0(g) for g in G.gens0)
    assert all(t in H for t in G.transversal.values())


@pytest.mark.parametrize("N", [1, 2, 8, 12, 37, 48])
def test_families_from_unit_generators(N):
    """gamma0, gamma1 and gamma_full close over a generating set of (Z/N)*;
    they are the closures over every unit."""
    units = [u for u in range(1, N) if gcd(u, N) == 1]
    diag = [(1, 0, 0, u) for u in units]
    full = {
        "gamma0": [T_MAT] + diag + [(u, 0, 0, 1) for u in units],
        "gamma1": [T_MAT] + diag,
        "gamma_full": [S_MAT, T_MAT] + diag,
    }
    for tag, gens in full.items():
        G = build_family(tag, N)
        assert_same_group(G, close_group(N, gens))
        assert len(G.generators) <= len(gens)


REFERENCE_GROUPS = [
    ("gamma0", 1), ("gamma0", 12), ("gamma0", 37), ("gamma1", 16),
    ("gamma1", 37), ("gamma_full", 1), ("gamma_full", 12), ("gamma", 8),
    ("gamma", 37), ("ns", 3), ("ns", 15), ("ns", 37), ("ns_plus", 3),
    ("ns_plus", 13), ("ns_plus", 35), ("ns_plus", 37), ("s4", 5),
    ("s4", 13), ("s4", 37), ("explicit", 1), ("8e1", 8), ("h155", 16),
    ("level16", 16)]


@pytest.mark.parametrize("tag, param", REFERENCE_GROUPS)
def test_close_group_matches_full_closure(request, tag, param):
    """G0 and the transversal describe the group the breadth-first closure
    over all of G lists (for ns and ns_plus, the group listed as
    a + b sqrt(u) at each prime): the order, |G0| and membership in G0 of
    every determinant-one element, at most log2 |G0| generators of G0, the
    determinants, an element of each determinant, real type, and
    membership, over all of GL2(Z/N) for N <= 12 and over G and random
    matrices above."""
    if tag == "explicit":
        G = close_group(1, [])
    elif tag in ("8e1", "h155", "level16"):
        G = request.getfixturevalue("g_" + tag)
    else:
        G = build_family(tag, param)
    N = G.N
    if tag in ("ns", "ns_plus"):
        E = ns_elements(N, tag == "ns_plus")
    else:
        E = closure_elements(N, G.generators)
    assert G.order() == len(E)
    E0 = [g for g in E if mat_det(g) % N == 1 % N]
    assert G.order0 == len(E0) and all(G.in_g0(g) for g in E0)
    # each generator close_group keeps at least doubles the group
    assert 2 ** len(G.gens0) <= G.order0
    by_det = {}
    for g in E:
        by_det.setdefault(mat_det(g) % N, []).append(g)
    assert G.det_image == sorted(by_det)
    for d, elems in by_det.items():
        g = find_det_element(G, d)
        assert mat_det(g) % N == d and g in elems
    eta = mat_mod(ETA_MAT, N)
    assert is_real_type(G) == all(mat_mul(mat_mul(eta, g, N), eta, N) in E
                                  for g in E)
    if N <= 12:
        mats = product(range(N), repeat=4)
    else:
        rng = random.Random(param)
        mats = [tuple(rng.randrange(N) for _ in range(4))
                for _ in range(3000)] + list(E)
    for g in mats:
        assert (g in G) == (g in E)


def test_close_group_memory():
    """Only generators of G0 are kept: gamma0 211 (|G| = 9 305 100,
    |G0| = 44 310) took about 1 GB when every element of G was listed."""
    tracemalloc.start()
    try:
        G = build_family("gamma0", 211)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert (G.order(), G.order0) == (9305100, 44310)
    assert coset_table(G).index == 212


def test_close_group_keeps_no_element_set():
    """gamma_full 101 (|G| = 103 020 000, |G0| = |SL2(F101)| = 1 030 200):
    the group and its one-coset table take a few MiB under tracemalloc,
    where the G0 set took 110.8 MiB."""
    tracemalloc.start()
    try:
        G = build_family("gamma_full", 101)
        index = coset_table(G).index
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert (G.order(), index) == (103020000, 1)


def test_cap_counts_g0():
    """cap bounds the stored G0, not the order of G."""
    with pytest.raises(GroupTooLarge):
        close_group(13, [S_MAT, T_MAT], cap=1000)     # |SL2(F13)| = 2184
    G = close_group(13, build_family("gamma0", 13).generators, cap=1000)
    assert G.order() == 1872


def traced_peak(f):
    """Peak traced memory of f(), which may raise GroupTooLarge."""
    tracemalloc.start()
    try:
        try:
            f()
        except GroupTooLarge:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cap_stops_the_orbit_search():
    """A group beyond the cap is refused before its orbit of e1 is listed:
    SL2(Z/101) has |G0| = 1030200 and an orbit of 10200 points, and the
    search stops once it has proved |G0| > 1000."""
    with pytest.raises(GroupTooLarge):
        close_group(101, [S_MAT, T_MAT], cap=1000)
    capped = traced_peak(lambda: close_group(101, [S_MAT, T_MAT], cap=1000))
    full = traced_peak(lambda: close_group(101, [S_MAT, T_MAT]))
    assert capped * 20 < full


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
                    assert mat_mul(x, mat_inv_mod(r, N), N) in G
                    hits[i] += 1
    assert hits == [G.order0] * Gamma.index


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


@pytest.mark.parametrize("tag, param", [
    ("ns_plus", 13), ("gamma0", 33), ("gamma1", 13), ("gamma", 8),
    ("s4", 13), ("gamma_full", 1)])
def test_reps_are_lifted_on_first_read(tag, param):
    """reps is built on its first read, as the lifts of reps_mod, once."""
    T = coset_table(build_family(tag, param))
    assert "reps" not in vars(T)
    lifts = [IDENT] + [lift_to_sl2(m, T.N) for m in T.reps_mod[1:]]
    assert T.reps == lifts
    assert T.reps is T.reps


@pytest.fixture
def lift_calls(monkeypatch):
    """The arguments of every lift_to_sl2 call, in groups and in hecke."""
    calls = []

    def counted(g, N):
        calls.append(g)
        return lift_to_sl2(g, N)

    monkeypatch.setattr(groups, "lift_to_sl2", counted)
    monkeypatch.setattr(hecke, "lift_to_sl2", counted)
    return calls


def test_set_up_lifts_no_representative(lift_calls):
    """The coset table, the weight-2 space and the plus space of ns_plus 53
    read cosets off the table mod N and lift nothing to SL2(Z); a read of
    reps afterwards lifts every coset but the identity's."""
    T = coset_table(build_family("ns_plus", 53))
    ctx = SpectralContext(build_space(T, 2))
    assert (ctx.kind, ctx.dim, len(lift_calls)) == ("plus", 96, 0)
    assert len(T.reps) == T.index == 1378
    assert len(lift_calls) == T.index - 1


def test_pieces_and_eigensystem_lift_nothing(lift_calls):
    """After the set-up, decompose and eigen_system to L = 500 at ns_plus
    13 lift nothing to SL2(Z): the diamond columns of the Hecke recursion
    and the epsilon_p pairings read their cosets mod N."""
    ctx = SpectralContext(build_space(
        coset_table(build_family("ns_plus", 13)), 2))
    before = len(lift_calls)
    pieces = decompose(ctx)
    eigen_system(pieces[0], L=500)
    assert len(lift_calls) == before


def test_lift_to_sl2():
    for N in (5, 11, 16):
        sl2 = [g for g in closure_elements(N, build_family(
            "gamma_full", N).generators) if mat_det(g) % N == 1]
        for g in sorted(sl2)[:20]:
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
    """An element of each determinant of G, for every n in its class mod N.
    (The name predates returning the transversal element instead of the
    least element of its coset.)"""
    for G in (build_family("gamma0", 11), build_family("ns_plus", 13),
              build_family("gamma1", 8)):
        elems = closure_elements(G.N, G.generators)
        for n in G.det_image:
            for m in (n, n + 5 * G.N):
                g = find_det_element(G, m)
                assert mat_det(g) % G.N == n and g in elems


def test_group_too_large():
    with pytest.raises(GroupTooLarge):
        coset_table(close_group(2 ** 9, []))
