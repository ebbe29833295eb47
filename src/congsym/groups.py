"""Subgroups of GL2(Z/N), induced congruence subgroups of SL2(Z), coset
tables, lifting and generators.

Matrices mod N and over Z are row-major 4-tuples (a, b, c, d) for
[[a, b], [c, d]].
"""

from math import gcd

from .backend import egcd, inv_mod, sl2_order

GROUP_CAP = 2 ** 24

IDENT = (1, 0, 0, 1)
S_MAT = (0, -1, 1, 0)
T_MAT = (1, 1, 0, 1)
TAU_MAT = (0, -1, 1, -1)
ETA_MAT = (-1, 0, 0, 1)


class GroupTooLarge(Exception):
    """Enumeration exceeded the configured cap."""


def mat_mod(g, n):
    if n == 1:
        return (0, 0, 0, 0)
    return (g[0] % n, g[1] % n, g[2] % n, g[3] % n)


def mat_mul(x, y, n=0):
    a = x[0] * y[0] + x[1] * y[2]
    b = x[0] * y[1] + x[1] * y[3]
    c = x[2] * y[0] + x[3] * y[2]
    d = x[2] * y[1] + x[3] * y[3]
    if n:
        return (a % n, b % n, c % n, d % n)
    return (a, b, c, d)


def mat_det(g):
    return g[0] * g[3] - g[1] * g[2]


def mat_inv_mod(g, n):
    """Inverse of a matrix with unit determinant mod n."""
    if n == 1:
        return (0, 0, 0, 0)
    di = inv_mod(mat_det(g) % n, n)
    return ((g[3] * di) % n, (-g[1] * di) % n, (-g[2] * di) % n, (g[0] * di) % n)


def imat_adjugate(g):
    """Adjugate of an integer matrix: its exact inverse at determinant 1."""
    return (g[3], -g[1], -g[2], g[0])


def is_unit(x, n):
    return n == 1 or gcd(x % n, n) == 1


class GroupModN:
    """Enumerated subgroup of GL2(Z/N)."""

    def __init__(self, N, generators, elements):
        self.N = N
        self.generators = list(generators)
        self.elements = elements  # set of tuples
        self.G0 = sorted(g for g in elements if mat_det(g) % N == 1 % N)
        self.det_image = sorted({mat_det(g) % N for g in elements})
        self._least_of_det = None  # det mod N -> least element, on first use

    def __contains__(self, g):
        return mat_mod(g, self.N) in self.elements

    def order(self):
        return len(self.elements)

    def __repr__(self):
        return "GroupModN(N=%d, order=%d)" % (self.N, self.order())


def close_group(N, gens, cap=GROUP_CAP):
    """Subgroup of GL2(Z/N) generated by gens, by breadth-first closure."""
    if N < 1:
        raise ValueError("modulus must be positive")
    if N == 1:
        e = (0, 0, 0, 0)
        return GroupModN(1, [], {e})
    norm = []
    for g in gens:
        gm = mat_mod(tuple(g), N)
        if not is_unit(mat_det(gm), N):
            raise ValueError("generator %r is not invertible mod %d" % (g, N))
        norm.append(gm)
    ident = mat_mod(IDENT, N)
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in norm:
                y = mat_mul(x, g, N)
                if y not in elements:
                    if len(elements) >= cap:
                        raise GroupTooLarge("group exceeds %d elements" % cap)
                    elements.add(y)
                    nxt.append(y)
        frontier = nxt
    return GroupModN(N, norm, elements)


def group_from_elements(N, elements):
    gens = minimize_generators(N, elements)
    return GroupModN(N, gens, set(elements))


def minimize_generators(N, elements):
    """Small generating set for a subgroup given by its element set."""
    if N == 1:
        return []
    gens = []
    closed = {mat_mod(IDENT, N)}
    for e in sorted(elements):
        if e not in closed:
            gens.append(e)
            closed = close_group(N, gens).elements
            if len(closed) == len(elements):
                break
    return gens


def lift_to_sl2(g, N):
    """Lift of a det-1 matrix mod N to SL2(Z) with entries bounded by N^2."""
    if N == 1:
        return IDENT
    a, b, c, d = mat_mod(tuple(g), N)
    if mat_det((a, b, c, d)) % N != 1 % N:
        raise ValueError("matrix does not have determinant 1 mod %d" % N)

    def sym(x):
        x %= N
        return x - N if x > N // 2 else x

    c0, d0 = sym(c), sym(d)
    if c0 == 0 and d0 == 0:
        raise ValueError("zero bottom row cannot have unit determinant")
    if c0 == 0:
        c0 = N
    if gcd(c0, d0) != 1:
        t = 0
        while True:
            t = -t if t > 0 else -t + 1
            if gcd(c0, d0 + t * N) == 1:
                d0 += t * N
                break
    g1, x0, y0 = egcd(d0, -c0)  # x0*d0 - y0*c0 = 1
    if g1 != 1:
        raise RuntimeError("bottom row (%d, %d) is not coprime" % (c0, d0))
    # top rows are (x0 + s*c0, y0 + s*d0); the congruence fixes s mod N
    s = ((a - x0) * (-y0) + (b - y0) * x0) % N
    s0 = s - N if s > N // 2 else s
    best = None
    for k in (-1, 0, 1):
        sk = s0 + k * N
        cand = (x0 + sk * c0, y0 + sk * d0, c0, d0)
        score = max(abs(e) for e in cand)
        if best is None or score < best[0]:
            best = (score, cand)
    lift = best[1]
    if mat_det(lift) != 1 or mat_mod(lift, N) != (a, b, c, d):
        raise RuntimeError("lift %r is not a det-1 lift of %r"
                           % (lift, (a, b, c, d)))
    return lift


class CongruenceSubgroup:
    """Coset table of Gamma_G \\ SL2(Z) via G0 \\ SL2(Z/N)."""

    def __init__(self, G, cap=GROUP_CAP):
        self.G = G
        N = self.N = G.N
        total = sl2_order(N)
        g0 = G.G0
        if N == 1:
            self.index = 1
            self.reps = [IDENT]
            self.reps_mod = [(0, 0, 0, 0)]
            self.perm_S = [0]
            self.perm_T = [0]
            self.coset_of = {(0, 0, 0, 0): 0}
            return
        if total > cap:
            raise GroupTooLarge("SL2(Z/%d) has %d elements, beyond the cap" % (N, total))
        sm = mat_mod(S_MAT, N)
        tm = mat_mod(T_MAT, N)
        ident = mat_mod(IDENT, N)
        coset_of = {}
        reps_mod = []
        perm_s = []
        perm_t = []

        def new_coset(m):
            idx = len(reps_mod)
            reps_mod.append(m)
            perm_s.append(-1)
            perm_t.append(-1)
            for g in g0:
                coset_of[mat_mul(g, m, N)] = idx
            return idx

        new_coset(ident)
        i = 0
        while i < len(reps_mod):
            m = reps_mod[i]
            for gen, perm in ((sm, perm_s), (tm, perm_t)):
                y = mat_mul(m, gen, N)
                j = coset_of.get(y)
                if j is None:
                    j = new_coset(y)
                perm[i] = j
            i += 1
        self.index = len(reps_mod)
        if self.index * len(g0) != total:
            raise RuntimeError("%d cosets of a group of order %d do not "
                               "cover SL2(Z/%d)" % (self.index, len(g0), N))
        self.reps_mod = reps_mod
        self.coset_of = coset_of
        self.perm_S = perm_s
        self.perm_T = perm_t
        self.reps = [IDENT] + [lift_to_sl2(m, N) for m in reps_mod[1:]]

    def coset_index(self, x):
        """Index i with x in Gamma * reps[i]; x is an integer SL2 matrix."""
        if self.N == 1:
            return 0
        return self.coset_of[mat_mod(x, self.N)]

    def coset_index_mod(self, m):
        if self.N == 1:
            return 0
        return self.coset_of[m]

    def contains(self, x):
        """Is the integer matrix x in Gamma_G (det 1 and reduction in G0)?"""
        if mat_det(x) != 1:
            return False
        return self.N == 1 or mat_mod(x, self.N) in self.G.elements

    def __repr__(self):
        return "CongruenceSubgroup(N=%d, index=%d)" % (self.N, self.index)


def coset_table(G, cap=GROUP_CAP):
    return CongruenceSubgroup(G, cap)


def gamma_generators(Gamma):
    """Generators of Gamma_G by Schreier's lemma on the sigma/T coset action."""
    cached = getattr(Gamma, "_schreier_gens", None)
    if cached is not None:
        return cached
    gens = []
    seen = set()
    for gen_int, perm in ((S_MAT, Gamma.perm_S), (T_MAT, Gamma.perm_T)):
        for i in range(Gamma.index):
            j = perm[i]
            w = mat_mul(mat_mul(Gamma.reps[i], gen_int), imat_adjugate(Gamma.reps[j]))
            if w != IDENT and w not in seen:
                if not Gamma.contains(w):
                    raise RuntimeError("Schreier generator %r is not in the "
                                       "group" % (w,))
                seen.add(w)
                gens.append(w)
    Gamma._schreier_gens = gens
    return gens


def crt_general(a, n1, b, n2):
    """Solve x = a mod n1, x = b mod n2 (solvable when a = b mod gcd)."""
    g = gcd(n1, n2)
    if (a - b) % g != 0:
        raise ValueError("incompatible congruences")
    l = n1 // g * n2
    _, p, q = egcd(n1 // g, n2 // g)
    x = a + (b - a) // g * p * n1
    return x % l


def crt_matrix(g1, n1, g2, n2):
    n = n1 // gcd(n1, n2) * n2
    return tuple(crt_general(a, n1, b, n2) % n for a, b in zip(g1, g2))


def is_real_type(G):
    """Is G stable under conjugation by eta = diag(-1, 1) mod N?"""
    N = G.N
    if N == 1:
        return True
    eta = mat_mod(ETA_MAT, N)
    eta_i = mat_inv_mod(eta, N)
    return all(mat_mul(mat_mul(eta, g, N), eta_i, N) in G.elements for g in G.generators)


def find_det_element(G, n):
    """Least element of G (in tuple order) with determinant n mod N."""
    N = G.N
    if N == 1:
        return (0, 0, 0, 0)
    if G._least_of_det is None:
        least = {}
        for g in G.elements:
            d = mat_det(g) % N
            if d not in least or g < least[d]:
                least[d] = g
        G._least_of_det = least
    g = G._least_of_det.get(n % N)
    if g is None:
        raise ValueError("no element of determinant %d: T_n undefined for this group" % n)
    return g
