"""Subgroups of GL2(Z/N), induced congruence subgroups of SL2(Z), coset
tables, lifting and generators.

A subgroup G of GL2(Z/N) is kept as generators gens0 of its determinant-one
part G0 and one element t_d per determinant d, never as a set of elements:
close_group sifts the Schreier generators t_d g t_(d det g)^-1 of G0.  One
breadth-first search, orbit_of, gives a G0-orbit of first columns and the
width of the (cyclic) stabilizer of its first point; at e1 that is a
one-point stabilizer chain (Sims 1970; Seress, Permutation Group
Algorithms, 2003, ch. 4), which gives |G0| and membership in G0.

The coset table of Gamma_G \\ SL2(Z) = G0 \\ SL2(Z/N) is read off first
columns: x and its first column v = x e1 determine the coset through the
G0-orbit of v and one coordinate t mod N, so the table holds O(N^2) entries
(one per primitive vector mod N and one per coset) and never one per
element of SL2(Z/N); see CongruenceSubgroup.

Matrices mod N and over Z are row-major 4-tuples (a, b, c, d) for
[[a, b], [c, d]].
"""

from functools import cached_property
from math import gcd

from .backend import egcd, sl2_order

GROUP_CAP = 2 ** 24

IDENT = (1, 0, 0, 1)
S_MAT = (0, -1, 1, 0)
T_MAT = (1, 1, 0, 1)
TAU_MAT = (0, -1, 1, -1)
ETA_MAT = (-1, 0, 0, 1)


class GroupTooLarge(Exception):
    """Enumeration exceeded the configured cap."""


def mat_mod(g, n):
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
    di = pow(mat_det(g), -1, n)
    return ((g[3] * di) % n, (-g[1] * di) % n, (-g[2] * di) % n, (g[0] * di) % n)


def imat_adjugate(g):
    """Adjugate of an integer matrix: its exact inverse at determinant 1."""
    return (g[3], -g[1], -g[2], g[0])


def is_unit(x, n):
    return n == 1 or gcd(x % n, n) == 1


def orbit_of(N, gens, s, cap=None):
    """The orbit of the first column v_0 of s in SL2(Z/N) under the group
    generated by gens (in SL2(Z/N)), as {a N + c: h_v}, and the width w of
    its stabilizer.  g_v is the product of generators on the search's path
    from v_0 to v = (a, c), and h_v the first row of s^-1 g_v^-1, so a new
    point g v gets h_v g^-1.  The stabilizer of v_0 is cyclic,
    {s u_t s^-1 : w | t} with u_t = ((1, t), (0, 1)); by Schreier's lemma
    it is generated by the g_(gv)^-1 g g_v = s u_t s^-1 with
    t = h_(gv) g (-h_v[1], h_v[0]), so w is the gcd of N and those t.  With
    cap, GroupTooLarge is raised before a new point would take the points
    found times N / (the gcd so far), at most |orbit| N / w, past cap."""
    a, b, c, d = s
    h = (d % N, -b % N)                         # the first row of s^-1
    members = {a * N + c: h}
    queue = [(a, c, h)]
    width = N
    for x, y, (h0, h1) in queue:
        for g0, g1, g2, g3 in gens:
            u = (g0 * x + g1 * y) % N
            v = (g2 * x + g3 * y) % N
            k = members.get(u * N + v)
            if k is None:
                if cap and len(members) * (N // width) >= cap:
                    raise GroupTooLarge("G0 exceeds %d elements" % cap)
                # h_v g^-1, with g^-1 = (g3, -g1, -g2, g0) at det 1
                k = members[u * N + v] = ((h0 * g3 - h1 * g2) % N,
                                          (h1 * g0 - h0 * g1) % N)
                queue.append((u, v, k))
            else:
                t = k[0] * (h0 * g1 - h1 * g0) + k[1] * (h0 * g3 - h1 * g2)
                if t % width:
                    width = gcd(width, t)
    return members, width


class GroupModN:
    """Subgroup G of GL2(Z/N): generators gens0 of its determinant-one part
    G0, and a transversal {d: t_d} with G the union of the cosets G0 t_d.
    orbit, width = orbit_of(N, gens0, 1), so |G0| = |orbit| N / width, and
    x of determinant 1 lies in G0 when x e1 = v is in the orbit and
    g_v^-1 x = u_t has width | t, t = h_v (x[1], x[3])."""

    def __init__(self, N, generators, gens0, transversal, cap=GROUP_CAP):
        self.N = N
        self.generators = list(generators)
        self.gens0 = gens0
        self.transversal = transversal
        self.det_image = sorted(transversal)
        self.orbit, self.width = orbit_of(N, gens0, mat_mod(IDENT, N), cap)
        self.order0 = len(self.orbit) * N // self.width

    def in_g0(self, x):
        """Is x, of determinant 1 and reduced mod N, in G0?"""
        h = self.orbit.get(x[0] * self.N + x[2])
        return h is not None and (h[0] * x[1] + h[1] * x[3]) % self.width == 0

    def __contains__(self, g):
        g = mat_mod(g, self.N)
        t = self.transversal.get(mat_det(g) % self.N)
        return t is not None and self.in_g0(
            mat_mul(g, mat_inv_mod(t, self.N), self.N))

    def order(self):
        return self.order0 * len(self.det_image)

    def __repr__(self):
        return "GroupModN(N=%d, order=%d)" % (self.N, self.order())


def close_group(N, gens, cap=GROUP_CAP):
    """Subgroup of GL2(Z/N) generated by gens, without listing its elements.

    A breadth-first search over the determinants finds the transversal
    t_d (t_1 the identity).  By Schreier's lemma G0 is generated by the
    t_d g t_(d det g)^-1; each is sifted through the membership test of
    the group the kept ones generate, and one that fails it is kept and the
    orbit of e1 searched again.  A kept generator at least doubles the
    group, so at most log2 |G0| are kept.  cap bounds |G0|, and no search
    holds more than cap points."""
    if N < 1:
        raise ValueError("modulus must be positive")
    norm = []
    for g in gens:
        gm = mat_mod(tuple(g), N)
        if not is_unit(mat_det(gm), N):
            raise ValueError("generator %r is not invertible mod %d" % (g, N))
        norm.append(gm)
    trans = {1 % N: mat_mod(IDENT, N)}
    dets = [1 % N]
    for d in dets:
        for g in norm:
            e = d * mat_det(g) % N
            if e not in trans:
                trans[e] = mat_mul(trans[d], g, N)
                dets.append(e)
    inv = {d: mat_inv_mod(t, N) for d, t in trans.items()}
    G = GroupModN(N, norm, [], trans, cap)
    for d in dets:
        for g in norm:
            s = mat_mul(mat_mul(trans[d], g, N), inv[d * mat_det(g) % N], N)
            if not G.in_g0(s):
                G = GroupModN(N, norm, G.gens0 + [s], trans, cap)
                if G.order0 > cap:
                    raise GroupTooLarge("G0 exceeds %d elements" % cap)
    return G


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
    lift = min(((x0 + sk * c0, y0 + sk * d0, c0, d0)
                for sk in (s0 - N, s0, s0 + N)),
               key=lambda g: max(map(abs, g)))
    if mat_det(lift) != 1 or mat_mod(lift, N) != (a, b, c, d):
        raise RuntimeError("lift %r is not a det-1 lift of %r"
                           % (lift, (a, b, c, d)))
    return lift


class CongruenceSubgroup:
    """Coset table of Gamma_G \\ SL2(Z) via G0 \\ SL2(Z/N), read through a
    first-column frame.

    Write e1 = (1, 0) and u_t = ((1, t), (0, 1)).  The first column v = x e1
    of x in SL2(Z/N) is a primitive vector, and the stabilizer of e1 is
    {u_t}.  Each G0-orbit O of first columns gets an element s_O whose first
    column v_O lies in O (the first matrix met with a column in O), and
    every coset is G0 s_O u_t for one t.  With g_v in G0 such that
    g_v v_O = v and h_v = s_O^-1 g_v^-1, the coset of x is that of
    s_O u_t with t = h_v[0] x[1] + h_v[1] x[3] mod N.  Two such t give one
    coset exactly when they differ by an element of
    W_O = {s : s_O u_s s_O^-1 in G0} = d_O Z/N, the stabilizer of v_O in
    G0, so the coset depends on t mod d_O only, and another choice of g_v
    moves t by a multiple of d_O.  One search orbit_of(N, G.gens0, s_O)
    gives the orbit with its h_v and d_O.  The table is

    - _frame, a list indexed by a N + c: for each primitive (a, c) the
      triple (cosets of its orbit, h_v[0], h_v[1]), and None elsewhere;
    - per orbit, the list of its d_O coset indices, indexed by t mod d_O.

    That is O(N^2) entries plus one per coset; nothing has one entry per
    element of SL2(Z/N), and cap bounds both the N^2 frame slots and the
    index.  The cosets are numbered by breadth-first search over right
    multiplication by S and T from the identity, and perm_S, perm_T are
    the actions of S and T on them.  The representatives reps_mod are in
    SL2(Z/N); their lifts reps to SL2(Z) are built on first read."""

    def __init__(self, G, cap=GROUP_CAP):
        self.G = G
        N = self.N = G.N
        total = sl2_order(N)
        if max(N * N, total // G.order0) > cap:
            raise GroupTooLarge("the coset table mod %d has %d frame slots "
                                "and %d cosets, beyond the cap"
                                % (N, N * N, total // G.order0))
        frame = self._frame = [None] * (N * N)
        reps_mod = []
        perm_s = []
        perm_t = []

        def add_orbit(s):
            """Enter the G0-orbit of the first column of s in the frame,
            with s_O = s."""
            members, width = orbit_of(N, G.gens0, s)
            cosets = [None] * width
            for key, (h0, h1) in members.items():
                frame[key] = (cosets, h0, h1)

        def coset_of(m):
            """Index of the coset of m, numbered here when it is new."""
            if frame[m[0] * N + m[2]] is None:
                add_orbit(m)
            cosets, t = self._place(m)
            if cosets[t] is None:
                cosets[t] = len(reps_mod)
                reps_mod.append(m)
                perm_s.append(-1)
                perm_t.append(-1)
            return cosets[t]

        coset_of(mat_mod(IDENT, N))
        i = 0
        while i < len(reps_mod):
            a, b, c, d = reps_mod[i]
            perm_s[i] = coset_of((b, -a % N, d, -c % N))             # m S
            perm_t[i] = coset_of((a, (a + b) % N, c, (c + d) % N))   # m T
            i += 1
        self.index = len(reps_mod)
        if self.index * G.order0 != total:
            raise RuntimeError("%d cosets of a group of order %d do not "
                               "cover SL2(Z/%d)" % (self.index, G.order0, N))
        self.reps_mod = reps_mod
        self.perm_S = perm_s
        self.perm_T = perm_t

    @cached_property
    def reps(self):
        """The lifts of reps_mod to SL2(Z), reps[0] the identity.  Only
        generators and hecke's integer routes read them: double cosets,
        coset_operator and degeneracy maps."""
        return [IDENT] + [lift_to_sl2(m, self.N) for m in self.reps_mod[1:]]

    @cached_property
    def generators(self):
        """Generators of Gamma_G, integer matrices, by Schreier's lemma on
        the action of S and T on the cosets.  Built on first read."""
        gens = []
        seen = set()
        for gen_int, perm in ((S_MAT, self.perm_S), (T_MAT, self.perm_T)):
            for i in range(self.index):
                w = mat_mul(mat_mul(self.reps[i], gen_int),
                            imat_adjugate(self.reps[perm[i]]))
                if w != IDENT and w not in seen:
                    if not self.contains(w):
                        raise RuntimeError("Schreier generator %r is not in "
                                           "the group" % (w,))
                    seen.add(w)
                    gens.append(w)
        return gens

    def coset_index(self, x):
        """Index i with x in Gamma * reps[i]; x is an integer SL2 matrix."""
        return self.coset_index_mod(mat_mod(x, self.N))

    def coset_index_mod(self, m):
        """Index i with m in G0 * reps_mod[i]; m is in SL2(Z/N), with
        entries reduced mod N."""
        cosets, t = self._place(m)
        return cosets[t]

    def _place(self, m):
        """The coset list of the orbit of m's first column, and the
        position t mod d_O of m in it."""
        entry = self._frame[m[0] * self.N + m[2]]
        if entry is None:
            raise KeyError("%r has no primitive first column mod %d"
                           % (m, self.N))
        cosets, h0, h1 = entry
        return cosets, (h0 * m[1] + h1 * m[3]) % len(cosets)

    def line_cosets(self, m, shifts):
        """The coset indices of m u_s for s in shifts, u_s = ((1, s), (0, 1))
        and m in SL2(Z/N) reduced mod N.  m u_s has the first column of m,
        so one frame entry serves every s, and its coordinate t is that of
        m plus s (h_v[0] m[0] + h_v[1] m[2])."""
        cosets, h0, h1 = self._frame[m[0] * self.N + m[2]]
        t0 = h0 * m[1] + h1 * m[3]
        dt = h0 * m[0] + h1 * m[2]
        return [cosets[(t0 + s * dt) % len(cosets)] for s in shifts]

    @cached_property
    def t_cycles(self):
        """Per coset j, the pair (c, e) with c the cycle of perm_T through j,
        listed from its least coset, and e the place of j in c: the coset
        of reps_mod[j] T^q is c[(e + q) % len(c)].  Built on first read."""
        out = [None] * self.index
        for s in range(self.index):
            if out[s] is None:
                cycle = [s]
                j = self.perm_T[s]
                while j != s:
                    cycle.append(j)
                    j = self.perm_T[j]
                for e, j in enumerate(cycle):
                    out[j] = (cycle, e)
        return out

    def contains(self, x):
        """Is the integer matrix x in Gamma_G (det 1 and reduction in G0)?"""
        return mat_det(x) == 1 and self.G.in_g0(mat_mod(x, self.N))

    def __repr__(self):
        return "CongruenceSubgroup(N=%d, index=%d)" % (self.N, self.index)


def coset_table(G, cap=GROUP_CAP):
    return CongruenceSubgroup(G, cap)


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
    eta = mat_mod(ETA_MAT, N)     # its own inverse
    return all(mat_mul(mat_mul(eta, g, N), eta, N) in G
               for g in G.generators)


def find_det_element(G, n):
    """The element t_n of G's transversal, of determinant n mod N.  Any
    element of determinant n would do for the operators built from it: the
    choice changes only by an element of G0 on the left."""
    t = G.transversal.get(n % G.N)
    if t is None:
        raise ValueError("no element of determinant %d: T_n undefined "
                         "for this group" % n)
    return t
