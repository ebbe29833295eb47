"""Manin-symbol presentation of weight-k modular symbols for an induced
congruence subgroup, with boundary map, cuspidal subspace, star involution,
and plus subspace.

Conventions: matrices act on cusps by Mobius action on column vectors; the
weight action on degree-(k-2) homogeneous polynomials P(x, y) is by
substitution with the adjugate, sym_action(g, P) = P(dx - by, -cx + ay),
which is a left action for all determinants.  A Manin symbol [P, g] is the
class of g(P (x) {0, oo}); the right action is [P, g] h = [h^-1 P, g h].
"""

from collections import Counter
from math import gcd, lcm

from . import linalg as la
from .polys import UniPoly
from .groups import mat_det, imat_adjugate, TAU_MAT, is_real_type

INFINITY = (1, 0)


class NotRealType(Exception):
    """Star involution requested for a group not of real type."""


# ---------------------------------------------------------------- sym action

def _binom_row(n):
    row = [1]
    for i in range(n):
        row.append(row[-1] * (n - i) // (i + 1))
    return row


def _linear_power(cx, cy, w):
    """Coefficients of (cx*x + cy*y)^w by x-degree."""
    row = _binom_row(w)
    return [row[i] * cx ** i * cy ** (w - i) for i in range(w + 1)]


def sym_action(g, coeffs):
    """Action of g on a homogeneous polynomial given by coefficients of
    x^w y^(m-w) at position w: substitute x -> dx - by, y -> -cx + ay."""
    m = len(coeffs) - 1
    if m == 0:
        return [coeffs[0]]
    a, b, c, d = g
    out = [0] * (m + 1)
    for w in range(m + 1):
        cw = coeffs[w]
        if cw == 0:
            continue
        # (d x - b y)^w * (-c x + a y)^(m - w)
        p1 = _linear_power(d, -b, w)
        p2 = _linear_power(-c, a, m - w)
        for i, ci in enumerate(p1):
            if ci == 0:
                continue
            for j, cj in enumerate(p2):
                if cj != 0:
                    out[i + j] += cw * ci * cj
    return out


def monomial(m, w):
    return [0] * w + [1] + [0] * (m - w)


# -------------------------------------------------------------------- cusps

def cusp_normalize(u, v):
    if v == 0:
        return INFINITY
    g = gcd(abs(u), abs(v))
    u //= g
    v //= g
    if v < 0:
        u, v = -u, -v
    return (u, v)


# ----------------------------------------------------------------- the space

class ModSymSpace:
    """Finite presentation of the weight-k modular symbols of Gamma_G by
    Manin symbols.

    A free Manin symbol [x^w y^(m-w), r_j] has the key j (m + 1) + w.  The
    reduction table sends each key to its coordinates on the basis, as
    integer pairs (pos, c) over one common denominator den.  Every operator
    builds integer counts on the keys, a dict key -> count, and reduce
    turns them into coordinates over den; pull_back pairs row vectors with
    the table."""

    def __init__(self, table, k, den, cols, basis_tags):
        self.table = table
        self.k = k
        self.m = k - 2
        self.den = den
        self._cols = cols
        self.basis_tags = basis_tags
        self.dim = len(basis_tags)
        self._boundary = None

    @property
    def G(self):
        return self.table.G

    def gen_index(self, w, i):
        return i * (self.m + 1) + w

    def reduce(self, counts):
        """Coordinates of an integer combination of free Manin symbols (a
        dict key -> count), summed on integers: the sparse column
        {position: nonzero int} of the coordinates times den."""
        acc = [0] * self.dim
        cols = self._cols
        for key, cnt in counts.items():
            for pos, c in cols[key]:
                acc[pos] += cnt * c
        return {pos: x for pos, x in enumerate(acc) if x}

    def pull_back(self, w):
        """(D, table) for the matrix w of row vectors on the basis:
        table[key][i] is the integer D <w_i, reduce({key: 1}) / den>, so the
        pairing of w_i with the coordinates of counts is
        sum counts[key] table[key][i] / D."""
        dw, rows = w
        ints = [[row.get(j, 0) for j in range(self.dim)] for row in rows]
        return dw * self.den, [[sum(row[pos] * c for pos, c in col)
                                for row in ints] for col in self._cols]

    def add_manin(self, counts, poly, g, coeff=1):
        """Add coeff times the Manin symbol [poly, g], g an integer SL2
        matrix, to counts."""
        j = self.table.coset_index(g)
        for w, c in enumerate(poly):
            if c != 0:
                key = self.gen_index(w, j)
                counts[key] = counts.get(key, 0) + coeff * c
        return counts

    def chain_from_infinity(self, counts, poly, cusp, coeff):
        """Add coeff times poly (x) {oo, cusp} to counts."""
        u, v = cusp
        if v == 0:
            return
        # continued-fraction convergents of u/v
        x, y = u, v
        p_prev2, q_prev2 = 0, 1  # p_{-2}, q_{-2}
        p_prev, q_prev = 1, 0    # p_{-1}, q_{-1}
        k = 0
        while y != 0:
            a = x // y
            x, y = y, x - a * y
            p_cur = a * p_prev + p_prev2
            q_cur = a * q_prev + q_prev2
            sgn = 1 if k % 2 == 1 else -1  # (-1)^(k-1)
            g = (sgn * p_cur, p_prev, sgn * q_cur, q_prev)
            if mat_det(g) != 1:
                raise RuntimeError("convergent matrix %r does not have "
                                   "determinant 1" % (g,))
            self.add_manin(counts, sym_action(imat_adjugate(g), poly), g,
                           coeff)
            p_prev2, q_prev2 = p_prev, q_prev
            p_prev, q_prev = p_cur, q_cur
            k += 1
        if (p_prev, q_prev) not in ((u, v), (-u, -v)):
            raise RuntimeError("convergents of %d/%d end at %d/%d"
                               % (u, v, p_prev, q_prev))

    def add_symbol(self, counts, poly, a, b):
        """Add the modular symbol poly (x) {a, b} to counts."""
        a = cusp_normalize(*a)
        b = cusp_normalize(*b)
        if a != b:
            self.chain_from_infinity(counts, poly, b, 1)
            self.chain_from_infinity(counts, poly, a, -1)
        return counts

    def __repr__(self):
        return "ModSymSpace(N=%d, k=%d, dim=%d)" % (self.table.N, self.k, self.dim)


class _UnionFind:
    """Union-find with signs on the edges: gen = c * root, c = +-1."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.scalar = [1] * n
        self.dead = set()

    def find(self, j):
        path = []
        while self.parent[j] != j:
            path.append(j)
            j = self.parent[j]
        # path compression
        acc = 1
        for p in reversed(path):
            acc = acc * self.scalar[p]
            self.parent[p] = j
            self.scalar[p] = acc
        return j, acc

    def union(self, j1, j2, c):
        """Impose gen_j1 = c * gen_j2."""
        r1, c1 = self.find(j1)
        r2, c2 = self.find(j2)
        # gen_j1 = c1 * r1, gen_j2 = c2 * r2, so r1 = (c * c2 / c1) * r2
        if r1 == r2:
            if c1 != c * c2:
                self.dead.add(r1)
            return
        if r2 in self.dead:
            self.dead.add(r1)
        if r1 in self.dead:
            self.dead.add(r2)
        self.parent[r1] = r2
        self.scalar[r1] = c * c2 * c1


def relation_cosets(Gamma):
    """The cosets of r_i h, listed by i, for h = sigma = S, J = S^2 = -I,
    tau = S T^-1 and tau^2: perm_S, then the inverse of perm_T."""
    s, t_inv = Gamma.perm_S, [0] * Gamma.index
    for i, j in enumerate(Gamma.perm_T):
        t_inv[j] = i
    tau = [t_inv[j] for j in s]
    return s, [s[j] for j in s], tau, [tau[j] for j in tau]


def build_space(Gamma, k):
    """Presentation of M_k(Gamma_G) by Manin symbols.

    The relations are read off perm_S and perm_T, with J = S^2 and
    tau = S T^-1 (relation_cosets).  The two-term relations (x = -x sigma,
    x = x J) identify generators up to sign and are folded by a union-find,
    read once after them; a class is dead when they force it to equal its
    negative.  The three-term relations x + x tau + x tau^2 = 0 are then
    the rows of one sparse matrix over Q whose columns are the live class
    roots, reduced once to reduced echelon form (la.echelon).
    The columns are in pivot-preference order: roots of non-extreme weight
    (0 < w < k - 2) first, and within each kind the higher generator index
    first.  The pivots are eliminated, each as minus the rest of its row;
    the other roots, in increasing order, are the basis, which so has
    extreme weight where possible.  The reduced echelon form of a row space
    is unique for a given column order, so this basis is the one of any
    elimination that keeps each pivot its row's most-preferred column and
    clears it from the other rows, such as one row at a time with
    back-substitution."""
    if k < 2:
        raise ValueError("weight must be at least 2")
    m = k - 2
    n_cosets = Gamma.index
    stride = m + 1
    n_gens = n_cosets * stride
    uf = _UnionFind(n_gens)
    c_s, c_j, c_tau, c_tau2 = relation_cosets(Gamma)

    # two-term relations: x = -x sigma and x = x J
    sgn_m = 1 if m % 2 == 0 else -1
    for i, (j_s, j_j) in enumerate(zip(c_s, c_j)):
        for w in range(stride):
            # x sigma = [sigma^-1 x^w y^(m-w), r_i sigma]
            #         = (-1)^w [x^(m-w) y^w, r_i sigma]
            c = -1 if w % 2 == 0 else 1
            uf.union(i * stride + w, j_s * stride + (m - w), c)
            # x J = (-1)^m [x^w y^(m-w), r_i J]
            uf.union(i * stride + w, j_j * stride + w, sgn_m)

    found = list(map(uf.find, range(n_gens)))
    roots = sorted({r for r, _ in found} - uf.dead,
                   key=lambda r: (not 0 < r % stride < m, -r))
    col = {r: t for t, r in enumerate(roots)}
    # per generator, the column of its root (None when dead) and its sign
    where = [(col.get(r), c) for r, c in found]
    del found

    # three-term tau relations on the class roots, one row per symbol
    tau_polys = [sym_action(imat_adjugate(TAU_MAT), monomial(m, w))
                 for w in range(stride)]
    tau2_polys = [sym_action(TAU_MAT, monomial(m, w)) for w in range(stride)]
    rows = []
    for i, (j1, j2) in enumerate(zip(c_tau, c_tau2)):
        for w in range(stride):
            terms = [(i * stride + w, 1)]
            terms += [(j1 * stride + w2, c)
                      for w2, c in enumerate(tau_polys[w]) if c]
            terms += [(j2 * stride + w2, c)
                      for w2, c in enumerate(tau2_polys[w]) if c]
            row = {}
            for gen, coeff in terms:
                t, c = where[gen]
                if t is not None:
                    row[t] = row.get(t, 0) + coeff * c
            rows.append({t: x for t, x in row.items() if x})
    red, pivots = la.echelon(rows)

    basis = sorted(roots[t] for t in set(range(len(roots))) - set(pivots))
    basis_tags = [(r % stride, r // stride) for r in basis]
    pos = {col[r]: i for i, r in enumerate(basis)}   # column -> basis index
    expr = {t: {i: 1} for t, i in pos.items()}
    for p, prow in zip(pivots, red):
        expr[p] = {pos[t]: -x for t, x in prow.items() if t != p}

    # the reduction table over one denominator; a generator is +-1 times
    # its root, whose column is shared or negated
    den = lcm(*(x.denominator for e in expr.values() for x in e.values()))
    root_cols = {t: [(i, x.numerator * (den // x.denominator))
                     for i, x in e.items()] for t, e in expr.items()}
    cols = []
    for t, c in where:
        col_r = root_cols[t] if t is not None else []
        cols.append(col_r if c == 1 else [(i, -x) for i, x in col_r])

    return ModSymSpace(Gamma, k, den, cols, basis_tags)


# ------------------------------------------------------------- cusp classes

def cusp_classes(Gamma):
    """Per coset i, the pair (T-orbit of i, T-orbit of perm_S^2 i), each
    T-orbit named by its least coset.  The stabilizer of e1 in SL2(Z) is
    {T^j}, so the Gamma-class of the vector r_i e1 is the T-orbit of coset
    i, and that of -r_i e1 = r_i S^2 e1 the T-orbit of perm_S^2 i."""
    cycles = Gamma.t_cycles
    s = Gamma.perm_S
    return [(cycles[i][0][0], cycles[s[s[i]]][0][0])
            for i in range(Gamma.index)]


def boundary_map(S):
    """Matrix of the boundary map, a row per cusp class and a column per
    basis symbol (its image), cached on S.  A basis symbol
    [x^w y^(m-w), r_i] maps to the class of r_i e1 = r_i oo (when w = m)
    minus the class of r_i S e1 = r_i 0 (when w = 0), read off
    cusp_classes at cosets i and perm_S[i].  The class of -v is (-1)^m
    times that of v, so a class with v ~ -v vanishes when m is odd.  Rows
    are numbered in the order classes are first met."""
    if S._boundary is not None:
        return S._boundary
    table = S.table
    classes = cusp_classes(table)
    m = S.m
    row_of = {}       # T-orbit -> (row, sign of its vectors), or None
    rows = []
    for t, (w, i) in enumerate(S.basis_tags):
        ends = [(i, 1)] if w == m else []
        if w == 0:
            ends.append((table.perm_S[i], -1))
        for j, sign in ends:
            a, b = classes[j]
            if a not in row_of:
                if a == b and m % 2:
                    row_of[a] = None
                else:
                    row_of[b] = (len(rows), (-1) ** m)
                    row_of[a] = (len(rows), 1)
                    rows.append({})
            if row_of[a] is not None:
                c, s = row_of[a]
                rows[c][t] = rows[c].get(t, 0) + sign * s
    S._boundary = (1, [{t: x for t, x in row.items() if x} for row in rows])
    return S._boundary


def cuspidal_subspace(S):
    """Basis of the kernel of the boundary map, as coordinate vectors."""
    return la.kernel(boundary_map(S), S.dim)


def star_involution(S):
    """Matrix of the star involution (columns are images of basis symbols).
    The basis symbol [x^w y^(m-w), r] maps to (-1)^(m-w+1) [x^w y^(m-w),
    eta r eta^-1] for eta = diag(-1, 1), conjugated mod N.  A monomial
    Manin symbol is one generator, so each column is one signed key's entry
    of the reduction table, integers over its denominator, checked against
    the boundary map (_check_permutes_cusps)."""
    if not is_real_type(S.G):
        raise NotRealType("group is not of real type; no star involution")
    m = S.m
    N = S.table.N
    cols = []
    for (w, i) in S.basis_tags:
        a, b, c, d = S.table.reps_mod[i]
        j = S.table.coset_index_mod((a, -b % N, -c % N, d))
        sign = (-1) ** (m - w + 1)
        cols.append({pos: sign * x for pos, x in S._cols[S.gen_index(w, j)]})
    iota = la.from_columns(S.den, cols, S.dim)
    _check_permutes_cusps(boundary_map(S), iota)
    return iota


def _up_to_sign(vec):
    """The nonzero entries of a sparse vector {index: value}, as one key for
    the vector and its negative."""
    items = sorted((j, x) for j, x in vec.items() if x)
    if items and items[0][1] < 0:
        items = [(j, -x) for j, x in items]
    return tuple(items)


def _check_permutes_cusps(bmat, iota):
    """B iota must be B with its rows permuted and signed, because iota
    permutes the cusp classes; then iota keeps ker B, the cuspidal
    subspace.  bmat is the integer boundary matrix B (boundary_map)."""
    den, rows = la.mat_mul(bmat, iota)
    if den != 1 or Counter(map(_up_to_sign, rows)) != \
            Counter(map(_up_to_sign, bmat[1])):
        raise RuntimeError("the star involution does not permute the cusp "
                           "classes")


def plus_subspace(S, iota):
    """Basis of the +1 eigenspace of iota on the cuspidal subspace, in full
    coordinates: one kernel of the stacked rows [B ; iota - 1] for the
    boundary matrix B.  A kernel basis in reduced echelon form is the one
    basis of its space with a unit vector at each position that is the last
    nonzero entry of some vector of the space, so this is the same basis as
    the +1 kernel of iota restricted to a cuspidal basis, times that basis."""
    shifted = la.mat_poly_eval(UniPoly([-1, 1]), iota)[1]
    return la.kernel((1, boundary_map(S)[1] + shifted), S.dim)


def cusp_count(Gamma):
    """Number of cusps of the curve: orbits of the cosets under right
    multiplication by T and by -I (the stabilizer of infinity in SL2(Z)).
    -I is central, so it maps the T-orbit of r to that of -r, and each
    orbit is a pair of T-orbits (cusp_classes), or one."""
    return len({frozenset(pair) for pair in cusp_classes(Gamma)})
