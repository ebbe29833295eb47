"""Hecke operators (the double-coset path and the Heilbronn-set sweep, with
Cremona's family at odd primes and Merel's otherwise), diamond operators,
and degeneracy maps between the symbol spaces of two induced congruence
subgroups.

All operators act on the presentation built in spaces.py and are returned as
matrices in the integer form of linalg, (den, sparse integer rows), columns
being the images of the basis symbols.  Each column is built as integer
counts on the free Manin symbols and reduced once (ModSymSpace.reduce).  The
double-coset operator and both degeneracy maps are sums of integer matrices
applied to the basis symbols, one routine (coset_operator) for all three.
A Heilbronn family is a list of integer matrices, each of multiplicity one.
"""

from collections import Counter
from math import gcd

from .backend import divisors, is_prime
from . import linalg as la
from .groups import (mat_mod, mat_mul, mat_det, imat_adjugate, lift_to_sl2,
                     find_det_element, IDENT)
from .spaces import sym_action, monomial, cusp_normalize


# ------------------------------------------------------- integer matrix HNF

def row_hnf(M):
    """Row Hermite form of an integer matrix with positive determinant:
    the unique SL2(Z)-left-translate ((a, b), (0, d)) with a, d > 0 and
    0 <= b < d."""
    a, b, c, d = M
    if a * d - b * c <= 0:
        raise ValueError("row_hnf needs a positive determinant, got %r" % (M,))
    while c != 0:
        if a == 0 or (c != 0 and abs(c) < abs(a)):
            a, b, c, d = c, d, -a, -b  # swap rows with a sign
            continue
        q = c // a
        c, d = c - q * a, d - q * b
    if a < 0:
        a, b, c, d = -a, -b, -c, -d
    b %= d
    return (a, b, 0, d)


def element_of_det(G, n):
    """Integer matrix of determinant n (coprime to the modulus) whose
    reduction lies in G."""
    N = G.N
    if N == 1:
        return (1, 0, 0, n)
    nm = n % N
    if gcd(nm, N) != 1:
        raise ValueError("determinant %d is not a unit mod %d" % (n, N))
    delta = find_det_element(G, nm)
    ninv = pow(nm, -1, N)
    gamma = lift_to_sl2(mat_mod((delta[0], delta[1] * ninv,
                                 delta[2], delta[3] * ninv), N), N)
    alpha = (gamma[0], gamma[1] * n, gamma[2], gamma[3] * n)
    if mat_det(alpha) != n or mat_mod(alpha, N) not in G:
        raise RuntimeError("%r is not of determinant %d with reduction in G"
                           % (alpha, n))
    return alpha


# ------------------------------------------------------------ double cosets

def _right_coset_key(Gamma, beta):
    """Hashable invariant of Gamma beta: the row Hermite form together with
    the Gamma-coset of the unimodular part."""
    h = row_hnf(beta)
    hinv_scaled = imat_adjugate(h)
    d = h[0] * h[3]
    u = mat_mul(beta, hinv_scaled)
    if any(x % d for x in u):
        raise RuntimeError("%r is not a left translate of its Hermite form"
                           % (beta,))
    u = tuple(x // d for x in u)
    if mat_det(u) != 1:
        raise RuntimeError("unimodular part %r has determinant %d"
                           % (u, mat_det(u)))
    return h, Gamma.coset_index(u)


def double_coset_reps(Gamma, alpha, Gamma_right=None):
    """Representatives of Gamma \\ Gamma alpha Gamma_right (Gamma_right
    defaults to Gamma), by breadth-first search over right multiplication by
    generators of Gamma_right."""
    gens = (Gamma if Gamma_right is None else Gamma_right).generators
    gens = gens + [imat_adjugate(g) for g in gens]
    seen = {}
    h, j = _right_coset_key(Gamma, alpha)
    seen[(h, j)] = mat_mul(Gamma.reps[j], h)
    frontier = [seen[(h, j)]]
    while frontier:
        nxt = []
        for b in frontier:
            for g in gens:
                c = mat_mul(b, g)
                key = _right_coset_key(Gamma, c)
                if key not in seen:
                    red = mat_mul(Gamma.reps[key[1]], key[0])
                    seen[key] = red
                    nxt.append(red)
        frontier = nxt
    return list(seen.values())


def coset_operator(S_src, S_dst, mats):
    """Matrix of the map sending each basis symbol [P, r_i] of S_src to the
    sum over B in mats of B [P, r_i] = (B r_i P) (x) {B r_i 0, B r_i oo} in
    S_dst (columns are images of the S_src basis).  The B are integer
    matrices of positive determinant; the weight action is the unscaled
    adjugate substitution of sym_action.  The symbols of a column are summed
    as integer counts and reduced once."""
    m = S_src.m
    cols = []
    for (w, i) in S_src.basis_tags:
        poly = monomial(m, w)
        counts = {}
        for M in mats:
            B = mat_mul(M, S_src.table.reps[i])
            S_dst.add_symbol(counts, sym_action(B, poly), (B[1], B[3]),
                             (B[0], B[2]))
        cols.append(S_dst.reduce(counts))
    return la.from_columns(S_dst.den, cols, S_dst.dim)


def hecke_double_coset(S, alpha):
    """Matrix of the dual Hecke operator of the double coset Gamma alpha
    Gamma on the space S (columns are images of basis symbols)."""
    return coset_operator(S, S, double_coset_reps(S.table, alpha))


def _det_free(S, n):
    """No element of G has determinant n mod N, so T_n is the zero
    operator."""
    N = S.table.N
    return N > 1 and (gcd(n, N) != 1 or (n % N) not in S.G.det_image)


def hecke_tp(S, p, path="merel"):
    """Matrix of T_p for a prime p.  path is one of merel (the Heilbronn-set
    sweep of hecke_tn_fast) | naive (double cosets).  On both paths T_p is
    zero when no element of G has determinant p mod N (_det_free).
    ValueError when p is not a prime: the naive path would give the single
    double coset of diag(1, p), which is not T_p for composite p."""
    if not is_prime(p):
        raise ValueError("T_p needs a prime p, got %d" % p)
    if path == "merel":
        return hecke_tn_fast(S, p)
    if path != "naive":
        raise ValueError("unknown Hecke path %r (merel | naive)" % (path,))
    if _det_free(S, p):
        return (1, [{} for _ in range(S.dim)])
    alpha = element_of_det(S.G, p)
    return hecke_double_coset(S, alpha)


# ------------------------------------------------------ Heilbronn and Merel

def heilbronn_merel_set(n):
    """The determinant-n family {(a, b; c, d) : a > b >= 0, d > c >= 0}."""
    family = []
    for a in range(1, n + 1):
        for b in range(a):
            q = a - b
            cmax = (n - 1) // q  # c(a - b) < n is forced by d > c
            for c in range(cmax + 1):
                num = n + b * c
                if num % a:
                    continue
                d = num // a
                if d > c:
                    family.append((a, b, c, d))
    return family


def col_hnf(M):
    """Column Hermite form: the unique right-SL2(Z)-translate
    ((a, 0), (c, d)) with a, d > 0 and 0 <= c < d."""
    a, b, c, d = row_hnf((M[0], M[2], M[1], M[3]))
    return (a, c, b, d)


def condition_cn_check(n, family):
    """Verify the universal-expansion condition for a family of
    determinant-n matrices: within each right SL2(Z)-class, the endpoint
    divisors sum to [oo] - [0]."""
    sums = {}
    for M in family:
        key = col_hnf(M)
        bucket = sums.setdefault(key, {})
        for cusp, sign in ((cusp_normalize(M[0], M[2]), 1),
                           (cusp_normalize(M[1], M[3]), -1)):
            bucket[cusp] = bucket.get(cusp, 0) + sign
    expected = sorted((a, 0, c, d) for d in divisors(n)
                      for a in [n // d] for c in range(d))
    if sorted(sums) != expected:
        return False
    target_keys = {(1, 0): 1, (0, 1): -1}
    for bucket in sums.values():
        cleaned = {c: v for c, v in bucket.items() if v != 0}
        if cleaned != target_keys:
            return False
    return True


def cremona_quotients(p):
    """Cremona's determinant-p family for a prime p (Algorithms for Modular
    Elliptic Curves, 1997, section 2.4) as steps: for each |r| <= p/2, in
    increasing order, the pair (r, qs) with qs the nearest-integer quotients
    (halves rounded away from zero) of the continued fraction of -p/r.  The
    members of r start at ((p, -r), (0, 1)), and a quotient q
    right-multiplies a member by ((0, -1), (1, q)) = S T^q."""
    out = []
    for r in range(-(p // 2), p // 2 + 1):
        qs = []
        a, b = -p, r
        while b:
            # a/b rounded to the nearest integer; gcd(a, b) = 1, so a tie
            # needs |b| = 2, and a negative tie rounds down, away from zero
            q = (2 * a + b) // (2 * b)
            if (b == 2 or b == -2) and (a < 0) != (b < 0):
                q -= 1
            a, b = -b, a - b * q
            qs.append(q)
        out.append((r, qs))
    return out


def cremona_walk(p, x=IDENT, n=0):
    """The products x M, reduced mod n when n > 0, for the members M of
    Cremona's determinant-p family, in order: diag(1, p), then for each r
    the start ((p, -r), (0, 1)) and the members of the steps of
    cremona_quotients.  A step with quotient q takes the product
    (a, b, c, d) to (b, q b - a, d, q d - c), so no member is formed.  From
    the identity, unreduced, it is the family itself, which satisfies
    condition C_p for odd p but not for p = 2."""
    a0, b0, c0, d0 = x
    out = [mat_mul(x, (1, 0, 0, p), n)]
    for r, qs in cremona_quotients(p):
        # x ((p, -r), (0, 1))
        x1, x2, y1, y2 = a0 * p, b0 - a0 * r, c0 * p, d0 - c0 * r
        if n:
            x1, x2, y1, y2 = x1 % n, x2 % n, y1 % n, y2 % n
        out.append((x1, x2, y1, y2))
        for q in qs:
            if n:
                x1, x2, y1, y2 = x2, (q * x2 - x1) % n, y2, (q * y2 - y1) % n
            else:
                x1, x2, y1, y2 = x2, q * x2 - x1, y2, q * y2 - y1
            out.append((x1, x2, y1, y2))
    return out


def cremona_cosets(table, p):
    """The function x -> the cosets of x M for the members M of Cremona's
    family of the odd prime p, in cremona_walk order, for x in SL2(Z/N)
    with p prime to N.  It walks on coset indices.  Of the p + 1 starts,
    x diag(1, p) is looked up in the table, and the
    x ((p, -r), (0, 1)) = y u_s, with y = x ((p, 0), (0, 1)) and
    s = -r p^-1 mod N, share the first column of y, so they are read off
    together (table.line_cosets).
    A step with quotient q right-multiplies the member by S T^q, which
    takes coset j to T^q(perm_S[j]), a shift along a T-cycle
    (table.t_cycles).  The quotients are computed once."""
    N = table.N
    quotients = cremona_quotients(p)
    pinv = pow(p, -1, N)
    shifts = [-r * pinv % N for r, _ in quotients]
    cycles = table.t_cycles
    after_s = [cycles[j] for j in table.perm_S]
    index = table.coset_index_mod
    diag = (1, 0, 0, p)

    def coset_list(x):
        a, b, c, d = x
        out = [index(mat_mul(x, diag, N))]
        starts = table.line_cosets((p * a % N, b, p * c % N, d), shifts)
        for j, (_, qs) in zip(starts, quotients):
            out.append(j)
            for q in qs:
                cycle, e = after_s[j]
                j = cycle[(e + q) % len(cycle)]
                out.append(j)
        return out

    return coset_list


def hecke_counts(S, n, H=None):
    """The function t -> T_n applied to basis symbol t as integer counts on
    the free Manin symbols (see ModSymSpace), a dict key -> count.

    The family H, a list of determinant-n matrices, defaults to Cremona's
    for an odd prime n (smaller, and built in O(n log n) steps) and to
    Merel's otherwise.  Each member M sends t = [P, r_i] to
    [M^adj P, r_i M]; the coset of r_i M is that of x M with x = pre r_i mod
    N, pre the element find_det_element(G, n), scaled by n^-1.
    Cremona's family is walked on coset indices (cremona_cosets, its
    quotients computed once per call); Merel's family and an explicit H
    look up each product x M in the coset table.  If no element of G has
    determinant n mod N the operator is zero."""
    if _det_free(S, n):
        return lambda t: {}
    if n == 1:
        return lambda t: {S.gen_index(*S.basis_tags[t]): 1}
    table = S.table
    N = table.N
    m = S.m
    stride = m + 1
    pre = mat_mod(tuple(pow(n, -1, N) * x for x in find_det_element(S.G, n)),
                  N)
    if H is None and n % 2 and is_prime(n):
        # listed only for their polynomial action at m > 0
        members = cremona_walk(n) if m else None
        coset_list = cremona_cosets(table, n)
    else:
        members = heilbronn_merel_set(n) if H is None else H
        index = table.coset_index_mod
        family = [mat_mod(M, N) for M in members]

        def coset_list(x):
            return [index(mat_mul(x, M, N)) for M in family]
    # polynomial action of each member on the monomial of weight w, in the
    # family's order; the family acts through the adjugate (matching the
    # double-coset operator)
    poly_of = {}

    def counts(t):
        w, i = S.basis_tags[t]
        cosets = coset_list(mat_mul(pre, table.reps_mod[i], N))
        if m == 0:
            return Counter(cosets)
        if w not in poly_of:
            poly_of[w] = [sym_action(imat_adjugate(M), monomial(m, w))
                          for M in members]
        out = {}
        for j, poly in zip(cosets, poly_of[w]):
            for w2, c in enumerate(poly):
                if c != 0:
                    key = j * stride + w2
                    out[key] = out.get(key, 0) + c
        return out

    return counts


def hecke_tn_fast(S, n, H=None):
    """Matrix of T_n: the counts of every basis symbol from one sweep of the
    family (hecke_counts), reduced through the Manin relations."""
    counts = hecke_counts(S, n, H)
    return la.from_columns(S.den, [S.reduce(counts(t)) for t in range(S.dim)],
                           S.dim)


# ---------------------------------------------------------- diamond, sigma

def diamond_column(S, s_mod, t):
    """Coordinates of [v, gamma_s g] for the basis symbol t = [v, g], as
    ModSymSpace.reduce gives them: the reduction table's column of that
    generator, whose coset is that of s_mod g mod N."""
    w, i = S.basis_tags[t]
    T = S.table
    j = T.coset_index_mod(mat_mul(s_mod, T.reps_mod[i], T.N))
    return dict(S._cols[S.gen_index(w, j)])


def diamond_operator(S, s_mod):
    """Operator [v, g] -> [v, gamma_s g] for s in SL2(Z/N) normalizing the
    determinant-one part of G."""
    return la.from_columns(
        S.den, [diamond_column(S, s_mod, t) for t in range(S.dim)], S.dim)


def sigma_class(S, p):
    """The SL2(Z/N) class p^-1 * delta_p^2 (delta_p = find_det_element(G,
    p), of determinant p) of the diamond operator in the Hecke recursion
    T_(p^(r+1)) = T_p T_(p^r) - p^(k-1) <sigma_p> T_(p^(r-1)) at a good
    prime p."""
    N = S.table.N
    if N == 1:
        return (1, 0, 0, 1)
    delta = find_det_element(S.G, p % N)
    pinv = pow(p, -1, N)
    return mat_mod(tuple(pinv * x for x in mat_mul(delta, delta, N)), N)


# ----------------------------------------------------------- degeneracy maps

class DegeneracyData:
    """A primitive integer matrix t with t^-1 Gamma_high t contained in
    Gamma_low (Gamma_high the smaller group, of higher level), and reps,
    representatives of the right cosets in Gamma_high t Gamma_low
    (double_coset_reps).  Both maps between the two symbol spaces are
    coset_operator sums: alpha over adj(t), beta over reps."""

    def __init__(self, t_int, reps):
        self.t = t_int
        self.reps = reps

    def __repr__(self):
        return "DegeneracyData(t=%r)" % (self.t,)


def _conjugate_into(t, Gamma_high, Gamma_low):
    """Does t^-1 gamma t lie in Gamma_low for every generator gamma of
    Gamma_high?"""
    n = mat_det(t)
    adj = imat_adjugate(t)
    for g in Gamma_high.generators:
        w = mat_mul(mat_mul(adj, g), t)
        if any(x % n for x in w):
            return False
        w = tuple(x // n for x in w)
        if not Gamma_low.contains(w):
            return False
    return True


def degeneracy_alpha_dual(S_high, S_low, data):
    """Matrix of x -> t^-1 x from the symbols of the smaller group (higher
    level) to those of the larger one, columns indexed by the S_high basis:
    adj(t) = det(t) t^-1 acts on polynomials of degree k - 2 with the extra
    factor det(t)^(k-2), which is divided out."""
    den, rows = coset_operator(S_high, S_low, [imat_adjugate(data.t)])
    return la.normalize(den * mat_det(data.t) ** S_high.m, rows)


def degeneracy_beta_dual(S_low, S_high, data):
    """Matrix of x -> sum_gamma t gamma x over right cosets K gamma of
    K = (t^-1 Gamma_high t) intersect Gamma_low in Gamma_low, columns
    indexed by the S_low basis.  K gamma -> Gamma_high t gamma is a bijection
    onto the right cosets of Gamma_high t Gamma_low, and every symbol of
    S_high is Gamma_high-invariant, so the sum runs over data.reps."""
    return coset_operator(S_low, S_high, data.reps)


def coset_count_beta(data):
    """The index [Gamma_low : (t^-1 Gamma_high t) intersect Gamma_low],
    which is the scalar of alpha_t composed with beta_t."""
    return len(data.reps)


def enumerate_degeneracy(Gamma_high, Gamma_low):
    """Essentially distinct primitive integer matrices t (up to the double
    coset Gamma_high t Gamma_low) with t^-1 Gamma_high t inside Gamma_low
    and determinant dividing the modulus, each with the right cosets of its
    double coset.  A t whose right coset Gamma_high t is one of a double
    coset already found is skipped."""
    out = []
    found = set()   # _right_coset_key of every right coset in out
    for d in divisors(Gamma_high.N if Gamma_high.N > 1 else 1):
        hnfs = [(d // dd, b, 0, dd) for dd in divisors(d) for b in range(dd)
                if gcd(d // dd, gcd(b, dd)) == 1]
        for i in range(Gamma_low.index):
            r = Gamma_low.reps[i]
            for h in hnfs:
                t = mat_mul(r, h)
                if (_right_coset_key(Gamma_high, t) in found
                        or not _conjugate_into(t, Gamma_high, Gamma_low)):
                    continue
                reps = double_coset_reps(Gamma_high, t, Gamma_low)
                found.update(_right_coset_key(Gamma_high, b) for b in reps)
                out.append(DegeneracyData(t, reps))
    return out
