"""Decomposition of the cuspidal (plus) subspace into irreducible Hecke
modules, dual vector spaces, the Sturm bound, eigenvalue systems, and local
Euler factors."""

import math
from itertools import islice

from .backend import factor_int, is_prime, rat, rat_str
from .polys import UniPoly, factor_rational_poly, is_irreducible_poly, NumberField
from . import linalg as la
from .groups import is_real_type
from .spaces import cuspidal_subspace, star_involution, plus_subspace
from .hecke import (hecke_tn_fast, hecke_counts, diamond_operator,
                    diamond_column, sigma_class)

CANDIDATE_PRIMES = 3     # the T_p behind _generator_candidates
RANDOM_CANDIDATES = 8    # seeded combinations after the single T_p


def sturm_bound(k, Gamma):
    """floor(k*m/12 - (m-1)/N) for the coset index m of Gamma_G."""
    m = Gamma.index
    N = max(Gamma.N, 1)
    return max((k * m * N - 12 * (m - 1)) // (12 * N), 1)


def iter_good_primes(G):
    """Primes p, in increasing order, with p coprime to the modulus and
    p mod N a determinant of G."""
    for p in range(2, 10 ** 6 + 1):
        if is_prime(p) and (G.N == 1 or (G.N % p != 0
                                         and (p % G.N) in G.det_image)):
            yield p
    raise RuntimeError("no good primes found")


def good_primes(G, count=None, upto=None):
    """The first count good primes, or those up to upto."""
    out = []
    for p in iter_good_primes(G):
        if upto is not None and p > upto:
            break
        out.append(p)
        if count is not None and len(out) >= count:
            break
    return out


class SpectralContext:
    """The working Hecke module: the plus subspace for real-type groups,
    otherwise the full cuspidal subspace, with cached restricted operators.
    basis, the operators and the star involution iota (None for other
    groups, built once here) are matrices in the integer form of linalg;
    cuspidal is the list of the integer rows of the cuspidal basis."""

    def __init__(self, S):
        self.S = S
        cuspidal = cuspidal_subspace(S)
        self.cuspidal = cuspidal[1]
        self.iota = None
        if is_real_type(S.G):
            self.kind = "plus"
            self.iota = star_involution(S)
            self.basis = plus_subspace(S, self.iota)
        else:
            self.kind = "cuspidal"
            self.basis = cuspidal
        self.dim = len(self.basis[1])
        self._full_ops = {}
        self._ops = {}
        self._diamonds = {}
        self._dual = None

    def dual_space(self):
        """Row vectors spanning the functionals on the full symbol space
        that every piece's dual lies in: those with v iota = v (plus kind),
        else all of them.  Computed on first use, once for all pieces."""
        if self._dual is None:
            n = self.S.dim
            if self.kind == "plus":
                self._dual = la.kernel(la.mat_poly_eval(
                    UniPoly([-1, 1]), la.from_columns(*self.iota, n)), n)
            else:
                self._dual = (1, [{i: 1} for i in range(n)])
        return self._dual

    def full_op(self, n):
        if n not in self._full_ops:
            self._full_ops[n] = hecke_tn_fast(self.S, n)
        return self._full_ops[n]

    def op(self, n):
        if n not in self._ops:
            self._ops[n] = la.restrict_to_invariant_subspace(
                self.full_op(n), self.basis)
        return self._ops[n]

    def diamond(self, p):
        if p not in self._diamonds:
            self._diamonds[p] = la.restrict_to_invariant_subspace(
                diamond_operator(self.S, sigma_class(self.S, p)), self.basis)
        return self._diamonds[p]

    def good_primes(self, count=None, upto=None):
        return good_primes(self.S.G, count=count, upto=upto)


class HeckePiece:
    """An invariant subspace of the working Hecke module."""

    def __init__(self, ctx, space, label=None, label_prime=None,
                 isotypic=False):
        self.ctx = ctx
        self.space = space          # basis in ctx coordinates
        self.dimension = len(space[1])
        self.label = label          # charpoly at the smallest good prime
        self.label_prime = label_prime
        self.isotypic = isotypic

    def restricted(self, mat):
        return la.restrict_to_invariant_subspace(mat, self.space)

    def op(self, n):
        return self.restricted(self.ctx.op(n))

    def __repr__(self):
        lab = self.label.to_str() if self.label is not None else "?"
        return "HeckePiece(dim=%d, label=%s)" % (self.dimension, lab)


def _generator_candidates(ops, seed):
    """Deterministic stream of Hecke-algebra elements: the single operators
    first, then seeded random combinations."""
    for T in ops:
        yield T
    for t in range(RANDOM_CANDIDATES):
        yield la.seeded_random_combination(ops, seed + t)


def is_irreducible(piece, seed=0):
    """Probabilistic irreducibility: True when some deterministic candidate
    operator has an irreducible characteristic polynomial on the piece."""
    if piece.dimension <= 1:
        return True
    primes = piece.ctx.good_primes(count=CANDIDATE_PRIMES)
    ops = [piece.op(p) for p in primes]
    for T in _generator_candidates(ops, seed):
        if is_irreducible_poly(la.charpoly(T)):
            return True
    return False


def decompose(ctx, seed=0):
    """Split the working module into irreducible (or flagged isotypic)
    Hecke pieces by kernels of charpoly factors at successive good primes.

    The kernels of g(T_p)^e for the factors g^e of the charpoly come from
    la.primary_components: spanned mod a large prime by Krylov vectors,
    lifted to the rationals and certified exactly (T_p leaves the lift
    invariant with charpoly g^e on it), so each is the reduced echelon
    basis la.kernel(g(T_p)^e) would give.

    A kernel of g(T_p) for a factor g of exponent 1 is final: T_p has
    charpoly g there, so it is irreducible.  Every piece lies in the
    generalized kernel of one factor g0 of the charpoly at the first prime
    p0, so its label, the charpoly of T_p0 on it, is g0^(dim/deg g0)."""
    if ctx.dim == 0:
        return []
    bound = sturm_bound(ctx.S.k, ctx.S.table)
    primes = ctx.good_primes(upto=bound)
    if not primes:
        primes = ctx.good_primes(count=1)
    p0 = primes[0]
    pieces = []
    # (basis, index of the next prime, factor at p0, known irreducible);
    # on the whole module, whose basis is the identity, T_p and the
    # components are used as they are
    whole = (1, [{i: 1} for i in range(ctx.dim)])
    stack = [(whole, 0, None, False)]
    while stack:
        basis, idx, g0, final = stack.pop()
        split = False
        while not final and idx < len(primes):
            R = ctx.op(primes[idx])
            if basis is not whole:
                R = la.restrict_to_invariant_subspace(R, basis)
            fac = factor_rational_poly(la.charpoly(R))
            if len(fac) > 1:
                components = la.primary_components(R, fac, seed)
                for (g, e), W in zip(fac, components):
                    if basis is not whole:
                        W = la.mat_mul(W, basis)
                    stack.append((W, idx + 1, g if g0 is None else g0,
                                  e == 1))
                split = True
                break
            g, e = fac[0]
            if g0 is None:
                g0 = g
            # single repeated factor: probe with random combinations before
            # moving to the next prime
            final = e == 1 or is_irreducible(HeckePiece(ctx, basis),
                                             seed=seed)
            idx += 1
        if not split:
            # a piece still without a final verdict has exhausted the primes
            # up to the Sturm bound: accept it as isotypic and flag it
            pieces.append(HeckePiece(
                ctx, basis, label=g0 ** (len(basis[1]) // g0.degree),
                label_prime=p0, isotypic=not final))

    pieces.sort(key=lambda pc: (pc.dimension, pc.label.coeffs[::-1]))
    return pieces


def dual_vector_space(ctx, piece):
    """The piece's part of the dual of the full symbol space, as the reduced
    echelon basis of row vectors in full coordinates: the
    functionals v with v iota = v (plus kind; v in the span of
    ctx.dual_space()) and v g_p(T_p) = 0, for g_p the characteristic
    polynomial of T_p on the piece, at successive good primes until the
    dimension is the piece's (la.cut_space: one kernel mod a large prime,
    lifted and checked exactly).  The primes run up to the Sturm bound and
    on to the first p with p^(k-1) >= 6, whose T_p separates the Eisenstein
    part: there its eigenvalues have absolute value at least
    p^(k-1) - 1 > 2 p^((k-1)/2)."""
    S = ctx.S
    d = piece.dimension
    if d == 0:
        return (1, [])
    bound = sturm_bound(S.k, S.table)
    separating = next(p for p in iter_good_primes(S.G)
                      if p ** (S.k - 1) >= 6)
    ops = ((ctx.full_op(p), la.charpoly(piece.op(p)))
           for p in ctx.good_primes(upto=max(bound, separating)))
    return la.cut_space(ctx.dual_space(), ops, d)


class EigenSystem:
    """Eigenvalues a_n, n < L, of a Hecke piece over its coefficient field."""

    def __init__(self, piece, modulus, field, values, L, assumed):
        self.piece = piece
        self.modulus = modulus      # monic minimal polynomial of the generator
        self.field = field          # NumberField, or None when rational
        self.values = values        # dict n -> value, for 1 <= n < L
        self.L = L
        self.assumed = assumed      # bad primes defaulted to zero

    def a(self, n):
        return self.values.get(n)

    def a_str(self, n):
        v = self.values[n]
        if self.field is None:
            return rat_str(v)
        return v.to_str()

    def __repr__(self):
        return "EigenSystem(dim=%d, modulus=%s, L=%d)" % (
            self.piece.dimension, self.modulus.to_str(), self.L)


def _generator(piece, seed):
    """The first element T of _generator_candidates over T_p, for the first
    CANDIDATE_PRIMES good primes p, whose characteristic polynomial on the
    piece is an irreducible g, or, on a piece flagged isotypic, a power of
    an irreducible g with g(T) = 0.  On a piece proven irreducible a T with
    a repeated factor does not generate the Hecke algebra, and the
    eigenvectors of T are not all eigenvectors of every T_n.  Returns those
    primes, the position of T in the stream and g."""
    primes = piece.ctx.good_primes(count=CANDIDATE_PRIMES)
    ops = [piece.op(p) for p in primes]
    for t, T in enumerate(_generator_candidates(ops, seed)):
        fac = factor_rational_poly(la.charpoly(T))
        if len(fac) != 1:
            continue
        g, e = fac[0]
        if e == 1 or (piece.isotypic
                      and not any(la.mat_poly_eval(g, T)[1])):
            return primes, t, g
    raise RuntimeError("no generator with power-of-irreducible charpoly")


def eigen_system(piece, L=100, seed=0, bad_ops=None):
    """Eigenvalue system of an irreducible (or simple-isotypic) piece.

    T is the generator (see _generator) and g its minimal polynomial on the
    piece.  For a root a of g, h = g/(x - a) and a row vector v of the
    piece's dual (dual_vector_space), e = v h(T) is an eigenfunctional on
    the full symbol space: e T_n = a_n e.  So a_n = <e, T_n s>/<e, s> for
    one basis symbol s with <e, s> != 0, and each T_n is needed on s alone.
    The vectors w_i = v T^i are pulled back once to the free module of
    Manin symbols (ModSymSpace.pull_back), as an integer table over one
    denominator; a sweep of T_n over s (hecke_counts) gives integer counts
    on that module, and their pairing with the table gives the <w_i, T_n s>,
    so no vector of the symbol space is formed per n.

    At a prime p whose class is a determinant of G, a_(p^r) follows from
    a_p and <sigma_p> by the Hecke recursion; at another p not dividing N,
    each a_(p^r) takes a one-symbol sweep of T_(p^r).  a_n is the product of
    its prime-power values (formed with no product by one), except where the
    part m of n prime to N has two or more prime factors and one of its
    prime powers has its residue outside det(G): a_m then takes a one-symbol
    sweep of T_m.

    bad_ops maps a prime p dividing the modulus to a matrix on the working
    module (a user-supplied double-coset combination), read through e
    restricted to the working module, which must be an eigenvector of it
    (ValueError otherwise); without it a_p is assumed to be 0.
    """
    ctx = piece.ctx
    S = ctx.S
    N = S.table.N
    if piece.dimension == 0:
        raise ValueError("empty piece has no eigensystem")
    primes, t, g = _generator(piece, seed)
    if g.degree == 1:
        field = None
        fone = rat(1)
        h = [fone]
    else:
        field = NumberField(g, var="a")
        fone = field.one()
        # g = (x - a) h by synthetic division, h lowest degree first
        h = [fone]
        for c in reversed(g.coeffs[1:-1]):
            h.append(field.gen() * h[-1] + c)
        h.reverse()
    # the row vectors w_i = v T^i in full coordinates, rows[i] / D;
    # e = sum h_i w_i
    T = next(islice(_generator_candidates(
        [ctx.full_op(p) for p in primes], seed), t, None))
    dv, dual = dual_vector_space(ctx, piece)
    w = [(dv, dual[:1])]
    for _ in range(g.degree - 1):
        w.append(la.mat_mul(w[-1], T))
    D = math.lcm(*(d for d, _ in w))
    rows = [{j: x * (D // d) for j, x in r[0].items()} for d, r in w]

    def pair(x, dx):
        """<e, x / dx> for a sparse integer vector x in full coordinates."""
        total = fone * 0
        for hi, wi in zip(h, rows):
            total = total + hi * rat(sum(y * wi[j] for j, y in x.items()
                                         if j in wi), D * dx)
        return total

    s = next(j for j in range(S.dim) if any(j in wi for wi in rows))
    e_s_inv = fone / pair({s: 1}, 1)

    # <w_i, T_n s> is the sum over keys of counts[key] table[key][i] / D,
    # for the integer counts of hecke_counts, so a_n = sum_i c_i h_i
    # <e, s>^-1 / D; the products run on integers
    den, table = S.pull_back((D, rows))
    scaled = [hi * e_s_inv * rat(1, den) for hi in h]

    def sweep_value(n):
        """a_n from one sweep of T_n over the symbol s."""
        c = [0] * len(w)
        for key, cnt in hecke_counts(S, n)(s).items():
            for i, x in enumerate(table[key]):
                c[i] += cnt * x
        total = fone * 0
        for ci, hi in zip(c, scaled):
            if ci:
                total = total + hi * ci
        return total

    assumed = set()

    def bad_value(p, R):
        """The eigenvalue of psi R = lambda psi, for psi the restriction of
        e to the working module."""
        psi = [pair(b, ctx.basis[0]) for b in ctx.basis[1]]
        dr, r = R
        psi_r = [sum((x * r[i][j] for i, x in enumerate(psi)
                      if x != 0 and j in r[i]), fone * 0) * rat(1, dr)
                 for j in range(len(psi))]
        j = next(i for i, x in enumerate(psi) if x != 0)
        lam = psi_r[j] / psi[j]
        if any(y != lam * x for x, y in zip(psi, psi_r)):
            raise ValueError("the operator at %d is not a scalar on the "
                             "piece" % p)
        return lam

    def prime_powers(p):
        """[a_1, a_p, a_(p^2), ...] below L."""
        rmax = 1
        while p ** (rmax + 1) < L:
            rmax += 1
        if N > 1 and N % p == 0:
            if bad_ops is not None and p in bad_ops:
                base = bad_value(p, bad_ops[p])
            else:
                assumed.add(p)
                base = fone * 0
            return [base ** r for r in range(rmax + 1)]
        if N > 1 and p % N not in S.G.det_image:
            return [fone] + [sweep_value(p ** r)
                             for r in range(1, rmax + 1)]
        vals = [fone, sweep_value(p)]
        if rmax > 1:
            eps = pair(diamond_column(S, sigma_class(S, p), s),
                       S.den) * e_s_inv
            pk = p ** (S.k - 1)
            for r in range(2, rmax + 1):
                vals.append(vals[1] * vals[r - 1] - eps * pk * vals[r - 2])
        return vals

    pp_cache = {}
    values = {1: fone}
    for n in range(2, L):
        fac = sorted(factor_int(n).items())
        # the part m of n prime to N: where one of its factors p^r has its
        # residue outside det(G), T_m is not the product of the T_(p^r)
        good = [(p, r) for p, r in fac if N % p]
        swept = N > 1 and len(good) > 1 and any(
            p ** r % N not in S.G.det_image for p, r in good)
        if swept:
            fac = [(p, r) for p, r in fac if N % p == 0]
        # the product of the factors' values, with no product by one
        terms = []
        for p, r in fac:
            if p not in pp_cache:
                pp_cache[p] = prime_powers(p)
            terms.append(pp_cache[p][r])
        if swept:
            terms.append(sweep_value(math.prod(p ** r for p, r in good)))
        values[n] = math.prod(terms[1:], start=terms[0])
    return EigenSystem(piece, g, field, values, L, assumed)


def local_euler_factor(piece, p):
    """det(1 - T_p X + <sigma_p> p^(k-1) X^2) on the piece: det(1 - A X)
    for A = [[T_p, -p^(k-1) <sigma_p>], [1, 0]] (by the Schur complement of
    the lower right block of 1 - A X), so the charpoly of A reversed."""
    ctx = piece.ctx
    S = ctx.S
    N = S.table.N
    if N > 1 and (N % p == 0 or (p % N) not in S.G.det_image):
        raise ValueError("Euler factor requires a good prime with residue "
                         "in det(G)")
    (dr, R), (dd, D) = piece.op(p), piece.restricted(ctx.diamond(p))
    d = piece.dimension
    pk = p ** (S.k - 1)
    den = math.lcm(dr, dd)
    A = [{j: x * (den // dr) for j, x in row.items()} for row in R]
    for row, drow in zip(A, D):
        row.update({d + j: -pk * x * (den // dd) for j, x in drow.items()})
    A += [{i: den} for i in range(d)]
    return UniPoly(la.charpoly((den, A)).coeffs[::-1])
