"""Decomposition of the cuspidal (plus) subspace into irreducible Hecke
modules, dual vector spaces, the Sturm bound, eigenvalue systems, and local
Euler factors."""

import math
from fractions import Fraction

from .backend import rat, as_fraction, is_prime, factor_int
from .polys import UniPoly, factor_rational_poly, is_irreducible_poly, NumberField
from . import linalg as la
from .groups import is_real_type
from .spaces import (cuspidal_subspace, star_involution, plus_subspace,
                     NotRealType)
from .hecke import hecke_tn_fast, diamond_operator, sigma_class


def sturm_bound(k, Gamma):
    """floor(k*m/12 - (m-1)/N) for the coset index m of Gamma_G."""
    m = Gamma.index
    N = max(Gamma.N, 1)
    val = Fraction(k * m, 12) - Fraction(m - 1, N)
    return max(math.floor(val), 1)


def good_primes(G, count=None, upto=None):
    """Primes p, in increasing order, with p coprime to the modulus and
    p mod N a determinant of G."""
    out = []
    p = 2
    while True:
        if is_prime(p):
            if G.N == 1 or (G.N % p != 0 and (p % G.N) in G.det_image):
                out.append(p)
                if count is not None and len(out) >= count:
                    return out
        p += 1
        if upto is not None and p > upto:
            return out
        if p > 10 ** 6:
            raise RuntimeError("no good primes found")


class SpectralContext:
    """The working Hecke module: the plus subspace for real-type groups,
    otherwise the full cuspidal subspace, with cached restricted operators."""

    def __init__(self, S, prefer_plus=True):
        self.S = S
        self.cuspidal = cuspidal_subspace(S)
        use_plus = (prefer_plus and S.character is None
                    and is_real_type(S.G))
        if use_plus:
            self.kind = "plus"
            iota = star_involution(S)
            self.basis = plus_subspace(S, self.cuspidal, iota) \
                if self.cuspidal else []
        else:
            self.kind = "cuspidal"
            self.basis = self.cuspidal
        self.dim = len(self.basis)
        self._full_ops = {}
        self._ops = {}
        self._diamonds = {}

    def full_op(self, n):
        if n not in self._full_ops:
            self._full_ops[n] = hecke_tn_fast(self.S, n)
        return self._full_ops[n]

    def op(self, n):
        if n not in self._ops:
            if self.dim == 0:
                self._ops[n] = []
            else:
                self._ops[n] = la.restrict_to_invariant_subspace(
                    self.full_op(n), self.basis)
        return self._ops[n]

    def diamond(self, p):
        if p not in self._diamonds:
            mat = diamond_operator(self.S, sigma_class(self.S, p))
            if self.dim == 0:
                self._diamonds[p] = []
            else:
                self._diamonds[p] = la.restrict_to_invariant_subspace(
                    mat, self.basis)
        return self._diamonds[p]

    def good_primes(self, count=None, upto=None):
        return good_primes(self.S.G, count=count, upto=upto)


class HeckePiece:
    """An invariant subspace of the working Hecke module."""

    def __init__(self, ctx, space, label=None, label_prime=None,
                 isotypic=False):
        self.ctx = ctx
        self.space = space          # basis vectors in ctx coordinates
        self.dimension = len(space)
        self.label = label          # charpoly at the smallest good prime
        self.label_prime = label_prime
        self.isotypic = isotypic
        self.is_new = None
        self.dual = None

    def restricted(self, mat):
        return la.restrict_to_invariant_subspace(mat, self.space)

    def op(self, n):
        return self.restricted(self.ctx.op(n))

    def __repr__(self):
        lab = self.label.to_str() if self.label is not None else "?"
        return "HeckePiece(dim=%d, label=%s)" % (self.dimension, lab)


def _generator_candidates(ops, seed, attempts=8):
    """Deterministic stream of Hecke-algebra elements: the single operators
    first, then seeded random combinations."""
    for T in ops:
        yield T
    for t in range(attempts):
        yield la.seeded_random_combination(ops, seed + t)


def is_irreducible(piece, seed=0, attempts=8, n_ops=3):
    """Probabilistic irreducibility: True when some deterministic candidate
    operator has an irreducible characteristic polynomial on the piece."""
    if piece.dimension <= 1:
        return True
    primes = piece.ctx.good_primes(count=n_ops)
    ops = [piece.op(p) for p in primes]
    for T in _generator_candidates(ops, seed, attempts):
        if is_irreducible_poly(la.charpoly(T)):
            return True
    return False


def decompose(ctx, seed=0):
    """Split the working module into irreducible (or flagged isotypic)
    Hecke pieces by kernels of charpoly factors at successive good primes."""
    if ctx.dim == 0:
        return []
    one = ctx.S.one
    bound = sturm_bound(ctx.S.k, ctx.S.table)
    primes = ctx.good_primes(upto=bound)
    if not primes:
        primes = ctx.good_primes(count=1)
    pieces = []
    ident = la.identity_matrix(ctx.dim, one)
    stack = [([list(r) for r in ident], 0)]
    while stack:
        basis, idx = stack.pop()
        placed = False
        while idx < len(primes):
            p = primes[idx]
            R = la.restrict_to_invariant_subspace(ctx.op(p), basis)
            f = la.charpoly(R)
            fac = factor_rational_poly(f)
            if len(fac) > 1:
                for g, e in fac:
                    K = la.mat_poly_eval(g, R)
                    Ke = K
                    for _ in range(e - 1):
                        Ke = la.mat_mul(Ke, K)
                    W = la.kernel(Ke)
                    stack.append((la.mat_mul(W, basis), idx + 1))
                placed = True
                break
            g, e = fac[0]
            if e == 1:
                pieces.append(HeckePiece(ctx, basis))
                placed = True
                break
            # single repeated factor: probe with random combinations before
            # moving to the next prime
            probe = HeckePiece(ctx, basis)
            if is_irreducible(probe, seed=seed):
                pieces.append(probe)
                placed = True
                break
            idx += 1
        if not placed:
            # primes up to the Sturm bound exhausted without splitting:
            # accept as an isotypic module and flag it
            pieces.append(HeckePiece(ctx, basis, isotypic=True))
    p0 = primes[0]
    for piece in pieces:
        piece.label_prime = p0
        piece.label = la.charpoly(piece.op(p0))
    def sort_key(piece):
        coeffs = [as_fraction(c) for c in piece.label.coeffs]
        return (piece.dimension, tuple(reversed(coeffs)))
    pieces.sort(key=sort_key)
    return pieces


def dual_vector_space(ctx, piece):
    """The matching subspace of the dual, cut out by kernels of the
    characteristic polynomials of successive good-prime operators."""
    one = ctx.S.one
    if piece.dimension == 0:
        piece.dual = []
        return []
    V = [list(r) for r in la.identity_matrix(ctx.dim, one)]
    bound = sturm_bound(ctx.S.k, ctx.S.table)
    for p in ctx.good_primes(upto=max(bound, 2)):
        if len(V) == piece.dimension:
            break
        R = ctx.op(p)
        cp = la.charpoly(piece.restricted(R))
        K = la.mat_poly_eval(cp, la.transpose(R))
        W = la.kernel(K)
        V = la.intersect_row_spaces(V, W)
    if len(V) != piece.dimension:
        raise ValueError("dual space did not converge below the Sturm bound")
    piece.dual = V
    return V


class EigenSystem:
    """Eigenvalues a_n, n < L, of a Hecke piece over its coefficient field."""

    def __init__(self, piece, modulus, field, values, L, absent, assumed):
        self.piece = piece
        self.modulus = modulus      # monic minimal polynomial of the generator
        self.field = field          # NumberField, or None when rational
        self.values = values        # dict n -> value (None when absent)
        self.L = L
        self.absent = absent        # bad primes with no supplied operator
        self.assumed = assumed      # bad primes defaulted to zero

    def a(self, n):
        return self.values.get(n)

    def a_str(self, n):
        v = self.values.get(n)
        if v is None:
            return "?"
        if self.field is None:
            return _rat_str(v)
        return v.to_str()

    def __repr__(self):
        return "EigenSystem(dim=%d, modulus=%s, L=%d)" % (
            self.piece.dimension, self.modulus.to_str(), self.L)


def _rat_str(v):
    f = as_fraction(v)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


def eigen_system(piece, L=100, seed=0, bad_ops=None, default_bad_zero=True):
    """Eigenvalue system of an irreducible (or simple-isotypic) piece.

    bad_ops maps a prime p dividing the modulus to a matrix on the working
    module (a user-supplied double-coset combination); without it a_p is
    absent (None) or, with default_bad_zero, assumed to be 0.
    """
    ctx = piece.ctx
    S = ctx.S
    one = S.one
    N = S.table.N
    d = piece.dimension
    if d == 0:
        raise ValueError("empty piece has no eigensystem")
    primes = ctx.good_primes(count=3)
    ops = [piece.op(p) for p in primes]
    found = None
    for T in _generator_candidates(ops, seed):
        f = la.charpoly(T)
        fac = factor_rational_poly(f)
        if len(fac) != 1:
            continue
        g, e = fac[0]
        if e == 1 or la.is_zero_matrix(la.mat_poly_eval(g, T)):
            found = (T, g)
            break
    if found is None:
        raise RuntimeError("no generator with power-of-irreducible charpoly")
    T, g = found
    if g.degree == 1:
        field = None
        root = -g.coeffs[0]

        def lift(x):
            return one * x

        gen_val = root
    else:
        field = NumberField(g, var="a")

        def lift(x):
            return field.elem([x])

        gen_val = field.gen()
    # eigenfunctional: kernel vector of (T^t - gen)
    fone = field.one() if field is not None else one
    Tt = la.transpose(T)
    M = [[lift(Tt[i][j]) - (gen_val if i == j else gen_val * 0)
          for j in range(d)] for i in range(d)]
    kern = la.kernel(M)
    if not kern:
        raise RuntimeError("no eigenfunctional: T^t - a has a zero kernel")
    c = kern[0]
    pivot = next(i for i, x in enumerate(c) if x != 0)

    def value_of(R):
        num = fone * 0
        for j in range(d):
            if R[j][pivot] != 0:
                num = num + c[j] * lift(R[j][pivot])
        return num / c[pivot]

    absent = set()
    assumed = set()
    pp_cache = {}

    def prime_power(p, r):
        key = (p, r)
        if key in pp_cache:
            return pp_cache[key]
        if N > 1 and N % p == 0:
            if bad_ops is not None and p in bad_ops:
                base = value_of(piece.restricted(bad_ops[p]))
                val = base
                for _ in range(r - 1):
                    val = val * base
            elif default_bad_zero:
                assumed.add(p)
                val = fone * 0
            else:
                absent.add(p)
                val = None
        else:
            val = value_of(piece.op(p ** r))
        pp_cache[key] = val
        return val

    values = {1: fone}
    for n in range(2, L):
        val = fone
        ok = True
        for p, r in sorted(factor_int(n).items()):
            v = prime_power(p, r)
            if v is None:
                ok = False
                break
            val = val * v
        values[n] = val if ok else None
    return EigenSystem(piece, g, field, values, L, absent, assumed)


def local_euler_factor(piece, p):
    """det(1 - T_p X + <sigma_p> p^(k-1) X^2) on the piece."""
    ctx = piece.ctx
    S = ctx.S
    N = S.table.N
    if N > 1 and (N % p == 0 or (p % N) not in S.G.det_image):
        raise ValueError("Euler factor requires a good prime with residue "
                         "in det(G)")
    R = piece.op(p)
    D = piece.restricted(ctx.diamond(p))
    d = piece.dimension
    one = S.one
    pk = one * (p ** (S.k - 1))
    mat = [[UniPoly([one * (1 if i == j else 0), -R[i][j], pk * D[i][j]])
            for j in range(d)] for i in range(d)]
    return la.det_poly_matrix(mat)
