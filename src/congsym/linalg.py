"""Exact linear algebra over the rationals.

Matrices are lists of row lists acting on column vectors; vectors are lists.
Entries are Fractions (backend.rat).  One sparse Gauss-Jordan (echelon)
serves rref, rank, sparse kernels and spaces.build_space.  Products,
restriction, Horner evaluation and dense kernels clear denominators and
run on sympy's DomainMatrix over ZZ, imported at first use.  charpoly works
modulo primes near 2^60 and primary_components modulo primes near 2^61,
both in plain Python integers, with one Hessenberg reduction mod a prime
(_charpoly_mod) for charpoly and the certificate of primary_components.
"""

from collections import defaultdict
from functools import cache
from itertools import count
from math import gcd, isqrt, lcm

from .backend import ONE, rat, prev_prime, XorShift64
from .polys import UniPoly


def _dm_zz(rows):
    """(d, d rows over ZZ as a DomainMatrix) for d the lcm of denominators."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    d = lcm(*(x.denominator for row in rows for x in row))
    dod = {i: nz for i, row in enumerate(rows)
           if (nz := {j: x.numerator * (d // x.denominator)
                      for j, x in enumerate(row) if x})}
    return d, DomainMatrix(dod, (len(rows), len(rows[0]) if rows else 0), ZZ)


def _lists(a, den=1):
    """Rows of a / den for an integer DomainMatrix a."""
    sdm = a.to_sdm()
    return from_dicts([sdm.get(i, {}) for i in range(a.shape[0])],
                      a.shape[1], den)


def from_dicts(rows, ncols, den=1):
    """Dense rows of the sparse rows[i] / den, one Fraction per value."""
    zero = rat(0)
    out = [[zero] * ncols for _ in rows]
    made = {}
    for row, nz in zip(out, rows):
        for j, y in nz.items():
            if (x := made.get(y)) is None:
                x = made[y] = rat(y, den)
            row[j] = x
    return out


def _dicts(rows):
    """Sparse rows of rational rows, integral entries as ints."""
    return [{j: x.numerator if x.denominator == 1 else x
             for j, x in enumerate(row) if x} for row in rows]


def identity_matrix(n):
    z = ONE * 0
    return [[ONE if i == j else z for j in range(n)] for i in range(n)]


def zero_matrix(n, m):
    z = ONE * 0
    return [[z] * m for _ in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return [[] for _ in a]
    (da, A), (db, B) = _dm_zz(a), _dm_zz(b)
    return _lists(A * B, da * db)


def mat_vec(a, v):
    return [row[0] for row in mat_mul(a, [[x] for x in v])]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def shift_diagonal(a, c):
    """Rows of a + c I for a square a, with c added on the diagonal only."""
    return [row[:i] + [row[i] + c] + row[i + 1:] for i, row in enumerate(a)]


def mat_scale(a, c):
    return [[x * c for x in row] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def is_zero_matrix(a):
    return all(all(x == 0 for x in row) for row in a)


def echelon(rows):
    """(red, pivots): the nonzero rows of the reduced echelon form of rows,
    dicts column -> nonzero int or Fraction, in pivot order.  As sympy's
    sdm_irref, rows are taken by first nonzero column, last first, and an
    index column -> rows nonzero there finds the rows a new pivot clears,
    so the cost follows the nonzeros.  Ints stay ints while pivots are +-1."""
    todo = sorted((r for r in rows if r), key=min)
    pivot_row = {}                  # pivot column -> its row
    holders = defaultdict(set)      # column -> pivot rows nonzero there
    while todo:
        a = dict(todo.pop())
        for j in pivot_row.keys() & a.keys():
            _subtract(a, a[j], pivot_row[j])
        if not a:
            continue
        j = min(a)
        if a[j] != 1:
            t = -1 if a[j] == -1 else 1 / rat(a[j])
            a = {k: x * t for k, x in a.items()}
        pivot_row[j] = a
        for p in holders.pop(j, ()):
            b = pivot_row[p]
            _subtract(b, b[j], a)
            for k in a:
                (holders[k].add if k in b else holders[k].discard)(p)
        for k in a:
            holders[k].add(j)
    pivots = sorted(pivot_row)
    return [pivot_row[p] for p in pivots], pivots


def _subtract(b, y, a):
    """b -= y a, for sparse rows, in place."""
    for k, x in a.items():
        if z := b.get(k, 0) - y * x:
            b[k] = z
        else:
            del b[k]


def rref(rows):
    """Reduced row echelon form (zero rows last) and the pivot columns."""
    red, pivots = echelon(_dicts(rows))
    return (from_dicts(red + [{}] * (len(rows) - len(red)),
                       len(rows[0]) if rows else 0), pivots)


def kernel(rows, sparse=False):
    """Basis of {v : rows v = 0}: for each free column j in turn, v[j] = 1 and
    v[c] = -red[r][j] at the pivot column c of row r of the reduced form.
    sparse=True reduces by echelon, Gauss-Jordan over Q, which suits the
    Manin-symbol matrices (a few small nonzeros per row, little fill-in);
    otherwise sympy clears denominators and eliminates fraction-free, which
    suits dense matrices.  The reduced form is the same either way."""
    ncols = len(rows[0]) if rows else 0
    if sparse:
        (red, pivots), den = echelon(_dicts(rows)), 1
    else:       # red is den times the reduced form
        red, den, pivots = _dm_zz(rows)[1].rref_den(method="FF")
        red = map(red.to_sdm().get, range(len(pivots)))
    vectors = {j: {j: den} for j in sorted(set(range(ncols)) - set(pivots))}
    for p, row in zip(pivots, red):
        for j in row.keys() - {p}:
            vectors[j][p] = -row[j]
    return from_dicts(list(vectors.values()), ncols, den)


def row_space_basis(rows):
    red, pivots = rref(rows)
    return red[: len(pivots)]


def mat_rank(rows):
    return len(echelon(_dicts(rows))[1])


def in_row_space(rows, v):
    return mat_rank(list(rows) + [v]) == mat_rank(rows)


def _unit_columns(basis):
    """For each basis vector i, the first column that is e_i (basis[i] holds
    1 there and every other vector 0).  A vector's coordinates in the basis
    are its entries at these columns.  Kernels carry one at each free column
    and a product W * basis keeps them, so every basis the pipeline builds
    has them."""
    only = {}   # column -> the row of its single nonzero entry 1, else None
    for i, row in enumerate(basis):
        for j, x in enumerate(row):
            if x:
                only[j] = i if j not in only and x == 1 else None
    cols = {}
    for j in sorted(only):
        if only[j] is not None:
            cols.setdefault(only[j], j)
    if len(cols) != len(basis):
        raise ValueError("some basis vector has no unit column")
    return [cols[i] for i in range(len(basis))]


def restrict_to_invariant_subspace(m, basis):
    """Matrix R of m in the coordinates of an m-invariant basis B (column j
    holds those of m * basis[j])."""
    if not basis:
        return []
    r, s = _restrict_zz(*_dm_zz(m), basis)
    return _lists(r, s)


def _restrict_zz(d, a, basis):
    """(r, s) with r an integer DomainMatrix and r / s the matrix R of
    m = a / d in the coordinates of the m-invariant basis B: the rows of
    m B^t at B's unit columns, checked against B^t R = m B^t, ValueError
    where that fails.  The products run over the integers: with b = c B
    integral, a b^t is d c m B^t, its rows at the unit columns are d c R,
    and the check reads b^t (d c R) = c a b^t."""
    c, b = _dm_zz(basis)
    bt = b.transpose()
    abt = a * bt
    r = abt.extract(_unit_columns(basis), list(range(len(basis))))
    if bt * r != abt * c:
        raise ValueError("basis is not invariant under the matrix")
    return r, d * c


def charpoly(m):
    """Characteristic polynomial det(xI - m).

    With a = d m integral, the coefficient of x^(n-i) is c_i / d^i, for
    c_i that of the charpoly of a.  Up to sign, c_i is the sum of the
    i x i principal minors of a, and by Hadamard's inequality each minor is
    at most the product of the norms of its rows; so |c_i| <= B, the
    largest elementary symmetric function of the row norms, or of the
    column norms (_coefficient_bound).  The c_i are computed mod successive
    primes below 2^60 (_charpoly_mod) until the product M of the primes
    exceeds 2 B, and are then the residues mod M of least absolute value
    (Cohen, A Course in Computational Algebraic Number Theory, 1993,
    section 2.2.4; Dumas, Pernet and Wan, "Efficient computation of the
    characteristic polynomial", ISSAC 2005).  The number of primes follows
    from the bound, so the result is proven, not just unchanged by one more
    prime.

    A prime below 2^60 is two 30-bit digits of a Python integer; per bit of
    modulus, _charpoly_mod on T_2 at ns_plus 53 and 97 (CPython 3.11,
    x86-64) was cheaper there than at 30, 128 or 256 bits."""
    d = lcm(*(x.denominator for row in m for x in row))
    rows = [[x.numerator * (d // x.denominator) for x in row] for row in m]
    bound = 2 * _coefficient_bound(rows)
    res, mod = [0] * (len(m) + 1), 1
    for i in count():
        q = _charpoly_prime(i)
        t = pow(mod, -1, q)
        res = [x + mod * ((y - x) * t % q)
               for x, y in zip(res, _charpoly_mod(rows, q))]
        mod *= q
        if mod > bound:
            break
    return UniPoly([rat(x - mod if 2 * x > mod else x, d ** i)
                    for i, x in enumerate(res)][::-1])


def _coefficient_bound(a):
    """max_i e_i(|r_1|, ..., |r_n|), the elementary symmetric functions of
    the Euclidean norms of the rows of the integer matrix a, rounded up,
    or of its columns, whichever is less."""
    def largest_e(vectors):
        e = [1]     # e_0, e_1, ... of the norms so far
        for v in vectors:
            s = sum(x * x for x in v)
            if s:
                r = isqrt(s - 1) + 1
                e = [x + r * y for x, y in zip(e + [0], [0] + e)]
        return max(e)
    return min(largest_e(a), largest_e(zip(*a)))


@cache
def _charpoly_prime(i):
    """The i-th prime below 2^60, counted down from 2^60."""
    return prev_prime(_charpoly_prime(i - 1) if i else 2 ** 60)


def mat_poly_eval(f, m):
    """f(m) for a UniPoly f and a rational matrix m.  The Horner steps run on
    integers: for m = a/d and n = deg f, f(m) = d^-n sum_i f_i d^(n-i) a^i."""
    d, a = _dm_zz(m)
    cs = [c * d ** i for i, c in enumerate(f.coeffs[::-1])]
    e = lcm(*(c.denominator for c in cs))
    h = [c.numerator * (e // c.denominator) for c in cs]
    return _lists(a.eval_poly(h), e * d ** max(f.degree, 0))


# the moduli of primary_components, primes 2^61 - d in decreasing order; at
# most this many are tried before it gives up
_PRIMES = tuple(2 ** 61 - d for d in (
    1, 31, 45, 229, 259, 283, 339, 391, 403, 465, 531, 579,
    675, 759, 799, 819, 829, 843, 859, 939, 985, 1015, 1153, 1195))


def primary_components(m, factors, seed=0):
    """For the factorization [(g, e), ...] of charpoly(m) into powers of
    distinct monic irreducibles, the bases of the components ker g(m)^e, each
    the list kernel(g(m)^e) returns: the reduced echelon basis whose vectors
    end in a 1 at distinct columns, where every other vector is 0.

    Mod a prime p near 2^61, the component is spanned by v, m v, m^2 v, ...
    for v = h(m) u, h the product of the other factors to their exponents
    and u random; where m is not cyclic, further vectors u fill it.  The
    echelon basis mod p is lifted by rational reconstruction, over more
    primes by CRT where that fails.  A lift W is certified exactly
    (_is_component): m leaves W invariant and has charpoly g^e on it, so W
    lies in ker g(m)^e, has its dimension e deg g, and is that space; and a
    subspace has one reduced echelon basis, so the result depends on neither
    the primes nor the seed.  RuntimeError when the primes run out."""
    den, a = _dm_zz(m)
    sdm = a.to_sdm()
    rows = [list(sdm.get(i, {}).items()) for i in range(len(m))]
    # a prime dividing a denominator of m or of a factor is skipped
    bad = lcm(den, *(x.denominator for g, _ in factors for x in g.coeffs))
    rng = XorShift64(seed)
    lifts = {}      # factor index -> (pivot columns, residue rows, modulus)
    out = [None] * len(factors)
    for p in _PRIMES:
        if bad % p == 0:
            continue
        todo = [i for i, W in enumerate(out) if W is None]
        for i, span in _spans_mod(rows, den, factors, todo, p, rng).items():
            g, e = factors[i]
            if len(span) < e * g.degree:
                continue
            pivots = sorted(span)
            res = [span[j] for j in pivots]
            mod = p
            # residues of another echelon shape start the CRT afresh: one of
            # the two primes was bad for this factor
            if i in lifts and lifts[i][0] == pivots:
                _, old, q = lifts[i]
                t = pow(q, -1, p)
                res = [[x + q * ((y - x) * t % p) for x, y in zip(r, s)]
                       for r, s in zip(old, res)]
                mod = q * p
            lifts[i] = (pivots, res, mod)
            W = _rational_lift(res, mod)
            others = [f for j, (f, _) in enumerate(factors) if j != i]
            if W is not None and _is_component(den, a, W, g, e, others):
                out[i] = W
        if all(W is not None for W in out):
            return out
    raise RuntimeError("primary components not certified at %d primes"
                       % len(_PRIMES))


def _spans_mod(rows, den, factors, todo, p, rng):
    """For each index i in todo, with factors[i] = (g, e), a span mod p of
    vectors m^j h(m) u, for m = rows / den, h the product of the other
    factors to their exponents and random u, reduced by _insert.  Each span
    stops at dimension e deg g; all stop when a new u adds nothing."""
    from sympy import ZZ
    from sympy.polys.galoistools import gf_mul, gf_pow
    c = pow(den, -1, p)
    rows = [[(j, x * c % p) for j, x in row] for row in rows]
    n = len(rows)

    def apply(v):
        return [sum(x * v[j] for j, x in row) % p for row in rows]

    powers = [gf_pow(_poly_mod(g, p), e, p, ZZ) for g, e in factors]
    dims = {i: len(powers[i]) - 1 for i in todo}      # e deg g
    hs = {}
    for i in todo:
        h = [1]
        for j, f in enumerate(powers):
            if j != i:
                h = gf_mul(h, f, p, ZZ)
        hs[i] = h[::-1]
    spans = {i: {} for i in todo}
    while True:
        pending = [i for i in todo if len(spans[i]) < dims[i]]
        if not pending:
            return spans
        krylov = [[rng.next_u64() % p for _ in range(n)]]
        while len(krylov) < max(len(hs[i]) for i in pending):
            krylov.append(apply(krylov[-1]))
        grew = False
        for i in pending:
            v = [0] * n
            for x, w in zip(hs[i], krylov):
                if x:
                    v = [a + x * b for a, b in zip(v, w)]
            v = [a % p for a in v]
            # the first m^j v the span already holds leaves it m-invariant
            while len(spans[i]) < dims[i] and _insert(spans[i], v, p):
                grew = True
                v = apply(v)
        if not grew:
            return spans


def _insert(span, v, p):
    """Reduce v mod p by span, a dict pivot -> row whose last nonzero entry
    is a 1 at its pivot, where every other row is 0, and add what is left,
    keeping that form.  True when v was added."""
    for j, row in span.items():
        x = v[j]
        if x:
            v = [(a - x * b) % p for a, b in zip(v, row)]
    j = max((j for j, x in enumerate(v) if x), default=None)
    if j is None:
        return False
    t = pow(v[j], -1, p)
    v = [x * t % p for x in v]
    for i, row in span.items():
        x = row[j]
        if x:
            span[i] = [(a - x * b) % p for a, b in zip(row, v)]
    span[j] = v
    return True


def _rational_lift(rows, mod):
    """The rationals r/s with |r|, s <= sqrt(mod/2) congruent to the entries
    mod mod, or None where one has none."""
    bound = isqrt(mod // 2)
    out = []
    for row in rows:
        lifted = []
        for x in row:
            r0, r1, s0, s1 = mod, x, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if abs(s1) > bound or gcd(r1, s1) != 1:
                return None
            lifted.append(rat(r1, s1))
        out.append(lifted)
    return out


def _is_component(d, a, W, g, e, others):
    """Whether the span of W is ker g(m)^e, for m = a / d with a an integer
    DomainMatrix and charpoly(m) the product of g^e and powers of the
    irreducible factors others.

    m must leave W invariant (checked exactly) with len(W) = e deg g; then
    the charpoly c of the restriction R = r / s (_restrict_zz) divides
    charpoly(m), so c = g^a h for h a product of factors in others, and
    c = g^e exactly when h = 1.  That is read mod a prime q of _PRIMES
    dividing neither s nor a denominator of g or others: c mod q, the
    charpoly of r s^-1 mod q (_charpoly_mod), must be g^e mod q, else
    c != g^e; and where g is coprime to every other factor mod q, the
    factor h mod q of g^e mod q is a constant, so the monic h is 1.  A q
    where g meets another factor mod q proves nothing, and the next one is
    tried."""
    from sympy import ZZ
    from sympy.polys.galoistools import gf_gcd, gf_pow
    if len(W) != e * g.degree:
        return False
    try:
        r, s = _restrict_zz(d, a, W)
    except ValueError:
        return False
    rows = r.to_list()
    bad = lcm(s, *(x.denominator for f in [g] + others for x in f.coeffs))
    for q in _PRIMES:
        if bad % q == 0:
            continue
        gq = _poly_mod(g, q)
        t = pow(s, -1, q)
        if _charpoly_mod([[x * t for x in row] for row in rows], q) != \
                gf_pow(gq, e, q, ZZ):
            return False
        if all(gf_gcd(gq, _poly_mod(f, q), q, ZZ) == [1] for f in others):
            return True
    return False


def _poly_mod(f, q):
    """The UniPoly f mod q, highest degree first (sympy's gf_ form)."""
    return [x.numerator * pow(x.denominator, -1, q) % q
            for x in reversed(f.coeffs)]


def _charpoly_mod(rows, q):
    """Characteristic polynomial mod a prime q of a square integer matrix,
    highest degree first: a reduction to upper Hessenberg form H by
    elimination, then the recurrence
    p_k = (x - H[k][k]) p_(k-1) - sum_i H[i][k] H[i+1][i] ... H[k][k-1] p_i
    over the leading blocks (Cohen, A Course in Computational Algebraic
    Number Theory, 1993, section 2.2.4).  Each reduction step is a
    similarity over Z/q, so the result is exact mod q; a pivot with no
    inverse mod q, which a prime q rules out, raises ValueError.

    Both steps combine whole vectors, so each vector is packed into one
    Python integer, a slot of w bytes per entry, and a combination is a few
    big-integer products and sums rather than one interpreted operation per
    entry.  A column of the matrix holds row r in slot n - 1 - r, so that
    the rows a step eliminates are its low slots.  Slots are reduced mod q
    only where an entry is read; the others stay nonnegative and grow by
    less than q^2 a step, and 2^(8 w) > 2 n^2 q^3 holds every sum the steps
    form.  The entries of column k - 1 below row k are left as they are,
    not cleared: no later step and not the recurrence reads them."""
    n = len(rows)
    if not n:
        return [1]
    w = (3 * q.bit_length() + 2 * n.bit_length() + 8) // 8
    W = 8 * w
    mask = (1 << W) - 1
    cols = [_pack([int(row[j]) % q for row in reversed(rows)], w)
            for j in range(n)]
    for k in range(1, n - 1):
        # clear column k - 1 below row k by rows from row k, then undo each
        # row operation on the columns (a similarity)
        col = _unpack(cols[k - 1], n, w)[::-1]
        piv = next((i for i in range(k, n) if col[i] % q), None)
        if piv is None:
            continue
        sk = W * (n - 1 - k)            # the slot of row k
        if piv != k:
            sp = W * (n - 1 - piv)
            for j in range(k - 1, n):
                c = cols[j]
                x, y = c >> sk & mask, c >> sp & mask
                cols[j] = c + (y - x << sk) + (x - y << sp)
            cols[k], cols[piv] = cols[piv], cols[k]
            col[k], col[piv] = col[piv], col[k]
        t = pow(col[k], -1, q)
        mults = [(i, col[i] * t % q) for i in range(k + 1, n) if col[i] % q]
        if not mults:
            continue
        # row i -= u row k for i > k, as + (q - u) row k, from slot n - 1 - i
        negs = [0] * (n - 1 - k)
        for i, u in mults:
            negs[n - 1 - i] = q - u
        neg = _pack(negs, w)
        for j in range(k, n):
            c = cols[j]
            x = (c >> sk & mask) % q
            if x:
                cols[j] = c + x * neg
        # column k += u column i
        c = cols[k] + sum(u * cols[i] for i, u in mults)
        cols[k] = _pack([x % q for x in _unpack(c, n, w)], w)
    h = list(zip(*(_unpack(c, n, w)[::-1] for c in cols)))
    # the charpolys of the leading blocks, packed lowest degree first
    polys = [1]
    for k in range(n):
        c = (polys[k] << W) + (-h[k][k] % q) * polys[k]
        t = 1
        for i in range(k - 1, -1, -1):
            t = t * h[i + 1][i] % q
            if not t:
                break
            u = h[i][k] * t % q
            if u:
                c += (q - u) * polys[i]
        polys.append(_pack([x % q for x in _unpack(c, k + 2, w)], w))
    return _unpack(polys[n], n + 1, w)[::-1]


def _pack(values, w):
    """The nonnegative integers values, each below 2^(8 w), as one integer
    with values[i] in bytes i w to (i + 1) w."""
    return int.from_bytes(b"".join(x.to_bytes(w, "little") for x in values),
                          "little")


def _unpack(x, n, w):
    """The n values of _pack(values, w) == x."""
    b = x.to_bytes(n * w, "little")
    return [int.from_bytes(b[i:i + w], "little") for i in range(0, n * w, w)]


def seeded_random_combination(ops, seed=0):
    """Deterministic small-integer combination of matrices (xorshift64*)."""
    if not ops:
        raise ValueError("empty operator list")
    rng = XorShift64(seed)
    out = mat_scale(ops[0], rat(rng.randint(1, 9)))
    for op in ops[1:]:
        out = mat_add(out, mat_scale(op, rat(rng.randint(1, 9))))
    return out
