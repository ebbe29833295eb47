"""Exact linear algebra over the rationals.

A matrix is a pair (den, rows): den a positive int and rows a list of
dicts, one per row, mapping a column to a nonzero int, for the matrix
rows / den.  Matrices act on column vectors; a basis is the matrix whose
rows are its vectors.  Every routine returns the pair in normal form, den
the least (normalize), so equal matrices are equal pairs.  The number of
columns is not stored: a routine that needs it for a matrix that need not
be square takes it as an argument.  Fractions appear only where rationals
leave the integers: in echelon's pivots, in _rational_lift and in the
polynomials charpoly returns.

One sparse Gauss-Jordan (echelon) serves kernels and spaces.build_space.
Products, restriction and Horner evaluation run on the integer rows, with
one product routine (_mul_rows).  charpoly works modulo primes near 2^60;
primary_components and cut_space work modulo primes near 2^61 (_PRIMES),
lift by rational reconstruction and check the lift exactly.  All of it runs
on plain Python integers: one Hessenberg reduction mod a prime
(_charpoly_mod) serves charpoly and the certificate of primary_components,
and one packed elimination mod a prime (_rref_mod) serves cut_space.
"""

from collections import defaultdict
from functools import cache
from itertools import count
from math import gcd, isqrt, lcm

from .backend import rat, prev_prime, XorShift64
from .polys import UniPoly, _pack, _unpack, gf_gcd, gf_mul, gf_pow


def normalize(den, rows):
    """The matrix rows / den, for sparse integer rows and den > 0, as the
    pair (den, rows) with den the least: the common factor of den and every
    entry divided out."""
    g = gcd(den, *(x for row in rows for x in row.values())) if den > 1 else 1
    if g == 1:
        return den, rows
    return den // g, [{j: x // g for j, x in row.items()} for row in rows]


def from_columns(den, cols, nrows):
    """The matrix with nrows rows whose columns are the sparse integer
    columns cols over den."""
    return normalize(den, _transpose_rows(cols, nrows))


def _int_rows(rows):
    """The matrix of sparse rows of ints and Fractions: d the lcm of the
    denominators, which is the least, and the rows times d."""
    d = lcm(*(x.denominator for row in rows for x in row.values()))
    return d, [{j: x.numerator * (d // x.denominator)
                for j, x in row.items()} for row in rows]


def _mul_rows(a, b):
    """The product a b of sparse integer matrices given by their rows."""
    out = []
    for ra in a:
        acc = {}
        for k, x in ra.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: z for j, z in acc.items() if z})
    return out


def _transpose_rows(rows, ncols):
    out = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def mat_mul(a, b):
    (da, ra), (db, rb) = a, b
    return normalize(da * db, _mul_rows(ra, rb))


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


def kernel(m, ncols):
    """Basis of {v : m v = 0} for a matrix m with ncols columns: for each
    free column j in turn, v[j] = 1 and v[c] = -red[r][j] at the pivot
    column c of row r of the reduced form (echelon, Gauss-Jordan over Q)."""
    red, pivots = echelon(m[1])
    vectors = {j: {j: 1} for j in sorted(set(range(ncols)) - set(pivots))}
    for p, row in zip(pivots, red):
        for j in row.keys() - {p}:
            vectors[j][p] = -row[j]
    return _int_rows(list(vectors.values()))


def _unit_columns(basis):
    """For each basis vector i, the first column that is e_i (basis[i] holds
    1 there and every other vector 0).  A vector's coordinates in the basis
    are its entries at these columns.  Kernels carry one at each free column
    and a product W * basis keeps them, so every basis the pipeline builds
    has them."""
    den, rows = basis
    only = {}   # column -> the row of its single nonzero entry 1, else None
    for i, row in enumerate(rows):
        for j, x in row.items():
            only[j] = i if j not in only and x == den else None
    cols = {}
    for j in sorted(only):
        if only[j] is not None:
            cols.setdefault(only[j], j)
    if len(cols) != len(rows):
        raise ValueError("some basis vector has no unit column")
    return [cols[i] for i in range(len(rows))]


def restrict_to_invariant_subspace(m, basis):
    """Matrix R of the square m in the coordinates of an m-invariant basis
    B (column j holds those of m * basis[j]): the rows of m B^t at B's unit
    columns, checked against B^t R = m B^t, ValueError where that fails.
    The products run over the integers: with m = a / d and B = b / c,
    a b^t is d c m B^t, its rows at the unit columns are d c R, and the
    check reads b^t (d c R) = c a b^t."""
    (d, a), (c, b) = m, basis
    bt = _transpose_rows(b, len(a))
    abt = _mul_rows(a, bt)
    r = [abt[j] for j in _unit_columns(basis)]
    if _mul_rows(bt, r) != [{j: c * x for j, x in row.items()}
                            for row in abt]:
        raise ValueError("basis is not invariant under the matrix")
    return normalize(d * c, r)


def charpoly(m):
    """Characteristic polynomial det(xI - m) of a square matrix m.

    With m = a / d, the coefficient of x^(n-i) is c_i / d^i, for
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
    d, a = m
    bound = 2 * _coefficient_bound(a)
    res, mod = [0] * (len(a) + 1), 1
    for i in count():
        q = _charpoly_prime(i)
        t = pow(mod, -1, q)
        res = [x + mod * ((y - x) * t % q)
               for x, y in zip(res, _charpoly_mod(a, q))]
        mod *= q
        if mod > bound:
            break
    return UniPoly([rat(x - mod if 2 * x > mod else x, d ** i)
                    for i, x in enumerate(res)][::-1])


def _coefficient_bound(a):
    """max_i e_i(|r_1|, ..., |r_n|), the elementary symmetric functions of
    the Euclidean norms of the rows of the square sparse integer matrix a,
    rounded up, or of its columns, whichever is less."""
    def largest_e(vectors):
        e = [1]     # e_0, e_1, ... of the norms so far
        for v in vectors:
            s = sum(x * x for x in v.values())
            if s:
                r = isqrt(s - 1) + 1
                e = [x + r * y for x, y in zip(e + [0], [0] + e)]
        return max(e)
    return min(largest_e(a), largest_e(_transpose_rows(a, len(a))))


@cache
def _charpoly_prime(i):
    """The i-th prime below 2^60, counted down from 2^60."""
    return prev_prime(_charpoly_prime(i - 1) if i else 2 ** 60)


def mat_poly_eval(f, m):
    """f(m) for a UniPoly f and a square matrix m."""
    d, a = m
    e, h = _scaled_coeffs(f, d)
    return normalize(e, _horner([{i: 1} for i in range(len(a))], a, h))


def _scaled_coeffs(f, d):
    """(e, h): integers h, highest degree first, with
    f(a / d) = (h_0 a^n + h_1 a^(n-1) + ... + h_n) / e for n = deg f,
    as f(a / d) = d^-n sum_i f_i d^(n-i) a^i."""
    cs = [c * d ** i for i, c in enumerate(f.coeffs[::-1])]
    e = lcm(*(c.denominator for c in cs))
    return (e * d ** max(f.degree, 0),
            [c.numerator * (e // c.denominator) for c in cs])


def _horner(b, a, h):
    """The sparse integer rows of b (h_0 a^n + h_1 a^(n-1) + ... + h_n),
    for sparse integer rows b and a and integers h, by Horner's rule."""
    out = [{} for _ in b]
    for c in h:
        out = _mul_rows(out, a)
        if c:
            for row, brow in zip(out, b):
                for j, x in brow.items():
                    if z := row.get(j, 0) + c * x:
                        row[j] = z
                    else:
                        del row[j]
    return out


# the moduli of primary_components, primes 2^61 - d in decreasing order; at
# most this many are tried before it gives up
_PRIMES = tuple(2 ** 61 - d for d in (
    1, 31, 45, 229, 259, 283, 339, 391, 403, 465, 531, 579,
    675, 759, 799, 819, 829, 843, 859, 939, 985, 1015, 1153, 1195))


def primary_components(m, factors, seed=0):
    """For the factorization [(g, e), ...] of charpoly(m) into powers of
    distinct monic irreducibles, the bases of the components ker g(m)^e, each
    the matrix kernel(g(m)^e) returns: the reduced echelon basis whose
    vectors end in a 1 at distinct columns, where every other vector is 0.

    Mod a prime p near 2^61, the component is spanned by v, m v, m^2 v, ...
    for v = h(m) u, h the product of the other factors to their exponents
    and u random; where m is not cyclic, further vectors u fill it.  The
    echelon basis mod p is lifted by rational reconstruction, over more
    primes by CRT where that fails.  A lift W is certified exactly
    (_is_component): m leaves W invariant and has charpoly g^e on it, so W
    lies in ker g(m)^e, has its dimension e deg g, and is that space; and a
    subspace has one reduced echelon basis, so the result depends on neither
    the primes nor the seed.  RuntimeError when the primes run out."""
    den, a = m
    rows = [list(row.items()) for row in a]
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
            lifts[i] = _crt(lifts.get(i), pivots, [span[j] for j in pivots],
                            p)
            W = _rational_lift(*lifts[i][1:])
            others = [f for j, (f, _) in enumerate(factors) if j != i]
            if W is not None and _is_component(m, W, g, e, others):
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
    c = pow(den, -1, p)
    rows = [[(j, x * c % p) for j, x in row] for row in rows]
    n = len(rows)

    def apply(v):
        return [sum(x * v[j] for j, x in row) % p for row in rows]

    powers = [gf_pow(_poly_mod(g, p), e, p) for g, e in factors]
    dims = {i: len(powers[i]) - 1 for i in todo}      # e deg g
    hs = {}
    for i in todo:
        h = [1]
        for j, f in enumerate(powers):
            if j != i:
                h = gf_mul(h, f, p)
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


def cut_space(V, ops, d):
    """The reduced echelon basis (rows with a 1 at distinct pivot columns,
    their first nonzero entries, where every other row is 0) of
    D = {v in the row span of V : v g(T) = 0 for the first k pairs (T, g)},
    for the least k at which D has dimension d, the pairs (T, g) of a
    square matrix T and a UniPoly g drawn in turn from the iterable ops.
    V's span must be invariant under right multiplication by each T
    (restrict_to_invariant_subspace checks it exactly, ValueError
    otherwise), and contain a subspace of dimension d that every g(T)
    kills.

    In the coordinates x of v = x V, v g(T) = 0 reads g(R) x^t = 0 for R
    the matrix of T^t on V.  Mod a prime q of _PRIMES, with the rows of K a
    basis of the kernel found so far, each pair cuts it by the kernel of
    g(R) K^t (_horner_mod, _kernel_mod) until it has dimension d; the rows
    of K V, in reduced echelon form mod q, are lifted by rational
    reconstruction, over more primes by CRT where that fails.  Each lifted
    v is then checked exactly: v is in the span of V and v g(T) = 0 for the
    k pairs used, by sparse vector-matrix products.  That suffices: a rank
    can only drop mod q, so D has dimension at most d, and d independent
    vectors of D span it.  RuntimeError when the primes run out."""
    dv, v_rows = V
    m = len(v_rows)
    units = _unit_columns(V)
    ncols = max(map(max, v_rows)) + 1   # the columns of D's nonzeros
    ops = iter(ops)
    conds = []      # per pair taken: R = r / s and T = t / dt, with g's h

    def condition(i):
        """(r, hr, t, ht) for the i-th pair: g(R) is a multiple of
        sum_j hr_j r^(n-j), and v g(T) = 0 exactly when _horner([v], t, ht)
        is 0."""
        if i == len(conds):
            (dt, t), g = next(ops)
            s, r = restrict_to_invariant_subspace(
                (dt, _transpose_rows(t, len(t))), V)
            conds.append((r, _scaled_coeffs(g, s)[1],
                          t, _scaled_coeffs(g, dt)[1]))
        return conds[i]

    lift = None
    for q in _PRIMES:
        if dv % q == 0:
            continue
        K = [[int(i == j) for j in range(m)] for i in range(m)]
        used = 0
        try:
            while len(K) > d:
                r, hr = condition(used)[:2]
                used += 1
                M = _horner_mod(r, hr, [list(c) for c in zip(*K)], q)
                K = _mul_mod(_kernel_mod(M, len(K), q), K, q)
        except StopIteration:
            pass
        if len(K) != d:
            continue
        rows = _mul_rows([dict(enumerate(row)) for row in K], v_rows)
        pivots, res = _rref_mod([[row.get(j, 0) % q for j in range(ncols)]
                                 for row in rows], q)
        lift = _crt(lift, pivots, res, q)
        W = _rational_lift(*lift[1:])
        if W is None:
            continue
        w = W[1]
        # v's coordinates in V are its entries at V's unit columns
        x = [{k: row[j] for k, j in enumerate(units) if j in row} for row in w]
        if _mul_rows(x, v_rows) == [{j: dv * y for j, y in row.items()}
                                    for row in w] and \
                all(not any(_horner(w, t, ht))
                    for _, _, t, ht in conds[:used]):
            return W
    raise RuntimeError("dual space not found at %d primes" % len(_PRIMES))


def _horner_mod(r, h, X, q):
    """The rows of (h_0 R^n + h_1 R^(n-1) + ... + h_n) X mod the prime q,
    for R given by sparse integer rows r, X by rows of residues and
    integers h, by Horner's rule on rows packed as in _rref_mod: a row of
    R Y + c X is one sum of big-integer products, its slots below
    (len(r) + 1) q^2, reduced mod q after each step."""
    n = len(X[0])
    w = (2 * q.bit_length() + (len(r) + 1).bit_length() + 8) // 8
    xs = [_pack(row, w) for row in X]
    out = [0] * len(X)
    for c in h:
        out = [_pack([x % q for x in _unpack(
            sum(x % q * out[k] for k, x in row.items()) + c % q * xr, n, w)],
            w) for row, xr in zip(r, xs)]
    return [_unpack(y, n, w) for y in out]


def _mul_mod(a, b, q):
    """The rows of a b mod the prime q, for sparse integer rows a and rows
    b of residues.  The rows of b are packed as in _rref_mod, so a row of
    a b is one sum of big-integer products, its slots below len(b) q^2."""
    n = len(b[0]) if b else 0
    w = (2 * q.bit_length() + len(b).bit_length() + 8) // 8
    bs = [_pack(row, w) for row in b]
    return [[x % q for x in _unpack(sum(x % q * bs[k] for k, x in row.items()),
                                    n, w)] for row in a]


def _kernel_mod(rows, ncols, q):
    """A basis of {y : rows y = 0 mod q} for rows of residues, as sparse
    rows: for each free column j of the reduced echelon form red, y_j = 1,
    y_c = -red[r][j] at the pivot c of row r and 0 elsewhere."""
    pivots, red = _rref_mod(rows, q)
    return [{j: 1, **{c: q - row[j] for c, row in zip(pivots, red) if row[j]}}
            for j in sorted(set(range(ncols)) - set(pivots))]


def _rref_mod(rows, q):
    """(pivots, red): the pivot columns and the nonzero rows of the reduced
    row echelon form mod the prime q of rows of residues.

    Each row is packed into one integer, entry j in slot j of w bytes, as
    in _charpoly_mod, so clearing an entry x is one big-integer
    multiply-add by q - x.  Pivot rows are stored reduced mod q, so a row
    cleared by r of them has slots below (r + 1) q^2 < 2^(8 w)."""
    ncols = len(rows[0]) if rows else 0
    w = (2 * q.bit_length() + ncols.bit_length() + 8) // 8
    W = 8 * w
    mask = (1 << W) - 1
    piv = {}        # pivot column -> packed row, reduced, 1 at the column
    for row in rows:
        r = _pack(row, w)
        for c, prow in piv.items():
            if x := (r >> W * c & mask) % q:
                r += (q - x) * prow
        vals = [x % q for x in _unpack(r, ncols, w)]
        c = next((j for j, x in enumerate(vals) if x), None)
        if c is not None:
            t = pow(vals[c], -1, q)
            piv[c] = _pack([x * t % q for x in vals], w)
    # each pivot row is 0 at the pivots found before it; clear the later
    # ones, last row first, so that each row used is reduced
    order = list(piv)
    for i in range(len(order) - 1, -1, -1):
        r = piv[order[i]]
        for c in order[i + 1:]:
            if x := (r >> W * c & mask) % q:
                r += (q - x) * piv[c]
        piv[order[i]] = _pack([x % q for x in _unpack(r, ncols, w)], w)
    pivots = sorted(piv)
    return pivots, [_unpack(piv[c], ncols, w) for c in pivots]


def _crt(lift, pivots, rows, p):
    """(pivots, residue rows, modulus) for residue rows mod the prime p of a
    reduced echelon basis with these pivot columns, combined by CRT with
    lift, the same triple from earlier primes, where its pivots are these.
    Residues of another echelon shape start afresh: one of the primes was
    bad for this basis."""
    if lift is None or lift[0] != pivots:
        return pivots, rows, p
    _, old, q = lift
    t = pow(q, -1, p)
    return pivots, [[x + q * ((y - x) * t % p) for x, y in zip(r, s)]
                    for r, s in zip(old, rows)], q * p


def _rational_lift(rows, mod):
    """The matrix of the rationals r/s with |r|, s <= sqrt(mod/2) congruent
    to the entries mod mod, or None where one has none."""
    bound = isqrt(mod // 2)
    out = []
    for row in rows:
        lifted = {}
        for j, x in enumerate(row):
            r0, r1, s0, s1 = mod, x, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if abs(s1) > bound or gcd(r1, s1) != 1:
                return None
            if r1:
                lifted[j] = rat(r1, s1)
        out.append(lifted)
    return _int_rows(out)


def _is_component(m, W, g, e, others):
    """Whether the span of the basis W is ker g(m)^e, for charpoly(m) the
    product of g^e and powers of the irreducible factors others.

    m must leave W invariant (checked exactly) with e deg g vectors in W;
    then the charpoly c of the restriction R = r / s divides
    charpoly(m), so c = g^a h for h a product of factors in others, and
    c = g^e exactly when h = 1.  That is read mod a prime q of _PRIMES
    dividing neither s nor a denominator of g or others: c mod q, the
    charpoly of r s^-1 mod q (_charpoly_mod), must be g^e mod q, else
    c != g^e; and where g is coprime to every other factor mod q, the
    factor h mod q of g^e mod q is a constant, so the monic h is 1.  A q
    where g meets another factor mod q proves nothing, and the next one is
    tried."""
    if len(W[1]) != e * g.degree:
        return False
    try:
        s, r = restrict_to_invariant_subspace(m, W)
    except ValueError:
        return False
    bad = lcm(s, *(x.denominator for f in [g] + others for x in f.coeffs))
    for q in _PRIMES:
        if bad % q == 0:
            continue
        gq = _poly_mod(g, q)
        t = pow(s, -1, q)
        rt = [{j: x * t for j, x in row.items()} for row in r]
        if _charpoly_mod(rt, q) != gf_pow(gq, e, q):
            return False
        if all(gf_gcd(gq, _poly_mod(f, q), q) == [1] for f in others):
            return True
    return False


def _poly_mod(f, q):
    """The UniPoly f mod q, highest degree first (the gf_ form of polys)."""
    return [x.numerator * pow(x.denominator, -1, q) % q
            for x in reversed(f.coeffs)]


def _charpoly_mod(rows, q):
    """Characteristic polynomial mod a prime q of a square matrix of sparse
    integer rows, highest degree first: a reduction to upper Hessenberg
    form H by elimination, then the recurrence
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
    cols = [_pack([row.get(j, 0) % q for row in reversed(rows)], w)
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


def seeded_random_combination(ops, seed=0):
    """Deterministic small-integer combination of matrices of one shape
    (xorshift64*)."""
    if not ops:
        raise ValueError("empty operator list")
    rng = XorShift64(seed)
    den = lcm(*(d for d, _ in ops))
    out = [{} for _ in ops[0][1]]
    for d, rows in ops:
        c = rng.randint(1, 9) * (den // d)
        for acc, row in zip(out, rows):
            for j, x in row.items():
                acc[j] = acc.get(j, 0) + c * x
    return normalize(den, [{j: x for j, x in acc.items() if x}
                           for acc in out])
