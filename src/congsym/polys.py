"""Univariate polynomials over the rationals, factorization, number fields.

Polynomials are coefficient lists, lowest degree first, trailing coefficient
nonzero ([] is the zero polynomial).  Number field elements are coordinate
vectors modulo a monic irreducible polynomial.  Polynomials over Z/q are
lists of residues highest degree first (the gf_ form): gf_mul, gf_pow,
gf_div and gf_gcd, and gf_ddf, the distinct-degree factorization mod a
prime.  factor_rational_poly first tries to prove f irreducible mod a few
small primes by gf_ddf; only where none does is f factored over Z by the
zassenhaus module, imported at that point.
"""

from math import lcm

from .backend import rat


class UniPoly:
    """Polynomial over the rationals, coefficients lowest-degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if not isinstance(c, int) else rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = UniPoly([other])
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else rat(0)

    def __add__(self, other):
        if isinstance(other, int):
            other = UniPoly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        if isinstance(other, int):
            other = UniPoly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[i] - other[i] for i in range(n)])

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int) or not isinstance(other, UniPoly):
            return UniPoly([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [rat(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        result = UniPoly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        if len(rem) <= d:
            return UniPoly(), UniPoly(rem)
        quo = [rat(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            quo[i - d] = q
            for j in range(d + 1):
                rem[i - d + j] -= q * other.coeffs[j]
        return UniPoly(quo), UniPoly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def to_str(self, var="x"):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                xs = var if i == 1 else "%s^%d" % (var, i)
                if c == 1:
                    term = xs
                elif c == -1:
                    term = "-" + xs
                else:
                    term = "%s*%s" % (c, xs)
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def __repr__(self):
        return "UniPoly(%s)" % self.to_str()


# the primes factor_rational_poly tries, in turn, for a proof that f is
# irreducible before it factors f over Z
CERTIFICATE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def factor_rational_poly(f):
    """Factor a nonzero rational polynomial into monic irreducibles.

    Returns a list of (UniPoly, multiplicity), by degree and then by
    coefficients; the product of the factors to their multiplicities equals
    f up to a rational scalar.  f is cleared to an integer polynomial g.
    Where g is irreducible mod one of CERTIFICATE_PRIMES not dividing its
    leading coefficient (_irreducible_mod), f is irreducible: a factorization
    over Q gives one over Z (Gauss), and that one, of the same degrees, one
    mod p.  Otherwise g is factored over Z by zassenhaus.factor_zz, imported
    at that point.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.degree == 0:
        return []
    d = lcm(*(c.denominator for c in f.coeffs))
    g = [c.numerator * (d // c.denominator) for c in reversed(f.coeffs)]
    if f.degree == 1 or any(g[0] % p and _irreducible_mod(g, p)
                            for p in CERTIFICATE_PRIMES):
        return [(UniPoly([c / f.coeffs[-1] for c in f.coeffs]), 1)]
    from .zassenhaus import factor_zz
    out = [(UniPoly([rat(c, h[0]) for c in reversed(h)]), m)
           for h, m in factor_zz(g)]
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def _irreducible_mod(g, p):
    """Whether the integer polynomial g (gf_ form), its leading coefficient
    prime to p, is irreducible mod the prime p: whether the first factor
    gf_ddf yields is g itself."""
    t = pow(g[0], -1, p)
    return next(gf_ddf([c * t % p for c in g], p))[0] == len(g) - 1


def gf_ddf(f, p):
    """The distinct-degree factorization of a monic f of degree n >= 1 over
    Z/p, p prime, in gf_ form: yields (k, g_k) for the k = 1, 2, ... where
    g_k = gcd(x^(p^k) - x, f / (g_1 ... g_(k-1))) is not 1, and lastly what
    is left of f, of its own degree.  x^(p^k) - x is the product of the
    monic irreducibles over Z/p of degree dividing k, so for a square-free
    f each g_k is the product of its irreducible factors of degree k.  A
    polynomial of degree m that is reducible or has a repeated factor has
    an irreducible factor of degree at most m/2; so what is left once 2 k
    exceeds its degree is irreducible, and f is irreducible exactly when the
    first yield is (n, f).  The powers x^(p^k) are taken mod f itself
    (_gf_mulmod), and no step is taken before the caller asks for it."""
    mulmod = _gf_mulmod(f, p)
    h, k = [1, 0], 1
    while 2 * k < len(f):
        h = _gf_powmod(h, p, mulmod)        # x^(p^k) mod the first f
        hx = [0] * (2 - len(h)) + h         # x^(p^k) - x
        hx[-2] = (hx[-2] - 1) % p
        g = gf_gcd(f, _gf_strip(hx), p)
        if len(g) > 1:
            yield k, g
            f = gf_div(f, g, p)[0]
        k += 1
    if len(f) > 1:
        yield len(f) - 1, f


def _gf_strip(f):
    """f without its leading zeros."""
    i = next((i for i, c in enumerate(f) if c), len(f))
    return f[i:]


def _pack(values, w):
    """The nonnegative integers values, each below 2^(8 w), as one integer
    with values[i] in bytes i w to (i + 1) w."""
    return int.from_bytes(b"".join(x.to_bytes(w, "little") for x in values),
                          "little")


def _unpack(x, n, w):
    """The n values of _pack(values, w) == x."""
    b = x.to_bytes(n * w, "little")
    return [int.from_bytes(b[i:i + w], "little") for i in range(0, n * w, w)]


def gf_mul(f, g, q):
    """f g over Z/q in gf_ form: residues highest degree first, leading one
    nonzero, [] for zero.  Both are packed as in _pack, so the product is
    one big-integer product, its slots below min(len f, len g) q^2."""
    if not f or not g:
        return []
    w = (2 * q.bit_length() + min(len(f), len(g)).bit_length() + 7) // 8
    return _gf_strip([c % q for c in _unpack(
        _pack(f, w) * _pack(g, w), len(f) + len(g) - 1, w)])


def gf_pow(f, e, q):
    """f^e over Z/q, for a small exponent e >= 0."""
    out = [1]
    for _ in range(e):
        out = gf_mul(out, f, q)
    return out


def gf_div(f, g, q):
    """The quotient and remainder of f by g over Z/q, for a g whose leading
    coefficient is a unit mod q (q need not be prime)."""
    f = list(f)
    n = len(g) - 1
    t = pow(g[0], -1, q)
    for i in range(len(f) - n):
        c = f[i] = f[i] * t % q
        if c:
            for j in range(1, n + 1):
                f[i + j] = (f[i + j] - c * g[j]) % q
    k = max(len(f) - n, 0)
    return f[:k], _gf_strip(f[k:])


def gf_gcd(f, g, q):
    """The monic greatest common divisor of f and g over Z/q ([] for
    f = g = 0)."""
    while g:
        f, g = g, gf_div(f, g, q)[1]
    if not f:
        return []
    t = pow(f[0], -1, q)
    return [c * t % q for c in f]


def _gf_mulmod(f, p):
    """The product mod a monic f of degree n >= 1 over Z/p, as a function
    of two residue lists of degree below n.  The rows x^n, ..., x^(2n-2)
    mod f are packed lowest degree first and built by x r = (r shifted)
    + (its coefficient of x^(n-1)) x^n, with slots reduced only where read,
    so each row is below n p^2 a slot.  A product is then one big-integer
    product and a sum of its n - 1 top coefficients times the rows: slots
    below n^2 p^3 + n p^2 < 2^(8 w)."""
    n = len(f) - 1
    w = (3 * p.bit_length() + 2 * n.bit_length() + 9) // 8
    W, top = 8 * w, 8 * w * (n - 1)
    rows = [_pack([-c % p for c in f[:0:-1]], w)]
    low = (1 << W * n) - 1
    for _ in range(n - 2):
        r = rows[-1]
        rows.append((r << W & low) + (r >> top) % p * rows[0])

    def mulmod(a, b):
        if not a or not b:
            return []
        c = _unpack(_pack(a[::-1], w) * _pack(b[::-1], w),
                    len(a) + len(b) - 1, w)
        c = _pack(c[:n], w) + sum(x % p * r for x, r in zip(c[n:], rows))
        return _gf_strip([x % p for x in _unpack(c, n, w)][::-1])
    return mulmod


def _gf_powmod(f, e, mulmod):
    """f^e by repeated squaring with mulmod (_gf_mulmod)."""
    out = [1]
    while e:
        if e & 1:
            out = mulmod(out, f)
        e >>= 1
        if e:
            f = mulmod(f, f)
    return out


def is_irreducible_poly(f):
    if f.degree < 1:
        return False
    facs = factor_rational_poly(f)
    return len(facs) == 1 and facs[0][1] == 1


class NumberField:
    """Q[x]/(modulus) for a monic irreducible modulus over Q."""

    def __init__(self, modulus, var="a"):
        if not modulus.coeffs or modulus.coeffs[-1] != 1:
            raise ValueError("modulus must be monic")
        self.modulus = modulus
        self.degree = modulus.degree
        self.var = var
        # a^d, ..., a^(2d-2) in the basis 1, a, ..., a^(d-1): the rows that
        # reduce a schoolbook product of two elements
        self._reduction = []
        row = [-c for c in modulus.coeffs[:-1]]
        for _ in range(self.degree - 1):
            self._reduction.append(row)
            # a^(k+1) = a a^k: shift up, and reduce the overflow by a^d
            row = [x + row[-1] * y for x, y in
                   zip([rat(0)] + row[:-1], self._reduction[0])]

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("NumberField", self.modulus))

    def elem(self, coeffs):
        if isinstance(coeffs, (int, type(rat(0)))):
            coeffs = [coeffs]
        cs = [c if not isinstance(c, int) else rat(c) for c in coeffs]
        if len(cs) > self.degree:
            cs = (UniPoly(cs) % self.modulus).coeffs
        cs = list(cs) + [rat(0)] * (self.degree - len(cs))
        return NumberFieldElem(self, cs)

    def one(self):
        return self.elem([1])

    def gen(self):
        return self.elem([0, 1])

    def __repr__(self):
        return "NumberField(%s)" % self.modulus.to_str()


class NumberFieldElem:
    """Element of a NumberField as a coordinate vector of length deg."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, NumberFieldElem):
            if other.field != self.field:
                raise ValueError("number field mismatch")
            return other
        return self.field.elem([other])

    def __eq__(self, other):
        if isinstance(other, NumberFieldElem) and other.field != self.field:
            return False
        return self.coeffs == self._coerce(other).coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        o = self._coerce(other)
        return NumberFieldElem(self.field, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NumberFieldElem(self.field, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return NumberFieldElem(self.field, [-a for a in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, NumberFieldElem):
            return NumberFieldElem(self.field, [a * other for a in self.coeffs])
        o = self._coerce(other)
        zero = rat(0)
        prod = [zero] * (2 * len(self.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        prod[i + j] += a * b
        d = self.field.degree
        low = prod[:d]
        for c, row in zip(prod[d:], self.field._reduction):
            if c:
                low = [x + c * y for x, y in zip(low, row)]
        return NumberFieldElem(self.field, low)

    __rmul__ = __mul__

    def inverse(self):
        # extended Euclid in Q[x] against the modulus
        a = UniPoly(self.coeffs)
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero number field element")
        b = self.field.modulus
        r0, r1 = a, b
        s0, s1 = UniPoly([1]), UniPoly()
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        # r0 = s0*a mod modulus, deg r0 = 0 since modulus irreducible
        c = r0.coeffs[0]
        return self.field.elem([ci / c for ci in s0.coeffs])

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, e):
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def to_str(self):
        return UniPoly(self.coeffs).to_str(self.field.var)

    def __repr__(self):
        return "NFElem(%s)" % self.to_str()

