"""Exact linear algebra over the rationals, number fields and Q[x].

Matrices are lists of row lists acting on column vectors; vectors are lists.
Each routine converts its input once to a sparse sympy DomainMatrix and its
result back, over a domain read off the entries: QQ for backend rationals,
QQ(a) for NumberFieldElem (a the root of the modulus), Q[x] for UniPoly.
The pipeline passes rationals and UniPolys only; QQ(a) serves the tests'
eigenvector references, which solve for eigenvectors over the coefficient
field.
"""

from collections import namedtuple

from sympy import QQ, ZZ, AlgebraicNumber, CRootOf, Symbol
from sympy.polys.densetools import dup_clear_denoms
from sympy.polys.matrices import DomainMatrix

from .backend import ONE, rat, XorShift64
from .polys import UniPoly, NumberFieldElem, _to_sympy

# a sympy domain K with the maps to it from the entries callers use and back
_Domain = namedtuple("_Domain", "K to back")
_RATIONALS = _Domain(QQ, lambda x: QQ(int(x.numerator), int(x.denominator)),
                     lambda q: rat(int(q.numerator), int(q.denominator)))
_to_qq, _from_qq = _RATIONALS.to, _RATIONALS.back
_QX = QQ[Symbol("x")]
_POLYNOMIALS = _Domain(
    _QX, lambda f: _QX.ring.from_list([_to_qq(c) for c in reversed(f.coeffs)]),
    lambda y: UniPoly([_from_qq(c) for c in reversed(y.to_dense())]))


def _domain(*mats):
    """QQ(a) when some entry is a NumberFieldElem, else QQ."""
    field = next((x.field for rows in mats for row in rows for x in row
                  if isinstance(x, NumberFieldElem)), None)
    if field is None:
        return _RATIONALS
    g = _to_sympy(field.modulus, Symbol("x"))
    K = QQ.algebraic_field(AlgebraicNumber((g, CRootOf(g, 0))))

    def to(x):
        cs = x.coeffs if isinstance(x, NumberFieldElem) else [x]
        return K.new([_to_qq(c) for c in reversed(cs)])

    return _Domain(K, to, lambda y: field.elem(
        [_from_qq(c) for c in reversed(y.to_list())]))


def _dm(rows, dom):
    dod = {i: nz for i, row in enumerate(rows)
           if (nz := {j: dom.to(x) for j, x in enumerate(row) if x})}
    return DomainMatrix(dod, (len(rows), len(rows[0]) if rows else 0), dom.K)


def _lists(a, dom):
    """Rows of a, written from its nonzero entries into rows that share one
    zero."""
    zero = dom.back(a.domain.zero)
    nrows, ncols = a.shape
    rows = [[zero] * ncols for _ in range(nrows)]
    for i, nz in a.rep.to_sdm().items():
        for j, y in nz.items():
            rows[i][j] = dom.back(y)
    return rows


def identity_matrix(n, one=ONE):
    z = one * 0
    return [[one if i == j else z for j in range(n)] for i in range(n)]


def zero_matrix(n, m, one=ONE):
    z = one * 0
    return [[z] * m for _ in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return [[] for _ in a]
    dom = _domain(a, b)
    return _lists(_dm(a, dom) * _dm(b, dom), dom)


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


def rref(rows):
    """Reduced row echelon form (zero rows last) and the pivot columns."""
    dom = _domain(rows)
    red, pivots = _dm(rows, dom).rref()
    return _lists(red, dom), list(pivots)


def kernel(rows, sparse=False):
    """Basis of {v : rows v = 0}: for each free column j in turn, v[j] = 1 and
    v[c] = -red[r][j] at the pivot column c of row r of the reduced form.
    sparse=True reduces by Gauss-Jordan over the field, which suits the
    Manin-symbol matrices (a few small nonzeros per row, little fill-in);
    sympy's own choice clears denominators and eliminates fraction-free,
    which suits dense matrices.  The reduced form is the same either way."""
    dom = _domain(rows)
    red, pivots = _dm(rows, dom).rref(method="GJ" if sparse else "auto")
    return _lists(red.nullspace_from_rref(pivots), dom)


def kernel_of_rows(rows):
    """Basis of {c : sum_i c_i * rows[i] = 0} (left kernel)."""
    return kernel(transpose(rows))


def row_space_basis(rows):
    red, pivots = rref(rows)
    return red[: len(pivots)]


def mat_rank(rows):
    return _dm(rows, _domain(rows)).rank()


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
    holds those of m * basis[j]): the rows of m B^t at B's unit columns,
    checked against B^t R = m B^t."""
    d = len(basis)
    if not d:
        return []
    dom = _domain(m, basis)
    bt = _dm(basis, dom).transpose()
    mbt = _dm(m, dom) * bt
    r = mbt.extract(_unit_columns(basis), list(range(d)))
    if bt * r != mbt:
        raise ValueError("basis is not invariant under the matrix")
    return _lists(r, dom)


def charpoly(m):
    """Characteristic polynomial det(xI - m)."""
    dom = _domain(m)
    return UniPoly([dom.back(c) for c in reversed(_dm(m, dom).charpoly())])


def mat_poly_eval(f, m):
    """f(m) for a UniPoly f and a rational matrix m.  The Horner steps run on
    integers: for m = a/d and n = deg f, f(m) = d^-n sum_i f_i d^(n-i) a^i."""
    coeffs = [_to_qq(c) for c in reversed(f.coeffs)]
    d, a = _dm(m, _RATIONALS).clear_denoms(convert=True)
    d = d.element
    e, h = dup_clear_denoms([c * d ** i for i, c in enumerate(coeffs)],
                            QQ, ZZ, convert=True)
    fm = a.eval_poly(h).to_field() / QQ(e * d ** max(f.degree, 0))
    return _lists(fm, _RATIONALS)


def det_poly_matrix(m):
    """Determinant of a square matrix with UniPoly entries, over Q[x]."""
    return _POLYNOMIALS.back(_dm(m, _POLYNOMIALS).det())


def seeded_random_combination(ops, seed=0):
    """Deterministic small-integer combination of matrices (xorshift64*)."""
    if not ops:
        raise ValueError("empty operator list")
    rng = XorShift64(seed)
    n = len(ops[0])
    out = zero_matrix(n, len(ops[0][0]) if n else 0, ONE)
    for op in ops:
        c = rng.randint(1, 9)
        out = mat_add(out, mat_scale(op, rat(c)))
    return out
