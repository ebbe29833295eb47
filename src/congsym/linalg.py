"""Exact linear algebra over the rationals and Q[x].

Matrices are lists of row lists acting on column vectors; vectors are lists.
Entries are elements of sympy's QQ (backend.rat), so each routine only
changes format: the rows become a sparse sympy DomainMatrix over QQ and its
result becomes rows again.  det_poly_matrix works over Q[x] with UniPoly
entries.
"""

from sympy import QQ, ZZ, Symbol
from sympy.polys.densetools import dup_clear_denoms
from sympy.polys.matrices import DomainMatrix

from .backend import ONE, rat, XorShift64
from .polys import UniPoly

_QX = QQ[Symbol("x")]


def _dm(rows, K=QQ):
    dod = {i: nz for i, row in enumerate(rows)
           if (nz := {j: x for j, x in enumerate(row) if x})}
    return DomainMatrix(dod, (len(rows), len(rows[0]) if rows else 0), K)


def _lists(a):
    """Rows of a, written from its nonzero entries into rows that share one
    zero."""
    nrows, ncols = a.shape
    rows = [[a.domain.zero] * ncols for _ in range(nrows)]
    for i, nz in a.to_sdm().items():
        for j, y in nz.items():
            rows[i][j] = y
    return rows


def identity_matrix(n):
    z = ONE * 0
    return [[ONE if i == j else z for j in range(n)] for i in range(n)]


def zero_matrix(n, m):
    z = ONE * 0
    return [[z] * m for _ in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return [[] for _ in a]
    return _lists(_dm(a) * _dm(b))


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
    red, pivots = _dm(rows).rref()
    return _lists(red), list(pivots)


def kernel(rows, sparse=False):
    """Basis of {v : rows v = 0}: for each free column j in turn, v[j] = 1 and
    v[c] = -red[r][j] at the pivot column c of row r of the reduced form.
    sparse=True reduces by Gauss-Jordan over the field, which suits the
    Manin-symbol matrices (a few small nonzeros per row, little fill-in);
    sympy's own choice clears denominators and eliminates fraction-free,
    which suits dense matrices.  The reduced form is the same either way."""
    red, pivots = _dm(rows).rref(method="GJ" if sparse else "auto")
    return _lists(red.nullspace_from_rref(pivots))


def kernel_of_rows(rows):
    """Basis of {c : sum_i c_i * rows[i] = 0} (left kernel)."""
    return kernel(transpose(rows))


def row_space_basis(rows):
    red, pivots = rref(rows)
    return red[: len(pivots)]


def mat_rank(rows):
    return _dm(rows).rank()


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
    bt = _dm(basis).transpose()
    mbt = _dm(m) * bt
    r = mbt.extract(_unit_columns(basis), list(range(d)))
    if bt * r != mbt:
        raise ValueError("basis is not invariant under the matrix")
    return _lists(r)


def charpoly(m):
    """Characteristic polynomial det(xI - m)."""
    return UniPoly(reversed(_dm(m).charpoly()))


def mat_poly_eval(f, m):
    """f(m) for a UniPoly f and a rational matrix m.  The Horner steps run on
    integers: for m = a/d and n = deg f, f(m) = d^-n sum_i f_i d^(n-i) a^i."""
    coeffs = f.coeffs[::-1]
    d, a = _dm(m).clear_denoms(convert=True)
    d = d.element
    e, h = dup_clear_denoms([c * d ** i for i, c in enumerate(coeffs)],
                            QQ, ZZ, convert=True)
    fm = a.eval_poly(h).to_field() / QQ(e * d ** max(f.degree, 0))
    return _lists(fm)


def det_poly_matrix(m):
    """Determinant of a square matrix with UniPoly entries, over Q[x]."""
    rows = [[_QX.ring.from_list(f.coeffs[::-1]) for f in row] for row in m]
    return UniPoly(_dm(rows, _QX).det().to_dense()[::-1])


def seeded_random_combination(ops, seed=0):
    """Deterministic small-integer combination of matrices (xorshift64*)."""
    if not ops:
        raise ValueError("empty operator list")
    rng = XorShift64(seed)
    n = len(ops[0])
    out = zero_matrix(n, len(ops[0][0]) if n else 0)
    for op in ops:
        c = rng.randint(1, 9)
        out = mat_add(out, mat_scale(op, rat(c)))
    return out
