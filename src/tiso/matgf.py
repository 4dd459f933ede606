"""Dense linear algebra over F_q.

Matrices wrap int64 numpy arrays of canonical field reps, and every
arithmetic step on them goes through the field's vectorized
:class:`tiso.gf.FieldOps`, so everything here is exact for every field.
Every rank and span question in the library (the Krylov, closure and
algebra-generation ranks of `tiso.conj` too) is an `rref`.  It is one pivot
loop with full-width row operations, `_pivot_loop`, except on a wide matrix
of at least `_WIDE_MIN_ROWS` rows or a tall matrix: there the loop runs only
on a narrow column window or on row blocks, and the bulk of the work is one
`FieldOps.matmul` (rank-profile elimination after Dumas, Giorgi and Pernet,
FFLAS-FFPACK, and Jeannerod, Pernet and Storjohann, 2013).  `det` and
`inverse_det` call the loop directly, since it alone also returns the
determinant, and `rref_stack` runs it over a stack of matrices at once.
Each pivot updates all rows from its column on with one x -= a*b, `isubmul`,
unreduced on prime fields: the loops reduce what they read, the rest every
`FieldOps.headroom` = ⌊(2^63 − 1 − p)/(p − 1)²⌋ columns and all at the end
(pivot columns are zero mod p till then).  The Hessenberg `charpoly` takes
the same update and reduces it at once, since the next step reads it all.
`right_kernel` takes one elimination (`rref_rank_kernel` adds the left
kernel), and `solve_linear` reads the solutions for many right-hand sides and
the kernel off one elimination of [A | b].

The solvers' spectral gate, `unique_simple_eigenvalue`, is matrix products
and eliminations too: A^q by square-and-multiply, then the right and left
kernels of A^q - A; `primary_split_basis` builds its split basis in closed
form from the gate's eigenvector pair, elementwise.  `charpoly` (Hessenberg)
and `eigen_profile` (its F_q-roots through `tiso.poly`) give the full profile
where a caller needs every eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import NotSimpleEigenvalue, ShapeMismatch
from .gf import FieldSpec, as_int
from .poly import Poly, _power, poly, roots_in_Fq


@dataclass
class MatGF:
    """Immutable-by-convention dense matrix over a finite field."""

    field: FieldSpec
    a: np.ndarray  # 2-D array of canonical reps

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

    @property
    def shape(self):
        return self.a.shape

    def __eq__(self, other):
        return (isinstance(other, MatGF) and self.field == other.field
                and self.a.shape == other.a.shape and bool((self.a == other.a).all()))

    def __add__(self, other):
        return MatGF(self.field, self.field.ops.add(self.a, other.a))

    def __sub__(self, other):
        return MatGF(self.field, self.field.ops.sub(self.a, other.a))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeMismatch("matmul shape mismatch")
        return MatGF(self.field, self.field.ops.matmul(self.a, other.a))

    def scale(self, c: int):
        return MatGF(self.field, self.field.ops.mul(self.a, c))

    @property
    def T(self):
        return MatGF(self.field, self.a.T.copy())

    def copy(self):
        return MatGF(self.field, self.a.copy())

    def tolist(self):
        return [[int(x) for x in row] for row in self.a]

    def __repr__(self):
        return f"MatGF({self.tolist()} over {self.field})"


def mat(field: FieldSpec, rows) -> MatGF:
    ops = field.ops
    arr = np.array([[field.check(as_int(x)) for x in r] for r in rows], dtype=ops.dtype)
    if arr.ndim != 2:
        raise ShapeMismatch("expected a 2-D matrix")
    return MatGF(field, arr)


def zeros(field: FieldSpec, r: int, c: int) -> MatGF:
    return MatGF(field, field.ops.zeros((r, c)))


def identity(field: FieldSpec, n: int) -> MatGF:
    a = field.ops.zeros((n, n))
    a.flat[::n + 1] = 1
    return MatGF(field, a)


# ---------------------------------------------------------------------------
# elimination


# A matrix at least _WIDE times as wide as tall, or _TALL times as tall as
# wide, takes a rank-profile path of `rref` (kernel rows in BENCH_rref.json);
# a wide one needs _WIDE_MIN_ROWS rows, below which the pivot loop is as fast
# or faster (kernel rows in BENCH_spectral.json).
_WIDE = 4
_WIDE_MIN_ROWS = 8
_TALL = 4


def rref(field: FieldSpec, M: np.ndarray):
    """Reduced row-echelon form of M (a raw rep array): (R, pivot_cols).

    A wide M eliminates [M[:, :w] | I] over a window of w = 2 rows columns.
    When the window holds every pivot, the I block has become the transform
    E with E M = R, so the other columns are one matmul E M[:, w:]; the
    pivot loop runs on M only when the window is rank-deficient.  A tall M
    takes 2 cols rows at a time, from its first row outside the span of the
    echelon rows R found so far: they are eliminated together with R, and
    one matmul reduces every later row by R, rest - rest[:, pivots] R.  It
    stops at full column rank or when no nonzero row is left.  The RREF is
    unique, so both paths return exactly what the loop would.
    """
    ops = field.ops
    M = np.asarray(M, dtype=ops.dtype)
    rows, cols = M.shape
    if rows >= _WIDE_MIN_ROWS and cols >= _WIDE * rows:
        w = 2 * rows
        W, pivots, _ = _pivot_loop(field, np.concatenate([M[:, :w], identity(field, rows).a], axis=1))
        if pivots[-1] < w:
            return np.concatenate([W[:, :w], ops.matmul(W[:, w:], M[:, w:])], axis=1), pivots
    elif cols and rows >= _TALL * cols:
        R, pivots, rest = ops.zeros((rows, cols)), [], M
        while len(pivots) < cols:
            live = np.flatnonzero(rest.any(axis=1))
            if not len(live):
                break
            end = live[0] + 2 * cols
            E, pivots, _ = _pivot_loop(field, np.concatenate([R[:len(pivots)], rest[live[0]:end]]))
            R[:len(pivots)] = E[:len(pivots)]
            rest = rest[end:]
            if len(pivots) < cols:
                rest = ops.sub(rest, ops.matmul(rest[:, pivots], R[:len(pivots)]))
        return R, pivots
    return _pivot_loop(field, M)[:2]


def _pivot_loop(field: FieldSpec, M: np.ndarray):
    """(R, pivot_cols, d): the RREF of M by full-width row operations, one
    pivot column at a time, and d, the sign of the row swaps times the
    product of the pivots taken before each is scaled to 1, which is
    det(M[:, :rows]) when the pivots are exactly the first `rows` columns."""
    ops = field.ops
    R = np.array(M, dtype=ops.dtype, copy=True)
    rows, cols = R.shape
    pivots = []
    d = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        if c and c % ops.headroom == 0:
            R[:, c:] = ops.reduce(R[:, c:])
        factors = ops.reduce(R[:, c])
        nz = np.nonzero(factors[r:])[0]
        if len(nz) == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
            factors[[r, pr]] = factors[[pr, r]]
            d = field.neg(d)
        piv = int(factors[r])
        d = field.mul(d, piv)
        # row r is zero mod p before c, so the update starts at c
        R[r, c:] = row = ops.mul(ops.reduce(R[r, c:]), ops.scalar_inv(piv))
        factors[r] = 0
        ops.isubmul(R[:, c:], factors[:, None], row)
        pivots.append(c)
        r += 1
    return ops.reduce(R), pivots, d


def rref_stack(field: FieldSpec, M: np.ndarray):
    """`rref` of every slice of a (k, rows, cols) stack, column by column.

    Returns (R, ranks, pivots): the reduced stack, the rank of each slice and
    a (k, cols) boolean mask of its pivot columns.  R[i] equals
    rref(field, M[i])[0], and M[i]'s pivot columns are nonzero(pivots[i]).
    """
    ops = field.ops
    R = np.array(M, dtype=ops.dtype, copy=True)
    k, rows, cols = R.shape
    ranks = np.zeros(k, dtype=np.int64)
    pivots = np.zeros((k, cols), dtype=bool)
    below = np.arange(rows)[None, :]
    for c in range(cols):
        if c and c % ops.headroom == 0:
            R[:, :, c:] = ops.reduce(R[:, :, c:])
        # a slice pivots here if column c is nonzero at or below its next row
        cand = (ops.reduce(R[:, :, c]) != 0) & (below >= ranks[:, None])
        s = np.nonzero(cand.any(axis=1))[0]
        if not len(s):
            continue
        r = ranks[s]
        pr = cand[s].argmax(axis=1)
        R[s, r], R[s, pr] = R[s, pr], R[s, r]
        factors = ops.reduce(R[s, :, c])
        i = np.arange(len(s))
        R[s, r, c:] = row = ops.mul(ops.reduce(R[s, r, c:]), ops.inv(factors[i, r])[:, None])
        factors[i, r] = 0
        R[s, :, c:] = ops.isubmul(R[s, :, c:], factors[:, :, None], row[:, None, :])
        pivots[s, c] = True
        ranks[s] += 1
    return ops.reduce(R), ranks, pivots


def right_kernel(A: MatGF):
    """(rank, canonical right kernel basis of 1-D arrays) from one rref of A."""
    R, pivots = rref(A.field, A.a)
    return len(pivots), _kernel_from_rref(A.field, R, pivots, A.cols)


def rref_rank_kernel(A: MatGF):
    """(rank, right kernel basis, left kernel basis), kernels canonical.

    Left-kernel elements are row vectors (the right kernel of A^T); for a tall
    A that is a (rows - rank) x rows basis, so use `right_kernel` if unread.
    """
    rank, right = right_kernel(A)
    _, left = right_kernel(A.T)
    return rank, right, left


def _kernel_from_rref(field, R, pivots, ncols):
    ops = field.ops
    free = sorted(set(range(ncols)).difference(pivots))
    if not free:
        return []
    basis = ops.zeros((len(free), ncols))
    basis[np.arange(len(free)), free] = 1
    if pivots:
        # standard basis off the reduced echelon form: vector for free column
        # f has -R[i, f] at pivot column i.  This basis is canonical (it is a
        # function of the kernel as a subspace, via the canonical echelon form
        # of the orthogonal row space).
        basis[:, list(pivots)] = ops.neg(R[: len(pivots), free].T)
    return [basis[i] for i in range(len(free))]


def solve_linear(A: MatGF, b: np.ndarray, side: str = "right"):
    """Solve A x = b (right) or x A = b (left) with one elimination of [A | b].

    b is one right-hand side or several: the columns of a 2-D b (right) or its
    rows (left).  Returns (particular solutions laid out like b, kernel basis),
    or None when any right-hand side is inconsistent.
    """
    if side == "left":
        res = solve_linear(A.T, np.asarray(b).T, side="right")
        return None if res is None else (res[0].T, res[1])
    field = A.field
    b = np.asarray(b)
    if b.ndim not in (1, 2) or b.shape[0] != A.rows:
        raise ShapeMismatch("rhs length mismatch")
    rhs = (b if b.ndim == 2 else b[:, None]).astype(A.a.dtype, copy=False)
    R, pivots = rref(field, np.concatenate([A.a, rhs], axis=1))
    # a pivot in the rhs columns is a row 0 = nonzero: inconsistent
    if pivots and pivots[-1] >= A.cols:
        return None
    x = field.ops.zeros((A.cols, rhs.shape[1]))
    x[pivots] = R[:len(pivots), A.cols:]
    return x.reshape((A.cols,) + b.shape[1:]), _kernel_from_rref(field, R, pivots, A.cols)


def inverse_det(A: MatGF):
    """(inverse or None, determinant) from one elimination of [A | I]."""
    n = A.rows
    if n != A.cols:
        raise ShapeMismatch("inverse of non-square matrix")
    R, pivots, d = _pivot_loop(A.field, np.concatenate([A.a, identity(A.field, n).a], axis=1))
    # A is invertible iff its own columns hold every pivot
    if pivots != list(range(n)):
        return None, 0
    return MatGF(A.field, R[:, n:].copy()), d


def det(A: MatGF) -> int:
    if A.rows != A.cols:
        raise ShapeMismatch("determinant of non-square matrix")
    _, pivots, d = _pivot_loop(A.field, A.a)
    return d if len(pivots) == A.rows else 0


# ---------------------------------------------------------------------------
# characteristic polynomial via Hessenberg reduction


def _hessenberg(field: FieldSpec, M: np.ndarray) -> np.ndarray:
    ops = field.ops
    H = np.array(M, dtype=ops.dtype, copy=True)
    n = H.shape[0]
    for k in range(n - 2):
        nz = np.nonzero(H[k + 1:, k])[0]
        if len(nz) == 0:
            continue
        pr = k + 1 + int(nz[0])
        if pr != k + 1:
            H[[k + 1, pr]] = H[[pr, k + 1]]
            H[:, [k + 1, pr]] = H[:, [pr, k + 1]]
        inv = ops.scalar_inv(H[k + 1, k])
        factors = ops.mul(H[k + 2:, k], inv)
        if factors.shape[0]:
            H[k + 2:] = ops.reduce(ops.isubmul(H[k + 2:], factors[:, None], H[k + 1]))
            # inverse similarity on columns: col_{k+1} += sum_i factor_i * col_i
            contrib = ops.matmul(H[:, k + 2:], factors[:, None])[:, 0]
            H[:, k + 1] = ops.add(H[:, k + 1], contrib)
    return H


def charpoly(A: MatGF) -> Poly:
    """Monic characteristic polynomial det(tI - A), O(n^3) field ops."""
    field = A.field
    n = A.rows
    if n != A.cols:
        raise ShapeMismatch("charpoly of non-square matrix")
    if n == 0:
        return poly(field, [1])
    return _charpoly_hessenberg(field, _hessenberg(field, A.a))


def _charpoly_hessenberg(field: FieldSpec, H: np.ndarray) -> Poly:
    """det(tI - H) for upper Hessenberg H, by the recurrence over the
    characteristic polynomials p_k of its leading k x k blocks."""
    ops = field.ops
    n = H.shape[0]
    P = ops.zeros((n + 1, n + 1))
    P[0, 0] = 1
    sub = ops.zeros(n + 1)  # sub[i] = prod of subdiagonal h_{j,j-1}, j=i+1..k
    for k in range(1, n + 1):
        pk = ops.zeros(n + 1)
        pk[1:] = P[k - 1, :-1]  # t * p_{k-1}
        pk = ops.reduce(ops.isubmul(pk, H[k - 1, k - 1], P[k - 1]))
        if k > 1:
            s = H[k - 1, k - 2]
            sub[1:k - 1] = ops.mul(sub[1:k - 1], s)
            sub[k - 1] = s
            w = ops.mul(H[0:k - 1, k - 1], sub[1:k])
            if w.any():
                pk = ops.sub(pk, ops.matmul(w[None, :], P[0:k - 1])[0])
        P[k] = pk
    return poly(field, [int(c) for c in P[n]])


def charpoly_stack(field: FieldSpec, D: np.ndarray) -> np.ndarray:
    """Ascending coefficients of det(tI - A) for every A in a (B, n, n) stack.

    Berkowitz's division-free recurrence: with A_k the leading k x k block
    of A and A_(k+1) = [[A_k, C], [R, a]], the coefficients of A_(k+1)'s
    charpoly, highest first, are the lower-triangular Toeplitz matrix with
    first column (1, -a, -R C, -R A_k C, .., -R A_k^(k-1) C) times A_k's.
    No pivots, so every step is one `FieldOps` call over the whole stack,
    O(n^3) of them.
    """
    ops = field.ops

    def dot(x, y):  # sum over the first axis of x * y
        return reduce(ops.add, ops.mul(x, y))

    B, n, _ = D.shape
    E = np.ascontiguousarray(np.moveaxis(D, 0, -1))  # E[i, j]: entry (i, j) of every matrix
    Et = E.transpose(1, 0, 2)
    zero = ops.zeros((1, B))
    p = zero + 1  # A_0's charpoly
    for k in range(n):
        v = E[:k, k]  # A_k^j C, from j = 0
        col = [p[0], ops.neg(E[k, k])]  # p[0] is the leading 1
        for j in range(k):
            if j:
                v = dot(Et[:k, :k], v[:, None])
            col.append(ops.neg(dot(E[k, :k], v)))
        col = np.concatenate([np.stack(col), zero])  # row k + 2 is zero
        # the transposed Toeplitz matrix: entry (j, i) is col[i - j], zero above
        shift = np.arange(k + 2) - np.arange(k + 1)[:, None]
        p = dot(col[np.where(shift >= 0, shift, k + 2)], p[:, None])
    return np.ascontiguousarray(p[::-1].T)


# ---------------------------------------------------------------------------
# spectral primitives


def eigen_profile(A: MatGF, rng=None):
    """List of (lambda, algebraic multiplicity) over F_q, sorted by rep."""
    return roots_in_Fq(charpoly(A), rng)


def _normalize_first_nonzero(field: FieldSpec, v: np.ndarray) -> np.ndarray:
    nz = np.nonzero(v)[0]
    inv = field.ops.scalar_inv(v[nz[0]])
    return field.ops.mul(v, inv)


def unique_simple_eigenvalue(A: MatGF, require_nonzero: bool = False, rng=None):
    """(lambda, left eigvec, right eigvec) when lambda is the only F_q-eigenvalue
    of A and it is simple, i.e. the eigen-profile is exactly [(lambda, 1)].

    Two facts decide this with matrix products and eliminations alone.
    t^q - t is the squarefree product of t - c over c in F_q, so by primary
    decomposition ker(A^q - A) is the direct sum of the F_q-eigenspaces of A,
    and its left kernel that of the left eigenspaces (Lidl and Niederreiter,
    Finite Fields, ch. 3; Hoffman and Kunze, Linear Algebra, sec. 6.8).  The
    right kernel is a line w exactly when A has one F_q-eigenvalue, of
    geometric multiplicity 1, read off A w = lambda w; the left kernel is then
    the line of the left eigenvector v.  v spans the annihilator of the
    column space of A - lambda I, so v.w = 0 exactly when w lies in that
    column space: when a Jordan chain over lambda makes its algebraic
    multiplicity at least 2.

    Eigenvectors are normalized so their first nonzero coordinate is 1.
    Returns None when the profile condition (or the nonzero flag) fails.
    Nothing is drawn from rng, which is kept for the callers' signature.
    """
    field, n = A.field, A.rows
    if n != A.cols:
        raise ShapeMismatch("eigenvalues of non-square matrix")
    ops = field.ops
    Aq = _power(ops.matmul, A.a, field.q, identity(field, n).a)
    _, right, left = rref_rank_kernel(MatGF(field, ops.sub(Aq, A.a)))
    if len(right) != 1:
        return None
    w = _normalize_first_nonzero(field, right[0])
    # (A w)_i = lambda at the first nonzero coordinate i, where w_i = 1
    lam = int(ops.matmul(A.a, w[:, None])[np.flatnonzero(w)[0], 0])
    if require_nonzero and lam == 0:
        return None
    v = _normalize_first_nonzero(field, left[0])
    if ops.sum(ops.mul(v, w)) == 0:
        return None
    return lam, v, w


def primary_split_basis(field: FieldSpec, v: np.ndarray, w: np.ndarray):
    """(P, P^{-1}) with P A P^{-1} = block-diag(lam, A_0), from left and right
    eigenvectors v, w of A for a simple eigenvalue lam.

    The complement of the eigenline is the column space of A - lam I, which
    is ker v; with k the last index where v_k != 0, h_j = e_j - (v_j/v_k) e_k
    (j != k) is its reduced echelon basis.  P^{-1} = [w | h_j, j ascending],
    with w scaled to end in 1 as `right_kernel(A - lam I)` scales it.  Row 0
    of P is v/(v.w) and row j is e_j - (w_j/(v.w)) v.  v.w = 0 exactly when a
    Jordan chain over lam puts w in ker v, and then lam is not simple.
    """
    ops = field.ops
    if ops.sum(ops.mul(v, w)) == 0:
        raise NotSimpleEigenvalue("v.w = 0: the eigenvalue is not simple")
    k = int(np.flatnonzero(v)[-1])
    rest = np.delete(np.arange(len(v)), k)
    w = ops.mul(w, ops.scalar_inv(w[np.flatnonzero(w)[-1]]))
    u = ops.mul(v, ops.scalar_inv(ops.sum(ops.mul(v, w))))
    eye = identity(field, len(v)).a
    Pinv = np.concatenate([w[:, None], eye[:, rest]], axis=1)
    Pinv[k, 1:] = ops.neg(ops.mul(v[rest], ops.scalar_inv(v[k])))
    P = np.concatenate([u[None, :], ops.sub(eye[rest], ops.mul(w[rest][:, None], u[None, :]))])
    return MatGF(field, P), MatGF(field, Pinv)


def trace_of_square(A: MatGF) -> int:
    """Tr(A^2) = sum_ij A(i,j) A(j,i), computed without forming A^2."""
    if A.rows != A.cols:
        raise ShapeMismatch("trace_of_square of non-square matrix")
    return int(trace_of_square_stack(A.field, A.a))


def trace_of_square_stack(field: FieldSpec, D: np.ndarray):
    """Tr(A^2) of every square matrix A on the last two axes of D."""
    ops = field.ops
    return ops.sum(ops.mul(D, np.swapaxes(D, -1, -2)), axis=(-2, -1))


def trace(A: MatGF) -> int:
    return int(A.field.ops.sum(np.diagonal(A.a)))


# ---------------------------------------------------------------------------
# sampling


def random_matrix(spec: FieldSpec, rows: int, cols: int, rng) -> MatGF:
    return MatGF(spec, rng.integers(0, spec.q, size=(rows, cols), dtype=np.int64))


def random_invertible(spec: FieldSpec, n: int, rng) -> MatGF:
    while True:
        A = random_matrix(spec, n, n, rng)
        inv, d = inverse_det(A)
        if d != 0:
            return A

