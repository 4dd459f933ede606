"""Dense linear algebra over F_q: rref, kernels, determinants, spectra."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiso import rmt
from tiso.errors import NotSimpleEigenvalue, ShapeMismatch
from tiso.gf import field_create
from tiso.matgf import (_TALL, _WIDE, _WIDE_MIN_ROWS, MatGF, charpoly, det, eigen_profile,
                        identity, inverse_det, mat, primary_split_basis,
                        random_invertible, random_matrix, right_kernel, rref,
                        rref_rank_kernel, rref_stack, solve_linear, trace,
                        trace_of_square, unique_simple_eigenvalue, zeros)
from tiso.poly import poly, poly_eval, roots_in_Fq

F5 = field_create(5)
F4 = field_create(2, 2)
# one field per FieldOps backend and on both sides of the int64 threshold;
# GF(4) and GF(2^8) are both ends of the byte tables, which serve
# `FieldOps.isubmul`, `mul` and `inv` on extension fields up to q = 256;
# the eliminations reduce a prime field's block every 7 columns at 2^30 + 3
# and every 2 at 2^31 - 1 (`FieldOps.headroom`)
KERNEL_FIELDS = [F5, field_create((1 << 20) + 7), field_create((1 << 30) + 3),
                 field_create((1 << 31) - 1), field_create(2, 8), field_create(3, 5),
                 field_create(2), F4, field_create(257)]


def _rand(field, r, c, seed):
    return random_matrix(field, r, c, np.random.default_rng(seed))


@given(st.integers(0, 400))
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_and_kernel_annihilates(seed):
    rng = np.random.default_rng(seed)
    r, c = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    A = random_matrix(F5, r, c, rng)
    R, pivots = rref(F5, A.a)
    R2, pivots2 = rref(F5, R)
    assert (R2 == R).all() and pivots2 == pivots
    rank, right, left = rref_rank_kernel(A)
    assert rank == len(pivots)
    assert rank + len(right) == c
    assert rank + len(left) == r
    for v in right:
        assert not F5.ops.matmul(A.a, v[:, None]).any()
    for u in left:
        assert not F5.ops.matmul(u[None, :], A.a).any()


def test_kernel_basis_is_canonical_under_row_scrambling():
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = random_matrix(F5, 5, 8, rng)
        P = random_invertible(F5, 5, rng)
        _, right1, _ = rref_rank_kernel(A)
        _, right2, _ = rref_rank_kernel(P @ A)
        assert len(right1) == len(right2)
        for v, w in zip(right1, right2):
            assert (v == w).all()


def _low_rank(field, r, c, k, rng):
    """An r x c matrix of rank at most k, so both kernels are nontrivial."""
    return random_matrix(field, r, k, rng) @ random_matrix(field, k, c, rng)


def _same_basis(us, vs):
    return len(us) == len(vs) and all(
        u.dtype == v.dtype and (u == v).all() for u, v in zip(us, vs))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_right_kernel_is_the_right_part_of_rref_rank_kernel(field):
    rng = np.random.default_rng(41)
    for _ in range(8):
        r, c = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        k = int(rng.integers(0, min(r, c) + 1))
        A = _low_rank(field, r, c, k, rng) if k else random_matrix(field, r, c, rng)
        rank, right = right_kernel(A)
        rank2, right2, left = rref_rank_kernel(A)
        assert rank == rank2 and _same_basis(right, right2)
        assert rank + len(left) == r
        for v in right:
            assert not field.ops.matmul(A.a, v[:, None]).any()


# (rows, cols, rank): zero, full-rank and rank-deficient matrices, square,
# wide and tall, with kernels of dimension >= 2 on both sides; the tall
# rank-30 one reduces its 10 x 40 left block by `rref`'s wide path, and the
# 12 x 3 one takes the tall path of `right_kernel`
ORACLE_SHAPES = [(5, 5, 0), (3, 7, 0), (7, 3, 0), (6, 6, 6), (4, 9, 4), (9, 4, 4),
                 (7, 7, 4), (5, 9, 3), (10, 6, 3), (40, 30, 30), (12, 3, 2)]


@pytest.mark.parametrize("field", [field_create(2), F5, field_create((1 << 20) + 7),
                                   field_create((1 << 31) - 1), field_create(2, 8),
                                   field_create(3, 5), field_create(5, 7)], ids=str)
def test_rref_rank_kernel_matches_two_one_sided_kernels(field):
    """The one elimination of [A | I] gives both canonical kernels exactly
    as `right_kernel(A)` and `right_kernel(A.T)` do, in order."""
    rng = np.random.default_rng(field.q % 1000)
    for rows, cols, k in ORACLE_SHAPES:
        # P [I_k 0; 0 0] Q has rank exactly k
        D = zeros(field, rows, cols)
        D.a[range(k), range(k)] = 1
        A = random_invertible(field, rows, rng) @ D @ random_invertible(field, cols, rng)
        rank, right, left = rref_rank_kernel(A)
        assert (rank, len(left)) == (k, rows - k)
        assert rank == right_kernel(A)[0]
        assert _same_basis(right, right_kernel(A)[1])
        assert _same_basis(left, right_kernel(A.T)[1])


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_rref_stack_matches_rref_and_inverse_det_slice_by_slice(field):
    rng = np.random.default_rng(47)
    n = 5
    # full-rank, rank-deficient and zero slices, interleaved
    square = [random_invertible(field, n, rng), _low_rank(field, n, n, 3, rng),
              zeros(field, n, n), random_matrix(field, n, n, rng),
              _low_rank(field, n, n, 1, rng)]
    M = np.stack([S.a for S in square])
    wide = np.stack([_low_rank(field, 4, 7, k, rng).a if k else zeros(field, 4, 7).a
                     for k in (4, 2, 0, 3)])
    for stack in (M, wide, np.concatenate([M, np.broadcast_to(identity(field, n).a, M.shape)],
                                          axis=2)):
        R, ranks, pivots = rref_stack(field, stack)
        assert R.dtype == stack.dtype and pivots.shape == (len(stack), stack.shape[2])
        for i in range(len(stack)):
            Ri, piv = rref(field, stack[i])
            assert (R[i] == Ri).all()
            assert list(np.nonzero(pivots[i])[0]) == piv and ranks[i] == len(piv)
    # the right half of rref([M | I]) is the inverse exactly when the left
    # half is all pivots
    for i, S in enumerate(square):
        Sinv, d = inverse_det(S)
        assert bool(pivots[i, :n].all()) == (d != 0)
        if d:
            assert (R[i, :, n:] == Sinv.a).all()


@pytest.mark.parametrize("field", [F5, F4, field_create((1 << 31) - 1)], ids=str)
def test_solve_linear_multi_rhs_matches_column_solves(field):
    rng = np.random.default_rng(43)
    A = _low_rank(field, 7, 6, 4, rng)
    B = (A @ random_matrix(field, 6, 3, rng)).a  # three consistent columns
    x, kern = solve_linear(A, B)
    assert x.shape == (6, 3) and _same_basis(kern, right_kernel(A)[1])
    for j in range(3):
        xj, kj = solve_linear(A, B[:, j])
        assert (x[:, j] == xj).all() and _same_basis(kern, kj)
    C = (random_matrix(field, 3, 7, rng) @ A).a  # three consistent rows
    y, lkern = solve_linear(A, C, side="left")
    assert y.shape == (3, 7) and (field.ops.matmul(y, A.a) == C).all()
    for i in range(3):
        yi, ki = solve_linear(A, C[i], side="left")
        assert (y[i] == yi).all() and _same_basis(lkern, ki)
    # one inconsistent column (or row) makes the whole solve inconsistent
    B[:, 1] = _inconsistent(A, "right", rng)
    assert solve_linear(A, B) is None
    C[2] = _inconsistent(A, "left", rng)
    assert solve_linear(A, C, side="left") is None


def _inconsistent(A, side, rng):
    length = A.rows if side == "right" else A.cols
    while True:
        b = random_matrix(A.field, 1, length, rng).a[0]
        if solve_linear(A, b, side=side) is None:
            return b


def _eliminate_oracle(field, M):
    """(R, pivots, d) by full-width row operations, one pivot column at a
    time: the elimination loop every rank-profile path must reproduce."""
    ops = field.ops
    R = np.array(M, dtype=ops.dtype, copy=True)
    rows, cols = R.shape
    pivots = []
    d = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if len(nz) == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
            d = field.neg(d)
        piv = int(R[r, c])
        d = field.mul(d, piv)
        R[r] = ops.mul(R[r], ops.scalar_inv(piv))
        other = np.nonzero(R[:, c])[0]
        other = other[other != r]
        if len(other):
            R[other] = ops.sub(R[other], ops.mul(R[other, c][:, None], R[r][None, :]))
        pivots.append(c)
        r += 1
    return R, pivots, d


def _oracle_solve(A, b):
    """solve_linear(A, b) (right side, 2-D b) read off the oracle's RREF."""
    field, n = A.field, A.cols
    R, pivots, _ = _eliminate_oracle(field, np.concatenate([A.a, b], axis=1))
    if pivots and pivots[-1] >= n:
        return None
    x = field.ops.zeros((n, b.shape[1]))
    x[pivots] = R[:len(pivots), n:]
    free = [j for j in range(n) if j not in pivots]
    kern = field.ops.zeros((len(free), n))
    kern[np.arange(len(free)), free] = 1
    kern[:, pivots] = field.ops.neg(R[:len(pivots), free].T)
    return x, list(kern)


def _shaped(field, kind, rng, min_rows=1):
    """A matrix of one of the shapes and rank structures the rank-profile
    paths of the elimination branch on; its short side is at least
    min_rows."""
    q = field.q
    a, b = int(rng.integers(min_rows, min_rows + 6)), int(rng.integers(0, 25))
    if kind == "wide":
        M = rng.integers(0, q, size=(a, 4 * a + b))
    elif kind == "tall":
        M = rng.integers(0, q, size=(4 * a + b, a))
    elif kind == "square":
        M = rng.integers(0, q, size=(a + 2, a + 2))
    elif kind == "repeated rows":
        M = rng.integers(0, q, size=(a + 1, 4 * a + b))
        M[1:] = M[rng.integers(0, a + 1, size=a)]
    elif kind == "repeated cols":
        M = rng.integers(0, q, size=(4 * a + b, a + 1))
        M[:, 1:] = M[:, rng.integers(0, a + 1, size=a)]
    elif kind == "zero":
        M = np.zeros((a, 4 * a + b) if rng.integers(2) else (4 * a + b, a), dtype=np.int64)
    elif kind == "empty":
        M = np.zeros((0, a) if rng.integers(2) else (a, 0), dtype=np.int64)
    elif kind == "late window":
        # full row rank, but the first 2 rows columns (the window) have rank 1
        M = rng.integers(0, q, size=(a + 1, 4 * (a + 1) + b))
        M[:, :2 * (a + 1)] = np.outer(np.eye(a + 1, dtype=np.int64)[0], M[0, :2 * (a + 1)])
        M[:, -(a + 1):] = np.eye(a + 1, dtype=np.int64)
    else:  # "unsaturated": tall with column rank below cols all the way down
        low = _low_rank(field, 4 * (a + 1) + b, a + 1, a, rng).a
        M = low if rng.integers(2) else np.concatenate([low[:, :1] * 0, low[:, 1:]], axis=1)
    return M.astype(np.int64)


SHAPE_KINDS = ["wide", "tall", "square", "repeated rows", "repeated cols", "zero", "empty",
               "late window", "unsaturated"]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@given(st.sampled_from(SHAPE_KINDS), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_elimination_matches_the_pivot_loop_oracle(field, kind, seed):
    rng = np.random.default_rng(seed)
    M = _shaped(field, kind, rng)
    R, pivots, d = _eliminate_oracle(field, M)
    got, got_pivots = rref(field, M)
    assert got.dtype == np.int64 and got.shape == M.shape
    assert got_pivots == pivots and (got == R).all()
    A = MatGF(field, M)
    if M.shape[0] == M.shape[1]:
        assert det(A) == (d if len(pivots) == len(M) else 0)
        R2, pivots2, d2 = _eliminate_oracle(field, np.concatenate([M, np.eye(len(M), dtype=np.int64)],
                                                                  axis=1))
        inv, d3 = inverse_det(A)
        if pivots2 == list(range(len(M))):
            assert d3 == d2 and (inv.a == R2[:, len(M):]).all()
        else:
            assert inv is None and d3 == 0
    # one consistent right-hand side and one that is most likely inconsistent
    x = rng.integers(0, field.q, size=(M.shape[1], 1))
    rhs = np.concatenate([field.ops.matmul(M, x), rng.integers(0, field.q, size=(M.shape[0], 1))],
                         axis=1)
    for b in (rhs[:, :1], rhs):
        ref, res = _oracle_solve(A, b), solve_linear(A, b)
        assert (ref is None) == (res is None)
        if res is not None:
            assert (res[0] == ref[0]).all() and _same_basis(res[1], ref[1])


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@given(st.sampled_from(["wide", "repeated rows", "late window"]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=10, deadline=None)
def test_window_path_matches_the_pivot_loop_oracle(field, kind, seed):
    """From _WIDE_MIN_ROWS rows up, "wide" and "late window" matrices take
    the window path."""
    M = _shaped(field, kind, np.random.default_rng(seed), min_rows=_WIDE_MIN_ROWS)
    assert kind == "repeated rows" or M.shape[1] >= _WIDE * M.shape[0] >= _WIDE * _WIDE_MIN_ROWS
    R, pivots, _ = _eliminate_oracle(field, M)
    got, got_pivots = rref(field, M)
    assert got_pivots == pivots and (got == R).all()


def _worst_updates(field, rows, cols):
    """L U for the unit triangular L (rows x rows) and U (rows x cols) with
    p - 1 everywhere below, respectively right of, the diagonal.  The
    elimination meets its pivots 1 in order, and every row below a pivot
    takes the update (p - 1)^2 on each column after it, the largest there
    is: the last row takes rows - 1 of them."""
    L = np.tril(np.full((rows, rows), field.p - 1), -1) + np.eye(rows, dtype=np.int64)
    U = np.triu(np.full((rows, cols), field.p - 1), 1) + np.eye(rows, cols, dtype=np.int64)
    return field.ops.matmul(L, U)


@pytest.mark.parametrize("p, headroom", [((1 << 30) + 3, 7), ((1 << 31) - 1, 2)], ids=str)
def test_elimination_is_exact_past_the_delayed_reduction_headroom(p, headroom):
    """`rref`, `det`, `inverse_det` and `rref_stack` against the oracle, which
    reduces every update, on matrices and stacks with 3 headroom + 2
    pivots: on the pivot loop, the window path and the row-block path, with
    uniform entries and with the largest updates, which overflow int64 from
    headroom + 1 of them unreduced."""
    field = field_create(p)
    assert field.ops.headroom == headroom
    n = 3 * headroom + 2
    rng = np.random.default_rng(p)
    for draw in (lambda r, c: rng.integers(0, p, size=(r, c)), lambda r, c: _worst_updates(field, r, c)):
        square, rect, wide = draw(n, n), draw(n, n + 3), draw(n, _WIDE * n + 3)
        for M in (square, rect, wide, draw(_TALL * n + 3, n)):
            R, pivots, _ = _eliminate_oracle(field, M)
            got, got_pivots = rref(field, M)
            assert got_pivots == pivots and (got == R).all()
        _, pivots, d = _eliminate_oracle(field, square)
        assert len(pivots) == n and det(MatGF(field, square)) == d
        R, _, d = _eliminate_oracle(field, np.concatenate([square, np.eye(n, dtype=np.int64)], axis=1))
        inv, got_d = inverse_det(MatGF(field, square))
        assert got_d == d and (inv.a == R[:, n:]).all()
        stack = np.stack([rect, wide[:, :n + 3], rect[::-1], wide[:, -n - 3:]])
        R, ranks, pivots = rref_stack(field, stack)
        for i, S in enumerate(stack):
            Ri, piv, _ = _eliminate_oracle(field, S)
            assert (R[i] == Ri).all() and list(np.flatnonzero(pivots[i])) == piv and ranks[i] == len(piv)


def test_inverse_det_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = random_invertible(F5, 6, rng)
        Ainv, d = inverse_det(A)
        assert d == det(A) != 0
        assert A @ Ainv == identity(F5, 6)
    S = zeros(F5, 3, 3)
    assert inverse_det(S) == (None, 0)


# digests recorded when inverse_det had an elimination loop of its own
INVERSE_DET_DIGESTS = {
    (2, 1): "1909c4ca5bb8d4eb",
    (5, 1): "f44c6277bdae2c78",
    ((1 << 20) + 7, 1): "768fa8c423a06067",
    ((1 << 31) - 1, 1): "29cf337826ecd7c6",
    (2, 8): "053152c4d18e42b4",
    (3, 5): "856ad683e51947d2",
    (5, 7): "b07c42d6e40d9433",
}


@pytest.mark.parametrize("pm", sorted(INVERSE_DET_DIGESTS), ids=str)
def test_inverse_det_and_det_match_recorded_digests(pm):
    field = field_create(*pm)
    rng = np.random.default_rng(2024)
    h = hashlib.sha256()
    for n in (0, 1, 2, 3, 5, 8):
        for kind in ("random", "zero row", "scaled first row"):
            A = random_matrix(field, n, n, rng)
            if n >= 2 and kind != "random":
                c = int(rng.integers(0, field.q))
                A.a[-1] = 0 if kind == "zero row" else field.ops.mul(A.a[0], c)
            inv, d = inverse_det(A)
            assert d == det(A)
            assert (inv is None) == (d == 0)
            if inv is not None:
                assert A @ inv == identity(field, n)
            h.update(repr((n, kind, d, None if inv is None else inv.tolist())).encode())
    assert h.hexdigest()[:16] == INVERSE_DET_DIGESTS[pm]


def test_det_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        A = random_matrix(F4, 4, 4, rng)
        B = random_matrix(F4, 4, 4, rng)
        assert det(A @ B) == F4.mul(det(A), det(B))


def test_charpoly_matches_determinant_evaluation():
    rng = np.random.default_rng(13)
    for field in (F5, F4):
        for _ in range(15):
            n = int(rng.integers(2, 6))
            A = random_matrix(field, n, n, rng)
            cp = charpoly(A)
            assert cp.degree == n and cp.coeffs[-1] == 1
            for lam in field.elements():
                shifted = identity(field, n).scale(lam) - A
                assert poly_eval(cp, lam) == det(shifted)
    # just above 2^25, and near 2^31, where a raw int64 dot in the recurrence
    # overflows; GF(2^8), the largest field of the byte tables
    for field in (field_create(33554467), field_create((1 << 31) - 1), field_create(2, 8)):
        for n in (2, 5, 8, 12):
            A = random_matrix(field, n, n, rng)
            cp = charpoly(A)
            assert cp.degree == n and cp.coeffs[-1] == 1
            for lam in [0, 1, field.q - 1] + rng.integers(0, field.q, size=3).tolist():
                shifted = identity(field, n).scale(lam) - A
                assert poly_eval(cp, lam) == det(shifted)


def _poly_at_matrix(f, A):
    """f(A) by Horner's rule."""
    acc = zeros(A.field, A.rows, A.rows)
    for c in reversed(f.coeffs):
        acc = acc @ A + identity(A.field, A.rows).scale(c)
    return acc


def test_cayley_hamilton():
    rng = np.random.default_rng(17)
    for _ in range(10):
        A = random_matrix(F5, 5, 5, rng)
        assert not _poly_at_matrix(charpoly(A), A).a.any()


def test_unique_simple_eigenvalue_vectors():
    rng = np.random.default_rng(19)
    hits = 0
    for _ in range(60):
        A = random_matrix(F5, 6, 6, rng)
        res = unique_simple_eigenvalue(A, rng=rng)
        profile = eigen_profile(A, rng)
        if res is None:
            assert not (len(profile) == 1 and profile[0][1] == 1)
            continue
        hits += 1
        lam, v, w = res
        assert profile == [(lam, 1)]
        # v is a left eigenvector, w a right eigenvector
        assert (F5.ops.matmul(v[None, :], A.a)[0] == F5.ops.mul(v, lam)).all()
        assert (F5.ops.matmul(A.a, w[:, None])[:, 0] == F5.ops.mul(w, lam)).all()
        # normalization: first nonzero coordinate is 1
        assert v[np.nonzero(v)[0][0]] == 1
        assert w[np.nonzero(w)[0][0]] == 1
    assert hits > 0


def _unique_simple_oracle(A: MatGF, require_nonzero: bool = False):
    """The gate as the characteristic polynomial states it: the F_q-roots of
    charpoly(A) with multiplicities must be exactly [(lambda, 1)]."""
    profile = roots_in_Fq(charpoly(A))
    if len(profile) != 1 or profile[0][1] != 1:
        return None
    lam = profile[0][0]
    if require_nonzero and lam == 0:
        return None
    field = A.field
    _, right, left = rref_rank_kernel(A - identity(field, A.rows).scale(lam))
    v, w = left[0], right[0]
    v = field.ops.mul(v, field.inv(int(v[np.flatnonzero(v)[0]])))
    w = field.ops.mul(w, field.inv(int(w[np.flatnonzero(w)[0]])))
    return lam, v, w


GATE_FIELDS = [field_create(2), F5, field_create(7), field_create((1 << 20) + 7),
               field_create((1 << 31) - 1), field_create(2, 8), field_create(3, 5),
               field_create(5, 7)]
GATE_INPUTS = ["random", "jordan block", "double eigenvalue", "no eigenvalue",
               "sole eigenvalue 0", "1x1"]


def _block_diag(field, blocks):
    n = sum(len(b) for b in blocks)
    D, at = field.ops.zeros((n, n)), 0
    for b in blocks:
        D[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return D


def _irreducible_quadratic_block(field, rng):
    """The companion matrix of a random monic quadratic with no F_q-root."""
    while True:
        c0, c1 = (int(x) for x in rng.integers(0, field.q, size=2))
        if not roots_in_Fq(poly(field, [c0, c1, 1])):
            return np.array([[0, field.neg(c0)], [1, field.neg(c1)]], dtype=np.int64)


def _gate_input(field, kind, rng):
    """A matrix of the named spectral kind, conjugated by a random invertible
    matrix; the constructed kinds pad with eigenvalue-free quadratic blocks."""
    if kind == "random":
        n = int(rng.integers(1, 9))
        return random_matrix(field, n, n, rng)
    if kind == "1x1":
        return random_matrix(field, 1, 1, rng)
    lam = int(rng.integers(0, field.q))
    head = {"jordan block": [np.array([[lam, 1], [0, lam]])],
            "double eigenvalue": [np.array([[lam]]), np.array([[lam]])],
            "no eigenvalue": [],
            "sole eigenvalue 0": [np.array([[0]])]}[kind]
    pad = [_irreducible_quadratic_block(field, rng)
           for _ in range(int(rng.integers(0 if head else 1, 3)))]
    D = MatGF(field, _block_diag(field, head + pad))
    P = random_invertible(field, D.rows, rng)
    return P @ D @ inverse_det(P)[0]


@given(st.sampled_from(GATE_FIELDS), st.sampled_from(GATE_INPUTS), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_unique_simple_eigenvalue_matches_the_charpoly_oracle(field, kind, require_nonzero, seed):
    A = _gate_input(field, kind, np.random.default_rng(seed))
    got = unique_simple_eigenvalue(A, require_nonzero=require_nonzero)
    ref = _unique_simple_oracle(A, require_nonzero=require_nonzero)
    assert (got is None) == (ref is None)
    if ref is not None:
        assert got[0] == ref[0] and type(got[0]) is int
        assert (got[1] == ref[1]).all() and (got[2] == ref[2]).all()
    if kind in ("jordan block", "double eigenvalue", "no eigenvalue"):
        assert got is None
    if kind == "sole eigenvalue 0":
        assert (got is None) == require_nonzero


def test_unique_simple_monte_carlo_matches_the_oracle_over_the_same_draws():
    """At q = 8209 a failing gate draws nothing from the trial stream, so the
    estimate is the oracle's count over the same n x n matrices."""
    field, n, trials, seed = field_create(8209), 4, 200, 11
    rng = np.random.default_rng(seed)
    hits = sum(_unique_simple_oracle(random_matrix(field, n, n, rng)) is not None
               for _ in range(trials))
    assert 0 < hits < trials
    assert rmt.monte_carlo("unique_simple", n, 8209, trials, seed)[0] == hits / trials


def _primary_split_oracle(A: MatGF, lam: int):
    """(P, P^-1) by eliminations: P^-1 = [w | RREF basis of the column space of
    A - lam I], with w the canonical kernel vector of A - lam I, and P its
    inverse.  None when the column space is not a hyperplane or P^-1 is
    singular, that is, when lam is not a simple eigenvalue."""
    field, n = A.field, A.rows
    shifted = A - identity(field, n).scale(lam)
    Rt, pivots = rref(field, shifted.a.T)
    if len(pivots) != n - 1:
        return None
    w = right_kernel(shifted)[1][0]
    Pinv = MatGF(field, np.concatenate([w[:, None], Rt[:n - 1].T], axis=1))
    P, d = inverse_det(Pinv)
    return None if d == 0 else (P, Pinv)


def _assert_splits(A, lam, P, Pinv):
    """P P^-1 = I and P A P^-1 = diag(lam, A_0)."""
    assert P @ Pinv == identity(A.field, A.rows)
    C = P @ A @ Pinv
    assert C.a[0, 0] == lam
    assert not C.a[1:, 0].any() and not C.a[0, 1:].any()


@given(st.sampled_from(GATE_FIELDS), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_primary_split_basis_matches_the_elimination_oracle(field, seed):
    rng = np.random.default_rng(seed)
    res = None
    while res is None:
        A = _gate_input(field, "random", rng)
        res = unique_simple_eigenvalue(A)
    lam, v, w = res
    P, Pinv = primary_split_basis(field, v, w)
    assert (P, Pinv) == _primary_split_oracle(A, lam)
    _assert_splits(A, lam, P, Pinv)


def test_primary_split_basis_rejects_non_simple_eigenvalues():
    # a 2x2 Jordan block at lam: A - lam I has rank n - 1, but the
    # eigenvector lies in its column space, so v.w = 0
    jordan2 = mat(F5, [[3, 1], [0, 3]])
    jordan = mat(F5, [[3, 1, 0], [0, 3, 0], [0, 0, 1]])
    for A, v, w in ((jordan2, [0, 1], [1, 0]), (jordan, [0, 1, 0], [1, 0, 0])):
        assert (F5.ops.matmul(np.array([v]), A.a) == F5.ops.mul(np.array([v]), 3)).all()
        assert (F5.ops.matmul(A.a, np.array([w]).T) == F5.ops.mul(np.array([w]).T, 3)).all()
        with pytest.raises(NotSimpleEigenvalue):
            primary_split_basis(F5, np.array(v), np.array(w))
        assert _primary_split_oracle(A, 3) is None
    # the gate never hands these over: a double eigenvalue, two eigenvalues,
    # a plane of eigenvectors
    for A in (jordan2, jordan, identity(F5, 3)):
        assert unique_simple_eigenvalue(A) is None
    # 2 is not an eigenvalue of the 3x3 matrix: A - 2 I has full rank, so
    # there is no eigenvector pair to split with
    assert not right_kernel(jordan - identity(F5, 3).scale(2))[1]
    assert _primary_split_oracle(jordan, 2) is None
    # its simple eigenvalue 1 splits off, with eigenvectors e_3 on both sides
    _, right, left = rref_rank_kernel(jordan - identity(F5, 3))
    P, Pinv = primary_split_basis(F5, left[0], right[0])
    assert (P, Pinv) == _primary_split_oracle(jordan, 1)
    _assert_splits(jordan, 1, P, Pinv)


def test_solve_linear_both_sides():
    rng = np.random.default_rng(29)
    A = random_matrix(F5, 4, 6, rng)
    x = rng.integers(0, 5, size=6).astype(F5.ops.dtype)
    b = F5.ops.matmul(A.a, x[:, None])[:, 0]
    sol = solve_linear(A, b, side="right")
    assert sol is not None
    x0, kern = sol
    assert (F5.ops.matmul(A.a, x0[:, None])[:, 0] == b).all()
    for v in kern:
        assert not F5.ops.matmul(A.a, v[:, None]).any()
    y = rng.integers(0, 5, size=4).astype(F5.ops.dtype)
    c = F5.ops.matmul(y[None, :], A.a)[0]
    soll = solve_linear(A, c, side="left")
    assert soll is not None
    y0, _ = soll
    assert (F5.ops.matmul(y0[None, :], A.a)[0] == c).all()
    # inconsistent system
    B = zeros(F5, 2, 2)
    assert solve_linear(B, np.array([1, 0], dtype=F5.ops.dtype)) is None


def test_trace_helpers():
    rng = np.random.default_rng(31)
    for field in (F5, F4):
        for _ in range(10):
            A = random_matrix(field, 5, 5, rng)
            assert trace_of_square(A) == trace(A @ A)
    with pytest.raises(ShapeMismatch):
        trace_of_square(_rand(F5, 2, 3, 0))


def test_mat_constructor_and_equality():
    A = mat(F5, [[1, 2], [3, 4]])
    B = mat(F5, [[1, 2], [3, 4]])
    assert A == B and A.T == mat(F5, [[1, 3], [2, 4]])
    assert A.tolist() == [[1, 2], [3, 4]]
