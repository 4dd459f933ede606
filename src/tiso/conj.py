"""Intertwiner spaces and matrix-tuple conjugacy.

The intertwiner space of (Atuple, Btuple) is {X : X A_i = B_i X for all i};
its invertible elements form the conjugacy coset Conj(Atuple, Btuple).  If
it holds an invertible T, then Conj(Atuple, Btuple) = T C(Atuple), so its
dimension is that of the centralizer C(Atuple).  Every caller has already
checked that C(Atuple) is the scalars, so the exact linear-system route (n^2
unknowns) is decided by dimension alone: a line or nothing.  Alongside it
there is a seeded fast path that propagates a single known vector pair
through the tuple's Krylov closure, which is what makes large-n solves cheap.

Every span question here (does a seed generate F^n under the tuple, is a
vector cyclic, do two matrices generate M(n, q)) is a rank read off
`matgf.rref`, so it runs on the library's one pivot loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParams, InvariantViolation, ShapeMismatch
from .gf import FieldSpec
from .matgf import MatGF, identity, inverse_det, right_kernel, rref
from .tensor import as_rng, mode_product

# above this size the dense n^2-unknown system is not attempted
FULL_SYSTEM_MAX_N = 32
# random vectors tried per candidate before it is taken to be derogatory
_CYCLIC_TRIES = 3


@dataclass
class ConjCoset:
    """Outcome of a tuple-conjugacy computation.

    kind is "Conjugate" or "NotConjugate".  A Conjugate outcome carries the
    representative and its inverse, from the elimination that certified it.
    """

    kind: str
    representative: MatGF | None = None
    inverse: MatGF | None = None


def _check_tuples(Atuple, Btuple):
    if len(Atuple) != len(Btuple) or not Atuple:
        raise ShapeMismatch("tuples must be nonempty and of equal length")
    n = Atuple[0].rows
    for M in (*Atuple, *Btuple):
        if M.shape != (n, n):
            raise ShapeMismatch("tuple members must be square of equal size")
    return n


def intertwiner_system(field: FieldSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The matrix of X -> (X A_i - B_i X)_i on row-major vec(X): the blocks
    kron(I, A_i^t) - kron(B_i, I) for stacks A, B of n x n matrices, one
    system per entry of B's leading batch axes."""
    n = A.shape[-1]
    # products with the 0/1 identity only place entries: exact in every field
    eye = np.eye(n, dtype=np.int64)
    kron_A = eye[:, None, :, None] * np.swapaxes(A, -1, -2)[..., None, :, None, :]
    kron_B = B[..., :, None, :, None] * eye[:, None, :]
    return field.ops.sub(kron_A, kron_B).reshape(B.shape[:-3] + (len(A) * n * n, n * n))


def intertwiner_space(Atuple, Btuple) -> list:
    """Canonical basis of {X : X A_i = B_i X for all i}."""
    n = _check_tuples(Atuple, Btuple)
    field = Atuple[0].field
    system = intertwiner_system(field, np.stack([A.a for A in Atuple]),
                                np.stack([B.a for B in Btuple]))
    _, right = right_kernel(MatGF(field, system))
    return [MatGF(field, v.reshape(n, n).copy()) for v in right]


def conj_coset(Atuple, Btuple) -> ConjCoset:
    """Decide tuple conjugacy, given that C(Atuple) is the scalars.

    An invertible T would make Conj(Atuple, Btuple) = T C(Atuple) a line, so
    an intertwiner line with an invertible element is Conjugate, and a
    singular line or any other dimension is NotConjugate.  Dimensions 0 and 1
    decide whatever C(Atuple) is; at dimension >= 2 the precondition is
    checked, and BadParams is raised when it fails.
    """
    basis = intertwiner_space(Atuple, Btuple)
    if len(basis) == 1:
        Xinv, d = inverse_det(basis[0])
        if d != 0:
            return ConjCoset("Conjugate", basis[0], Xinv)
    elif basis and len(intertwiner_space(Atuple, Atuple)) != 1:
        raise BadParams("conj_coset needs a tuple whose centralizer is the scalars")
    return ConjCoset("NotConjugate")


# ---------------------------------------------------------------------------
# seeded conjugacy (Krylov propagation)


def conj_with_seed(Atuple, Btuple, w, z):
    """Find T with T A_i = B_i T and T w in span(z), via closure propagation.

    Returns (T, decided): decided=False means the seed vector did not
    generate the full space, so nothing was concluded; decided=True with
    T=None certifies that no such intertwiner exists.
    """
    n = _check_tuples(Atuple, Btuple)
    field = Atuple[0].field
    ops = field.ops
    X = np.asarray(w, dtype=ops.dtype)[:, None]
    Y = np.asarray(z, dtype=ops.dtype)[:, None]
    if not X.any():
        return None, False
    # the closure grows level by level: the candidates are the images of the
    # newest vectors, parent by parent and member by member, and the pivot
    # columns of rref([X | candidates]) past X are the ones a vector-by-vector
    # greedy pass keeps (the column rank profile)
    newX, newY = X, Y
    while X.shape[1] < n:
        r = X.shape[1]
        candX = np.stack([ops.matmul(A.a, newX) for A in Atuple], axis=2).reshape(n, -1)
        keep = np.array(rref(field, np.concatenate([X, candX], axis=1))[1][r:], dtype=np.intp) - r
        if not len(keep):
            return None, False
        newX = candX[:, keep]
        newY = np.stack([ops.matmul(B.a, newY) for B in Btuple], axis=2).reshape(n, -1)[:, keep]
        X = np.concatenate([X, newX], axis=1)
        Y = np.concatenate([Y, newY], axis=1)
    X, Y = MatGF(field, X), MatGF(field, Y)
    Xinv, d = inverse_det(X)
    if d == 0:
        raise InvariantViolation("Krylov basis of independent vectors is singular")
    T = Y @ Xinv
    if inverse_det(T)[1] == 0:
        return None, True
    for A, B in zip(Atuple, Btuple):
        if not (T @ A == B @ T):
            return None, True
    return T, True


def centralizer_is_scalars(Atuple, rng=None):
    """Whether {X : X A_i = A_i X for all i} is exactly the scalar matrices.

    Fast path: find a nonderogatory element E among the tuple members and a
    few random combinations; its centralizer is {p(E)}, reducing the check to
    an n-unknown system.  Falls back to the full n^2-unknown system at small
    n; returns None (unknown) when neither route applies.
    """
    n = _check_tuples(Atuple, Atuple)
    field = Atuple[0].field
    rng = as_rng(rng)
    stack = np.stack([M.a for M in Atuple])
    coeffs = np.stack([rng.integers(0, field.q, size=len(Atuple)) for _ in range(3)])
    candidates = [*stack, *mode_product(field, stack, coeffs, 0)]
    for E in candidates:
        if _is_nonderogatory(field, E, rng):
            return _scalars_only_given_cyclic(field, E, Atuple)
    if n <= FULL_SYSTEM_MAX_N:
        return len(intertwiner_space(Atuple, Atuple)) == 1
    return None


def _is_nonderogatory(field: FieldSpec, E: np.ndarray, rng) -> bool:
    """True if one of _CYCLIC_TRIES random vectors v is cyclic for E, that
    is, if the Krylov matrix [v, Ev, .., E^(n-1) v] has rank n."""
    n = E.shape[0]
    ops = field.ops
    for _ in range(_CYCLIC_TRIES):
        K = [rng.integers(0, field.q, size=n, dtype=np.int64)]
        for _ in range(n - 1):
            K.append(ops.matmul(E, K[-1][:, None])[:, 0])
        if len(rref(field, np.stack(K, axis=1))[1]) == n:
            return True
    return False


def _scalars_only_given_cyclic(field: FieldSpec, E: np.ndarray, Atuple) -> bool:
    """Given nonderogatory E, decide whether {p(E)} meets every centralizer
    of the tuple only in the scalars.  The unknowns are the n coefficients of
    p; kernel dimension 1 means scalars only."""
    n = E.shape[0]
    ops = field.ops
    powers = [identity(field, n).a]
    for _ in range(n - 1):
        powers.append(ops.matmul(powers[-1], E))
    rows = []
    for M in Atuple:
        cols = []
        for P in powers:
            comm = ops.sub(ops.matmul(P, M.a), ops.matmul(M.a, P))
            cols.append(comm.reshape(-1))
        rows.append(np.stack(cols, axis=1))
    system = MatGF(field, np.concatenate(rows, axis=0))
    _, right = right_kernel(system)
    return len(right) == 1


# ---------------------------------------------------------------------------
# algebra generation


def generates_full_algebra(A1: MatGF, A2: MatGF) -> bool:
    """Whether span{words in A1, A2, including the empty word I} = M(n, q).

    Computed by left-multiplication closure from I; cross-checked against the
    centralizer criterion (scalars only) at small n.
    """
    if A1.shape != A2.shape or A1.rows != A1.cols:
        raise ShapeMismatch("generators must be square of equal size")
    field = A1.field
    n = A1.rows
    ops = field.ops
    # V_(k+1) = V_k + A1 V_k + A2 V_k, kept as RREF rows of flattened matrices.
    # A1 V_(k-1) and A2 V_(k-1) already lie in V_k, so only the rows at new
    # pivot columns, which span a complement of V_(k-1), need their images.
    R, pivots = identity(field, n).a.reshape(1, -1), [0]
    new = R
    while len(pivots) < n * n:
        images = [ops.matmul(G, new.reshape(-1, n, n)).reshape(-1, n * n) for G in (A1.a, A2.a)]
        R, grown = rref(field, np.concatenate([R, *images]))
        if len(grown) == len(pivots):
            break
        R = R[:len(grown)]
        new = R[np.isin(grown, pivots, invert=True)]
        pivots = grown
    full = len(pivots) == n * n
    # the full algebra has a trivial centralizer; the converse can fail
    # (non-semisimple proper algebras may also have scalar centralizer)
    if full and n <= 8 and len(intertwiner_space((A1, A2), (A1, A2))) != 1:
        raise InvariantViolation("full matrix algebra with a non-scalar centralizer")
    return full
