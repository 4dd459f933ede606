"""Intertwiner spaces and matrix-tuple conjugacy.

The intertwiner space of (Atuple, Btuple) is {X : X A_i = B_i X for all i};
its invertible elements form the conjugacy coset Conj(Atuple, Btuple).  If
it holds an invertible T, then Conj(Atuple, Btuple) = T C(Atuple), so its
dimension is that of the centralizer C(Atuple).  Every caller has already
checked that C(Atuple) is the scalars, so the exact linear-system route (n^2
unknowns) is decided by dimension alone: a line or nothing.  Alongside it
there is a seeded fast path that propagates a single known vector pair
through the tuple's Krylov closure, which is what makes large-n solves cheap.
The same closure certifies the centralizer: when the seed spans the
eigenline of a simple eigenvalue of A_1 and its closure is F^n, C(Atuple) is
the scalars.

Every span question here (does a seed generate F^n under the tuple, do two
matrices generate M(n, q)) is a rank read off `matgf.rref`, so it runs on
the library's one pivot loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParams, InvariantViolation, ShapeMismatch
from .gf import FieldSpec
from .matgf import MatGF, identity, inverse_det, right_kernel, rref

# above this size the dense n^2-unknown system is not attempted
FULL_SYSTEM_MAX_N = 32


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


def _closure(Atuple, w):
    """The Krylov closure of w under the tuple, grown level by level.

    Returns (X, keeps): X's columns are w and the kept images, a basis of
    the closure when w != 0, and keeps[k] indexes the columns kept among
    level k's candidates, the images of the newest vectors parent by parent
    and member by member.  The kept ones are the pivot columns of
    rref([X | candidates]) past X, which a vector-by-vector greedy pass also
    keeps (the column rank profile).
    """
    n = Atuple[0].rows
    field = Atuple[0].field
    X = np.asarray(w, dtype=field.ops.dtype)[:, None]
    new, keeps = X, []
    while X.shape[1] < n:
        r = X.shape[1]
        cand = _images(Atuple, new)
        keep = np.array(rref(field, np.concatenate([X, cand], axis=1))[1][r:], dtype=np.intp) - r
        if not len(keep):
            break
        new = cand[:, keep]
        X = np.concatenate([X, new], axis=1)
        keeps.append(keep)
    return X, keeps


def _images(Atuple, V):
    """The columns M V[:, j] for every column j and member M, parent-major."""
    ops = Atuple[0].field.ops
    return np.stack([ops.matmul(M.a, V) for M in Atuple], axis=2).reshape(V.shape[0], -1)


def conj_with_seed(Atuple, Btuple, closure, z):
    """Find T with T A_i = B_i T and T w in span(z), via closure propagation.

    closure is `_closure(Atuple, w)`.  Returns (T, decided): decided=False
    means w is zero or did not generate the full space, so nothing was
    concluded; decided=True with T=None certifies that no such intertwiner
    exists.
    """
    n = _check_tuples(Atuple, Btuple)
    field = Atuple[0].field
    X, keeps = closure
    if X.shape[1] < n or not X[:, 0].any():
        return None, False
    # the B side replays the columns the A side kept, level by level
    Y = new = np.asarray(z, dtype=field.ops.dtype)[:, None]
    for keep in keeps:
        new = _images(Btuple, new)[:, keep]
        Y = np.concatenate([Y, new], axis=1)
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


def centralizer_is_scalars(Atuple, closure):
    """Whether {X : X A_i = A_i X for all i} is exactly the scalar matrices.

    closure is `_closure(Atuple, w)` for a w that spans the eigenline of a
    simple eigenvalue of A_1.  Every X in the centralizer then maps w to some
    c w, and so every vector of w's closure under the tuple to c times
    itself: a closure that spans F^n certifies X = c I.  Otherwise the full
    n^2-unknown system decides for n <= FULL_SYSTEM_MAX_N, and above that the
    answer is None (unknown).
    """
    n = _check_tuples(Atuple, Atuple)
    if closure[0].shape[1] == n:
        return True
    if n <= FULL_SYSTEM_MAX_N:
        return len(intertwiner_space(Atuple, Atuple)) == 1
    return None


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
