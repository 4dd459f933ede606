"""Matrix codes: subspaces of M(n, q) with a canonical echelon basis,
the trace bilinear form Tr(AB), and the hull C intersect C-perp."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .gf import FieldSpec
from .matgf import MatGF, right_kernel, rref
from .tensor import _SLICE_AXIS, Tensor3


@dataclass
class MatrixCode:
    """Subspace of M(ambient_n, q), basis rows echelonized as n^2-vectors.

    The reduced-echelon basis is canonical, so equal subspaces compare equal.
    """

    field: FieldSpec
    ambient_n: int
    basis_flat: np.ndarray  # dim x n^2, reduced row echelon form
    slices_independent: bool = True

    @property
    def dim(self) -> int:
        return self.basis_flat.shape[0]

    def basis(self) -> list:
        n = self.ambient_n
        return [MatGF(self.field, self.basis_flat[i].reshape(n, n).copy())
                for i in range(self.dim)]

    def __eq__(self, other):
        return (isinstance(other, MatrixCode) and self.field == other.field
                and self.ambient_n == other.ambient_n
                and self.basis_flat.shape == other.basis_flat.shape
                and bool((self.basis_flat == other.basis_flat).all()))

    def __repr__(self):
        return f"MatrixCode(dim={self.dim} in M({self.ambient_n}, {self.field.q}))"


def code_from_matrices(field: FieldSpec, mats: list, ambient_n: int) -> MatrixCode:
    """Span of the given matrices; flags whether they were independent."""
    rows = np.array([M.a.reshape(-1) for M in mats], dtype=np.int64)
    return _code_from_rows(field, rows.reshape(len(mats), ambient_n ** 2), ambient_n)


def code_from_slices(A: Tensor3, direction: str) -> MatrixCode:
    S = np.moveaxis(A.a, _SLICE_AXIS[direction], 0)
    k, n, cols = S.shape
    if cols != n:
        raise ShapeMismatch("matrix codes need square slices")
    return _code_from_rows(A.field, S.reshape(k, n * n), n)


def _code_from_rows(field: FieldSpec, rows: np.ndarray, ambient_n: int) -> MatrixCode:
    R, pivots = rref(field, rows)
    return MatrixCode(field, ambient_n, R[:len(pivots)].copy(),
                      slices_independent=len(pivots) == len(rows))


def trace_gram(field: FieldSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """G(i,j) = Tr(X_i Y_j) for stacks X (k x n x n) and Y (l x n x n)."""
    k, l, n = len(X), len(Y), X.shape[-1]
    # Tr(X_i Y_j) = sum_{a,b} X_i(a,b) Y_j(b,a): a dot product of flattenings
    return field.ops.matmul(X.reshape(k, n * n), Y.transpose(0, 2, 1).reshape(l, n * n).T)


def gram_trace_form(C: MatrixCode) -> MatGF:
    """G(i,j) = Tr(B_i B_j) over the code basis; symmetric."""
    n = C.ambient_n
    B = C.basis_flat.reshape(C.dim, n, n)
    return MatGF(C.field, trace_gram(C.field, B, B))


def hull(C: MatrixCode) -> MatrixCode:
    """H(C) = {X in C : Tr(XY) = 0 for all Y in C}, via the Gram kernel."""
    field = C.field
    G = gram_trace_form(C)
    _, right = right_kernel(G)
    if not right:
        return MatrixCode(field, C.ambient_n,
                          field.ops.zeros((0, C.ambient_n ** 2)))
    K = np.stack(right, axis=0)  # coefficient vectors in the code basis
    flat = field.ops.matmul(K, C.basis_flat)
    R, pivots = rref(field, flat)
    return MatrixCode(field, C.ambient_n, R[: len(pivots)].copy())

