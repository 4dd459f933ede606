"""Shared test helpers.

The `deep_slices` constructor below engineers instances that survive the
solvers' early gates: n-1 uniform slices plus one matrix X chosen inside
their trace-orthogonal complement with Tr(X^2) = 0 and a unique simple
nonzero eigenvalue.  The resulting n-dimensional code has X in its hull, so
a solver run on such an instance exercises the spectral and conjugacy
stages instead of stopping at the hull gate.
"""

import numpy as np

from tiso import codes, matgf
from tiso.matgf import (MatGF, random_matrix, rref, trace_of_square,
                        unique_simple_eigenvalue)
from tiso.poly import poly, roots_in_Fq


class KernelSampler:
    """Random elements of the right kernel of `rows`, read off one RREF.

    The kernel basis vector for free column f is e_f minus R[:, f] at the
    pivot columns, so the combination with coefficients x (one per free
    column, in column order) has x at the free coordinates and -R[:, free] x
    at the pivot coordinates; the basis itself is never formed.
    """

    def __init__(self, field, rows):
        R, self.pivots = rref(field, rows)
        pivots = set(self.pivots)
        self.free = [j for j in range(rows.shape[1]) if j not in pivots]
        self.R_free = R[:len(self.pivots)][:, self.free]
        self.field = field
        self.cols = rows.shape[1]

    @property
    def dim(self):
        return len(self.free)

    def draw(self, rng, n) -> MatGF:
        """Random dense kernel element as an n x n matrix.

        Dense combinations matter: individual canonical kernel basis vectors
        are sparse and give nearly nilpotent matrices that never pass the
        spectral gates.
        """
        ops = self.field.ops
        co = rng.integers(0, self.field.q, size=self.dim).astype(ops.dtype, copy=False)
        v = ops.zeros(self.cols)
        v[self.free] = co
        v[self.pivots] = ops.neg(ops.matmul(self.R_free, co[:, None])[:, 0])
        return MatGF(self.field, v.reshape(n, n))


def deep_slices(field, n, rng):
    """n slice matrices whose span has a 1-dimensional hull with a spectrally
    generic spanner: n-1 uniform matrices plus an engineered self-dual X."""
    while True:
        mats = [random_matrix(field, n, n, rng) for _ in range(n - 1)]
        # X must satisfy Tr(X M_i) = 0 for all i: a linear system on vec(X)
        kernel = KernelSampler(field, np.stack([M.a.T.reshape(-1) for M in mats], axis=0))
        if kernel.dim != n * n - (n - 1):
            continue
        found = None
        for _ in range(40):
            V1 = kernel.draw(rng, n)
            V2 = kernel.draw(rng, n)
            # Tr((V1 + c V2)^2) = 0 is a quadratic in c
            a0 = trace_of_square(V1)
            cross = field.add(matgf.trace(V1 @ V2), matgf.trace(V2 @ V1))
            a2 = trace_of_square(V2)
            f = poly(field, [a0, cross, a2])
            if f.degree < 1:
                continue
            rts = roots_in_Fq(f, rng)
            if not rts:
                continue
            X = V1 + V2.scale(rts[0][0])
            if not X.a.any() or trace_of_square(X) != 0:
                continue
            if unique_simple_eigenvalue(X, require_nonzero=True) is None:
                continue
            found = X
            break
        if found is None:
            continue
        C = codes.code_from_matrices(field, mats + [found], n)
        if C.dim != n:
            continue
        H = codes.hull(C)
        if H.dim != 1:
            continue
        if unique_simple_eigenvalue(H.basis()[0], require_nonzero=True) is None:
            continue
        return mats + [found]
