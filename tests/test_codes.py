"""Matrix codes: canonical bases, the trace form, and hull equivariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiso.codes import (MatrixCode, code_from_matrices, code_from_slices,
                        gram_trace_form, hull, trace_gram)
from tiso.errors import Singular
from tiso.gf import field_create
from tiso.matgf import (MatGF, identity, inverse_det, random_invertible,
                        random_matrix, trace, zeros)
from tiso.tensor import sample_tensor

F5 = field_create(5)
F4 = field_create(2, 2)


# oracles: the code images the solvers' witnesses map codes onto


def conjugate_code(C: MatrixCode, T: MatGF) -> MatrixCode:
    """The code T C T^{-1}."""
    Tinv, d = inverse_det(T)
    if d == 0:
        raise Singular("conjugating matrix is singular")
    return code_from_matrices(C.field, [T @ M @ Tinv for M in C.basis()], C.ambient_n)


def equivalent_code(C: MatrixCode, L: MatGF, R: MatGF) -> MatrixCode:
    """The two-sided image {L^t M R : M in C}."""
    if inverse_det(L)[1] == 0 or inverse_det(R)[1] == 0:
        raise Singular("equivalence matrices must be invertible")
    return code_from_matrices(C.field, [L.T @ M @ R for M in C.basis()], C.ambient_n)


def _rand_code(field, n, k, rng):
    return code_from_matrices(field, [random_matrix(field, n, n, rng)
                                      for _ in range(k)], n)


def test_canonical_basis_is_invariant_under_generator_mixing():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mats = [random_matrix(F5, 4, 4, rng) for _ in range(3)]
        C1 = code_from_matrices(F5, mats, 4)
        # re-span by an invertible recombination of the generators
        U = random_invertible(F5, 3, rng)
        mixed = []
        for i in range(3):
            acc = zeros(F5, 4, 4)
            for j in range(3):
                acc = acc + mats[j].scale(int(U.a[i, j]))
            mixed.append(acc)
        C2 = code_from_matrices(F5, mixed, 4)
        assert C1 == C2


def test_slices_independent_flag():
    rng = np.random.default_rng(1)
    M = random_matrix(F5, 3, 3, rng)
    C = code_from_matrices(F5, [M, M.scale(2)], 3)
    assert C.dim == 1 and not C.slices_independent


def test_gram_matrix_entries():
    rng = np.random.default_rng(2)
    C = _rand_code(F5, 4, 3, rng)
    G = gram_trace_form(C)
    basis = C.basis()
    assert G == G.T
    for i in range(C.dim):
        for j in range(C.dim):
            assert int(G.a[i, j]) == trace(basis[i] @ basis[j])


@pytest.mark.parametrize("pm", [(5, 1), ((1 << 31) - 1, 1), (2, 8), (5, 7)], ids=str)
def test_trace_gram_of_two_stacks(pm):
    field = field_create(*pm)
    rng = np.random.default_rng(sum(pm))
    X = rng.integers(0, field.q, size=(3, 4, 4), dtype=np.int64)
    Y = rng.integers(0, field.q, size=(2, 4, 4), dtype=np.int64)
    G = trace_gram(field, X, Y)
    assert G.shape == (3, 2)
    for i in range(3):
        for j in range(2):
            assert int(G[i, j]) == trace(MatGF(field, X[i]) @ MatGF(field, Y[j]))


def test_hull_elements_are_self_orthogonal_to_code():
    rng = np.random.default_rng(3)
    found = 0
    for _ in range(100):
        C = _rand_code(F5, 4, 4, rng)
        H = hull(C)
        for X in H.basis():
            found += 1
            for Y in C.basis():
                assert trace(X @ Y) == 0
        if found >= 5:
            break
    assert found >= 1


def test_hull_conjugation_equivariance():
    rng = np.random.default_rng(4)
    for field in (F5, F4):
        for _ in range(30):
            C = _rand_code(field, 4, 4, rng)
            T = random_invertible(field, 4, rng)
            assert hull(conjugate_code(C, T)) == conjugate_code(hull(C), T)


def test_conjugate_code_requires_invertible():
    rng = np.random.default_rng(5)
    C = _rand_code(F5, 3, 2, rng)
    with pytest.raises(Singular):
        conjugate_code(C, zeros(F5, 3, 3))


def test_equivalent_code_two_sided():
    rng = np.random.default_rng(6)
    C = _rand_code(F5, 3, 2, rng)
    L = random_invertible(F5, 3, rng)
    R = random_invertible(F5, 3, rng)
    D = equivalent_code(C, L, R)
    assert D.dim == C.dim
    # membership: the image of each basis element lies in D
    for M in C.basis():
        E = code_from_matrices(F5, D.basis() + [L.T @ M @ R], 3)
        assert E.dim == D.dim


def test_code_from_slices_directions():
    A = sample_tensor(F5, "t3", (4, 4, 4), np.random.default_rng(7))
    Ch = code_from_slices(A, "horizontal")
    Cf = code_from_slices(A, "frontal")
    assert Ch.ambient_n == Cf.ambient_n == 4
    assert 1 <= Ch.dim <= 4


def test_empty_code():
    C = code_from_matrices(F5, [], 3)
    assert C.dim == 0
    assert hull(C).dim == 0
    assert gram_trace_form(C).shape == (0, 0)
