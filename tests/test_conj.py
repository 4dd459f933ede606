"""Intertwiner spaces, tuple conjugacy, centralizers, algebra generation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiso.conj import (centralizer_is_scalars, conj_coset, conj_with_seed,
                       generates_full_algebra, intertwiner_space)
from tiso.errors import BadParams, ShapeMismatch
from tiso.gf import field_create
from tiso.matgf import (MatGF, identity, inverse_det, random_invertible,
                        random_matrix, rref, unique_simple_eigenvalue)
from tiso.solvers import _kernel_code_side
from tiso.tensor import vec_to_matrix

F5 = field_create(5)
F3 = field_create(3)
F2 = field_create(2)
F4 = field_create(2, 2)
F8 = field_create(2, 3)


def _conjugate_tuple(Atuple, T):
    Tinv, d = inverse_det(T)
    assert d != 0
    return tuple(T @ A @ Tinv for A in Atuple)


def test_intertwiner_space_of_self_contains_identity():
    rng = np.random.default_rng(0)
    A = (random_matrix(F5, 4, 4, rng), random_matrix(F5, 4, 4, rng))
    basis = intertwiner_space(A, A)
    assert len(basis) >= 1
    for X in basis:
        for M in A:
            assert X @ M == M @ X
    # I is in the span: appending it to the flattened basis keeps the rank
    flat = np.stack([X.a.reshape(-1) for X in basis])
    with_I = np.concatenate([flat, identity(F5, 4).a.reshape(1, -1)])
    assert len(rref(F5, with_I)[1]) == len(rref(F5, flat)[1])


def test_conj_coset_on_planted_conjugates():
    rng = np.random.default_rng(1)
    for _ in range(10):
        A = (random_matrix(F5, 4, 4, rng), random_matrix(F5, 4, 4, rng))
        T = random_invertible(F5, 4, rng)
        B = _conjugate_tuple(A, T)
        cc = conj_coset(A, B)
        assert cc.kind == "Conjugate"
        X = cc.representative
        for M, N in zip(A, B):
            assert X @ M == N @ X


def test_conj_coset_not_conjugate():
    # tuples with different invariant (identity vs nilpotent) cannot be
    # conjugate; the intertwiner space may still be nonzero but contains no
    # invertible element
    A = (identity(F5, 3),)
    N = MatGF(F5, np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]],
                           dtype=F5.ops.dtype))
    cc = conj_coset(A, (N,))
    assert cc.kind == "NotConjugate"


@pytest.mark.parametrize("field", [F2, F5], ids=["GF(2)", "GF(5)"])
def test_conj_coset_certifies_not_conjugate_by_dimension(field):
    # C(E22, E21) is the scalars, so a conjugate B would have a line of
    # intertwiners; the zero pair has a plane of them, none invertible
    A = tuple(MatGF(field, np.array(M, dtype=field.ops.dtype))
              for M in ([[0, 0], [0, 1]], [[0, 0], [1, 0]]))
    Z = (MatGF(field, field.ops.zeros((2, 2))),) * 2
    assert len(intertwiner_space(A, A)) == 1
    assert len(intertwiner_space(A, Z)) == 2
    cc = conj_coset(A, Z)
    assert cc.kind == "NotConjugate" and cc.representative is None


def test_conj_coset_needs_a_scalar_centralizer():
    eye = (identity(F5, 2),)
    with pytest.raises(BadParams):
        conj_coset(eye, eye)


def test_conj_with_seed_matched_eigenvectors():
    rng = np.random.default_rng(3)
    done = 0
    while done < 10:
        A1 = random_matrix(F5, 5, 5, rng)
        A2 = random_matrix(F5, 5, 5, rng)
        res = unique_simple_eigenvalue(A1, rng=rng)
        if res is None:
            continue
        T = random_invertible(F5, 5, rng)
        B1, B2 = _conjugate_tuple((A1, A2), T)
        resB = unique_simple_eigenvalue(B1, rng=rng)
        assert resB is not None
        # right eigenvectors: T maps A-side to B-side up to scale
        w = res[2]
        z = resB[2]
        X, decided = conj_with_seed((A1, A2), (B1, B2), w, z)
        if not decided:
            continue
        assert X is not None
        for M, N in zip((A1, A2), (B1, B2)):
            assert X @ M == N @ X
        done += 1


def test_conj_with_seed_certifies_nonexistence():
    rng = np.random.default_rng(4)
    done = 0
    while done < 5:
        A1 = random_matrix(F5, 5, 5, rng)
        A2 = random_matrix(F5, 5, 5, rng)
        res = unique_simple_eigenvalue(A1, rng=rng)
        if res is None:
            continue
        # B-side: unrelated tuple sharing A1's eigenvector seed shape
        B1 = random_matrix(F5, 5, 5, rng)
        B2 = random_matrix(F5, 5, 5, rng)
        X, decided = conj_with_seed((A1, A2), (B1, B2), res[2],
                                    rng.integers(0, 5, size=5).astype(F5.ops.dtype))
        if decided:
            assert X is None or all((X @ M == N @ X)
                                    for M, N in zip((A1, A2), (B1, B2)))
            done += 1


def test_conj_with_seed_undecided_inside_an_invariant_subspace():
    """A seed inside span(e_1, e_2), which every member of a block-diagonal
    tuple maps into itself, never generates F^5: nothing is decided."""
    rng = np.random.default_rng(10)
    tuple_ = []
    for _ in range(2):
        M = random_matrix(F5, 5, 5, rng)
        M.a[:2, 2:] = 0
        M.a[2:, :2] = 0
        tuple_.append(M)
    w = np.array([1, 3, 0, 0, 0], dtype=F5.ops.dtype)
    assert conj_with_seed(tuple_, tuple_, w, w) == (None, False)
    zero = np.zeros(5, dtype=F5.ops.dtype)
    assert conj_with_seed(tuple_, tuple_, zero, w) == (None, False)
    # a seed that generates F^5 decides, and the identity intertwines
    X, decided = conj_with_seed(tuple_, tuple_, np.ones(5, dtype=F5.ops.dtype),
                                np.ones(5, dtype=F5.ops.dtype))
    assert decided and X == identity(F5, 5)


def _greedy_extension(field, first, mats):
    """Oracle: the members of `mats` that, taken in order, are independent of
    `first` and of the members kept before them."""
    kept, rank = [], 1
    for M in mats:
        stack = np.stack([first.a.reshape(-1), *(K.a.reshape(-1) for K in kept),
                          M.a.reshape(-1)])
        if len(rref(field, stack)[1]) > rank:
            kept.append(M)
            rank += 1
    return kept


@given(st.sampled_from([F2, F3, F4]), st.sampled_from([3, 4]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_kernel_code_side_extension_matches_greedy_oracle(field, c, seed):
    """The basis extension of `_kernel_code_side` (every code basis element
    but the last one with a nonzero coefficient in A_1) is the greedy one."""
    rng = np.random.default_rng(seed)
    n = 2
    while True:
        vecs = rng.integers(0, field.q, size=(c, n * n))
        if len(rref(field, vecs)[1]) == c:
            break
    out = _kernel_code_side(field, list(vecs), n)
    if c == n * n:
        # the code is all of M(2, q), whose centralizer is the scalars
        assert out is not None
    if out is None:
        return
    A1, reduced, mats = out
    assert mats == [vec_to_matrix(field, v, n) for v in vecs]
    assert [A1 @ R for R in reduced] == _greedy_extension(field, A1, mats)


def _seeded_pair(field, n, rng):
    """A random pair whose first member has a unique simple eigenvalue, with
    that eigenvalue's right eigenvector as the gate's seed."""
    while True:
        A1 = random_matrix(field, n, n, rng)
        res = unique_simple_eigenvalue(A1)
        if res is not None:
            return (A1, random_matrix(field, n, n, rng)), res[2]


def test_centralizer_is_scalars_random_pair():
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(20):
        A, w = _seeded_pair(F3, 5, rng)
        if centralizer_is_scalars(A, w):
            hits += 1
    assert hits >= 15  # overwhelmingly scalar for random pairs


def test_centralizer_is_scalars_memory_is_one_sided():
    """The n=48 gate grows the seed's 48-column closure; the n^2-unknown
    system it never builds would be a 4608 x 2304 int64 matrix (85 MB)."""
    field = field_create((1 << 20) + 7)
    rng = np.random.default_rng(9)
    pair, w = _seeded_pair(field, 48, rng)
    tracemalloc.start()
    try:
        scalars = centralizer_is_scalars(pair, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scalars is True
    assert peak < 32 * 2 ** 20


def test_centralizer_not_scalars_for_polynomial_tuple():
    rng = np.random.default_rng(6)
    (A, _), w = _seeded_pair(F5, 4, rng)
    # (A, A^2) commutes with every polynomial in A: centralizer dim >= 4 > 1
    assert centralizer_is_scalars((A, A @ A), w) is False


def test_centralizer_matches_full_system_on_small_n():
    rng = np.random.default_rng(7)
    for _ in range(15):
        A, w = _seeded_pair(F5, 3, rng)
        fast = centralizer_is_scalars(A, w)
        exact = len(intertwiner_space(A, A)) == 1
        assert fast == exact


def test_centralizer_gate_matches_the_full_system_oracle():
    """The gate equals the n^2-unknown system on seeded pairs of three kinds:
    random; (A_1, a polynomial in A_1), whose centralizer is never the
    scalars; and pairs sharing the eigenvector e_1 of A_1 (first columns
    zero below the diagonal), whose closure is span(e_1) while their
    centralizer is mostly the scalars.  Both answers come from closures that
    do not span, and True from closures that do."""
    rng = np.random.default_rng(12)
    seen = set()
    for field in (F2, F3, F4, F5, F8):
        # at n = 2 no matrix has a unique simple eigenvalue
        for n in range(3, 6):
            for kind in ("random", "polynomial", "shared_eigenvector") * 4:
                (A1, A2), w = _seeded_pair(field, n, rng)
                if kind == "polynomial":
                    c = [int(x) for x in rng.integers(0, field.q, size=3)]
                    A2 = (A1 @ A1).scale(c[0]) + A1.scale(c[1]) + identity(field, n).scale(c[2])
                elif kind == "shared_eigenvector":
                    for M in (A1, A2):
                        M.a[1:, 0] = 0
                    w = unique_simple_eigenvalue(A1)
                    if w is None:
                        continue
                    w = w[2]
                gate = centralizer_is_scalars((A1, A2), w)
                exact = len(intertwiner_space((A1, A2), (A1, A2))) == 1
                assert gate == exact
                spans = conj_with_seed((A1, A2), (A1, A2), w, w)[1]
                seen.add((spans, gate))
    assert seen == {(True, True), (False, True), (False, False)}


def test_centralizer_unknown_above_the_full_system_size():
    """At n = 33 > FULL_SYSTEM_MAX_N a closure that does not span leaves the
    gate undecided: A_1 and A_2 share the eigenvector e_1 of A_1's simple
    eigenvalue, so the closure of e_1 is span(e_1)."""
    field = field_create((1 << 20) + 7)
    rng = np.random.default_rng(14)
    n = 33
    A = (random_matrix(field, n, n, rng), random_matrix(field, n, n, rng))
    for M in A:
        M.a[1:, 0] = 0
    # A_1's eigenvalue at e_1 is simple when it is no eigenvalue of the block below
    lam = int(A[0].a[0, 0])
    block = MatGF(field, field.ops.sub(A[0].a[1:, 1:], lam * np.eye(n - 1, dtype=np.int64)))
    assert inverse_det(block)[1] != 0
    e1 = np.zeros(n, dtype=field.ops.dtype)
    e1[0] = 1
    assert centralizer_is_scalars(A, e1) is None


def test_generates_full_algebra():
    rng = np.random.default_rng(8)
    hits = 0
    for _ in range(40):
        A1 = random_matrix(F3, 5, 5, rng)
        A2 = random_matrix(F3, 5, 5, rng)
        if generates_full_algebra(A1, A2):
            hits += 1
    assert hits >= 33  # empirical rate ~0.98 at n = 5, q = 3
    # a pair of commuting matrices never generates for n >= 2
    D = identity(F3, 4)
    assert not generates_full_algebra(D, D.scale(2))


def test_shape_mismatch_raises():
    rng = np.random.default_rng(9)
    A = random_matrix(F5, 3, 3, rng)
    B = random_matrix(F5, 4, 4, rng)
    with pytest.raises(ShapeMismatch):
        intertwiner_space((A,), (B,))
    with pytest.raises(ShapeMismatch):
        intertwiner_space((), ())
