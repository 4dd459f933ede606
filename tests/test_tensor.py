"""Tensor containers, group actions, instance generation, JSON formats."""

import math

import numpy as np
import pytest

from tiso.errors import BadParams, ShapeMismatch
from tiso.gf import field_create
from tiso.matgf import identity, inverse_det, mat, random_invertible
from tiso.tensor import (Tensor3, Tensor4, act3, act4, act_algebra,
                         act_code_conj, field_from_q, flatten4, gen_instance,
                         instance_from_json, instance_to_json, kron,
                         mode_product, parse_mode, prime_power, reassemble, sample_tensor,
                         slices, unflatten4, verify_witness, witness_from_json,
                         witness_to_json)

F5 = field_create(5)


def _rand3(field, n, seed):
    return sample_tensor(field, "t3", (n, n, n), np.random.default_rng(seed))


def _rand4(field, n, seed):
    return sample_tensor(field, "t4", (n, n, n, n), np.random.default_rng(seed))


@pytest.mark.parametrize("pm", [(5, 1), ((1 << 31) - 1, 1), (2, 8), (5, 7)], ids=str)
def test_mode_product_row_is_the_linear_combination(pm):
    field = field_create(*pm)
    ops = field.ops
    rng = np.random.default_rng(sum(pm))
    stack = rng.integers(0, field.q, size=(5, 3, 3), dtype=np.int64)
    coeffs = rng.integers(0, field.q, size=5)
    coeffs[1] = 0
    acc = ops.zeros((3, 3))
    for c, M in zip(coeffs, stack):
        acc = ops.add(acc, ops.mul(M, int(c)))
    assert (mode_product(field, stack, coeffs[None], 0)[0] == acc).all()


def test_slices_reassemble_round_trip():
    A = _rand3(F5, 4, 0)
    for direction in ("horizontal", "vertical", "frontal"):
        assert reassemble(F5, slices(A, direction), direction) == A


def test_act_algebra_is_a_group_action():
    rng = np.random.default_rng(1)
    A = _rand3(F5, 4, 2)
    T1 = random_invertible(F5, 4, rng)
    T2 = random_invertible(F5, 4, rng)
    assert act_algebra(A, identity(F5, 4)) == A
    assert act_algebra(act_algebra(A, T1), T2) == act_algebra(A, T2 @ T1)


def test_act_algebra_slice_formula():
    """B_i = sum_i' t_{i,i'} T A_{i'} T^{-1} on horizontal slices."""
    rng = np.random.default_rng(3)
    A = _rand3(F5, 3, 4)
    T = random_invertible(F5, 3, rng)
    Tinv, _ = inverse_det(T)
    B = act_algebra(A, T)
    As, Bs = slices(A, "horizontal"), slices(B, "horizontal")
    for i in range(3):
        acc = None
        for ip in range(3):
            term = (T @ As[ip] @ Tinv).scale(int(T.a[i, ip]))
            acc = term if acc is None else acc + term
        assert Bs[i] == acc


def test_act_code_conj_slice_formula():
    """B_k = sum_k' t_{k,k'} S A_{k'} S^{-1} on frontal slices."""
    rng = np.random.default_rng(5)
    A = _rand3(F5, 3, 6)
    S = random_invertible(F5, 3, rng)
    T = random_invertible(F5, 3, rng)
    Sinv, _ = inverse_det(S)
    B = act_code_conj(A, S, T)
    As, Bs = slices(A, "frontal"), slices(B, "frontal")
    for k in range(3):
        acc = None
        for kp in range(3):
            term = (S @ As[kp] @ Sinv).scale(int(T.a[k, kp]))
            acc = term if acc is None else acc + term
        assert Bs[k] == acc


def test_act4_flattening_covariance():
    """Flattening intertwines the 4-way action with kron conjugation."""
    rng = np.random.default_rng(7)
    n = 3
    A = _rand4(F5, n, 8)
    L, R, S, T = (random_invertible(F5, n, rng) for _ in range(4))
    B = act4(A, L, R, S, T)
    lhs = flatten4(B)
    rhs = kron(L, R) @ flatten4(A) @ kron(S, T).T
    assert lhs == rhs
    assert unflatten4(flatten4(A)) == A


def test_act3_composition():
    rng = np.random.default_rng(9)
    A = _rand3(F5, 3, 10)
    mats = [random_invertible(F5, 3, rng) for _ in range(3)]
    I = identity(F5, 3)
    assert act3(A, I, I, I) == A
    B = act3(A, *mats)
    assert B.dims == A.dims
    # the result, equality and repr are keyed on the tensor's class
    assert type(B) is Tensor3 and A != Tensor4(F5, A.a) and repr(A).startswith("Tensor3(")
    with pytest.raises(ShapeMismatch):
        act3(A, I, I)


def test_parse_mode():
    assert parse_mode("planted") == ("planted", None)
    assert parse_mode("unrelated") == ("unrelated", None)
    assert parse_mode("planted_corank(3)") == ("planted_corank", 3)
    with pytest.raises(BadParams):
        parse_mode("banana")


@pytest.mark.parametrize("problem,n,q,mode", [
    ("algiso", 6, 5, "planted"),
    ("mcc", 6, 5, "planted"),
    ("t4", 3, 2, "planted"),
    ("t4", 3, 2, "planted_corank(3)"),
])
def test_gen_instance_planted_witness_verifies(problem, n, q, mode):
    A, B, w = gen_instance(problem, n, q, mode, seed=12345)
    assert w is not None
    res = verify_witness(problem, A, B, w)
    ok = res[0] if problem == "algiso" else res
    assert ok
    if problem == "algiso":
        assert res[1] == 1  # planted action carries no extra scalar


def test_gen_instance_unrelated_has_no_witness():
    A, B, w = gen_instance("algiso", 5, 5, "unrelated", seed=1)
    assert w is None
    assert A != B


def test_gen_instance_corank_flattening_rank():
    from tiso.matgf import rref
    A, _B, _w = gen_instance("t4", 3, 2, "planted_corank(3)", seed=3)
    field = A.field
    flat = flatten4(A)
    assert len(rref(field, flat.a)[1]) == 9 - 3


def test_gen_instance_bad_params():
    with pytest.raises(BadParams):
        gen_instance("algiso", 5, 5, "planted_corank(2)", seed=0)
    with pytest.raises(BadParams):
        gen_instance("nope", 5, 5, "planted", seed=0)


def test_instance_json_round_trip():
    for problem, n, q in (("algiso", 4, 5), ("t4", 3, 4)):
        A, B, _w = gen_instance(problem, n, q, "unrelated", seed=9)
        doc = instance_to_json(problem, A, B, meta={"tag": 1})
        p2, A2, B2, meta = instance_from_json(doc)
        assert (p2, meta) == (problem, {"tag": 1})
        assert A2 == A and B2 == B


def test_witness_json_round_trip():
    A, B, w = gen_instance("mcc", 4, 5, "planted", seed=2)
    doc = witness_to_json("mcc", w)
    problem, mats, lam = witness_from_json(doc, A.field)
    assert problem == "mcc" and lam is None
    assert mats["S"] == w["S"] and mats["T"] == w["T"]
    assert verify_witness("mcc", A, B, mats)


def test_verify_witness_rejects_wrong_transform():
    A, B, w = gen_instance("algiso", 4, 5, "planted", seed=4)
    bad = {"T": identity(A.field, 4)}
    ok, _lam = verify_witness("algiso", A, B, bad)
    assert not ok


def test_verify_witness_rejects_singular_matrices_that_reproduce_b():
    rng = np.random.default_rng(3)
    A = _rand3(F5, 3, 1)
    S = random_invertible(F5, 3, rng)
    T0 = mat(F5, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert verify_witness("mcc", A, act_code_conj(A, S, T0), {"S": S, "T": T0}) is False
    F2 = field_create(2)
    A4 = _rand4(F2, 2, 1)
    L0 = mat(F2, [[1, 1], [1, 1]])
    R, S2, T2 = (random_invertible(F2, 2, rng) for _ in range(3))
    B4 = act4(A4, L0, R, S2, T2)
    assert verify_witness("t4", A4, B4, {"L": L0, "R": R, "S": S2, "T": T2}) is False


def test_verify_witness_rejects_singular_matrices_that_cannot_act():
    A = _rand3(F5, 3, 1)
    T0 = mat(F5, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert verify_witness("algiso", A, A, {"T": T0}) == (False, None)
    assert verify_witness("mcc", A, A, {"S": T0, "T": identity(F5, 3)}) is False


def test_prime_power_matches_trial_division():
    for q in range(2, 3000):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = round(math.log(q, p))
        if p ** m == q:
            assert prime_power(q) == (p, m)
        else:
            with pytest.raises(BadParams):
                prime_power(q)
    for p, m in ((2, 61), (3, 39), ((1 << 20) + 7, 3), ((1 << 31) - 1, 2)):
        assert prime_power(p ** m) == (p, m)


def test_field_from_q():
    assert field_from_q(9).q == 9
    assert field_from_q(5).p == 5
    with pytest.raises(BadParams):
        field_from_q(12)
