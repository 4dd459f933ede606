"""The three six-stage decision pipelines."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import deep_slices
from tiso.conj import conj_coset, conj_with_seed
from tiso.errors import BadParams, ShapeMismatch
from tiso.gf import field_create
from tiso.codes import trace_gram
from tiso.matgf import (MatGF, charpoly, inverse_det, random_invertible, right_kernel, rref,
                        rref_rank_kernel)
from tiso.solvers import (STAGES, StageTrace, _conj_pair, _kernel_code_side,
                          _ordered_basis_candidates, solve, solve_algiso,
                          solve_mcc, solve_t4)
from tiso.tensor import (Tensor4, act4, act_algebra, act_code_conj, flatten4, gen_instance,
                         kron, reassemble, vec_to_matrix, verify_witness)

F5 = field_create(5)


def _check_trace(trace):
    seen = []
    for e in trace.entries:
        assert e["stage"] in STAGES
        assert e["outcome"] in ("pass", "failure", "not_isomorphic")
        seen.append(e["stage"])
    # stages are visited in order and only the last entry may be non-pass
    assert seen == sorted(seen, key=STAGES.index)
    for e in trace.entries[:-1]:
        assert e["outcome"] == "pass"


@pytest.mark.parametrize("problem,n,q", [
    ("algiso", 8, 5), ("mcc", 8, 5), ("t4", 3, 2)])
def test_verdicts_and_traces_well_formed(problem, n, q):
    for seed in range(10):
        mode = "planted" if seed % 2 == 0 else "unrelated"
        A, B, _w = gen_instance(problem, n, q, mode, seed)
        verdict, trace = solve(problem, A, B, rng=seed)
        assert verdict.kind in ("Isomorphic", "NotIsomorphic", "Failure")
        _check_trace(trace)
        if verdict.kind == "Isomorphic":
            res = verify_witness(problem, A, B, verdict.witness)
            assert res[0] if problem == "algiso" else res
        else:
            assert verdict.stage in STAGES


def test_determinism_given_seed():
    A, B, _w = gen_instance("algiso", 8, 5, "planted", 77)
    v1, t1 = solve_algiso(A, B, np.random.default_rng(123))
    v2, t2 = solve_algiso(A, B, np.random.default_rng(123))
    assert v1.kind == v2.kind and v1.stage == v2.stage
    assert t1.to_json() == t2.to_json()


def test_algiso_deep_instance_full_pipeline():
    """Engineered hull-surviving instance; frozen seed reaches stage six and
    recovers a verifying witness."""
    rng = np.random.default_rng(8)
    mats = deep_slices(F5, 8, rng)
    A = reassemble(F5, mats, "horizontal")
    T = random_invertible(F5, 8, rng)
    B = act_algebra(A, T)
    verdict, trace = solve_algiso(A, B, np.random.default_rng(8))
    assert verdict.kind == "Isomorphic"
    assert trace.outcome("step6") == "pass"
    ok, lam = verify_witness("algiso", A, B, verdict.witness)
    assert ok and lam == 1


_OPTIMIZED_ALGISO = """
import json, sys
import numpy as np
from conftest import deep_slices
from tiso.gf import field_create
from tiso.matgf import random_invertible
from tiso.solvers import solve_algiso
from tiso.tensor import act_algebra, reassemble, verify_witness
F = field_create(5)
rng = np.random.default_rng(8)
A = reassemble(F, deep_slices(F, 8, rng), "horizontal")
B = act_algebra(A, random_invertible(F, 8, rng))
verdict, _ = solve_algiso(A, B, np.random.default_rng(8))
ok, lam = verify_witness("algiso", A, B, verdict.witness) if verdict.witness else (False, None)
print(json.dumps([sys.flags.optimize, verdict.kind, ok, int(lam or 0)]))
"""


def test_planted_algiso_under_python_O_returns_a_verifying_witness():
    """python -O strips asserts; the solver's own checks must not depend on them."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(here), "src"), here]))
    out = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_ALGISO], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    assert json.loads(out.stdout.splitlines()[-1]) == [1, "Isomorphic", True, 1]


def test_mcc_deep_instance_full_pipeline():
    rng = np.random.default_rng(6)
    mats = deep_slices(F5, 8, rng)
    A = reassemble(F5, mats, "frontal")
    S = random_invertible(F5, 8, rng)
    T = random_invertible(F5, 8, rng)
    B = act_code_conj(A, S, T)
    verdict, trace = solve_mcc(A, B, np.random.default_rng(6))
    assert verdict.kind == "Isomorphic"
    assert trace.outcome("step6") == "pass"
    assert verify_witness("mcc", A, B, verdict.witness)


def test_mcc_self_solve_on_deep_instance():
    """A deep instance against a planted copy of itself with the identity
    transformation is still recognized."""
    rng = np.random.default_rng(6)
    mats = deep_slices(F5, 8, rng)
    A = reassemble(F5, mats, "frontal")
    verdict, _ = solve_mcc(A, A, np.random.default_rng(0))
    assert verdict.kind in ("Isomorphic", "Failure")
    if verdict.kind == "Isomorphic":
        assert verify_witness("mcc", A, A, verdict.witness)


F8209 = field_create(8209)


def _seeded_outcomes(problem, field, n, mode, seeds=range(16)):
    """(verdict letters and stages, digest of every verdict and stage-trace
    JSON) of seeded solves.  mode is a `gen_instance` mode, or "deep planted"
    or "deep unrelated" for pairs built on `deep_slices`."""
    h = hashlib.blake2b(digest_size=12)
    verdicts = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        if not mode.startswith("deep"):
            A, B, _ = gen_instance(problem, n, field, mode, rng)
        else:
            direction = "horizontal" if problem == "algiso" else "frontal"
            A = reassemble(field, deep_slices(field, n, rng), direction)
            if mode == "deep unrelated":
                B = reassemble(field, deep_slices(field, n, rng), direction)
            elif problem == "algiso":
                B = act_algebra(A, random_invertible(field, n, rng))
            else:
                B = act_code_conj(A, random_invertible(field, n, rng), random_invertible(field, n, rng))
        verdict, trace = solve(problem, A, B, rng=seed)
        verdicts.append(verdict.kind[0] + (verdict.stage or "")[-1:])
        h.update(json.dumps([verdict.to_json(), trace.to_json()]).encode())
    return " ".join(verdicts), h.hexdigest()


# recorded before the spectral gate stopped drawing from the rng on failure;
# deep n = 6 pairs over GF(8209).  Above q = 4096 a spectral gate that fails
# with two or more eigenvalues in F_q once split them with draws from the
# solver's rng; these pairs include such failures.
_GF8209_RECORDED = {
    ("algiso", True): ("F4 F4 F5 F4 F4 F4 I F4 F4 I F4 F4 F5 I F4 F5", "7763915a4ea67662286352aa"),
    ("algiso", False): ("F4 F4 F5 F4 F4 F4 N4 F4 F4 N5 F4 F4 F5 N4 F4 F5", "94338c77066969f2a7430303"),
    ("mcc", True): ("F6 F6 F6 F6 F6 F6 I F6 F6 F6 F6 F6 F6 F6 F6 F6", "dc316019dff718bfde445b9b"),
    ("mcc", False): ("F6 N6 F6 F6 F6 F6 N6 N6 F6 F6 N6 F6 F6 N6 F6 F6", "86bc4ac328c6c4cf78842232"),
}


@pytest.mark.parametrize("problem,planted", list(_GF8209_RECORDED), ids=str)
def test_seeded_solves_over_gf8209_match_the_recorded_outcomes(problem, planted):
    mode = "deep planted" if planted else "deep unrelated"
    assert _seeded_outcomes(problem, F8209, 6, mode) == _GF8209_RECORDED[problem, planted]


# recorded before the prime-field eliminations delayed their reductions:
# the instance kinds of the benchmark's sweep and t4_corank workloads, and a
# deep mcc over GF(2^31 - 1), where a block takes 2 updates between reductions
_PRIME_RECORDED = {
    ("algiso", 5, 24, "planted"): ("F2 F3 F2 F2 F3 F2 F2 F2 F2 F2 F2 F2 F4 F3 F3 F3",
                                   "2886d3076745a1107b22554b"),
    ("algiso", 5, 24, "unrelated"): ("F2 N2 F2 F2 N2 F2 F2 F2 F2 F2 F2 F2 N2 N2 N2 N2",
                                     "eb16c6a41df6a8d09e73a2ba"),
    ("mcc", 7, 10, "planted"): ("F2 F2 F2 F2 F2 F2 F2 F2 F2 F2 F2 F2 F2 F2 F2 F2",
                                "e5687cffc4a51d8bd738e2ae"),
    ("t4", 2, 3, "unrelated"): ("N2 N2 N2 N2 F3 F3 N2 N2 F3 N2 N2 N2 F2 F3 F3 N2",
                                "ad89544d3f8b2799f8f4a8e5"),
    ("t4", 2, 3, "planted_corank(3)"): ("F3 I F3 I I I I I F5 I I I I I I I",
                                        "c6df3948483d1d9684cfdc65"),
    ("mcc", (1 << 31) - 1, 16, "deep planted"): ("F6 F6 F6 F6 F6 F6 F6 F6 F6 F6 F6 F6 F6 F6 F6 I",
                                                 "b1be561c596fde1f1ef30f7a"),
}


@pytest.mark.parametrize("problem,p,n,mode", list(_PRIME_RECORDED), ids=str)
def test_seeded_solves_over_prime_fields_match_the_recorded_outcomes(problem, p, n, mode):
    assert _seeded_outcomes(problem, field_create(p), n, mode) == _PRIME_RECORDED[problem, p, n, mode]


def _hull_one_stacks(field, n, count, rng):
    """`count` random stacks of n matrices of size n x n whose code has
    dimension n and a one-dimensional hull, each with its hull spanner h."""
    out = []
    while len(out) < count:
        S = rng.integers(0, field.q, size=(n, n, n))
        if len(rref(field, S.reshape(n, n * n))[1]) < n:
            continue
        _, right = right_kernel(MatGF(field, trace_gram(field, S, S)))
        if len(right) == 1:
            out.append((S, field.ops.matmul(right[0], S.reshape(n, n * n)).reshape(n, n)))
    return out


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 1)])
def test_mcc_step6_gram_is_alternating_in_characteristic_2(p, m):
    """mcc step 6's G2(i,j) = Tr(A_i h A_j h) over GF(2^k) (see README): the
    diagonal Tr((A_i h)^2) = Tr(A_i h)^2 is 0 because h is in the hull, so G2
    is alternating, singular for odd n, and for even n every eigenvalue of
    Psi = G2^-1 Gamma has even multiplicity: charpoly(Psi) has only
    even-degree terms.  GF(3) shows none of this."""
    field = field_create(p, m)
    ops = field.ops
    rng = np.random.default_rng(field.q)
    seen = {"diagonal": 0, "invertible_odd_n": 0, "odd_degree_term": 0, "invertible_even_n": 0}
    for n in (6, 7):
        for S, h in _hull_one_stacks(field, n, 6, rng):
            Gamma = trace_gram(field, S, S)
            G2 = trace_gram(field, S, ops.matmul(ops.matmul(h, S), h))
            assert (G2 == G2.T).all()
            G2inv, d = inverse_det(MatGF(field, G2))
            seen["diagonal"] += bool(np.diagonal(G2).any())
            if n == 7:
                seen["invertible_odd_n"] += d != 0
            elif d != 0:
                seen["invertible_even_n"] += 1
                coeffs = charpoly(MatGF(field, ops.matmul(G2inv.a, Gamma))).coeffs
                seen["odd_degree_term"] += any(coeffs[1::2])
    assert seen["invertible_even_n"] > 0
    if p == 2:
        assert seen == {"diagonal": 0, "invertible_odd_n": 0, "odd_degree_term": 0,
                        "invertible_even_n": seen["invertible_even_n"]}
    else:
        assert min(seen.values()) > 0, seen


def test_step6_conjugacy_decides_when_the_seed_does_not():
    """A = (E22, E21) has scalar centralizer, and span(e2) is invariant
    under it, so the seed (e2, T e2) leaves `conj_with_seed` undecided; the
    full system then finds a conjugator, or certifies there is none."""
    ops = F5.ops
    A = tuple(MatGF(F5, np.array(M, dtype=ops.dtype))
              for M in ([[0, 0], [0, 1]], [[0, 0], [1, 0]]))
    T = MatGF(F5, np.array([[1, 1], [0, 1]], dtype=ops.dtype))
    Tinv, _ = inverse_det(T)
    B = tuple(T @ M @ Tinv for M in A)
    e2 = np.array([0, 1], dtype=ops.dtype)
    seed = (e2, ops.matmul(T.a, e2[:, None])[:, 0])
    assert conj_with_seed(A, B, *seed) == (None, False)
    trace = StageTrace()
    S, stop = _conj_pair(trace, A, B, seed, np.random.default_rng(0))
    assert stop is None
    assert all(S @ M == N @ S for M, N in zip(A, B))
    Z = (MatGF(F5, ops.zeros((2, 2))),) * 2
    S, (verdict, _) = _conj_pair(trace, A, Z, seed, np.random.default_rng(0))
    assert S is None and (verdict.kind, verdict.stage) == ("NotIsomorphic", "step6")


def test_t4_planted_corank_success():
    hits = 0
    for seed in range(20):
        A, B, _w = gen_instance("t4", 3, 2, "planted_corank(3)", seed)
        verdict, trace = solve_t4(A, B, rng=seed)
        _check_trace(trace)
        if verdict.kind == "Isomorphic":
            hits += 1
            assert verify_witness("t4", A, B, verdict.witness)
    assert hits >= 5  # empirical success rate well above 0.5


def _reference_candidates(field, fixed_first, fixed_reduced, other_mats):
    """The per-candidate loop that `_ordered_basis_candidates` replaced: one
    inverse and one conjugacy solve for each of the q^{c^2} coefficient
    matrices, in the same base-q order."""
    c = len(other_mats)
    q = field.q
    out = []
    seen = set()
    A1 = fixed_first
    for rep in range(q ** (c * c)):
        digits = []
        t = rep
        for _ in range(c * c):
            digits.append(t % q)
            t //= q
        combo = []
        for i in range(c):
            acc = field.ops.zeros(other_mats[0].shape)
            for j in range(c):
                d = digits[i * c + j]
                if d:
                    acc = field.ops.add(acc, field.ops.mul(other_mats[j].a, d))
            combo.append(MatGF(field, acc))
        B1inv, dB1 = inverse_det(combo[0])
        if dB1 == 0:
            continue
        reduced = [B1inv @ M for M in combo[1:]]
        cc = conj_coset(tuple(fixed_reduced), tuple(reduced))
        if cc.kind != "Conjugate":
            continue
        R = cc.representative
        Rinv, _ = inverse_det(R)
        L = (A1 @ Rinv @ B1inv).T
        KLR = kron(L, R)
        key = np.asarray(KLR.a, dtype=np.int64).tobytes()
        if key not in seen:
            seen.add(key)
            out.append((L, R, KLR))
    return out


def _t4_candidate_sides(field, n, c, seeds):
    """(seed, fixed side, other code's basis) for each kernel-code side of a
    planted-corank instance that passes the step-3/5 scalar-centralizer gate."""
    for seed in seeds:
        A, B, _w = gen_instance("t4", n, field, f"planted_corank({c})", seed)
        _, rightA, leftA = rref_rank_kernel(flatten4(A))
        _, rightB, leftB = rref_rank_kernel(flatten4(B))
        for vecsA, vecsB in ((leftA, leftB), (rightA, rightB)):
            fixed = _kernel_code_side(field, vecsA, n)
            if fixed is not None and len(vecsA) == len(vecsB) == c:
                yield seed, fixed, [vec_to_matrix(field, v, n) for v in vecsB]


def _candidates_digest(cands):
    h = hashlib.blake2b(digest_size=8)
    for triple in cands:
        for M in triple:
            h.update(np.asarray(M.a, dtype=np.int64).tobytes())
    return f"{len(cands)}:{h.hexdigest()}"


# c = 2 never reaches the candidate loop at n >= 2: the reduced tuple is one
# matrix F_2, whose centralizer holds every polynomial in F_2, so step 3 fails
@pytest.mark.parametrize("field,n,c,seeds", [
    (field_create(2), 3, 3, range(6)), (field_create(3), 2, 3, range(1))],
    ids=["GF(2)", "GF(3)"])
def test_t4_screened_candidates_match_the_per_candidate_loop(field, n, c, seeds):
    sides = 0
    for seed, (A1, reduced, _), mats in _t4_candidate_sides(field, n, c, seeds):
        new = _ordered_basis_candidates(field, A1, reduced, mats)
        ref = _reference_candidates(field, A1, reduced, mats)
        assert len(new) == len(ref)
        assert all(a == b for x, y in zip(new, ref) for a, b in zip(x, y))
        sides += 1
    assert sides >= 2


def test_t4_screened_candidates_over_gf4_match_the_recorded_reference():
    """Over GF(4) the reference loop runs through 4^9 coefficient matrices in
    about four minutes, so its digest on this side was recorded once."""
    field = field_create(2, 2)
    seed, (A1, reduced, _), mats = next(_t4_candidate_sides(field, 2, 3, [1]))
    new = _ordered_basis_candidates(field, A1, reduced, mats)
    assert _candidates_digest(new) == "180:b2ebf3a4e61d116b"


def test_t4_screened_candidates_over_gf4_n3_match_the_recorded_reference():
    """Digests of both sides of one GF(4) n=3 instance, recorded from the
    enumeration of all q^(c^2) ordered bases, which takes about 7 s a side."""
    field = field_create(2, 2)
    digests = [_candidates_digest(_ordered_basis_candidates(field, A1, reduced, mats))
               for _, (A1, reduced, _), mats in _t4_candidate_sides(field, 3, 3, [1])]
    assert digests == ["3:039830646bf55ced", "27:4bec5683171e743a"]


# corank 3 over GF(5) and GF(7), and corank 4 over GF(3): more than 2^18
# ordered bases, but at most 2^18 products B_1^{-1} X (q^(2c))
@pytest.mark.parametrize("q,n,c,seed", [(5, 2, 3, 2), (5, 3, 3, 0), (7, 2, 3, 1), (3, 3, 4, 3)])
def test_t4_planted_above_the_ordered_basis_bound(q, n, c, seed):
    field = field_create(q)
    A, B, _w = gen_instance("t4", n, field, f"planted_corank({c})", seed)
    verdict, trace = solve_t4(A, B, rng=seed)
    _check_trace(trace)
    assert verdict.kind == "Isomorphic"
    assert verify_witness("t4", A, B, verdict.witness)


def test_t4_unrelated_gf3_never_isomorphic():
    for seed in range(10):
        A, B, _w = gen_instance("t4", 3, field_create(3), "unrelated", seed)
        assert solve_t4(A, B, rng=seed)[0].kind != "Isomorphic"


def test_t4_step3_scan_is_bounded():
    """Flattening rows 0 and 1 zero: the left kernel code is every matrix with
    a zero second row, so no code element is invertible; over GF(2^31 - 1)
    there are 2^62 of them, and the bound stops step 3 before any is formed."""
    field = field_create((1 << 31) - 1)
    a = np.zeros((2, 2, 2, 2), dtype=np.int64)
    a[1] = np.random.default_rng(0).integers(0, field.q, size=(2, 2, 2))
    A = Tensor4(field, a)
    t0 = time.perf_counter()
    verdict, trace = solve_t4(A, A)
    assert time.perf_counter() - t0 < 1
    assert (verdict.kind, verdict.stage) == ("Failure", "step3")
    assert trace.outcome("step2") == "pass"


def test_t4_surviving_bases_are_bounded(monkeypatch):
    """The zero 2x2x2x2 tensor's kernel codes are all of M(2, 2), c = 4: 2^8
    products B_1^{-1} X, and more than 2^8 ordered bases pass the charpoly
    screen, so a bound of 2^8 stops step 4."""
    field = field_create(2)
    Z = Tensor4(field, np.zeros((2, 2, 2, 2), dtype=np.int64))
    assert solve_t4(Z, Z)[0].kind == "Isomorphic"
    monkeypatch.setattr("tiso.solvers._T4_ENUM_CAP", 2 ** 8)
    verdict, trace = solve_t4(Z, Z)
    assert (verdict.kind, verdict.stage) == ("Failure", "step4")
    assert trace.outcome("step3") == "pass"


@pytest.mark.parametrize("q", [2, 5])
def test_t4_zero_1x1x1x1_is_isomorphic_to_itself(q):
    """c = 1: no F_i to match, so each invertible B_1 gives R = I."""
    field = field_create(q)
    A = Tensor4(field, np.zeros((1, 1, 1, 1), dtype=np.int64))
    verdict, trace = solve_t4(A, A)
    _check_trace(trace)
    assert verdict.kind == "Isomorphic"
    assert verify_witness("t4", A, A, verdict.witness)


def test_t4_step6_not_isomorphic_confirmed_by_brute_force():
    """Every step-6 NotIsomorphic on these n = 2 GF(2) pairs is checked
    against all 6^4 = 1296 tuples of GL(2, 2)^4; the search must also find
    a tuple for every Isomorphic pair, so it is not vacuous."""
    field = field_create(2)
    gl2 = [MatGF(field, np.array(e).reshape(2, 2)) for e in itertools.product(range(2), repeat=4)
           if inverse_det(MatGF(field, np.array(e).reshape(2, 2)))[1]]
    assert len(gl2) == 6

    def orbit_hit(A, B):
        return any(act4(A, *g).a.tolist() == B.a.tolist()
                   for g in itertools.product(gl2, repeat=4))

    checked = 0
    for s in range(2):
        A = gen_instance("t4", 2, field, "planted_corank(3)", s)[0]
        for t in range(4):
            B = gen_instance("t4", 2, field, "planted_corank(3)", t)[1]
            verdict, _ = solve_t4(A, B)
            if verdict.kind == "NotIsomorphic":
                assert verdict.stage == "step6" and not orbit_hit(A, B)
                checked += 1
            else:
                assert verdict.kind == "Isomorphic" and orbit_hit(A, B)
    assert checked >= 1


def test_t4_unrelated_never_isomorphic():
    for seed in range(20):
        A, B, _w = gen_instance("t4", 3, 2, "unrelated", seed)
        verdict, _ = solve_t4(A, B, rng=seed)
        assert verdict.kind != "Isomorphic"


def test_failure_vs_notiso_sides():
    """First-input breakdowns are Failure; certified mismatches on the
    second input are NotIsomorphic."""
    fail_stages = set()
    notiso_seen = False
    for seed in range(60):
        A, B, _w = gen_instance("algiso", 8, 5, "unrelated", seed)
        verdict, trace = solve_algiso(A, B, rng=seed)
        if verdict.kind == "Failure":
            fail_stages.add(verdict.stage)
        elif verdict.kind == "NotIsomorphic":
            notiso_seen = True
    assert "step2" in fail_stages  # the hull gate dominates
    assert notiso_seen  # A passing + B failing a gate must occur


def test_input_validation():
    A, B, _w = gen_instance("algiso", 3, 5, "unrelated", 0)
    C, _D, _w2 = gen_instance("algiso", 4, 5, "unrelated", 0)
    with pytest.raises(ShapeMismatch):
        solve_algiso(A, C)
    with pytest.raises(BadParams):
        solve("frobnicate", A, B)
    small, small2, _ = gen_instance("mcc", 2, 5, "unrelated", 0)
    with pytest.raises(BadParams):
        solve_mcc(small, small2)
