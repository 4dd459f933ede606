"""The three average-case decision pipelines.

Each solver walks a fixed six-stage decision tree.  A gate tests the first
input and then, only if it passed, the second (`_gate`).  Breakdowns on the
first input are reported as Failure (the average-case precondition did not
hold); breakdowns on the second input are certified invariant mismatches and
are reported as NotIsomorphic.  The exits that compare the two inputs, or
that give Failure whichever input broke down, are written out at their
stage.  A verdict of Isomorphic always carries a witness that re-verifies
exactly before being returned.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from .errors import (BadParams, InvariantViolation, NotSimpleEigenvalue,
                     ShapeMismatch)
from .codes import code_from_slices, hull, trace_gram
from .conj import (centralizer_is_scalars, conj_coset, conj_with_seed, intertwiner_space,
                   intertwiner_system)
from .gf import digit_planes
from .matgf import (MatGF, charpoly_stack, eigen_profile, identity, inverse_det,
                    right_kernel, rref_rank_kernel, rref_stack, solve_linear,
                    unique_simple_eigenvalue, primary_split_basis)
from .tensor import (Tensor3, Tensor4, Verdict, as_rng, flatten4, kron,
                     mode_product, vec_to_matrix, verify_witness)

STAGES = ("step1", "step2", "step3", "step4", "step5", "step6")


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64))
    return h.hexdigest()


@dataclass
class StageTrace:
    entries: list = dc_field(default_factory=list)

    def record(self, stage: str, outcome: str, *payload):
        if stage not in STAGES:
            raise BadParams(f"unknown stage {stage!r}")
        self.entries.append(
            {"stage": stage, "outcome": outcome,
             "digest": _digest(*payload) if payload else ""})

    def outcome(self, stage: str):
        for e in self.entries:
            if e["stage"] == stage:
                return e["outcome"]
        return None

    def reached(self, stage: str) -> bool:
        return any(e["stage"] == stage for e in self.entries)

    def to_json(self) -> list:
        return [dict(e) for e in self.entries]


def _fail(trace: StageTrace, stage: str, *payload):
    trace.record(stage, "failure", *payload)
    return Verdict("Failure", stage=stage), trace


def _notiso(trace: StageTrace, stage: str, *payload):
    trace.record(stage, "not_isomorphic", *payload)
    return Verdict("NotIsomorphic", stage=stage), trace


def _gate(trace: StageTrace, stage: str, test, a, b):
    """Run `test` on the first input and, only if that passes, on the second.

    `test` returns None on a breakdown.  Returns (test(a), test(b), None)
    when both pass, else (None, None, stop) with stop the (verdict, trace)
    pair the solver returns: Failure when the first input breaks down,
    NotIsomorphic when only the second does.
    """
    ra = test(a)
    if ra is None:
        return None, None, _fail(trace, stage)
    rb = test(b)
    if rb is None:
        return None, None, _notiso(trace, stage)
    return ra, rb, None


def _check_pair3(A: Tensor3, B: Tensor3, min_n: int):
    if A.field != B.field:
        raise ShapeMismatch("inputs over different fields")
    n = A.dims[0]
    if A.dims != (n, n, n) or B.dims != A.dims:
        raise ShapeMismatch("inputs must be cubic tensors of equal size")
    if n < min_n:
        raise BadParams(f"side length must be >= {min_n}")
    return A.field, n


def _hull_spanners(trace: StageTrace, A: Tensor3, B: Tensor3, direction: str, n: int):
    """Steps 1-2 on the slices along `direction`: each slice code must have
    full dimension n and a 1-dimensional hull.  Returns the two hull
    spanners and a stop, as `_gate` does."""
    def full_code(T):
        C = code_from_slices(T, direction)
        return C if C.dim == n else None

    def hull_spanner(C):
        H = hull(C)
        return H.basis()[0] if H.dim == 1 else None

    CA, CB, stop = _gate(trace, "step1", full_code, A, B)
    if stop:
        return None, None, stop
    trace.record("step1", "pass", CA.basis_flat, CB.basis_flat)
    return _gate(trace, "step2", hull_spanner, CA, CB)


def _conj_pair(trace: StageTrace, Atuple, Btuple, seed):
    """Step 6's conjugator: T with T A_i = B_i T, and a stop as `_gate` gives.

    seed = (w, z) is a vector pair any intertwiner must match up to scale,
    with w spanning the eigenline of a simple eigenvalue of A_1.  Failure
    unless C(Atuple) is certified to be the scalars.  Then Conj(Atuple,
    Btuple) is a line or holds no invertible element, and no conjugator is
    NotIsomorphic.  The seeded propagation decides whenever w's closure spans
    F^n, the only way the gate passes above FULL_SYSTEM_MAX_N; otherwise
    `conj_coset` decides.
    """
    if centralizer_is_scalars(Atuple, seed[0]) is not True:
        return None, _fail(trace, "step6")
    T, decided = conj_with_seed(Atuple, Btuple, *seed)
    if not decided:
        T = conj_coset(Atuple, Btuple).representative
    if T is None:
        return None, _notiso(trace, "step6")
    return T, None


# ---------------------------------------------------------------------------
# algebra isomorphism


def solve_algiso(A: Tensor3, B: Tensor3, rng=None):
    """Average-case algebra-basis equivalence of two cubic tensors.

    Nothing is drawn from rng, which `solve` passes to every solver.
    """
    field, n = _check_pair3(A, B, 3)
    trace = StageTrace()
    simple_nonzero = partial(unique_simple_eigenvalue, require_nonzero=True)

    # steps 1-2: full horizontal slice codes with hulls of dimension 1
    hA, hB, stop = _hull_spanners(trace, A, B, "horizontal", n)
    if stop:
        return stop
    trace.record("step2", "pass", hA.a, hB.a)

    # step 3: unique simple eigenvalues on the hull spanners
    resA, resB, stop = _gate(trace, "step3", unique_simple_eigenvalue, hA, hB)
    if stop:
        return stop
    # hull spanners are only defined up to scale, so only zero-ness matches
    if (resA[0] == 0) != (resB[0] == 0):
        return _notiso(trace, "step3")
    A1 = MatGF(field, mode_product(field, A.a, resA[1][None], 0)[0])
    B1 = MatGF(field, mode_product(field, B.a, resB[1][None], 0)[0])
    trace.record("step3", "pass", A1.a, B1.a)

    # step 4: contracted pair, nonzero unique simple eigenvalues, rescale B
    res1, res1b, stop = _gate(trace, "step4", simple_nonzero, A1, B1)
    if stop:
        return stop
    alpha1, v1, w1 = res1
    beta1, u1, z1 = res1b
    B1r = B1.scale(field.div(alpha1, beta1))
    A2 = MatGF(field, mode_product(field, A.a, v1[None], 0)[0])
    B2 = MatGF(field, mode_product(field, B.a, u1[None], 0)[0])
    trace.record("step4", "pass", A2.a, B2.a)

    # step 5: second contracted pair
    res2, res2b, stop = _gate(trace, "step5", simple_nonzero, A2, B2)
    if stop:
        return stop
    B2r = B2.scale(field.div(res2[0], res2b[0]))
    trace.record("step5", "pass", B1r.a, B2r.a)

    # step 6: tuple conjugacy and global verification
    T, stop = _conj_pair(trace, (A1, A2), (B1r, B2r), (w1, z1))
    if stop:
        return stop
    ok, lam = verify_witness("algiso", A, B, {"T": T})
    if not ok:
        return _notiso(trace, "step6")
    W = T.scale(lam)
    if verify_witness("algiso", A, B, {"T": W}) != (True, 1):
        raise InvariantViolation("rescaled algiso witness failed to re-verify")
    trace.record("step6", "pass", W.a)
    return Verdict("Isomorphic", witness={"T": W}, scalar=lam), trace


# ---------------------------------------------------------------------------
# matrix code conjugacy


def solve_mcc(A: Tensor3, B: Tensor3, rng=None):
    """Average-case conjugacy of the frontal-slice matrix codes."""
    field, n = _check_pair3(A, B, 3)
    ops = field.ops
    rng = as_rng(rng)
    trace = StageTrace()
    simple_nonzero = partial(unique_simple_eigenvalue, require_nonzero=True)

    # steps 1-2: full frontal slice codes with hulls of dimension 1, whose
    # spanners have nonzero unique simple eigenvalues
    hA, hB, stop = _hull_spanners(trace, A, B, "frontal", n)
    if stop:
        return stop
    resA, resB, stop = _gate(trace, "step2", simple_nonzero, hA, hB)
    if stop:
        return stop
    lamA = resA[0]
    hBs = hB.scale(field.div(lamA, resB[0]))  # target relation: S hA S^{-1} = hBs
    trace.record("step2", "pass", hA.a, hBs.a)

    # step 3: primary splits put both lambda-eigenspaces at span{e_1}
    PA, PAinv = primary_split_basis(field, *resA[1:])
    PB, PBinv = primary_split_basis(field, *resB[1:])  # hBs has hB's eigenvectors
    # frontal slices A_k = A[:, :, k], stacked along the first axis
    As = ops.matmul(ops.matmul(PA.a, np.moveaxis(A.a, 2, 0)), PAinv.a)
    Bs = ops.matmul(ops.matmul(PB.a, np.moveaxis(B.a, 2, 0)), PBinv.a)
    hAt = PA @ hA @ PAinv
    hBt = PB @ hBs @ PBinv
    trace.record("step3", "pass", hAt.a, hBt.a)

    # step 4: the first-column slice matrix and its hyperplane normals
    def hyper_normal(stack):
        # column j of the first-column matrix is slice j's first column
        _, right = right_kernel(MatGF(field, stack[:, 1:, 0].T.copy()))
        if len(right) != 1:
            return None
        return right[0]

    vA = hyper_normal(As)
    if vA is None:
        return _fail(trace, "step4")
    vB = hyper_normal(Bs)
    if vB is None:
        return _fail(trace, "step4")
    trace.record("step4", "pass", vA, vB)

    # step 5: contract each side with its own normal; matched up to scalar
    A1 = MatGF(field, mode_product(field, As, vA[None], 0)[0])
    B1 = MatGF(field, mode_product(field, Bs, vB[None], 0)[0])
    res1, res1b, stop = _gate(trace, "step5", simple_nonzero, A1, B1)
    if stop:
        return stop
    B1r = B1.scale(field.div(res1[0], res1b[0]))
    trace.record("step5", "pass", A1.a, B1r.a)

    # step 6: a second matched pair from the Gram operators, then conjugacy
    # and row-by-row recovery of T.
    #
    # The hyperplane contraction of steps 4-5 always lands back on the hull
    # spanner: the hull's coefficient vector lies in the kernel of the
    # first-column matrix (the split basis puts the hull spanner's first
    # column at lambda e_1), and that kernel is required to be a line.  A
    # genuinely new matched pair comes from the coefficient-space Gram
    # operators Gamma(i,j) = Tr(A_i A_j) and G2(i,j) = Tr(A_i h A_j h): both
    # transform by T-congruence, so Psi = G2^{-1} Gamma is conjugated by
    # T^{-t} and its eigenvectors are canonical coefficient vectors.  The
    # hull's coefficient vector spans the 0-eigenspace of Psi (Gamma
    # annihilates it), so the unique simple NONZERO eigenvalue selects an
    # independent one.
    resPsiA, resPsiB, stop = _gate(
        trace, "step6", lambda side: _gram_operator_vector(field, *side, rng),
        (As, hAt), (Bs, hBt))
    if stop:
        return stop
    (muA, xA), (muB, xB) = resPsiA, resPsiB
    if muB != muA:
        return _notiso(trace, "step6")
    A2 = MatGF(field, mode_product(field, As, xA[None], 0)[0])
    B2 = MatGF(field, mode_product(field, Bs, xB[None], 0)[0])
    res2, res2b, stop = _gate(trace, "step6", simple_nonzero, A2, B2)
    if stop:
        return stop
    B2r = B2.scale(field.div(res2[0], res2b[0]))
    # step 3's split bases map the lambda-eigenvectors of hA and hBs to e_1,
    # so e_1 is the matched right eigenvector of hAt and of hBt
    e1 = ops.zeros(n)
    e1[0] = 1
    S, stop = _conj_pair(trace, (hAt, A2), (hBt, B2r), (e1, e1))
    if stop:
        return stop
    # T from B_k = sum_k' T(k,k') S A_k' S^{-1}: solve x K = rhs row by row
    K = MatGF(field, ops.matmul(S.a, As).reshape(n, -1))
    rhs = ops.matmul(Bs, S.a).reshape(n, -1)
    sol = solve_linear(K, rhs, side="left")
    if sol is None:
        return _notiso(trace, "step6")
    T = MatGF(field, sol[0])
    S_orig = PBinv @ S @ PA
    if not verify_witness("mcc", A, B, {"S": S_orig, "T": T}):
        return _notiso(trace, "step6")
    trace.record("step6", "pass", S_orig.a, T.a)
    return Verdict("Isomorphic", witness={"S": S_orig, "T": T}), trace


def _gram_operator_vector(field, stack, h, rng):
    """(mu, x) with Psi x = mu x for Psi = G2^{-1} Gamma on coefficient space.

    Gamma(i,j) = Tr(M_i M_j), G2(i,j) = Tr(M_i h M_j h) over the matrices M_i
    of `stack`; mu is the unique simple nonzero F_q-eigenvalue of Psi.  None
    when G2 is singular, no such eigenvalue exists, or it is not unique among
    the simple nonzero ones.
    """
    ops = field.ops
    Gamma = trace_gram(field, stack, stack)
    G2 = trace_gram(field, stack, ops.matmul(ops.matmul(h.a, stack), h.a))
    G2inv, d = inverse_det(MatGF(field, G2))
    if d == 0:
        return None
    Psi = MatGF(field, ops.matmul(G2inv.a, Gamma))
    simple_nonzero = [lam for lam, m in eigen_profile(Psi, rng)
                      if m == 1 and lam != 0]
    if len(simple_nonzero) != 1:
        return None
    mu = simple_nonzero[0]
    shifted = MatGF(field, ops.sub(Psi.a, ops.mul(identity(field, Psi.rows).a, mu)))
    _, right = right_kernel(shifted)
    if len(right) != 1:
        raise NotSimpleEigenvalue(f"eigenspace of the simple eigenvalue {mu} is not a line")
    return mu, right[0]


# ---------------------------------------------------------------------------
# 4-tensor isomorphism


# bound on q^(2c), the B_1^{-1} X products the candidate screen forms, and
# on the ordered bases that pass it
_T4_ENUM_CAP = 1 << 18
# largest kernel-code dimension c that steps 3-5 take on
_T4_C_MAX = 4


def _invert_stack(field, M):
    """(invertible mask, inverses) of a (k, n, n) stack from one rref of [M | I]."""
    n = M.shape[-1]
    eye = np.broadcast_to(identity(field, n).a, M.shape)
    R, _, pivots = rref_stack(field, np.concatenate([M, eye], axis=2))
    return pivots[:, :n].all(axis=1), R[:, :, n:]


def _code_elements(field, mats):
    """(coefficients, elements, invertible mask, inverses) of the q^c
    elements of span(mats), in base-q order: row k of the coefficients holds
    the digits of k, lowest first.  None when q^(2c) exceeds `_T4_ENUM_CAP`.
    """
    q, c, n = field.q, len(mats), mats[0].rows
    if q ** (2 * c) > _T4_ENUM_CAP:
        return None
    coeffs = digit_planes(np.arange(q ** c), q, c).T
    flat = np.stack([M.a.reshape(-1) for M in mats])
    X = field.ops.matmul(coeffs, flat).reshape(-1, n, n)
    return (coeffs, X) + _invert_stack(field, X)


def _ordered_basis_candidates(field, fixed_first, fixed_reduced, other_mats):
    """Kronecker-factor candidates mapping the enumerated code to the fixed one.

    fixed_first = A_1 (invertible), fixed_reduced = F = (A_1^{-1} A_i)_{i >= 2};
    for each ordered basis (B_1..B_c) of span(other_mats) with B_1 invertible
    solve R in Conj(F, G) for G = (B_1^{-1} B_i) and set L^t = A_1 R^{-1} B_1^{-1},
    so that L^t B_i R = A_i.  Returns a list of (L, R, L-kron-R) de-duplicated
    by the Kronecker product (the (mu^{-1} L, mu R) torus cancels there), or
    None past `_T4_ENUM_CAP`.  At c = 1 there is no F, and R = I.

    R F_i R^{-1} = G_i needs charpoly(B_1^{-1} B_i) = charpoly(F_i) for each
    i on its own, so the screen factorizes: for each invertible B_1 the
    stacked charpolys of B_1^{-1} X over the q^c code elements X pick the
    survivors for each B_i.  Their combinations, in base-q order of the
    c x c coefficient matrix (B_1 the lowest digit block), then meet the
    exact tests: a singular coefficient matrix is no basis (conjugation keeps
    {I, F_2, .., F_c} independent), and the intertwiner space of (F, G) must
    be a line, because with C(F) the scalars (the step 3/5 gate) a space of
    dimension >= 2 holds no invertible element.
    """
    code = _code_elements(field, other_mats)
    if code is None:
        return None
    coeffs, X, invertible, Xinv = code
    ops = field.ops
    qc, c, n = len(X), len(other_mats), fixed_first.rows
    F = np.array([Fi.a for Fi in fixed_reduced], dtype=np.int64).reshape(-1, n, n)
    k1 = np.flatnonzero(invertible)
    polys = charpoly_stack(field, ops.matmul(Xinv[k1][:, None], X).reshape(-1, n, n))
    # match[b, i, k]: with the b-th invertible B_1, code element k may be B_(i+2)
    match = (polys.reshape(len(k1), 1, qc, n + 1)
             == charpoly_stack(field, F)[:, None]).all(axis=3)
    if match.sum(axis=2).prod(axis=1).sum() > _T4_ENUM_CAP:
        return None
    # rep = k_1 + k_2 qc + .. + k_c qc^(c-1), B_i the k_i-th code element
    reps = [np.zeros(0, dtype=np.int64)]
    for b, m in zip(k1, match):
        rep = np.array([b])
        for i, mi in enumerate(m, 1):
            rep = (rep + np.flatnonzero(mi)[:, None] * qc ** i).ravel()
        reps.append(rep)
    blocks = digit_planes(np.sort(np.concatenate(reps)), qc, c).T
    blocks = blocks[rref_stack(field, coeffs[blocks])[1] == c]
    B1inv = Xinv[blocks[:, 0]]
    if fixed_reduced:
        G = ops.matmul(B1inv[:, None], X[blocks[:, 1:]])
        dims = n * n - rref_stack(field, intertwiner_system(field, F, G))[1]
        lines = np.flatnonzero(dims == 1)
    else:
        lines = range(len(blocks))
    out = []
    seen = set()
    for j in lines:
        if fixed_reduced:
            # a line of intertwiners: conj_coset decides it and returns R^{-1}
            cc = conj_coset(tuple(fixed_reduced), tuple(MatGF(field, Gi) for Gi in G[j]))
            if cc.kind != "Conjugate":
                continue
            R, Rinv = cc.representative, cc.inverse
        else:
            R = Rinv = identity(field, n)
        L = (fixed_first @ Rinv @ MatGF(field, B1inv[j])).T
        KLR = kron(L, R)
        key = np.asarray(KLR.a, dtype=np.int64).tobytes()
        if key not in seen:
            seen.add(key)
            out.append((L, R, KLR))
    return out


def _kernel_code_side(field, kernel_vecs, n):
    """(first invertible element, reduced tuple, full basis) for one kernel code.

    The first invertible code element in base-q order is A_1.  Returns None
    past `_T4_ENUM_CAP`, when no code element is invertible, or when the
    reduced tuple's centralizer is larger than the scalars (the
    candidate-set size gate).
    """
    mats = [vec_to_matrix(field, v, n) for v in kernel_vecs]
    code = _code_elements(field, mats)
    if code is None or not code[2].any():
        return None
    coeffs, X, invertible, Xinv = code
    i = int(invertible.argmax())
    A1inv, a = MatGF(field, Xinv[i].copy()), coeffs[i]
    # A_1 = sum a_i M_i over independent M_i, so extending A_1 to an ordered
    # basis by the M_i that keep independence, in order, drops exactly the
    # last M_i with a_i != 0
    last = int(np.flatnonzero(a)[-1])
    reduced = tuple(A1inv @ M for M in mats[:last] + mats[last + 1:])
    scalars = len(intertwiner_space(reduced, reduced)) == 1 if reduced else n == 1
    if not scalars:
        return None
    return MatGF(field, X[i].copy()), reduced, mats


def solve_t4(A: Tensor4, B: Tensor4, rng=None):
    """Average-case isomorphism of two n x n x n x n tensors.

    Nothing is drawn from rng, which `solve` passes to every solver.
    """
    if A.field != B.field:
        raise ShapeMismatch("inputs over different fields")
    n = A.dims[0]
    if A.dims != (n, n, n, n) or B.dims != A.dims:
        raise ShapeMismatch("inputs must be cubic 4-tensors of equal size")
    if n < 1:
        raise BadParams("side length must be >= 1")
    field = A.field
    trace = StageTrace()

    # step 1: flatten and take kernel codes
    flA, flB = flatten4(A), flatten4(B)
    _, rightA, leftA = rref_rank_kernel(flA)
    _, rightB, leftB = rref_rank_kernel(flB)
    trace.record("step1", "pass", flA.a, flB.a)

    # step 2: dimension gates
    if len(leftA) != len(leftB) or len(rightA) != len(rightB):
        return _notiso(trace, "step2")
    c = len(leftA)
    if c == 0 or c > _T4_C_MAX:
        return _fail(trace, "step2")
    trace.record("step2", "pass", np.asarray([c]))

    # step 3: fixed bases with invertible first elements, scalar-centralizer gate
    left_fixed = _kernel_code_side(field, leftA, n)
    if left_fixed is None:
        return _fail(trace, "step3")
    trace.record("step3", "pass", left_fixed[0].a)

    # step 4: left-side Kronecker candidates
    matsB = [vec_to_matrix(field, v, n) for v in leftB]
    K1 = _ordered_basis_candidates(field, left_fixed[0], left_fixed[1], matsB)
    if K1 is None:
        return _fail(trace, "step4")
    trace.record("step4", "pass", np.asarray([len(K1)]))

    # step 5: right-side candidates, same machinery
    right_fixed = _kernel_code_side(field, rightA, n)
    if right_fixed is None:
        return _fail(trace, "step5")
    matsBr = [vec_to_matrix(field, v, n) for v in rightB]
    K2 = _ordered_basis_candidates(field, right_fixed[0], right_fixed[1], matsBr)
    if K2 is None:
        return _fail(trace, "step5")
    trace.record("step5", "pass", np.asarray([len(K2)]))

    # step 6: entrywise test over all candidate pairs
    ops = field.ops
    for L, R, KLR in K1:
        mid = ops.matmul(KLR.a, flA.a)
        for S, T, KST in K2:
            if (ops.matmul(mid, KST.a.T) == flB.a).all():
                witness = {"L": L, "R": R, "S": S, "T": T}
                if not verify_witness("t4", A, B, witness):
                    raise InvariantViolation("t4 witness failed to re-verify")
                trace.record("step6", "pass", KLR.a, KST.a)
                return Verdict("Isomorphic", witness=witness), trace
    return _notiso(trace, "step6")


def solve(problem: str, A, B, rng=None):
    rng = as_rng(rng)  # a negative seed is a usage error for every problem
    if problem == "algiso":
        return solve_algiso(A, B, rng)
    if problem == "mcc":
        return solve_mcc(A, B, rng)
    if problem == "t4":
        return solve_t4(A, B, rng)
    raise BadParams(f"unknown problem {problem!r}")
