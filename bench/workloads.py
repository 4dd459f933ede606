"""Benchmark-owned input generation for the tiso benchmark.

Every input is drawn from one ``numpy.random.Generator`` seeded by the
workload seed.  tiso is called only through functions whose results are a
pure function of their arguments: the ``act_*`` group actions, field and
matrix arithmetic, ranks and kernels, determinants and inverses, intertwiner
spaces, and eigenvalue profiles (which may use randomness internally, so they
get a private, fixed-seed generator that never touches the workload stream).  A change in how the
program consumes randomness therefore cannot change a workload.

The uniform and planted draws mirror the distributions of
``tiso.tensor.gen_instance``.  The deep instances have the property the test
helper ``tests/conftest.deep_slices`` builds (a 1-dimensional hull spanned by
a matrix with a unique simple nonzero eigenvalue), reached by a cheaper
construction: the spanner X is drawn first and the other n-1 slices uniformly
from its trace-orthogonal hyperplane, so no n^2-dimensional kernel is formed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from tiso import matgf
from tiso.conj import intertwiner_space
from tiso.gf import field_create
from tiso.matgf import MatGF
from tiso.tensor import (Tensor3, Tensor4, act4, act_algebra, act_code_conj,
                         reassemble)

# deep instances by how far the solver gets on them (see `deep_instance`)
FULL = "full"        # passes every gate and returns Isomorphic at step 6
SHALLOW = "shallow"  # algiso: Failure at step 4; mcc: Failure at step 6's
                     # Gram-operator gate, before the conjugacy solve

LARGE_P = (1 << 20) + 7   # criterion 11's field
MERSENNE_31 = (1 << 31) - 1


@dataclass
class Instance:
    label: str
    problem: str
    n: int
    A: object
    B: object
    planted: bool
    solve_seed: int


@dataclass
class Workload:
    name: str
    why: str
    instances: list
    # wrapped layer entry points a traced run of this workload must reach
    expected_layers: tuple


# ---------------------------------------------------------------------------
# primitive draws


def _uniform(field, shape, rng):
    a = rng.integers(0, field.q, size=shape, dtype=np.int64)
    return a.astype(field.ops.dtype, copy=False)


def _invertible(field, n, rng) -> MatGF:
    while True:
        M = MatGF(field, _uniform(field, (n, n), rng))
        if matgf.det(M) != 0:
            return M


def _full_rank(field, rows, cols, rng) -> MatGF:
    while True:
        M = MatGF(field, _uniform(field, (rows, cols), rng))
        if len(matgf.rref(field, M.a)[1]) == min(rows, cols):
            return M


def _eigen_rng():
    # private stream for eigenvalue profiles; their result does not depend on it
    return np.random.default_rng(0)


def _simple_nonzero(M: MatGF):
    """(lambda, left, right) when M's F_q-profile is one simple nonzero root."""
    return matgf.unique_simple_eigenvalue(M, require_nonzero=True, rng=_eigen_rng())


def _combine(field, mats, coeffs) -> MatGF:
    n = mats[0].rows
    flat = np.stack([M.a.reshape(-1) for M in mats], axis=0)
    vec = np.asarray(coeffs, dtype=field.ops.dtype)[None, :]
    return MatGF(field, field.ops.matmul(vec, flat)[0].reshape(n, n))


def _trace_products(field, mats, Y: MatGF) -> np.ndarray:
    """Tr(M Y) for every M, as one product of flattenings."""
    flat = np.stack([M.a.reshape(-1) for M in mats], axis=0)
    return field.ops.matmul(flat, Y.a.T.reshape(-1, 1))[:, 0]


# ---------------------------------------------------------------------------
# deep slices


def _self_dual_spanner(field, n, rng):
    """(X, left eigenvector) with Tr(X^2) = 0, X[1,0] != 0 and a unique simple
    nonzero eigenvalue."""
    while True:
        X = MatGF(field, _uniform(field, (n, n), rng))
        if X.a[1, 0] == 0:
            continue
        if field.p == 2:
            # Tr(X^2) = Tr(X)^2 in characteristic 2: zero the trace
            X.a[0, 0] = 0
            X.a[0, 0] = matgf.trace(X)
        else:
            # Tr(X^2) is affine in X[0,1] with slope 2 X[1,0]
            X.a[0, 1] = 0
            rest = matgf.trace_of_square(X)
            X.a[0, 1] = field.div(field.neg(rest), field.mul(2, int(X.a[1, 0])))
        if matgf.trace_of_square(X) != 0:
            raise RuntimeError("self-dual spanner construction is wrong")
        eig = _simple_nonzero(X)
        if eig is not None:
            return X, eig[1]


def _deep_slices(field, n, rng, X: MatGF) -> list:
    """n-1 uniform slices from X's trace-orthogonal hyperplane, then X, with
    the span n-dimensional and its hull exactly span{X}.

    X lies in the radical of the trace form on the span, so Gram rank n-1
    already forces dimension n and a 1-dimensional hull."""
    ops = field.ops
    inv_x10 = field.inv(int(X.a[1, 0]))
    while True:
        mats = [MatGF(field, _uniform(field, (n, n), rng)) for _ in range(n - 1)]
        for M in mats:
            M.a[0, 1] = 0
        # Tr(X M) has coefficient X[1,0] on M[0,1]
        t = _trace_products(field, mats, X)
        for M, ti in zip(mats, t):
            M.a[0, 1] = field.mul(field.neg(int(ti)), inv_x10)
        mats.append(X)
        flat = np.stack([M.a.reshape(-1) for M in mats], axis=0)
        flat_t = np.stack([M.a.T.reshape(-1) for M in mats], axis=0)
        gram = ops.matmul(flat, flat_t.T)
        if len(matgf.rref(field, gram)[1]) == n - 1:
            return mats


def _algiso_exit(field, mats, X, vA) -> str:
    """The stage algiso stops at on these horizontal slices, planted side;
    vA is X's left eigenvector."""
    res1 = _simple_nonzero(_combine(field, mats, vA))
    if res1 is None:
        return "step4"
    if _simple_nonzero(_combine(field, mats, res1[1])) is None:
        return "step5"
    return "step6"


def _mcc_gram_vector(field, mats, h):
    """The mcc step-6 Gram-operator eigenvector, or None when that gate fails.

    Gamma(i,j) = Tr(M_i M_j) and G2(i,j) = Tr(M_i h M_j h) are similarity
    invariants, so they are computed on the slices as drawn.
    """
    ops = field.ops
    flat = np.stack([M.a.reshape(-1) for M in mats], axis=0)
    flat_t = np.stack([M.a.T.reshape(-1) for M in mats], axis=0)
    hmh_t = np.stack([(h @ M @ h).a.T.reshape(-1) for M in mats], axis=0)
    G2inv, d = matgf.inverse_det(MatGF(field, ops.matmul(flat, hmh_t.T)))
    if d == 0:
        return None
    psi = MatGF(field, ops.matmul(G2inv.a, ops.matmul(flat, flat_t.T)))
    simple = [lam for lam, m in matgf.eigen_profile(psi, _eigen_rng())
              if m == 1 and lam != 0]
    if len(simple) != 1:
        return None
    shifted = psi - matgf.identity(field, psi.rows).scale(simple[0])
    return matgf.rref_rank_kernel(shifted)[1][0]


def _mcc_exit(field, mats, X, _vA) -> str:
    x = _mcc_gram_vector(field, mats, X)
    if x is None or _simple_nonzero(_combine(field, mats, x)) is None:
        return "step6-gate"
    return "step6"


def deep_instance(field, problem, n, depth, spanner, rng, solve_seed) -> Instance:
    """A planted deep algiso (horizontal) or mcc (frontal) pair of the given
    depth class around `spanner` = (X, left eigenvector of X); slices are
    redrawn until the class fits."""
    want = {("algiso", FULL): "step6", ("algiso", SHALLOW): "step4",
            ("mcc", FULL): "step6", ("mcc", SHALLOW): "step6-gate"}[(problem, depth)]
    exit_of = _algiso_exit if problem == "algiso" else _mcc_exit
    X, vA = spanner
    while True:
        mats = _deep_slices(field, n, rng, X)
        if exit_of(field, mats, X, vA) == want:
            break
    if problem == "algiso":
        A = reassemble(field, mats, "horizontal")
        B = act_algebra(A, _invertible(field, n, rng))
    else:
        A = reassemble(field, mats, "frontal")
        B = act_code_conj(A, _invertible(field, n, rng), _invertible(field, n, rng))
    return Instance(f"{problem}/n{n}/{field!r}/deep-{depth}", problem, n, A, B,
                    True, solve_seed)




# ---------------------------------------------------------------------------
# random instances, drawn as `tiso experiment` draws them


def random_instance(field, problem, n, mode, rng, solve_seed) -> Instance:
    """Mirror of gen_instance: 'planted', 'unrelated' or 'planted_corank:c'."""
    planted = mode != "unrelated"
    if problem == "t4":
        shape = (n, n, n, n)
        if mode.startswith("planted_corank:"):
            r = n * n - int(mode.split(":")[1])
            flat = _full_rank(field, n * n, r, rng) @ _full_rank(field, r, n * n, rng)
            A = Tensor4(field, flat.a.reshape(shape).copy())
        else:
            A = Tensor4(field, _uniform(field, shape, rng))
        if planted:
            B = act4(A, *(_invertible(field, n, rng) for _ in range(4)))
        else:
            B = Tensor4(field, _uniform(field, shape, rng))
    else:
        A = Tensor3(field, _uniform(field, (n, n, n), rng))
        if not planted:
            B = Tensor3(field, _uniform(field, (n, n, n), rng))
        elif problem == "algiso":
            B = act_algebra(A, _invertible(field, n, rng))
        else:
            B = act_code_conj(A, _invertible(field, n, rng), _invertible(field, n, rng))
    return Instance(f"{problem}/n{n}/{field!r}/{mode}", problem, n, A, B,
                    planted, solve_seed)


def _t4_side(field, kernel_vecs, n):
    """Mirror of the t4 solver's kernel-code gate on one side, and the number
    of invertible code elements, which sets how many of the enumerated
    ordered bases reach a conjugacy solve (the bulk of a t4 solve's cost).

    The gate passes when some nonzero code element (first in base-q order)
    is invertible and the tuple it reduces the rest of an ordered basis to
    has only scalars commuting with it.
    """
    c, q = len(kernel_vecs), field.q
    mats = [MatGF(field, v.reshape(n, n).copy()) for v in kernel_vecs]
    invertible = []
    for rep in range(1, q ** c):
        X = _combine(field, mats, [(rep // q ** i) % q for i in range(c)])
        inv, d = matgf.inverse_det(X)
        if d != 0:
            invertible.append((X, inv))
    if not invertible:
        return False, 0
    first, inv = invertible[0]
    stack, rest = [first.a.reshape(-1)], []
    for M in mats:
        trial = np.stack(stack + [M.a.reshape(-1)], axis=0)
        if len(matgf.rref(field, trial)[1]) == len(stack) + 1:
            stack.append(M.a.reshape(-1))
            rest.append(inv @ M)
        if len(stack) == c:
            break
    return len(intertwiner_space(tuple(rest), tuple(rest))) == 1, len(invertible)


def t4_cell(A: Tensor4) -> tuple:
    """(stage a planted t4 pair with first tensor A stops at, cost bin).

    The bin is the number of invertible kernel-code elements over the sides
    the solver enumerates (the other tensor's code is an image of A's with
    the same count), clipped to the range the quotas below distinguish.
    """
    field, n = A.field, A.dims[0]
    _, right, left = matgf.rref_rank_kernel(MatGF(field, A.a.reshape(n * n, n * n)))
    if not 0 < len(left) <= 4:
        return "step2", 0
    left_ok, left_inv = _t4_side(field, left, n)
    if not left_ok:
        return "step3", 0
    right_ok, right_inv = _t4_side(field, right, n)
    if not right_ok:
        return "step5", min(max(left_inv, 1), 3)
    return "step6", min(max(left_inv + right_inv, 3), 7)


# Instances per (exit stage, cost bin) in one t4_corank pool: the shares
# measured on natural planted_corank(3) draws, fixed so that a pool's cost
# does not swing with how the seed's draws happen to fall.  The median solve
# lies inside the step-6 cells.
T4_QUOTA = {("step3", 0): 6,
            ("step5", 1): 2, ("step5", 2): 4, ("step5", 3): 2,
            ("step6", 3): 5, ("step6", 4): 6, ("step6", 5): 5, ("step6", 6): 7,
            ("step6", 7): 3}


# ---------------------------------------------------------------------------
# workloads


def _fields(*pm):
    return [field_create(p, m) for p, m in pm]


def _solve_seeds(rng):
    while True:
        yield int(rng.integers(0, 1 << 62))


def build(name: str, seed: int, scale: int = 1) -> Workload:
    """The named workload's instance pool for `seed`.

    `scale` multiplies the pool size; the smoke test passes 0 for the
    smallest pool that still holds every instance kind.
    """
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    seeds = _solve_seeds(rng)
    out = []
    if name == "sweep":
        gf5, gf7, gf2 = _fields((5, 1), (7, 1), (2, 1))
        # mcc is drawn twice per round so that the pool's median solve lies
        # inside the mcc block, not on a boundary between two kinds' times
        kinds = [(gf5, "algiso", 10, "planted"), (gf7, "mcc", 10, "planted"),
                 (gf5, "algiso", 24, "unrelated"), (gf7, "mcc", 10, "planted"),
                 (gf2, "t4", 3, "unrelated")]
        for _ in range(max(1, 48 * scale)):
            for field, problem, n, mode in kinds:
                out.append(random_instance(field, problem, n, mode, rng, next(seeds)))
        layers = ("matgf.rref", "codes.code_from_slices", "codes.hull",
                  "matgf.rref_rank_kernel", "gf.matmul", "gf.elementwise",
                  "solvers.solve")
    elif name == "deep_large":
        (field,) = _fields((LARGE_P, 1))
        span64 = _self_dual_spanner(field, 64, rng)
        span32 = _self_dual_spanner(field, 32, rng)
        for depth in (FULL, SHALLOW)[:1 + min(scale, 1)]:
            out.append(deep_instance(field, "algiso", 64, depth, span64, rng, next(seeds)))
            out.append(deep_instance(field, "mcc", 32, depth, span32, rng, next(seeds)))
        layers = ("matgf.rref", "matgf.rref_rank_kernel", "matgf.solve_linear",
                  "conj.centralizer_is_scalars", "conj.conj_with_seed",
                  "poly.powmod", "poly.roots_in_Fq", "matgf.charpoly",
                  "tensor.verify_witness", "codes.hull", "gf.matmul",
                  "gf.elementwise", "solvers.solve")
    elif name == "t4_corank":
        (field,) = _fields((2, 1))
        quota = {cell: k * scale or 1 for cell, k in T4_QUOTA.items()}
        while any(quota.values()):
            inst = random_instance(field, "t4", 3, "planted_corank:3", rng, next(seeds))
            cell = t4_cell(inst.A)
            if quota.get(cell):
                quota[cell] -= 1
                out.append(inst)
        layers = ("conj.conj_coset", "conj.intertwiner_space", "matgf.inverse_det",
                  "matgf.rref", "matgf.rref_rank_kernel", "gf.elementwise",
                  "solvers.solve")
    elif name == "wide_field":
        fields = _fields((MERSENNE_31, 1), (2, 8), (3, 5), (5, 7))
        # (field, n, algiso depth, mcc depth): mcc never passes step 6's
        # Gram-operator gate in characteristic 2, a full mcc over GF(3^5) costs
        # seconds of set-up each, and shallow GF(5^7) pairs keep the slowest
        # backend under half the run
        kinds = [(fields[0], 16, FULL, FULL), (fields[1], 16, FULL, SHALLOW),
                 (fields[2], 16, FULL, SHALLOW), (fields[3], 8, SHALLOW, SHALLOW)]
        spanners = [_self_dual_spanner(f, n, rng) for f, n, _, _ in kinds]
        # two rounds, so the median solve is not one instance's draw
        for _ in range(2 * scale or 1):
            for (field, n, algiso_depth, mcc_depth), spanner in zip(kinds, spanners):
                out.append(deep_instance(field, "algiso", n, algiso_depth, spanner, rng,
                                         next(seeds)))
                out.append(deep_instance(field, "mcc", n, mcc_depth, spanner, rng,
                                         next(seeds)))
        layers = ("gf.matmul", "gf.elementwise", "matgf.charpoly",
                  "poly.powmod", "poly.roots_in_Fq", "conj.conj_with_seed",
                  "conj.centralizer_is_scalars", "matgf.solve_linear",
                  "tensor.verify_witness", "solvers.solve")
    else:
        raise KeyError(name)
    return Workload(name, WHY[name], out, layers)


def warmup_instances(wl: Workload) -> list:
    """One small unrelated algiso pair per field of the pool, from a private
    generator, so lazy field tables and first-call costs land in set-up."""
    fields = dict.fromkeys(inst.A.field for inst in wl.instances)
    rng = np.random.default_rng(0)
    return [random_instance(f, "algiso", 6, "unrelated", rng, 0) for f in fields]


WHY = {
    "sweep": "small random algiso/mcc/t4 instances as tiso experiment draws them; "
             "most stop at the hull gate, so per-call overhead in codes and rref dominates",
    "deep_large": "deep planted algiso n=64 and mcc n=32 over GF(2^20+7): tall "
                  "eliminations, the unused left kernel, powmod and conjugacy",
    "t4_corank": "t4 n=3 over GF(2) with corank 3: the 512-candidate loop of "
                 "small conj_coset/inverse_det/rref calls",
    "wide_field": "deep instances over GF(2^31-1), GF(2^8), GF(3^5) and GF(5^7): "
                  "every field backend off the int64 prime path",
}
WORKLOADS = tuple(WHY)


# ---------------------------------------------------------------------------
# digests


def _field_key(field) -> bytes:
    return repr((field.p, field.m, field.modulus)).encode()


def input_digest(instances) -> str:
    h = hashlib.blake2b(digest_size=12)
    for inst in instances:
        h.update(f"{inst.problem}|{inst.n}|{inst.planted}|{inst.solve_seed}|".encode())
        h.update(_field_key(inst.A.field))
        for T in (inst.A, inst.B):
            h.update(np.asarray(T.a, dtype=np.int64).tobytes())
    return h.hexdigest()


def verdict_digest(outcomes) -> str:
    """Over (verdict, stage) per instance, in pool order."""
    h = hashlib.blake2b(digest_size=12)
    for kind, stage in outcomes:
        h.update(f"{kind}:{stage};".encode())
    return h.hexdigest()
