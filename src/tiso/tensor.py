"""3- and 4-way arrays over F_q: slicings, group actions, flattenings,
witness verification, instance generation and the JSON file format.

Index conventions are 0-based internally; the pairing index map used by
`flatten4` and `kron` is iota(i, j) = i*n + j on both axes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, FieldMismatch, ShapeMismatch, Singular
from .gf import FieldSpec, as_int, field_create, is_prime
from .matgf import MatGF, inverse_det, random_invertible, rref
from . import matgf

PROBLEMS = ("algiso", "mcc", "t4")


@dataclass
class _Tensor:
    """Dense array of canonical field reps; equal to a tensor of the same
    class, field and entries."""

    field: FieldSpec
    a: np.ndarray

    @property
    def dims(self):
        return self.a.shape

    def __eq__(self, other):
        return (type(other) is type(self) and self.field == other.field
                and self.a.shape == other.a.shape and bool((self.a == other.a).all()))

    def __repr__(self):
        return f"{type(self).__name__}(dims={self.dims} over {self.field})"


class Tensor3(_Tensor):
    """Dense l x m x n array of canonical field reps."""


class Tensor4(_Tensor):
    """Dense n x n x n x n array of canonical field reps."""


@dataclass
class Verdict:
    """Solver output: Isomorphic (with witness), NotIsomorphic, or Failure."""

    kind: str  # "Isomorphic" | "NotIsomorphic" | "Failure"
    witness: dict | None = None  # name -> MatGF, present iff Isomorphic
    stage: str | None = None  # first failing stage for Failure/NotIsomorphic
    scalar: int | None = None  # recovered scalar for the algebra problem

    def to_json(self) -> dict:
        d = {"verdict": self.kind}
        if self.stage is not None:
            d["stage"] = self.stage
        if self.scalar is not None:
            d["lambda"] = int(self.scalar)
        if self.witness is not None:
            d["witness"] = {k: v.tolist() for k, v in self.witness.items()}
        return d


# ---------------------------------------------------------------------------
# slicing


_SLICE_AXIS = {"horizontal": 0, "vertical": 1, "frontal": 2}


def slices(A: Tensor3, direction: str) -> list:
    """Slice along one index: horizontal A_i(j,k), vertical A_j(i,k),
    frontal A_k(i,j)."""
    if direction not in _SLICE_AXIS:
        raise BadParams(f"unknown slice direction {direction!r}")
    ax = _SLICE_AXIS[direction]
    arr = np.moveaxis(A.a, ax, 0)
    return [MatGF(A.field, arr[i].copy()) for i in range(arr.shape[0])]


def reassemble(field: FieldSpec, mats: list, direction: str) -> Tensor3:
    ax = _SLICE_AXIS[direction]
    arr = np.stack([M.a for M in mats], axis=0)
    return Tensor3(field, np.moveaxis(arr, 0, ax).copy())


# ---------------------------------------------------------------------------
# group actions


def mode_product(field: FieldSpec, arr: np.ndarray, M: np.ndarray, axis: int) -> np.ndarray:
    """Contract arr along `axis`: out[.., i, ..] = sum_j M(i,j) * arr[.., j, ..].

    With a 1 x k coefficient row and axis 0 this is the linear combination
    sum_j M(0,j) * arr[j] of a stack of k matrices.
    """
    a = np.moveaxis(arr, axis, 0)
    head = a.shape[0]
    if M.shape[1] != head:
        raise ShapeMismatch("mode product shape mismatch")
    flat = a.reshape(head, -1)
    out = field.ops.matmul(M, flat)
    out = out.reshape((M.shape[0],) + a.shape[1:])
    return np.moveaxis(out, 0, axis)


def act3(A: Tensor3 | Tensor4, *mats: MatGF) -> Tensor3 | Tensor4:
    """One matrix per axis: b_{ijk} = sum l_{i,i'} r_{j,j'} t_{k,k'} a_{i'j'k'}
    for (L, R, T) on a Tensor3, and b_{ijkl} likewise for (L, R, S, T) on a
    Tensor4 (`act4`)."""
    if len(mats) != A.a.ndim:
        raise ShapeMismatch(f"{type(A).__name__} takes {A.a.ndim} matrices, got {len(mats)}")
    out = A.a
    for axis, M in enumerate(mats):
        out = mode_product(A.field, out, M.a, axis)
    return type(A)(A.field, out)


act4 = act3


def _inv_transpose(T: MatGF) -> MatGF:
    Tinv, d = inverse_det(T)
    if d == 0:
        raise Singular("transformation matrix is singular")
    return Tinv.T


def act_algebra(A: Tensor3, T: MatGF) -> Tensor3:
    """The algebra-basis change action: (T, T, T^{-t}) on a cubic tensor.

    Through horizontal slices this is B_i = sum_i' t_{i,i'} T A_{i'} T^{-1}.
    """
    l, m, n = A.dims
    if not (l == m == n) or T.shape != (n, n):
        raise ShapeMismatch("act_algebra needs a cubic tensor and matching T")
    return act3(A, T, T, _inv_transpose(T))


def act_code_conj(A: Tensor3, S: MatGF, T: MatGF) -> Tensor3:
    """The code-conjugacy action on frontal slices:
    B_k = sum_k' t_{k,k'} S A_{k'} S^{-1}, realized as act3(A, S, S^{-t}, T)."""
    l, m, n = A.dims
    if not (l == m == n) or S.shape != (n, n) or T.shape != (n, n):
        raise ShapeMismatch("act_code_conj needs a cubic tensor and n x n maps")
    return act3(A, S, _inv_transpose(S), T)


# ---------------------------------------------------------------------------
# flattening and Kronecker products


def flatten4(A: Tensor4) -> MatGF:
    """n^2 x n^2 matrix with rows indexed by iota(i,j), columns by iota(k,l)."""
    n = A.dims[0]
    return MatGF(A.field, A.a.reshape(n * n, n * n).copy())


def unflatten4(M: MatGF) -> Tensor4:
    n2 = M.rows
    n = round(n2 ** 0.5)
    if n * n != n2 or M.cols != n2:
        raise ShapeMismatch("unflatten4 needs a square n^2 x n^2 matrix")
    return Tensor4(M.field, M.a.reshape(n, n, n, n).copy())


def kron(P: MatGF, Q: MatGF) -> MatGF:
    """(P x Q)(iota(i,k), iota(j,l)) = P(i,j) * Q(k,l)."""
    field = P.field
    pa, qa = P.a, Q.a
    prod = field.ops.mul(pa[:, None, :, None], qa[None, :, None, :])
    return MatGF(field, prod.reshape(pa.shape[0] * qa.shape[0], pa.shape[1] * qa.shape[1]))


def vec_to_matrix(field: FieldSpec, v: np.ndarray, n: int) -> MatGF:
    """Reshape an n^2-vector into the n x n matrix M with M(i,j) = v[iota(i,j)]."""
    return MatGF(field, np.asarray(v, dtype=field.ops.dtype).reshape(n, n).copy())


# ---------------------------------------------------------------------------
# witness verification


def _first_nonzero_ratio(field: FieldSpec, C: np.ndarray, B: np.ndarray):
    """The unique scalar lam with lam*C = B, or None."""
    cf, bf = C.reshape(-1), B.reshape(-1)
    nz = np.nonzero(cf)[0]
    if len(nz) == 0:
        return 1 if not bf.any() else None
    lam = field.div(int(bf[nz[0]]), int(cf[nz[0]]))
    if lam == 0:
        return None
    if not (field.ops.mul(cf, lam) == bf).all():
        return None
    return lam


def verify_witness(problem: str, A, B, witness: dict):
    """Check a transformation bundle exactly; a singular matrix rejects it.

    algiso: returns (ok, lam) where B = lam * act_algebra(A, T).
    mcc / t4: returns a plain boolean.
    """
    if problem not in PROBLEMS:
        raise BadParams(f"unknown problem {problem!r}")
    if A.dims != B.dims:
        raise ShapeMismatch("witness shape mismatch")
    if problem == "algiso":
        T = witness["T"]
        if T.shape != (A.dims[0], A.dims[0]):
            raise ShapeMismatch("witness shape mismatch")
        try:
            C = act_algebra(A, T)
        except Singular:
            return False, None
        lam = _first_nonzero_ratio(A.field, C.a, B.a)
        return (lam is not None), lam
    if problem == "mcc":
        S, T = witness["S"], witness["T"]
        try:
            C = act_code_conj(A, S, T)
        except Singular:
            return False
        # act_code_conj has inverted S; T is tested only on a match
        return C == B and matgf.det(T) != 0
    mats = [witness[k] for k in "LRST"]
    if any(M.shape != (d, d) for M, d in zip(mats, A.dims)):
        raise ShapeMismatch("witness shape mismatch")
    return act4(A, *mats) == B and all(matgf.det(M) != 0 for M in mats)


# ---------------------------------------------------------------------------
# sampling and instance generation


def as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise BadParams(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def prime_power(q: int):
    """(p, m) with q = p^m; BadParams when q is not a prime power."""
    if q < 2:
        raise BadParams("field order must be >= 2")
    # integer m-th roots, not trial division, which never ends on a large semiprime
    for m in range(1, q.bit_length() + 1):
        # Newton's iteration from above ends at p = floor(q^(1/m))
        p = 1 << -(-q.bit_length() // m)
        while (nxt := ((m - 1) * p + q // p ** (m - 1)) // m) < p:
            p = nxt
        if p ** m == q and is_prime(p):
            return p, m
    raise BadParams(f"{q} is not a prime power")


def field_from_q(q) -> FieldSpec:
    """Build a field from an order q = p^m (prime power)."""
    if isinstance(q, FieldSpec):
        return q
    return field_create(*prime_power(int(q)))


def sample_tensor(field: FieldSpec, kind: str, dims, rng) -> Tensor3 | Tensor4:
    rng = as_rng(rng)
    a = rng.integers(0, field.q, size=tuple(dims), dtype=np.int64)
    if kind == "t3":
        if len(dims) != 3:
            raise BadParams("t3 takes three dims")
        return Tensor3(field, a)
    if kind == "t4":
        if len(dims) != 4:
            raise BadParams("t4 takes four dims")
        return Tensor4(field, a)
    raise BadParams(f"unknown tensor kind {kind!r}")


def parse_mode(mode: str):
    """'planted' / 'unrelated' / 'planted_corank(c)' -> (base, corank|None)."""
    mode = mode.strip()
    if mode in ("planted", "unrelated"):
        return mode, None
    for pre, post in (("planted_corank(", ")"), ("planted_corank:", "")):
        if mode.startswith(pre) and mode.endswith(post):
            body = mode[len(pre):len(mode) - len(post)]
            try:
                return "planted_corank", int(body)
            except ValueError:
                break
    raise BadParams(f"unknown generation mode {mode!r}")


def _random_full_rank(field: FieldSpec, rows: int, cols: int, rng) -> MatGF:
    r = min(rows, cols)
    while True:
        M = matgf.random_matrix(field, rows, cols, rng)
        if len(rref(field, M.a)[1]) == r:
            return M


def _random_corank_flat(field: FieldSpec, n2: int, c: int, rng) -> MatGF:
    """Uniform rank-(n2-c) matrix as a full-column-rank x full-row-rank product."""
    r = n2 - c
    if r <= 0:
        raise BadParams("corank too large")
    P = _random_full_rank(field, n2, r, rng)
    Q = _random_full_rank(field, r, n2, rng)
    return P @ Q


def gen_instance(problem: str, n: int, q, mode: str, seed):
    """Generate an (A, B, secret witness or None) instance.

    planted: B is the image of A under a random invertible transformation;
    unrelated: A, B independent uniform; planted_corank(c): t4 only, A's
    flattening is uniform of rank n^2 - c, then B is planted from A.
    """
    field = field_from_q(q)
    rng = as_rng(seed)
    base, c = parse_mode(mode)
    if problem not in PROBLEMS:
        raise BadParams(f"unknown problem {problem!r}")
    if n < 1:
        raise BadParams("n must be >= 1")
    if base == "planted_corank":
        if problem != "t4":
            raise BadParams("planted_corank applies to the t4 problem only")
        if not (0 <= c <= 4):
            raise BadParams("corank must be in [0, 4]")

    if problem == "t4":
        if base == "planted_corank":
            A = unflatten4(_random_corank_flat(field, n * n, c, rng))
        else:
            A = sample_tensor(field, "t4", (n, n, n, n), rng)
        if base == "unrelated":
            B = sample_tensor(field, "t4", (n, n, n, n), rng)
            return A, B, None
        L = random_invertible(field, n, rng)
        R = random_invertible(field, n, rng)
        S = random_invertible(field, n, rng)
        T = random_invertible(field, n, rng)
        return A, act4(A, L, R, S, T), {"L": L, "R": R, "S": S, "T": T}

    A = sample_tensor(field, "t3", (n, n, n), rng)
    if base == "unrelated":
        B = sample_tensor(field, "t3", (n, n, n), rng)
        return A, B, None
    if problem == "algiso":
        T = random_invertible(field, n, rng)
        return A, act_algebra(A, T), {"T": T}
    S = random_invertible(field, n, rng)
    T = random_invertible(field, n, rng)
    return A, act_code_conj(A, S, T), {"S": S, "T": T}


# ---------------------------------------------------------------------------
# JSON instance / witness files


def instance_to_json(problem: str, A, B, meta=None) -> dict:
    n = A.dims[0]
    return {
        "problem": problem,
        "field": A.field.to_json(),
        "n": n,
        "A": [int(x) for x in A.a.reshape(-1)],
        "B": [int(x) for x in B.a.reshape(-1)],
        "meta": dict(meta or {}),
    }


@contextmanager
def _malformed(what: str, d):
    """Re-raise what a malformed JSON document breaks as a one-line BadParams;
    integers are read with `as_int`, which refuses true, 1.5 or "3"."""
    if not isinstance(d, dict):
        raise BadParams(f"malformed {what}: expected a JSON object")
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError, FieldMismatch) as e:
        raise BadParams(f"malformed {what}: {type(e).__name__} {e}") from None


def _field_from_json(d: dict) -> FieldSpec:
    return field_create(as_int(d["p"]), as_int(d.get("m", 1)),
                        tuple(d["modulus"]) if d.get("modulus") else None)


def instance_from_json(d: dict):
    with _malformed("instance", d):
        problem = d["problem"]
        if problem not in PROBLEMS:
            raise BadParams(f"unknown problem {problem!r}")
        field = _field_from_json(d["field"])
        n = as_int(d["n"])
        shape = (n, n, n, n) if problem == "t4" else (n, n, n)
        size = int(np.prod(shape))
        out = []
        for key in ("A", "B"):
            flat = [field.check(as_int(x)) for x in d[key]]
            if len(flat) != size:
                raise BadParams(f"entry list {key} has wrong length")
            arr = np.asarray(flat, dtype=field.ops.dtype).reshape(shape)
            out.append(Tensor4(field, arr) if problem == "t4" else Tensor3(field, arr))
        return problem, out[0], out[1], d.get("meta", {})


def witness_to_json(problem: str, witness: dict, lam=None) -> dict:
    d = {"problem": problem,
         "matrices": {k: v.tolist() for k, v in witness.items()}}
    if lam is not None:
        d["lambda"] = int(lam)
    return d


def witness_from_json(d: dict, field: FieldSpec):
    with _malformed("witness", d):
        problem = d["problem"]
        keys = {"algiso": "T", "mcc": "ST", "t4": "LRST"}[problem]
        mats = {k: matgf.mat(field, d["matrices"][k]) for k in keys}
        lam = d.get("lambda")
        return problem, mats, None if lam is None else as_int(lam)
