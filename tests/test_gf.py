"""Field arithmetic: axioms, encoding, tables, characters."""

import itertools
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiso
from tiso import rmt
from tiso.errors import (BadParams, DegreeMismatch, DivideByZero, NotPrime,
                         ReducibleModulus)
from tiso.gf import (FieldSpec, _is_irreducible, _matmul_mod, absolute_trace,
                     additive_character, digit_planes, field_create, is_prime,
                     join_digit_planes)
from tiso.poly import poly

FIELDS = [field_create(2), field_create(5), field_create(2, 3),
          field_create(3, 2), field_create(7, 2)]


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: f"GF({s.q})")
def test_field_axioms_exhaustive(spec):
    els = list(spec.elements())
    assert len(els) == spec.q
    for a in els:
        assert spec.add(a, 0) == a
        assert spec.mul(a, 1) == a
        assert spec.add(a, spec.neg(a)) == 0
        if a != 0:
            assert spec.mul(a, spec.inv(a)) == 1
    # distributivity on a spot grid
    for a in els[:8]:
        for b in els[:8]:
            for c in els[:8]:
                lhs = spec.mul(a, spec.add(b, c))
                rhs = spec.add(spec.mul(a, b), spec.mul(a, c))
                assert lhs == rhs


@given(st.integers(0, 48), st.integers(0, 48), st.integers(0, 48))
def test_gf49_ring_axioms(a, b, c):
    spec = field_create(7, 2)
    assert spec.mul(a, b) == spec.mul(b, a)
    assert spec.add(a, b) == spec.add(b, a)
    assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))


def test_table_mul_matches_slow_path():
    """Every entry of the mul, sub and inv tables of the extension fields
    up to q = 256 against the scalar products and differences."""
    for pm in [(2, 2), (2, 4), (7, 2), (3, 5), (2, 8)]:
        spec = field_create(*pm)
        q = spec.q
        slow = spec._mul_slow
        mul, sub, inv = spec.ops._tables
        pairs = list(itertools.product(range(q), repeat=2))
        assert mul.tolist() == [slow(a, b) for a, b in pairs], spec
        assert sub.tolist() == [spec.sub(a, b) for a, b in pairs], spec
        assert inv[0] == 0 and all(slow(a, int(inv[a])) == 1 for a in range(1, q)), spec


def test_pow_and_order():
    spec = field_create(3, 2)
    for a in spec.elements():
        if a:
            assert spec.pow(a, spec.q - 1) == 1
        assert spec.pow(a, 0) == 1


def test_div_by_zero():
    for spec in (field_create(5), field_create(3, 6)):
        with pytest.raises(DivideByZero):
            spec.inv(0)
        with pytest.raises(DivideByZero):
            spec.div(3, 0)


def test_encoding_round_trip():
    spec = field_create(3, 3)
    for a in spec.elements():
        assert spec.from_digits(spec.digits(a)) == a


def test_bad_parameters():
    with pytest.raises(NotPrime):
        field_create(6)
    with pytest.raises(NotPrime):
        field_create(999999999999)
    with pytest.raises(ReducibleModulus):
        field_create(2, 2, (0, 0, 1))  # x^2 is reducible
    assert is_prime((1 << 20) + 7)
    assert not is_prime(1 << 20)


@pytest.mark.parametrize("p,max_m", [(2, 6), (3, 4)])
def test_rabin_test_agrees_with_the_irreducible_sieve(p, max_m):
    field = FieldSpec(p, 1, ())
    sieve = rmt._monic_irreducibles(p, max_m)
    for m in range(2, max_m + 1):
        irreducible = {f.coeffs for f in sieve[m]}
        for tail in itertools.product(range(p), repeat=m):
            f = poly(field, list(tail) + [1])
            assert _is_irreducible(f) == (f.coeffs in irreducible), f


def test_explicit_modulus_checks():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 over GF(2) has no root in GF(2)
    with pytest.raises(ReducibleModulus, match="reducible"):
        field_create(2, 4, (1, 0, 1, 0, 1))
    with pytest.raises(DegreeMismatch):
        field_create(5, 2, (2, 1, 3))  # leading coefficient 3
    with pytest.raises(DegreeMismatch):
        field_create(5, 2, (2, 0, 1, 0))
    assert field_create(5, 2, [3, 0, 1]).modulus == (3, 0, 1)
    assert field_create(5, 2, np.array([3, 0, 1])).modulus == (3, 0, 1)


@pytest.mark.parametrize("modulus", [(3.5, 0.5, 1.5), (3.0, 0, 1), ("3", "0", "1"),
                                     (7, 9, 6), (-2, 0, 1), (3, 0, 6)], ids=str)
def test_explicit_modulus_is_never_coerced(modulus):
    with pytest.raises(BadParams):
        field_create(5, 2, modulus)


# default moduli recorded before the modulus checks moved onto tiso.poly;
# they fix every extension field's element encoding
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 1, 1, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (2, 7): (1, 1, 1, 0, 0, 1, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 1, 1, 0, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (2, 2, 0, 1),
    (3, 4): (1, 1, 1, 0, 1),
    (3, 5): (1, 2, 0, 0, 1, 1),
    (3, 6): (2, 1, 0, 1, 1, 1, 1),
    (3, 7): (1, 0, 2, 1, 1, 1, 0, 1),
    (3, 8): (1, 0, 2, 2, 1, 2, 2, 2, 1),
    (5, 2): (3, 0, 1),
    (5, 3): (4, 2, 0, 1),
    (5, 4): (1, 0, 1, 1, 1),
    (5, 5): (3, 0, 2, 4, 2, 1),
    (5, 6): (2, 1, 3, 3, 2, 0, 1),
    (5, 7): (1, 0, 2, 0, 4, 4, 1, 1),
    (5, 8): (4, 3, 1, 4, 0, 3, 1, 0, 1),
    (7, 2): (1, 3, 1),
    (7, 3): (2, 5, 0, 1),
    (7, 4): (5, 5, 0, 5, 1),
    (7, 5): (4, 0, 6, 0, 4, 1),
    (7, 6): (1, 4, 6, 0, 4, 2, 1),
    (7, 7): (1, 5, 4, 0, 5, 3, 3, 1),
    (7, 8): (2, 3, 1, 5, 3, 0, 5, 2, 1),
    ((1 << 20) + 7, 2): (184509, 947408, 1),
}


def test_default_moduli_are_unchanged():
    assert {pm: field_create(*pm).modulus for pm in DEFAULT_MODULI} == DEFAULT_MODULI


def test_every_module_imports_first():
    """gf imports poly: no module may depend on being imported after another."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tiso.__file__)))
    for name in ("gf", "poly", "matgf", "conj", "codes", "tensor", "solvers", "rmt", "cli"):
        res = subprocess.run([sys.executable, "-c", f"import tiso.{name}"], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, (name, res.stderr)


def test_absolute_trace_is_linear_into_prime_field():
    spec = field_create(2, 3)
    for a in spec.elements():
        assert absolute_trace(spec, a) < spec.p
        for b in spec.elements():
            s = absolute_trace(spec, spec.add(a, b))
            assert s == (absolute_trace(spec, a) + absolute_trace(spec, b)) % spec.p


@pytest.mark.parametrize("spec", [field_create(3), field_create(2, 2),
                                  field_create(5), field_create(3, 2)],
                         ids=lambda s: f"GF({s.q})")
def test_character_orthogonality(spec):
    # sum_a psi_b(a) = q if b = 0 else 0
    for b in spec.elements():
        total = sum(additive_character(spec, b, a) for a in spec.elements())
        target = spec.q if b == 0 else 0.0
        assert abs(total - target) < 1e-9


def test_character_multiplicativity_in_argument():
    spec = field_create(5)
    for a in spec.elements():
        for b in spec.elements():
            lhs = additive_character(spec, 1, spec.add(a, b))
            rhs = additive_character(spec, 1, a) * additive_character(spec, 1, b)
            assert abs(lhs - rhs) < 1e-12


def test_vectorized_ops_match_scalar():
    spec = field_create(3, 2)
    ops = spec.ops
    rng = np.random.default_rng(0)
    x = rng.integers(0, spec.q, size=50)
    y = rng.integers(0, spec.q, size=50)
    for i in range(50):
        assert int(ops.add(x, y)[i]) == spec.add(int(x[i]), int(y[i]))
        assert int(ops.mul(x, y)[i]) == spec.mul(int(x[i]), int(y[i]))
        assert int(ops.neg(x)[i]) == spec.neg(int(x[i]))


# p = 2 (inverse exponent 0), primes below 2^25 and near 2^31, and both
# extension-field multiplications: byte tables and digit planes above them
@pytest.mark.parametrize("spec", [field_create(2), field_create((1 << 20) + 7),
                                  field_create((1 << 31) - 1), field_create(2, 8),
                                  field_create(5, 7)], ids=str)
def test_array_inv_and_stacked_matmul(spec):
    ops = spec.ops
    rng = np.random.default_rng(3)
    x = rng.integers(0, spec.q, size=40).astype(ops.dtype)
    x[:3] = [0, 1, spec.q - 1]
    inv = ops.inv(x)
    assert inv.dtype == ops.dtype and inv.shape == x.shape
    for a, b in zip(x, inv):
        assert int(b) == (spec.inv(int(a)) if a else 0)
    A = rng.integers(0, spec.q, size=(4, 3, 5)).astype(ops.dtype)
    B = rng.integers(0, spec.q, size=(4, 5, 2)).astype(ops.dtype)
    C = rng.integers(0, spec.q, size=(5, 2)).astype(ops.dtype)
    AB, AC = ops.matmul(A, B), ops.matmul(A, C)
    assert AB.shape == (4, 3, 2) and AC.shape == (4, 3, 2)
    for i in range(4):
        assert (AB[i] == ops.matmul(A[i], B[i])).all()
        assert (AC[i] == ops.matmul(A[i], C)).all()


@pytest.mark.parametrize("pm", [(5, 1), (2, 8), (5, 7)], ids=str)
def test_field_pickles_after_use(pm):
    spec = field_create(*pm)
    x = np.arange(1, 50, dtype=np.int64)
    inv = spec.ops.inv(x)  # caches ops, and the byte tables for GF(2^8)
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec and back.to_json() == spec.to_json()
    assert (back.ops.inv(x) == inv).all()


@pytest.mark.parametrize("pm", [(17, 2), (3, 6), (5, 7), (65521, 2), ((1 << 31) - 1, 2)],
                         ids=str)
def test_inverse_above_the_table_limit_is_fermat(pm):
    """Every element of the fields up to q = 729, 40 random ones above."""
    spec = field_create(*pm)
    rng = np.random.default_rng(13)
    elements = range(1, spec.q) if spec.q <= 729 else (
        [1, spec.p, spec.q - 1] + [int(x) for x in rng.integers(1, spec.q, 40)])
    for a in elements:
        inv = spec.inv(a)
        assert inv == spec.pow(a, spec.q - 2)
        assert spec.mul(a, inv) == 1


@pytest.mark.parametrize("pm", [(2, 2), (2, 8), (3, 5), (7, 2)], ids=str)
def test_array_inverse_on_byte_table_fields(pm):
    spec = field_create(*pm)
    x = np.arange(spec.q, dtype=np.int64)
    assert spec.ops.inv(x).tolist() == [0] + [spec.inv(a) for a in range(1, spec.q)]


def test_large_prime_field():
    p = (1 << 20) + 7
    spec = field_create(p)
    a, b = 123456, 987654
    assert spec.mul(a, spec.inv(a)) == 1
    assert spec.add(a, spec.neg(a)) == 0
    assert spec.mul(a, b) == a * b % p


# both sides of 2^25 (where a 4096-term dot product stops fitting in 2^62),
# the largest prime, and extension fields on both sides of the byte-table
# limit q = 256 (GF(17^2) is the first past it); over GF((2^31-1)^2) the
# digit-plane products and the fold (inner dimension 2m - 1 = 3) take the
# limb split
PROPERTY_FIELDS = [field_create(33554393), field_create(33554467),
                   field_create((1 << 31) - 1), field_create(2, 8),
                   field_create(3, 5), field_create(17, 2), field_create(3, 6),
                   field_create(5, 7), field_create((1 << 31) - 1, 2)]


def _dot(spec, row, col):
    acc = 0
    for a, b in zip(row, col):
        acc = spec.add(acc, spec.mul(a, b))
    return acc


@pytest.mark.parametrize("spec", PROPERTY_FIELDS, ids=str)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_field_ops_match_scalar_arithmetic(spec, data):
    ops = spec.ops
    assert ops.dtype is np.int64
    elems = st.one_of(st.sampled_from([0, 1, spec.q - 1]), st.integers(0, spec.q - 1))
    xs = data.draw(st.lists(elems, min_size=1, max_size=10))
    ys = data.draw(st.lists(elems, min_size=len(xs), max_size=len(xs)))
    x, y = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    for op in ("add", "sub", "mul"):
        got = getattr(ops, op)(x, y)
        assert got.dtype == np.int64
        assert got.tolist() == [getattr(spec, op)(a, b) for a, b in zip(xs, ys)]
    assert ops.neg(x).tolist() == [spec.neg(a) for a in xs]
    assert ops.inv(x).tolist() == [spec.inv(a) if a else 0 for a in xs]
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    A = [data.draw(st.lists(elems, min_size=k, max_size=k)) for _ in range(r)]
    B = [data.draw(st.lists(elems, min_size=c, max_size=c)) for _ in range(k)]
    got = ops.matmul(np.array(A, dtype=np.int64), np.array(B, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [[_dot(spec, row, col) for col in zip(*B)] for row in A]


# primes on both sides of 256 and up to 2^31 - 1, and extension fields on
# both sides of the byte-table limit q = 256; `isubmul` takes 7 unreduced
# updates at 2^30 + 3 and 2 at 2^31 - 1 (`FieldOps.headroom`)
SUBMUL_FIELDS = [field_create(2), field_create(5), field_create(251), field_create(257),
                 field_create(2, 2), field_create(2, 8), field_create(3, 5), field_create(17, 2),
                 field_create(3, 6), field_create(5, 7), field_create((1 << 20) + 7),
                 field_create((1 << 30) + 3), field_create((1 << 31) - 1)]


@pytest.mark.parametrize("spec", SUBMUL_FIELDS, ids=str)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_submul_matches_scalar_arithmetic(spec, data):
    """`isubmul` (x -= a*b), reduced, on a copy of x, broadcast as the row
    updates use it: a column of factors against one row, (k, 1) x (1, c),
    and per slice of a stack, (k, r, 1) x (k, 1, c); sometimes every operand
    is q - 1.  x takes up to `headroom` such updates in place, to the last
    one with every operand q - 1 on the two largest primes, before one
    `reduce`."""
    top = data.draw(st.booleans())
    elems = st.just(spec.q - 1) if top else st.one_of(st.sampled_from([0, 1, spec.q - 1]),
                                                       st.integers(0, spec.q - 1))
    k, r, c = (data.draw(st.integers(1, 4)) for _ in range(3))

    def draw(shape):
        flat = data.draw(st.lists(elems, min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.array(flat, dtype=np.int64).reshape(shape)

    for shape, a_shape, b_shape in [((k, c), (k, 1), (1, c)), ((k, r, c), (k, r, 1), (k, 1, c))]:
        x, a, b = draw(shape), draw(a_shape), draw(b_shape)
        got = spec.ops.reduce(spec.ops.isubmul(x.copy(), a, b))
        assert got.dtype == np.int64 and got.shape == shape
        want = [spec.sub(int(xi), spec.mul(int(ai), int(bi)))
                for xi, ai, bi in zip(*(np.broadcast_to(v, shape).ravel() for v in (x, a, b)))]
        assert got.ravel().tolist() == want
        updates = min(spec.ops.headroom, 8)
        for _ in range(updates):
            assert spec.ops.isubmul(x, a, b) is x
        got = spec.ops.reduce(x)
        for _ in range(updates - 1):
            want = [spec.sub(w, spec.mul(int(ai), int(bi))) for w, ai, bi in
                    zip(want, *(np.broadcast_to(v, shape).ravel() for v in (a, b)))]
        assert got.dtype == np.int64 and got.ravel().tolist() == want


# each side of the float64 tier's limit k (p-1)^2 < 2^53 (k = 8191 / 8192 at
# 2^20 + 7, 8 / 9 just below 2^25), of the int64 limit 2^62 (4096 / 4097), and
# the limb split near 2^31
@pytest.mark.parametrize("p, k", [((1 << 20) + 7, 8191), ((1 << 20) + 7, 8192),
                                  (33554393, 8), (33554393, 9),
                                  (33554393, 4096), (33554393, 4097), ((1 << 31) - 1, 2),
                                  ((1 << 31) - 1, 3), ((1 << 31) - 1, (1 << 15) + 1)])
def test_prime_matmul_exact_at_the_overflow_limit(p, k):
    ops = field_create(p).ops
    # all-(p-1) operands give the largest partial sums, k (p-1)^2
    A = np.full((2, 2, k), p - 1, dtype=np.int64)
    B = np.full((k, 3), p - 1, dtype=np.int64)
    assert (ops.matmul(A, B) == k * (p - 1) ** 2 % p).all()
    # (p-1)^2 is even, so those sums stay exact in float64 a little past 2^53;
    # one odd term (p-2)^2 makes the sum odd, which float64 cannot hold there
    A[..., 0], B[0] = p - 2, p - 2
    assert (ops.matmul(A, B) == ((k - 1) * (p - 1) ** 2 + (p - 2) ** 2) % p).all()
    rng = np.random.default_rng(k)
    A = rng.integers(p - (1 << 12), p, size=(2, k))
    B = rng.integers(0, p, size=(k, 2))
    ref = [[sum(int(a) * int(b) for a, b in zip(row, col)) % p for col in B.T] for row in A]
    assert ops.matmul(A, B).tolist() == ref


@pytest.mark.parametrize("k", [3, 4, 64])
def test_extension_matmul_exact_with_the_largest_digits(k):
    # every digit of q - 1 is p - 1, so the middle convolution plane reaches
    # m k (p-1)^2: past 2^63 from k = 3 over GF((2^31-1)^2), whose plane
    # products take the reduced path and the limb split, while over GF(2^8)
    # and GF(3^5) the planes and the fold are summed unreduced in float64
    rng = np.random.default_rng(k)
    for spec in (field_create((1 << 31) - 1, 2), field_create(2, 8), field_create(3, 5)):
        top = spec.q - 1
        A = np.full((2, k), top, dtype=np.int64)
        B = np.full((k, 3), top, dtype=np.int64)
        assert (spec.ops.matmul(A, B) == _dot(spec, [top] * k, [top] * k)).all()
        A = rng.integers(0, spec.q, size=(2, k))
        B = rng.integers(0, spec.q, size=(k, 2))
        assert spec.ops.matmul(A, B).tolist() == [[_dot(spec, row, col) for col in B.T.tolist()]
                                                  for row in A.tolist()]


def _product_oracle(ops, x, y, product):
    """The extension-field product with every digit-plane product reduced
    mod p on its own, product(a, b, p) being `_matmul_mod` or `*` mod p, and
    the 2m - 1 convolution planes reduced once more before the fold."""
    m, p = ops.spec.m, ops.p
    X, Y = digit_planes(x, p, m), digit_planes(y, p, m)
    Y = Y.reshape((m,) + (1,) * (X.ndim - Y.ndim) + Y.shape[1:])
    for i in range(m):
        term = product(X[i], Y, p)
        if i == 0:
            conv = np.zeros((2 * m - 1,) + term.shape[1:], dtype=np.int64)
        conv[i:i + m] += term
    conv %= p
    out = _matmul_mod(ops._fold, conv.reshape(2 * m - 1, -1), p)
    return join_digit_planes(out, p).reshape(conv.shape[1:])


# (x shape, y shape) per kind: 2-D, stacked on either side, broadcast,
# scalar with array, empty and 1 x 1
ORACLE_SHAPES = {
    "matmul": [((3, 4), (4, 5)), ((16, 16), (16, 16, 16)), ((16, 16, 16), (16, 16)),
               ((0, 4), (4, 3)), ((2, 0), (0, 3)), ((1, 1), (1, 1))],
    "mul": [((5, 6), (5, 6)), ((7, 1), (1, 9)), ((), (4, 5)), ((4, 5), ()), ((0,), (0,)),
            ((1, 1), (1, 1))],
}


@pytest.mark.parametrize("spec", [field_create(2, 2), field_create(2, 8), field_create(3, 5),
                                  field_create(5, 7), field_create((1 << 31) - 1, 2)], ids=str)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_products_match_the_per_plane_reduced_oracle(spec, data):
    """`matmul`, `mul` and `isubmul` against the product that reduces every
    plane product; entries are uniform or, at a drawn rate, q - 1 (every
    digit p - 1), which gives the largest partial sums."""
    ops = spec.ops
    kind = data.draw(st.sampled_from(sorted(ORACLE_SHAPES)))
    xs, ys = data.draw(st.sampled_from(ORACLE_SHAPES[kind]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    top = data.draw(st.sampled_from([0.0, 0.5, 1.0]))

    def draw(shape):
        v = rng.integers(0, spec.q, size=shape)
        return np.where(rng.random(shape) < top, spec.q - 1, v)

    x, y = draw(xs), draw(ys)
    if kind == "matmul":
        got, want = ops.matmul(x, y), _product_oracle(ops, x, y, _matmul_mod)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert (got == want).all()
        return
    want = _product_oracle(ops, x, y, lambda a, b, p: a * b % p)
    got = ops.mul(x, y)
    assert np.asarray(got).dtype == np.int64 and np.shape(got) == want.shape
    assert (got == want).all()
    z = draw(want.shape)
    got = ops.isubmul(z.copy(), x, y)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert (got == ops.sub(z, want)).all()


def _largest_operands(spec):
    """Operand pairs over GF(p^2) with the largest partial sums: all-(q-1)
    (every digit p - 1), and two digit pairs whose sums are odd integers,
    which float64 cannot hold past 2^53: (p-1, p-2) against (p-2, p-1) in
    the plane of t^1, and (p-2, p-2) against (p-1, p-2) in the planes of t^0
    and t^2 for odd k, so that the fold's first row is odd as well."""
    p = spec.p
    return [(spec.q - 1, spec.q - 1),
            (spec.from_digits([p - 1, p - 2]), spec.from_digits([p - 2, p - 1])),
            (spec.from_digits([p - 2, p - 2]), spec.from_digits([p - 1, p - 2]))]


def _conv_bound(spec, k):
    return spec.m * k * (spec.p - 1) ** 2


def _fold_bound(spec, k):
    return (2 * spec.m - 1) * (spec.p - 1) * _conv_bound(spec, k)


# each side of the float64 fold, (2m-1)(p-1) m k (p-1)^2 < 2^53 (k = 5 / 6 over
# GF(65521^2); the bound has slack, and at k = 63 the fold's sums do pass
# 2^53), and of the float64 convolution planes, m k (p-1)^2 < 2^53 (k = 16 / 17
# over GF(16777213^2))
@pytest.mark.parametrize("p, k, bound, below", [(65521, 5, _fold_bound, True),
                                                (65521, 6, _fold_bound, False),
                                                (65521, 63, _fold_bound, False),
                                                (16777213, 16, _conv_bound, True),
                                                (16777213, 17, _conv_bound, False)])
def test_extension_matmul_exact_at_the_float64_bound(p, k, bound, below):
    spec = field_create(p, 2)
    assert (bound(spec, k) < 1 << 53) == below
    for a, b in _largest_operands(spec):
        A = np.full((2, k), a, dtype=np.int64)
        B = np.full((k, 3), b, dtype=np.int64)
        assert (spec.ops.matmul(A, B) == _dot(spec, [a] * k, [b] * k)).all()


# elementwise (k = 1) on each side of the same two bounds, at consecutive
# primes: the fold in float64 up to p = 114493, the convolution planes up to
# p = 67108859
@pytest.mark.parametrize("p, bound, below", [(114493, _fold_bound, True),
                                             (114547, _fold_bound, False),
                                             (67108859, _conv_bound, True),
                                             (67108879, _conv_bound, False)])
def test_extension_mul_exact_at_the_float64_bound(p, bound, below):
    spec = field_create(p, 2)
    assert (bound(spec, 1) < 1 << 53) == below
    for a, b in _largest_operands(spec):
        x, y = np.full(3, a, dtype=np.int64), np.full(3, b, dtype=np.int64)
        assert (spec.ops.mul(x, y) == spec.mul(a, b)).all()
        assert (spec.ops.isubmul(y.copy(), x, y) == spec.sub(b, spec.mul(a, b))).all()


@pytest.mark.parametrize("p", [2, (1 << 20) + 7, 33554393])
def test_stacked_matmul_exact_on_the_float_tier(p):
    # the t4 screening shape: G = B_1^-1 B_i for k candidates at once
    ops = field_create(p).ops
    k = 40
    for A, B in [(np.full((k, 1, 3, 3), p - 1), np.full((k, 2, 3, 3), p - 1)),
                 (np.random.default_rng(p).integers(0, p, size=(k, 1, 3, 3)),
                  np.random.default_rng(p + 1).integers(0, p, size=(k, 2, 3, 3)))]:
        got = ops.matmul(A, B)
        assert got.shape == (k, 2, 3, 3) and got.dtype == np.int64
        ref = [[[[sum(int(a) * int(b) for a, b in zip(row, col)) % p for col in B[i, j].T]
                 for row in A[i, 0]] for j in range(2)] for i in range(k)]
        assert got.tolist() == ref
