"""Finite field arithmetic for F_q with q = p^m.

Elements are canonical integers in [0, q): the integer's base-p digit vector
is the coefficient vector (low-to-high) of the residue-class polynomial.
For prime fields (m = 1) this is just the usual integer residue.

A :class:`FieldSpec` carries the scalar arithmetic; :class:`FieldOps`
(``spec.ops``) exposes vectorized counterparts on int64 arrays (base-p digit
planes over extension fields) for the dense linear-algebra layer, and its
one row update x -= a*b, `FieldOps.isubmul`: in place, unreduced on prime
fields, and two gathers from q x q byte tables on extension fields up to
q = 256, whose `mul` and `inv` those tables serve too.
Extension-field matrix products, and elementwise ones above q = 256, sum
their digit-plane products unreduced in float64 while every partial sum
stays below 2^53, and reduce once per product.
`field_create` checks a modulus, and `FieldSpec.inv` inverts above the table
limit, with :mod:`tiso.poly` over the prime field F_p: the Rabin test takes
powers t^(p^k) mod the modulus with `powmod`, a power of the modulus's
companion matrix.  Powers of elements and arrays use the square-and-multiply
`_power` of that module.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from functools import cached_property

import numpy as np

from .errors import (
    BadParams,
    DegreeMismatch,
    DivideByZero,
    FieldMismatch,
    InvariantViolation,
    NotPrime,
    ReducibleModulus,
)
from .poly import (Poly, _power, poly, poly_divmod, poly_eval, poly_gcd, poly_invmod, poly_sub,
                   powmod)

_MAX_P = 1 << 31
_MAX_Q = 1 << 62
_BYTE_TABLE_LIMIT = 256  # extension fields' byte tables (`FieldOps._tables`) up to here


def as_int(x) -> int:
    """x as an exact integer; refuses a bool (JSON `true`), 1.5 and "3"
    rather than reading them as 1, 1 and 3."""
    if isinstance(x, bool):
        raise TypeError(f"expected an integer, got {x!r}")
    return operator.index(x)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % sp == 0:
            return n == sp
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(f: Poly) -> bool:
    """Rabin irreducibility test for a monic f of degree m over F_p."""
    m = f.degree
    if m < 1:
        return False
    p = f.field.p
    x = poly(f.field, [0, 1])
    # x^(p^m) == x mod f
    if not poly_sub(powmod(x, p ** m, f), x).is_zero():
        return False
    for ell in set(_prime_factors(m)):
        if poly_gcd(poly_sub(powmod(x, p ** (m // ell), f), x), f).degree > 0:
            return False
    return True


def _exhaustive_irreducible_check(f: Poly) -> bool:
    """Trial division by every lower-degree monic polynomial (tiny fields)."""
    p = f.field.p
    for d in range(1, f.degree // 2 + 1):
        for tail in digit_planes(np.arange(p ** d), p, d).T.tolist():
            g = poly(f.field, tail + [1])
            if poly_divmod(f, g)[1].is_zero():
                return False
    return True


class FieldSpec:
    """Immutable description of F_q, q = p^m, with scalar arithmetic.

    Attributes:
        p: prime characteristic.
        m: extension degree.
        modulus: monic irreducible of degree m over F_p as a low-to-high
            coefficient tuple; empty tuple when m = 1.
        q: field order p^m.
    """

    __slots__ = ("p", "m", "modulus", "q", "__dict__")

    def __init__(self, p: int, m: int, modulus: tuple):
        self.p = p
        self.m = m
        self.modulus = tuple(modulus)
        self.q = p ** m

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __reduce__(self):
        # pickle the definition only: `ops` and its cached tables (up to
        # 128 KB of uint8) are rebuilt on demand
        return FieldSpec, (self.p, self.m, self.modulus)

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    # -- element <-> digit conversion --------------------------------------

    def digits(self, a: int):
        p = self.p
        out = []
        for _ in range(self.m):
            out.append(a % p)
            a //= p
        return out

    def from_digits(self, ds):
        a = 0
        for c in reversed(ds):
            a = a * self.p + (c % self.p)
        return a

    def check(self, a: int):
        if not (0 <= a < self.q):
            raise FieldMismatch(f"element {a} out of range for {self}")
        return a

    # -- scalar arithmetic --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self.from_digits([(x + y) % self.p
                                 for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self.from_digits([(-x) % self.p for x in self.digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if self.q <= _BYTE_TABLE_LIMIT:
            return int(self.ops._tables[0][a * self.q + b])
        return self._mul_slow(a, b) if a and b else 0

    def _mul_slow(self, a: int, b: int) -> int:
        """Digit-polynomial product of a and b, reduced by the monic modulus."""
        p, m, mod = self.p, self.m, self.modulus
        db = self.digits(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(self.digits(a)):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        # t^k = t^(k-m) * (t^m - f) mod f; the t^k term itself is dropped
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k] % p
            if c:
                for j in range(m):
                    prod[k - m + j] -= c * mod[j]
        return self.from_digits(prod[:m])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.m == 1:
            return pow(a, e, self.p)
        return _power(self.mul, a, e, 1)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivideByZero("inverse of zero")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self.q <= _BYTE_TABLE_LIMIT:
            return int(self.ops._tables[2][a])
        # extended Euclid on the digit polynomial of a, modulo the modulus over F_p
        Fp = FieldSpec(self.p, 1, ())
        return self.from_digits(poly_invmod(poly(Fp, self.digits(a)), poly(Fp, self.modulus)).coeffs)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def elements(self):
        return range(self.q)

    @cached_property
    def ops(self) -> "FieldOps":
        return FieldOps(self)

    def to_json(self) -> dict:
        d = {"p": self.p, "m": self.m}
        if self.m > 1:
            d["modulus"] = list(self.modulus)
        return d


def field_create(p: int, m: int = 1, modulus=None) -> FieldSpec:
    """Construct and validate a FieldSpec for F_{p^m}.

    When m > 1 and no modulus is given, a default irreducible is found by a
    seeded randomized search (deterministic for fixed (p, m)).
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p >= _MAX_P:
        raise BadParams(f"p must be < 2^31, got {p}")
    if m < 1 or m > 8:
        raise BadParams(f"extension degree must be in [1, 8], got {m}")
    if p ** m >= _MAX_Q:
        raise BadParams("field order must be < 2^62")
    if m == 1:
        if modulus:
            raise DegreeMismatch("prime field takes no modulus")
        return FieldSpec(p, 1, ())
    if modulus is None:
        modulus = _default_modulus(p, m)
    try:
        modulus = tuple(as_int(c) for c in modulus)
    except TypeError:
        raise BadParams(f"modulus coefficients must be integers, got {list(modulus)}") from None
    if not all(0 <= c < p for c in modulus):
        raise BadParams(f"modulus coefficients must lie in [0, {p}), got {list(modulus)}")
    if len(modulus) != m + 1 or modulus[-1] != 1:
        raise DegreeMismatch(f"modulus must be monic of degree {m}")
    f = poly(FieldSpec(p, 1, ()), modulus)
    if any(poly_eval(f, a) == 0 for a in range(min(p, 1 << 12))):
        raise ReducibleModulus("modulus has a root in F_p")
    if not _is_irreducible(f):
        raise ReducibleModulus("modulus is reducible")
    if m <= 4 and p ** m <= (1 << 12) and not _exhaustive_irreducible_check(f):
        raise ReducibleModulus("modulus failed exhaustive factor search")
    return FieldSpec(p, m, modulus)


def _default_modulus(p: int, m: int):
    rng = random.Random(f"tiso-modulus-{p}-{m}")
    field = FieldSpec(p, 1, ())
    while True:
        f = [rng.randrange(p) for _ in range(m)] + [1]
        if _is_irreducible(poly(field, f)):
            return f


def absolute_trace(spec: FieldSpec, a: int) -> int:
    """Tr_{F_q/F_p}(a) = a + a^p + ... + a^{p^{m-1}}, an element of F_p."""
    spec.check(a)
    acc, t = a, a
    for _ in range(spec.m - 1):
        t = spec.pow(t, spec.p)
        acc = spec.add(acc, t)
    # the result lies in the prime subfield, i.e. only the low digit survives
    if acc >= spec.p:
        raise InvariantViolation("trace left the prime subfield")
    return acc


def additive_character(spec: FieldSpec, b: int, a: int) -> complex:
    """psi_b(a) = exp(2*pi*i/p * Tr(b*a))."""
    t = absolute_trace(spec, spec.mul(b, a))
    return cmath.exp(2j * math.pi * t / spec.p)


# ---------------------------------------------------------------------------
# vectorized arithmetic


def digit_planes(x, base: int, count: int) -> np.ndarray:
    """The `count` lowest base-`base` digits of the int64 array x, lowest
    first, on a new leading axis."""
    t = np.array(x, dtype=np.int64)
    planes = np.empty((count,) + t.shape, dtype=np.int64)
    for i in range(count):
        np.divmod(t, base, out=(t, planes[i, ...]))
    return planes


def join_digit_planes(planes, base: int):
    """The integers whose base-`base` digits, lowest first, are `planes`."""
    return sum(d * base ** i for i, d in enumerate(planes))


def _lead(planes, ndim):
    """planes padded to ndim axes, so that they broadcast as their arrays do."""
    return planes.reshape(planes.shape[:1] + (1,) * (ndim - planes.ndim) + planes.shape[1:])


def _matmul_mod(A, B, p: int):
    """(A @ B) mod p for int64 entries in [0, p), p < 2^31, exact for every
    inner dimension k; leading axes of either operand are stack axes.

    The tier follows the largest partial sum, k (p-1)^2.  Below 2^53 the
    product is one float64 (BLAS) matmul: every partial sum is an integer
    that float64 holds exactly, in any summation order.  Below 2^62 it is
    one int64 matmul, and above that a limb split."""
    k = A.shape[-1]
    if k * (p - 1) ** 2 < (1 << 53):
        return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64) % p
    if k * (p - 1) ** 2 < (1 << 62):
        return (A @ B) % p
    # split B into 16-bit limbs and the inner dimension into chunks of
    # 2^15: a chunk's dot with either limb stays below 2^62, and with
    # the reduced high part shifted back and the running sum, below 2^63
    out = 0
    for i in range(0, k, 1 << 15):
        a, b = A[..., i:i + (1 << 15)], B[..., i:i + (1 << 15), :]
        hi = (a @ (b >> 16)) % p
        out = (out + (hi << 16) + a @ (b & 0xFFFF)) % p
    return out


class FieldOps:
    """Vectorized (numpy) arithmetic over a FieldSpec.

    Arrays hold canonical integer reps as int64 for every field.  Prime fields
    use int64 modular arithmetic: p < 2^31 keeps every product of two reps
    below 2^62.  `matmul` is one float64 BLAS product while every dot product
    stays below 2^53, one int64 product below 2^62, and splits B into 16-bit
    limbs beyond that.  Extension fields work on the m base-p digit planes of
    an array: `matmul`, and `mul`, `inv` and `isubmul` above q = 256, sum
    plane products unreduced in float64 below 2^53 (`_product`) and fold them
    by the modulus; addition is digitwise.  Up to q = 256 an extension
    field's `isubmul` (x -= a*b) gathers twice from q x q uint8 mul and sub
    tables, and its `mul` and `inv` gather once.  On a prime field `isubmul`
    leaves the reps unreduced (delayed reduction, as in FFLAS-FFPACK): an
    update takes at most (p − 1)² off an entry, so int64 holds `headroom` =
    ⌊(2^63 − 1 − p)/(p − 1)²⌋ of them between `reduce`s (2 at p = 2^31 − 1,
    about 2^23 at 2^20 + 7).
    """

    dtype = np.int64

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.q = spec.q
        self.prime = spec.m == 1
        if not self.prime:
            # column s holds the digits of t^s mod the modulus, s < 2m - 1 (t has rep p)
            self._fold = np.array([spec.digits(_power(spec._mul_slow, spec.p, s, 1))
                                   for s in range(2 * spec.m - 1)], dtype=np.int64).T

    def zeros(self, shape):
        return np.zeros(shape, dtype=np.int64)

    def _digitwise(self, f, *xs):
        """f applied digit by digit, mod p, to the broadcast arrays xs."""
        m, p = self.spec.m, self.p
        planes = [digit_planes(x, p, m) for x in np.broadcast_arrays(*xs)]
        return join_digit_planes(f(*planes) % p, p)

    def _product(self, x, y, matmul, minus=None):
        """x @ y (`matmul`) or x * y, or minus - x * y, over the extension
        field; operands broadcast as in numpy.  Plane i of x times the stacked
        planes of y adds into the convolution planes of t^i .. t^(i+m-1), which
        the fold maps to the m digit planes reduced by the modulus.  A plane
        sums at most m k (p-1)^2 (k the inner dimension, 1 elementwise): below
        2^53 the planes are summed unreduced in float64, as exact integers, and
        reduced once, after the fold if (2m-1)(p-1) m k (p-1)^2 < 2^53 too and
        before it otherwise.  Past 2^53 each plane product is reduced mod p."""
        m, p = self.spec.m, self.p
        bound = m * (np.shape(x)[-1] if matmul else 1) * (p - 1) ** 2
        X, Y = digit_planes(x, p, m), digit_planes(y, p, m)
        Y = _lead(Y, X.ndim)
        if bound < 1 << 53:
            X, Y = X.astype(np.float64), Y.astype(np.float64)
            product = np.matmul if matmul else np.multiply
        else:
            product = (lambda a, b: _matmul_mod(a, b, p)) if matmul else (lambda a, b: a * b % p)
        for i in range(m):
            term = product(X[i], Y)
            if i == 0:
                conv = np.zeros((2 * m - 1,) + term.shape[1:], dtype=term.dtype)
            conv[i:i + m] += term
        flat = conv.reshape(2 * m - 1, -1)
        if (2 * m - 1) * (p - 1) * bound < 1 << 53:
            out = self._fold.astype(np.float64) @ flat
        else:
            out = _matmul_mod(self._fold, flat.astype(np.int64) % p, p)
        # an int64 `%` is far cheaper than a float64 one
        out = out.astype(np.int64).reshape((m,) + conv.shape[1:])
        if minus is not None:
            X0 = digit_planes(minus, p, m)
            out = _lead(X0, out.ndim) - _lead(out, X0.ndim)
        return join_digit_planes(out % p, p)

    def add(self, x, y):
        if self.prime:
            return (x + y) % self.p
        return x ^ y if self.p == 2 else self._digitwise(operator.add, x, y)

    def neg(self, x):
        if self.prime:
            return (-x) % self.p
        return np.array(x, copy=True) if self.p == 2 else self._digitwise(operator.neg, x)

    def sub(self, x, y):
        if self.prime:
            return (x - y) % self.p
        return x ^ y if self.p == 2 else self._digitwise(operator.sub, x, y)

    def mul(self, x, y):
        if self.prime:
            return (x * y) % self.p
        if self.q <= _BYTE_TABLE_LIMIT:
            return self._tables[0][x * self.q + y].astype(np.int64)
        return self._product(x, y, False)

    @cached_property
    def headroom(self) -> int:
        """How many `isubmul` updates an array takes between `reduce`s."""
        return ((1 << 63) - 1 - self.p) // (self.p - 1) ** 2 if self.prime else 1 << 63

    def isubmul(self, x, a, b):
        """x -= a*b in place for the int64 array x, a and b broadcast to it;
        returns x, unreduced on a prime field and reduced otherwise."""
        if self.prime:
            # every rep is below 2^31, so a*b < 2^62
            x[...] = x - a * b
        elif self.q <= _BYTE_TABLE_LIMIT:
            mul, sub, _ = self._tables
            x[...] = sub[x * self.q + mul[a * self.q + b]]
        else:
            x[...] = self._product(a, b, False, x)
        return x

    def reduce(self, x):
        """x in canonical reps, as a new array."""
        return x % self.p if self.prime else np.array(x, copy=True)

    @cached_property
    def _tables(self):
        """Flat uint8 mul[a q + b] = a*b and sub[a q + b] = a - b, and inv[a] =
        1/a with inv[0] = 0, for an extension field with q <= 256; built a
        block of rows at a time, which keeps the digit planes of the
        products small."""
        q, b, rows = self.q, np.arange(self.q), 8
        mul, sub = np.empty((2, q, q), dtype=np.uint8)
        for r in range(0, q, rows):
            a = b[r:r + rows, None]
            mul[r:r + rows] = self._product(a, b, False)
            sub[r:r + rows] = self.sub(a, b)
        # row 0 holds no 1, and argmax of an all-False row is 0
        return mul.ravel(), sub.ravel(), np.argmax(mul == 1, axis=1)

    def sum(self, x, axis=None):
        """Field sum of the entries of x along axis (all entries by default)."""
        if self.prime:
            # reps are below 2^31, so up to 2^32 of them sum without overflow
            return np.asarray(x, dtype=np.int64).sum(axis=axis) % self.p
        planes = digit_planes(x, self.p, self.spec.m)
        return join_digit_planes([d.sum(axis=axis) % self.p for d in planes], self.p)

    def scalar_inv(self, a: int) -> int:
        return self.spec.inv(int(a))

    def inv(self, x):
        """Elementwise inverse, one table lookup on extension fields up to
        q = 256 and x^(q-2) by square-and-multiply otherwise; zero maps to
        zero."""
        x = np.asarray(x, dtype=np.int64)
        if not self.prime and self.q <= _BYTE_TABLE_LIMIT:
            return self._tables[2][x]
        return _power(self.mul, x, self.q - 2, np.ones_like(x)) * (x != 0)

    def matmul(self, A, B):
        """A @ B; leading axes of either operand are stack axes, as in numpy."""
        return _matmul_mod(A, B, self.p) if self.prime else self._product(A, B, True)
