"""Univariate polynomials over F_q and F_q-root extraction.

Coefficients are canonical field reps, low-to-high, trailing zeros stripped.
Root finding isolates the linear-factor part via gcd(f, t^q - t), with
t^q mod f from `powmod`: a power of the d x d matrix of multiplication by t
modulo f, by the one square-and-multiply, `_power`, that `tiso.gf`,
`tiso.matgf` and `tiso.rmt` (for its series powers) import from here.  A
linear part of degree 1 gives its root directly; a larger one is evaluated
exhaustively (q <= 2^12) or split by randomized equal-degree splitting by
quadratic residues.  That split needs odd q, which always holds there:
`gf.field_create` caps the extension degree at 8, so every field of
characteristic 2 has q <= 2^8 and takes the exhaustive path.

`tiso.gf` tests its moduli for irreducibility with this module over F_p, so
this module must not import `tiso.gf` at run time; it reaches the array
arithmetic through a field's `ops`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DivideByZero, FieldMismatch, RetryExhausted, ZeroPolynomial

if TYPE_CHECKING:
    from .gf import FieldSpec

_EXHAUSTIVE_LIMIT = 1 << 12


@dataclass(frozen=True)
class Poly:
    field: FieldSpec
    coeffs: tuple  # low-to-high, trimmed

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        return f"Poly({list(self.coeffs)} over {self.field})"


def poly(field: FieldSpec, coeffs) -> Poly:
    cs = [field.check(int(c)) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return Poly(field, tuple(cs))


def _same_field(f: Poly, g: Poly):
    if f.field != g.field:
        raise FieldMismatch("polynomials over different fields")


def poly_add(f: Poly, g: Poly) -> Poly:
    _same_field(f, g)
    F = f.field
    n = max(len(f.coeffs), len(g.coeffs))
    out = []
    for i in range(n):
        a = f.coeffs[i] if i < len(f.coeffs) else 0
        b = g.coeffs[i] if i < len(g.coeffs) else 0
        out.append(F.add(a, b))
    return poly(F, out)


def poly_neg(f: Poly) -> Poly:
    return poly(f.field, [f.field.neg(c) for c in f.coeffs])


def poly_sub(f: Poly, g: Poly) -> Poly:
    return poly_add(f, poly_neg(g))


def poly_mul(f: Poly, g: Poly) -> Poly:
    _same_field(f, g)
    F = f.field
    if f.is_zero() or g.is_zero():
        return poly(F, [])
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a:
            for j, b in enumerate(g.coeffs):
                if b:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
    return poly(F, out)


def poly_scale(f: Poly, c: int) -> Poly:
    return poly(f.field, [f.field.mul(a, c) for a in f.coeffs])


def poly_divmod(f: Poly, g: Poly):
    _same_field(f, g)
    if g.is_zero():
        raise DivideByZero("polynomial division by zero")
    F = f.field
    rem = list(f.coeffs)
    dg = g.degree
    inv_lead = F.inv(g.coeffs[-1])
    quo = [0] * max(len(rem) - dg, 0)
    while len(rem) - 1 >= dg and rem:
        c = F.mul(rem[-1], inv_lead)
        k = len(rem) - 1 - dg
        quo[k] = c
        for j, b in enumerate(g.coeffs):
            rem[k + j] = F.sub(rem[k + j], F.mul(c, b))
        while rem and rem[-1] == 0:
            rem.pop()
    return poly(F, quo), poly(F, rem)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    _same_field(f, g)
    while not g.is_zero():
        f, g = g, poly_divmod(f, g)[1]
    if not f.is_zero():
        f = poly_scale(f, f.field.inv(f.coeffs[-1]))
    return f


def poly_eval(f: Poly, a: int) -> int:
    F = f.field
    acc = 0
    for c in reversed(f.coeffs):
        acc = F.add(F.mul(acc, a), c)
    return acc


def _power(mul, a, e: int, one):
    """a^e for e >= 0 by square-and-multiply with `mul`, starting from `one`.

    The base is squared only while bits of e remain, so no product is wasted.
    """
    acc, base = one, a
    while e:
        if e & 1:
            acc = mul(acc, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return acc


def powmod(base: Poly, e: int, modulus: Poly) -> Poly:
    """base^e mod modulus as row 0 of M^e, M = base(C) the matrix of
    multiplication by base on F[t]/(f), f the made-monic modulus.

    Row i of the companion matrix C holds t^(i+1) mod f, so row i of M holds
    t^i base mod f and the row vector of a residue v maps to that of v base.
    The accumulator is that row vector, so only the squarings of M are d x d
    `FieldOps` matrix products.
    """
    if modulus.degree < 1:
        raise DivideByZero("powmod modulus must be nonconstant")
    F, d = base.field, modulus.degree
    ops = F.ops
    C = np.eye(d, k=1, dtype=np.int64)
    C[-1] = ops.mul(np.array(modulus.coeffs[:-1], dtype=np.int64),
                    F.neg(F.inv(modulus.coeffs[-1])))
    M = ops.zeros((d, d))
    # base(C) by Horner's rule over base mod f, skipping the product by zero
    for k, c in enumerate(reversed(poly_divmod(base, modulus)[1].coeffs)):
        if k:
            M = ops.matmul(M, C)
        M.flat[::d + 1] = ops.add(M.flat[::d + 1], c)
    return poly(F, _power(ops.matmul, M, e, np.eye(1, d, dtype=np.int64))[0].tolist())


def linear_factor_part(f: Poly) -> Poly:
    """gcd(f, t^q - t): the product of (t - lambda) over distinct F_q-roots."""
    F = f.field
    if f.degree in (0, 1):
        # a linear f divides t^q - t, a constant is a unit: the gcd is f made monic
        return poly_scale(f, F.inv(f.coeffs[-1]))
    t = poly(F, [0, 1])
    tq = powmod(t, F.q, f)
    return poly_gcd(f, poly_sub(tq, t))


def _split_equal_degree(g: Poly, rng) -> list:
    """Split a monic product of distinct linear factors over odd q into its
    roots; a single linear factor needs no split and takes any q."""
    F = g.field
    if g.degree == 0:
        return []
    if g.degree == 1:
        # monic t + c0 -> root -c0
        return [F.neg(g.coeffs[0])]
    if rng is None:
        rng = np.random.default_rng(0xC0FFEE)
    budget = max(8, 4 * int(math.log2(F.q)) + 4)
    for _ in range(budget):
        c1 = int(rng.integers(1, F.q))
        c0 = int(rng.integers(0, F.q))
        a = poly(F, [c0, c1])
        h = poly_sub(powmod(a, (F.q - 1) // 2, g), poly(F, [1]))
        d = poly_gcd(h, g)
        if 0 < d.degree < g.degree:
            rest = poly_divmod(g, d)[0]
            return _split_equal_degree(d, rng) + _split_equal_degree(rest, rng)
    raise RetryExhausted("equal-degree splitting retry budget exhausted")


def roots_in_Fq(f: Poly, rng=None):
    """Distinct F_q-roots of f with exact multiplicities, sorted by rep."""
    if f.is_zero():
        raise ZeroPolynomial("roots of the zero polynomial")
    F = f.field
    g = linear_factor_part(f)
    if g.degree <= 0:
        return []
    if F.q <= _EXHAUSTIVE_LIMIT and g.degree > 1:
        roots = [a for a in F.elements() if poly_eval(g, a) == 0]
    else:
        # a linear g is read off without a scan and without drawing from rng
        roots = _split_equal_degree(g, rng)
    out = []
    for lam in sorted(roots):
        lin = poly(F, [F.neg(lam), 1])
        mult = 0
        h = f
        while True:
            quo, rem = poly_divmod(h, lin)
            if not rem.is_zero():
                break
            mult += 1
            h = quo
        out.append((lam, mult))
    return out
