"""Univariate polynomials and root finding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiso.errors import DivideByZero, ZeroPolynomial
from tiso.gf import field_create
from tiso.poly import (linear_factor_part, poly, poly_add, poly_divmod,
                       poly_eval, poly_gcd, poly_mul, poly_sub,
                       powmod, roots_in_Fq)

F5 = field_create(5)
F8 = field_create(2, 3)

coeff_lists = st.lists(st.integers(0, 4), min_size=0, max_size=8)


@given(coeff_lists, coeff_lists)
def test_divmod_identity(fc, gc):
    f, g = poly(F5, fc), poly(F5, gc)
    if g.is_zero():
        with pytest.raises(DivideByZero):
            poly_divmod(f, g)
        return
    q, r = poly_divmod(f, g)
    assert poly_add(poly_mul(q, g), r).coeffs == f.coeffs
    assert r.degree < g.degree or r.is_zero()


@given(coeff_lists, coeff_lists)
def test_gcd_divides_both(fc, gc):
    f, g = poly(F5, fc), poly(F5, gc)
    if f.is_zero() and g.is_zero():
        return
    d = poly_gcd(f, g)
    for h in (f, g):
        if not h.is_zero():
            assert poly_divmod(h, d)[1].is_zero()


@given(coeff_lists, st.integers(0, 4))
def test_eval_is_ring_homomorphism(fc, a):
    f = poly(F5, fc)
    g = poly(F5, [1, 2, 1])
    lhs = poly_eval(poly_mul(f, g), a)
    rhs = F5.mul(poly_eval(f, a), poly_eval(g, a))
    assert lhs == rhs


def _brute_roots(f):
    field = f.field
    out = []
    for lam in field.elements():
        if poly_eval(f, lam) != 0:
            continue
        lin = poly(field, [field.neg(lam), 1])
        mult, h = 0, f
        while True:
            q, r = poly_divmod(h, lin)
            if not r.is_zero():
                break
            mult, h = mult + 1, q
        out.append((lam, mult))
    return out


@pytest.mark.parametrize("field", [F5, F8], ids=lambda f: f"GF({f.q})")
def test_roots_match_brute_force(field):
    rng = np.random.default_rng(5)
    draws = [[int(x) for x in rng.integers(0, field.q, size=rng.integers(1, 7))]
             for _ in range(200)]
    for fc in [[3]] + draws:  # a nonzero constant has no roots
        f = poly(field, fc)
        if f.is_zero():
            continue
        assert roots_in_Fq(f) == _brute_roots(f)


def test_roots_zero_polynomial_raises():
    with pytest.raises(ZeroPolynomial):
        roots_in_Fq(poly(F5, []))


def test_linear_factor_part_strips_irreducible_part():
    # f = (t - 1)(t - 2)(t^2 + 2) over F_5; t^2 + 2 has no roots (-2 = 3 is
    # a non-residue mod 5)
    f = poly_mul(poly_mul(poly(F5, [4, 1]), poly(F5, [3, 1])), poly(F5, [2, 0, 1]))
    g = linear_factor_part(f)
    assert g.degree == 2
    assert sorted(lam for lam, _ in roots_in_Fq(f)) == [1, 2]


@pytest.mark.parametrize("field", [F5, F8, field_create((1 << 31) - 1)], ids=repr)
def test_linear_factor_part_of_a_linear_polynomial_is_it_made_monic(field):
    t = poly(field, [0, 1])
    for c0, c1 in ((0, 1), (3, 2), (field.q - 1, field.q - 2)):
        f = poly(field, [c0, c1])
        by_gcd = poly_gcd(f, poly_sub(powmod(t, field.q, f), t))
        assert linear_factor_part(f) == by_gcd
        assert by_gcd.coeffs[-1] == 1


def test_powmod_fermat():
    # t^q = t mod (t^q - t) splitting behaviour: t^q mod f has the same
    # roots as t for any f
    f = poly(F5, [1, 1, 1, 1])
    t = poly(F5, [0, 1])
    tq = powmod(t, F5.q, f)
    for a in F5.elements():
        if poly_eval(f, a) == 0:
            assert poly_eval(tq, a) == a


def _powmod_oracle(base, e, modulus):
    """base^e mod modulus by scalar square-and-multiply on `Poly` values,
    the loop that `powmod` replaced."""
    acc = poly(base.field, [1])
    b = poly_divmod(base, modulus)[1]
    while e:
        if e & 1:
            acc = poly_divmod(poly_mul(acc, b), modulus)[1]
        b = poly_divmod(poly_mul(b, b), modulus)[1]
        e >>= 1
    return acc


# small, mid and largest primes (the last takes the limb-split matmul), a
# byte-table field of each characteristic, and one above the table limit
POWMOD_FIELDS = [F5, field_create((1 << 20) + 7), field_create((1 << 31) - 1),
                 field_create(2, 8), field_create(3, 5), field_create(5, 7)]
POWMOD_EXPONENTS = {"0": lambda q: 0, "1": lambda q: 1, "2": lambda q: 2,
                    "q": lambda q: q, "(q-1)/2": lambda q: (q - 1) // 2,
                    "q^2": lambda q: q * q}


@given(data=st.data(), field=st.sampled_from(POWMOD_FIELDS), d=st.integers(1, 64),
       e=st.sampled_from(sorted(POWMOD_EXPONENTS)))
@settings(max_examples=40, deadline=None)
def test_powmod_matches_the_scalar_oracle(data, field, d, e):
    coeff = st.integers(0, field.q - 1)
    # a non-monic modulus of degree d and a base of degree up to 2d + 1
    lead = data.draw(st.integers(1, field.q - 1))
    f = poly(field, data.draw(st.lists(coeff, min_size=d, max_size=d)) + [lead])
    base = poly(field, data.draw(st.lists(coeff, min_size=0, max_size=2 * d + 2)))
    exponent = POWMOD_EXPONENTS[e](field.q)
    assert powmod(base, exponent, f) == _powmod_oracle(base, exponent, f)


@pytest.mark.parametrize("field", POWMOD_FIELDS, ids=repr)
def test_powmod_of_a_base_above_the_modulus_degree(field):
    rng = np.random.default_rng(7)
    for d in (1, 2, 8, 16):
        f = poly(field, [int(c) for c in rng.integers(0, field.q, d)] + [field.q - 1])
        base = poly(field, [int(c) for c in rng.integers(0, field.q, 2 * d + 2)] + [1])
        for e in (0, 1, 2, field.q):
            assert powmod(base, e, f) == _powmod_oracle(base, e, f)


@pytest.mark.parametrize("modulus", [[], [3]], ids=["zero", "constant"])
def test_powmod_modulus_must_be_nonconstant(modulus):
    with pytest.raises(DivideByZero):
        powmod(poly(F5, [0, 1]), 5, poly(F5, modulus))


def test_large_field_randomized_splitting():
    p = (1 << 20) + 7
    F = field_create(p)
    # (t - 17)(t - 123456)^2 * (t^2 + 1 shifted to be root-free)
    f = poly_mul(poly(F, [F.neg(17), 1]),
                 poly_mul(poly(F, [F.neg(123456), 1]), poly(F, [F.neg(123456), 1])))
    irr = poly(F, [3, 1, 1])  # discriminant 1 - 12 = -11; check root-free below
    if roots_in_Fq(irr, np.random.default_rng(0)):
        irr = poly(F, [5, 1, 1])
    f = poly_mul(f, irr)
    roots = roots_in_Fq(f, np.random.default_rng(1))
    assert roots == [(17, 1), (123456, 2)]


def test_sub_and_mul_degrees():
    f = poly(F5, [1, 2, 3])
    g = poly(F5, [4, 3])
    assert poly_mul(f, g).degree == 3
    assert poly_sub(f, f).is_zero()
