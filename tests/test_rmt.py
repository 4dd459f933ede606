"""Exact random-matrix statistics: series, counts, censuses, estimators."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiso import rmt
from tiso.errors import BadParams, TooLarge
from tiso.gf import field_create
from tiso.matgf import MatGF, charpoly, charpoly_stack
from tiso.poly import poly


# -- series and closed forms ------------------------------------------------

def test_c_n_values():
    assert rmt.c_n(2, 0) == 1
    assert rmt.c_n(2, 1) == Fraction(1, 2)
    assert rmt.c_n(2, 2) == Fraction(3, 8)
    assert rmt.gl_order(2, 2) == 6
    assert rmt.c_n(2, 2) * 2 ** 4 == rmt.gl_order(2, 2)


@given(st.integers(2, 7), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_gl_order_matches_cn(q, n):
    if q == 6:  # no field has six elements
        for f in (rmt.gl_order, lambda n, q: rmt.c_n(q, n)):
            with pytest.raises(BadParams):
                f(n, q)
        return
    assert Fraction(rmt.gl_order(n, q), q ** (n * n)) == rmt.c_n(q, n)


def test_library_calls_reject_a_q_that_is_no_field_order():
    with pytest.raises(BadParams, match="not a prime power"):
        rmt.alpha(3, 6)
    # a semiprime whose trial division would run for minutes
    with pytest.raises(BadParams, match="not a prime power"):
        rmt.alpha(3, (2 ** 31 - 1) * (2 ** 31 - 19))


def test_c_limit_certified():
    approx, bound = rmt.c_limit(3, 1e-10)
    assert bound < 1e-10
    # the limit is squeezed between consecutive finite products
    assert rmt.c_n(3, 40) <= Fraction(approx).limit_denominator(10 ** 15) + Fraction(1, 10 ** 9)


def test_series_basic_coefficients():
    for q in (2, 3, 4, 5):
        V = rmt.v_series(q, 6)
        assert V[0] == 1 and V[1] == 0
        U = rmt.u_series(q, 6)
        assert U[0] == 1
        assert U[1] == Fraction(1, q - 1)
    assert rmt.v_n(2, 2) == Fraction(1, 3)


@pytest.mark.parametrize("q", [3, 4, 9, (1 << 20) + 7, (1 << 31) - 1])
def test_v2_is_the_irreducible_charpoly_share_at_large_q(q):
    """v_2 = q / (2 (q + 1)), the share of GL(2, q) whose charpoly is
    irreducible; the series power U^-(q-1) is square-and-multiply, so
    this is quick at the largest primes too."""
    assert rmt.v_n(q, 2) == Fraction(q, 2 * (q + 1))


def test_series_inverse_and_truncation():
    S = rmt.u_series(3, 12)
    P = S.mul(S.inv())
    assert P[0] == 1 and all(c == 0 for c in P.coeffs[1:])
    assert S.pow(0).coeffs[0] == 1
    with pytest.raises(BadParams):
        rmt.RationalSeries((Fraction(0), Fraction(1))).inv()


def test_profile_counts_and_probabilities():
    assert rmt.profile_count(2, 2, rmt.ProfileSpec.of({})) == 2
    assert rmt.profile_count(2, 2, rmt.ProfileSpec.of({0: 2})) == 4
    assert rmt.profile_count(1, 2, rmt.ProfileSpec.of({1: 1})) == 1
    p = rmt.profile_probability(2, 2, rmt.ProfileSpec.of({0: 2}))
    assert p == Fraction(4, 16)
    with pytest.raises(BadParams):
        rmt.profile_count(2, 2, rmt.ProfileSpec.of({0: 3}))
    with pytest.raises(BadParams):
        rmt.profile_count(2, 2, rmt.ProfileSpec.of({5: 1}))


@given(st.integers(2, 5), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_profile_partition_of_unity(q, n):
    """Summing the profile probabilities over all profiles (by census
    signatures) must give exactly 1."""
    if q ** (n * n) > 1 << 16:
        return
    rep = rmt.brute_force_census(n, q)
    sigs = {sig for (sig, _tr2) in rep.counts}
    total = Fraction(0)
    for sig in sigs:
        total += rmt.profile_probability(n, q, rmt.ProfileSpec(sig))
    assert total == 1


def test_alpha_formulas():
    assert rmt.alpha(2, 2) == 0
    assert rmt.alpha(3, 2) == Fraction(7, 32)
    assert rmt.alpha_star(3, 2) == Fraction(7, 64)
    with pytest.raises(BadParams):
        rmt.alpha(0, 2)


# -- censuses ---------------------------------------------------------------

def test_census_one_path_for_prime_and_extension_fields():
    # (1, 65537): one linear characteristic polynomial per matrix
    for n, q in ((2, 3), (2, 4), (1, 65537)):
        rep = rmt.brute_force_census(n, q)
        assert rep.total == q ** (n * n) == sum(rep.counts.values())
        assert rep.alpha() == rmt.alpha(n, q)
        assert rep.alpha_star() == rmt.alpha_star(n, q)
    assert rep.alpha() == 1
    assert rep.alpha_star() == Fraction(q - 1, q)


# one field per FieldOps backend: small and large primes, byte tables, and the
# digit-plane products above the table limit
@pytest.mark.parametrize("pm", [(2, 1), (5, 1), (7, 1), ((1 << 31) - 1, 1), (2, 8), (3, 5),
                                (5, 7)], ids=str)
def test_stack_charpoly_matches_charpoly(pm):
    field = field_create(*pm)
    rng = np.random.default_rng(sum(pm))
    for n in range(1, 7):
        D = rng.integers(0, field.q, size=(6, n, n), dtype=np.int64)
        D[0] = 0
        # zeros below the subdiagonal: D[1] is upper triangular, so the
        # Hessenberg reduction skips every column, and D[2] swaps rows (and
        # columns) 1 and n - 1 first
        D[1][np.tril_indices(n, -1)] = 0
        if n > 2:
            D[2, 1:, 0] = 0
            D[2, -1, 0] = 1
        cols = charpoly_stack(field, D)
        for i in range(D.shape[0]):
            assert tuple(cols[i].tolist()) == charpoly(MatGF(field, D[i])).coeffs


@pytest.mark.parametrize("n,q", [(3, 4), (2, 8)])
def test_census_matches_closed_forms_over_extension_fields(n, q):
    rep = rmt.brute_force_census(n, q)
    assert rep.alpha() == rmt.alpha(n, q)
    assert rep.alpha_star() == rmt.alpha_star(n, q)
    assert Fraction(rep.eigenvalue_free_count(), rmt.gl_order(n, q)) == rmt.v_n(q, n)
    assert rep.invertible_count() == rmt.gl_order(n, q)
    assert rep.sigma() == rmt.sigma_exact_char2(q) == Fraction(1, q)


def test_census_at_n1_over_a_large_prime_stays_small():
    tracemalloc.start()
    try:
        rep = rmt.brute_force_census(1, 4099)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.alpha() == 1
    assert peak < 32 << 20


def test_census_matches_formulas_at_3_3():
    rep = rmt.brute_force_census(3, 3)
    assert rep.alpha() == rmt.alpha(3, 3)
    assert rep.alpha_star() == rmt.alpha_star(3, 3)
    # eigenvalue-free fraction of GL equals v_n
    assert Fraction(rep.eigenvalue_free_count(), rmt.gl_order(3, 3)) == rmt.v_n(3, 3)
    assert rep.invertible_count() == rmt.gl_order(3, 3)


def test_census_too_large():
    with pytest.raises(TooLarge):
        rmt.brute_force_census(5, 2)
    with pytest.raises(TooLarge):
        rmt.sigma_census(3, 7)


def test_sigma_values():
    assert rmt.sigma_exact_char2(2) == Fraction(1, 2)
    assert rmt.sigma_exact_char2(4) == Fraction(1, 4)
    with pytest.raises(BadParams):
        rmt.sigma_exact_char2(3)
    assert rmt.sigma_census(2, 2) == Fraction(1, 2)
    assert abs(rmt.sigma_census(2, 5) - Fraction(1, 5)) <= Fraction(4, 125)


# -- limits and bounds ------------------------------------------------------

def test_enclosures_are_tight_and_consistent():
    for q in (2, 3, 5):
        e = rmt.c_power_enclosure(q, q)
        assert 0 < e.lo < e.hi < 1
        assert e.halfwidth < 1e-10
        # consistency with the independent finite-product route
        approx, bound = rmt.c_limit(q, 1e-12)
        assert e.lo - 1e-9 <= approx ** q * (1 + 5e-9) and \
            approx ** q * (1 - 5e-9) <= e.hi + 1e-9
    assert rmt.alpha_star_inf(2).lo > math.exp(-23 / 9)


def test_bound_evaluators_shrink():
    assert rmt.bound_alpha(20, 3) < rmt.bound_alpha(10, 3)
    assert rmt.bound_alpha_star(10, 3) < rmt.bound_alpha(10, 3)
    assert rmt.sigma_bound(10, 3) < 1e-20
    with pytest.raises(BadParams):
        rmt.Gamma_bound(5, 3)  # below the validity threshold n > 5(q-1)^2
    g = rmt.gamma_bound(24, 3)
    assert 0 < g < 1


def test_beta_gamma_limit_bundle():
    d = rmt.beta_gamma_limits(3)
    assert d["gamma_inf"].value == rmt.alpha_inf(3).value
    assert abs(d["beta_inf"].value * 3 -
               rmt.c_power_enclosure(3, 2).value) < 1e-12


# -- character sums ---------------------------------------------------------

def test_gauss_sum_examples():
    g = rmt.gauss_sum(3, 1)
    assert abs(g - (1 + 2 * complex(math.cos(2 * math.pi / 3),
                                    math.sin(2 * math.pi / 3)))) < 1e-9
    assert abs(abs(rmt.gauss_sum(5, 1)) - math.sqrt(5)) < 1e-9
    assert abs(rmt.gauss_sum(3, 2) + rmt.gauss_sum(3, 1)) < 1e-9
    with pytest.raises(BadParams):
        rmt.gauss_sum(5, 0)


# -- characteristic polynomial probabilities --------------------------------

def test_p_gl_examples():
    F2 = field_create(2)
    assert rmt.p_gl(poly(F2, [1, 1, 1])) == Fraction(1, 3)
    assert rmt.p_gl(poly(F2, [1, 0, 1])) * rmt.gl_order(2, 2) == 4
    F7 = field_create(7)
    assert rmt.p_gl(poly(F7, [7 - 1, 1])) == Fraction(1, 6)
    with pytest.raises(BadParams):
        rmt.p_gl(poly(F2, [0, 1]))  # f(0) = 0


@pytest.mark.parametrize("q", [2, 3])
def test_p_gl_sums_to_one(q):
    field = field_create(q)
    total = sum(rmt.p_gl(poly(field, [c0, c1, 1]))
                for c0 in range(1, q) for c1 in range(q))
    assert total == 1


def test_p_gl_counts_match_census(q=3):
    """P_GL(f) |GL| must equal the census count of invertible matrices whose
    eigen-profile matches f's root structure, summed over f with the same
    signature."""
    field = field_create(q)
    rep = rmt.brute_force_census(2, q)
    # irreducible quadratics <-> eigenvalue-free invertible matrices
    count = Fraction(0)
    for c0 in range(1, q):
        for c1 in range(q):
            f = poly(field, [c0, c1, 1])
            if rmt.factor_monic(f)[0][0].degree == 2:
                count += rmt.p_gl(f) * rmt.gl_order(2, q)
    assert count == rep.eigenvalue_free_count()


# -- rank distribution ------------------------------------------------------

def test_rank_counts():
    assert rmt.rank_count(2, 2, 2) == 6
    assert sum(rmt.rank_count(3, r, 2) for r in range(4)) == 2 ** 9
    assert sum(rmt.corank_probability(4, c, 3) for c in range(5)) == 1
    with pytest.raises(BadParams):
        rmt.rank_count(2, 3, 2)


# -- Monte Carlo ------------------------------------------------------------

def test_monte_carlo_reproducible_and_calibrated():
    est1, se1 = rmt.monte_carlo("selfdual", 4, 2, 300, seed=5)
    est2, _ = rmt.monte_carlo("selfdual", 4, 2, 300, seed=5)
    assert est1 == est2
    assert abs(est1 - 0.5) < 5 * se1
    est, se = rmt.monte_carlo("corank_c", 4, 2, 400, seed=5, c=0)
    assert abs(est - float(rmt.corank_probability(4, 0, 2))) < 5 * se


def test_monte_carlo_validation():
    with pytest.raises(BadParams):
        rmt.monte_carlo("selfdual", 4, 2, 50, seed=0)
    with pytest.raises(BadParams):
        rmt.monte_carlo("nope", 4, 2, 200, seed=0)
    with pytest.raises(BadParams):
        rmt.monte_carlo("corank_c", 4, 2, 200, seed=0)
    # corank c > n has no matrix to estimate over
    with pytest.raises(BadParams):
        rmt.monte_carlo("corank_c", 3, 3, 200, seed=0, c=9)
    # n = 0 is a usage error, not an estimate
    with pytest.raises(BadParams):
        rmt.monte_carlo("full_algebra_pair", 0, 3, 200, seed=0)
