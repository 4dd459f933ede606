"""Exact statistics of random matrices over F_q.

Three layers, kept deliberately separate:

* exact rationals: truncated generating series, the products c_n(q),
  eigenvalue-profile counts, and the finite-n probabilities alpha, alpha*,
  sigma, delta, gamma built from them;
* certified floats: infinite-n limits such as c(q)^q, together with
  enclosure intervals and explicit convergence-bound evaluators;
* oracles: brute-force censuses over all of M(n, q) (feasible up to
  q^{n^2} <= 2^24, hence n <= 4), character sums by direct summation, and
  seeded Monte Carlo frequency estimators.  The census takes one path for
  every field: stacked characteristic polynomials and Tr(A^2) on
  `FieldOps`, and one `roots_in_Fq` call per distinct characteristic
  polynomial.

Every closed-form finite-n quantity is an exact Fraction so census
comparisons are equalities, not approximations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .codes import code_from_matrices, hull
from .conj import generates_full_algebra
from .errors import BadParams, InvariantViolation, NonIntegralCount, TooLarge
from .gf import FieldSpec, additive_character, digit_planes, join_digit_planes
from .matgf import (charpoly_stack, random_matrix, rref, trace_of_square,
                    trace_of_square_stack, unique_simple_eigenvalue)
from .poly import Poly, _power, poly, poly_divmod, poly_eval, poly_mul, roots_in_Fq
from .tensor import as_rng, field_from_q, prime_power

CENSUS_LIMIT = 1 << 24


# ---------------------------------------------------------------------------
# exact rational series


@dataclass(frozen=True)
class RationalSeries:
    """Truncated power series with exact rational coefficients.

    coeffs[k] is the coefficient of z^k; all arithmetic is exact and
    truncates at the common order.
    """

    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    def mul(self, other: "RationalSeries") -> "RationalSeries":
        N = min(self.order, other.order)
        out = [Fraction(0)] * (N + 1)
        for i, a in enumerate(self.coeffs[: N + 1]):
            if a:
                for j in range(N + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return RationalSeries(tuple(out))

    def inv(self) -> "RationalSeries":
        if self.coeffs[0] == 0:
            raise BadParams("series with zero constant term has no inverse")
        N = self.order
        inv0 = Fraction(1) / self.coeffs[0]
        out = [Fraction(0)] * (N + 1)
        out[0] = inv0
        for k in range(1, N + 1):
            s = Fraction(0)
            for i in range(1, k + 1):
                if self.coeffs[i]:
                    s += self.coeffs[i] * out[k - i]
            out[k] = -inv0 * s
        return RationalSeries(tuple(out))

    def pow(self, e: int) -> "RationalSeries":
        if e < 0:
            return self.inv().pow(-e)
        one = RationalSeries(tuple([Fraction(1)] + [Fraction(0)] * self.order))
        return _power(RationalSeries.mul, self, e, one)


def _check_q(q: int) -> int:
    """The characteristic of F_q; BadParams when q is no field order."""
    if not isinstance(q, int):
        raise BadParams(f"q must be an integer, got {q!r}")
    return prime_power(q)[0]


def c_n(q: int, n: int) -> Fraction:
    """prod_{i=1}^{n} (1 - q^{-i}), the density of GL(n, q) in M(n, q)."""
    _check_q(q)
    if n < 0:
        raise BadParams("n must be >= 0")
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= 1 - Fraction(1, q ** i)
    return out


def c_tail_bound(q: int, n: int) -> float:
    """Certified bound on |c(q) - c_n(q)|."""
    return 4.0 * float(q) ** (-(n + 1))


def c_limit(q: int, tol: float):
    """(approximation of c(q), certified bound) with bound < tol.

    Uses c_n(q) for the smallest n whose tail bound 4 q^{-(n+1)} beats tol.
    """
    _check_q(q)
    if not tol > 0:
        raise BadParams("tol must be positive")
    n = 0
    while c_tail_bound(q, n) >= tol:
        n += 1
    return float(c_n(q, n)), c_tail_bound(q, n)


def gl_order(n: int, q: int) -> int:
    """|GL(n, q)| = prod_{i=0}^{n-1} (q^n - q^i)."""
    _check_q(q)
    if n < 0:
        raise BadParams("n must be >= 0")
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


@lru_cache(maxsize=None)
def _u_coeffs(q: int, N: int) -> tuple:
    return tuple(Fraction(1) / (c_n(q, n) * q ** n) for n in range(N + 1))


def u_series(q: int, N: int) -> RationalSeries:
    """Series with u_n = 1 / (c_n(q) q^n): the reciprocal-|GL| weights
    normalized by q^{n^2} (each coefficient is q^{n^2 - n} / |GL(n,q)|)."""
    _check_q(q)
    if N < 0:
        raise BadParams("N must be >= 0")
    return RationalSeries(_u_coeffs(q, N))


@lru_cache(maxsize=None)
def _v_coeffs(q: int, N: int) -> tuple:
    U = u_series(q, N)
    geo = RationalSeries(tuple(Fraction(1) for _ in range(N + 1)))  # (1-z)^{-1}
    V = geo.mul(U.pow(-(q - 1)))
    return V.coeffs


def v_series(q: int, N: int) -> RationalSeries:
    """Series of v_n = Pr[uniform GL(n, q) element has no F_q-eigenvalue],
    determined by V * U^{q-1} = (1 - z)^{-1}; v_0 = 1, v_1 = 0 always."""
    _check_q(q)
    if N < 0:
        raise BadParams("N must be >= 0")
    return RationalSeries(_v_coeffs(q, N))


def v_n(q: int, n: int) -> Fraction:
    """Pr[uniform GL(n, q) element is eigenvalue-free over F_q]."""
    if n < 0:
        raise BadParams("n must be >= 0")
    return v_series(q, n)[n]


# ---------------------------------------------------------------------------
# eigenvalue-profile counts


@dataclass(frozen=True)
class ProfileSpec:
    """Prescribed algebraic multiplicities: assignments is a sorted tuple of
    (lambda, m(lambda)) pairs with m >= 1; unlisted eigenvalues have
    multiplicity 0."""

    assignments: tuple

    @staticmethod
    def of(mapping) -> "ProfileSpec":
        items = tuple(sorted((int(lam), int(m)) for lam, m in dict(mapping).items()))
        return ProfileSpec(items)

    @property
    def D(self) -> int:
        return sum(m for _, m in self.assignments)

    def validate(self, n: int, q: int):
        seen = set()
        for lam, m in self.assignments:
            if not (0 <= lam < q):
                raise BadParams(f"eigenvalue {lam} outside F_{q}")
            if m < 1:
                raise BadParams("profile multiplicities must be >= 1")
            if lam in seen:
                raise BadParams("duplicate eigenvalue in profile")
            seen.add(lam)
        if self.D > n:
            raise BadParams("total profile multiplicity exceeds n")


def profile_count(n: int, q: int, profile: ProfileSpec) -> int:
    """Exact number of matrices in M(n, q) whose F_q-eigenvalues and
    algebraic multiplicities are exactly those of `profile`:
    |GL(n,q)| * v(r) * prod_lambda q^{-m(lambda)} / c_{m(lambda)}(q),
    with r = n - D."""
    _check_q(q)
    if n < 0:
        raise BadParams("n must be >= 0")
    profile.validate(n, q)
    r = n - profile.D
    count = Fraction(gl_order(n, q)) * v_n(q, r)
    for _, m in profile.assignments:
        count *= Fraction(1, q ** m) / c_n(q, m)
    if count.denominator != 1:
        raise NonIntegralCount(
            f"profile count evaluated to non-integer {count} at n={n}, q={q}")
    return int(count)


def profile_probability(n: int, q: int, profile: ProfileSpec) -> Fraction:
    return Fraction(profile_count(n, q, profile), q ** (n * n))


# ---------------------------------------------------------------------------
# finite-n probabilities and their limits


def alpha(n: int, q: int) -> Fraction:
    """Pr[uniform M(n, q) matrix has exactly one F_q-eigenvalue and it is
    simple] = q/(q-1) * v(n-1) * c_n(q)."""
    _check_q(q)
    if n < 1:
        raise BadParams("n must be >= 1")
    return Fraction(q, q - 1) * v_n(q, n - 1) * c_n(q, n)


def alpha_star(n: int, q: int) -> Fraction:
    """Same as alpha but additionally requiring the eigenvalue nonzero."""
    _check_q(q)
    if n < 1:
        raise BadParams("n must be >= 1")
    return v_n(q, n - 1) * c_n(q, n)


@dataclass(frozen=True)
class Enclosure:
    """Certified interval [lo, hi] containing an exact real quantity."""

    lo: float
    hi: float

    @property
    def value(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.hi - self.lo)

    def scale(self, num: int, den: int) -> "Enclosure":
        f = num / den
        lo = min(self.lo * f, self.hi * f)
        hi = max(self.lo * f, self.hi * f)
        return Enclosure(_nudge(lo, -1, 4), _nudge(hi, +1, 4))


def _nudge(x: float, direction: int, ulps: int) -> float:
    target = -math.inf if direction < 0 else math.inf
    for _ in range(ulps):
        x = math.nextafter(x, target)
    return x


def c_power_enclosure(q: int, k: int, terms: int = 96) -> Enclosure:
    """Certified enclosure of c(q)^k with c(q) = prod_{i>=1} (1 - q^{-i}).

    log c(q)^k is summed to `terms` factors; the dropped tail satisfies
    |k * sum_{i>N} log(1 - q^{-i})| <= k q^{-N} / ((q-1)(1 - q^{-(N+1)})),
    and a generous rounding allowance covers the float summation.
    """
    _check_q(q)
    if k < 0:
        raise BadParams("power must be >= 0")
    if k == 0:
        return Enclosure(1.0, 1.0)
    N = terms
    log_sum = 0.0
    for i in range(1, N + 1):
        t = float(q) ** (-i)
        if t == 0.0:
            break
        log_sum += math.log1p(-t)
    log_sum *= k
    tail = k * float(q) ** (-N) / ((q - 1) * (1.0 - float(q) ** (-(N + 1))))
    fudge = tail + 1e-13 * abs(log_sum) + 1e-15
    return Enclosure(_nudge(math.exp(log_sum - fudge), -1, 4),
                     _nudge(math.exp(log_sum + fudge), +1, 4))


def alpha_inf(q: int) -> Enclosure:
    """Limit of alpha(n, q): q c(q)^q / (q - 1), certified."""
    return c_power_enclosure(q, q).scale(q, q - 1)


def alpha_star_inf(q: int) -> Enclosure:
    """Limit of alpha*(n, q): c(q)^q, certified."""
    return c_power_enclosure(q, q)


def v_tail_bound(n: int, q: int) -> float:
    """Bound B with |v(infinity) - v(n+1)| * c(q) <= B (so in particular
    |v(inf) - v(n+1)| <= B / c_n-type constants): (1/2) 16^{q-1}
    q^{-(n+1)(n+q)/(2(q-1))}."""
    _check_q(q)
    return 0.5 * 16.0 ** (q - 1) * float(q) ** (-(n + 1) * (n + q) / (2.0 * (q - 1)))


def bound_alpha(n: int, q: int) -> float:
    """Certified bound on |alpha(infinity, q) - alpha(n+1, q)|."""
    _check_q(q)
    if n < 1:
        raise BadParams("n must be >= 1")
    return (q / (q - 1.0)) * (v_tail_bound(n, q) + 4.0 * float(q) ** (-(n + 1)))


def bound_alpha_star(n: int, q: int) -> float:
    """Certified bound on |alpha*(infinity, q) - alpha*(n+1, q)|."""
    _check_q(q)
    if n < 1:
        raise BadParams("n must be >= 1")
    return v_tail_bound(n, q) + 4.0 * float(q) ** (-(n + 1))


# ---------------------------------------------------------------------------
# self-duality (Tr(A^2) = 0)


def sigma_exact_char2(q: int) -> Fraction:
    """In characteristic 2 the self-dual fraction is exactly 1/q for every n
    (Tr(A^2) is an F_p-linear function of A there, with q^{n^2-1} * ...
    level sets of equal size q^{n^2}/q)."""
    if _check_q(q) != 2:
        raise BadParams("exact closed form holds only in characteristic 2")
    return Fraction(1, q)


def sigma_bound(n: int, q: int) -> float:
    """Certified bound Sigma(n, q) = (q-1) q^{-n^2/2 - 1} on
    |sigma(n, q) - 1/q|."""
    _check_q(q)
    if n < 1:
        raise BadParams("n must be >= 1")
    return (q - 1) * float(q) ** (-(n * n) / 2.0 - 1.0)


def sigma_census(n: int, q: int) -> Fraction:
    """Exact fraction of A in M(n, q) with Tr(A^2) = 0, by full enumeration
    (vectorized; feasible for q^{n^2} <= 2^24)."""
    field = field_from_q(q)
    if n < 1:
        raise BadParams("n must be >= 1")
    count = 0
    total = q ** (n * n)
    for D in _census_chunks(q, n):
        tr2 = trace_of_square_stack(field, D)
        count += int((tr2 == 0).sum())
    return Fraction(count, total)


# ---------------------------------------------------------------------------
# character sums


def gauss_sum(q: int, lam: int) -> complex:
    """sum_{x in F_q} psi(lam x^2) by direct summation; |.| = sqrt(q) for
    odd q and lam != 0, with a residue/non-residue sign flip."""
    field = field_from_q(q)
    if lam == 0 or not (0 < lam < q):
        raise BadParams("lam must be a nonzero field element")
    return sum(additive_character(field, 1, field.mul(lam, field.mul(x, x)))
               for x in field.elements())


def xy_sum(q: int, lam: int) -> complex:
    """sum_{x,y in F_q} psi(2 lam x y); equals q exactly, so the normalized
    expectation of psi(2 lam x y) is 1/q."""
    field = field_from_q(q)
    if lam == 0 or not (0 < lam < q):
        raise BadParams("lam must be a nonzero field element")
    two = field.add(1, 1)
    c = field.mul(two, lam)
    return sum(additive_character(field, 1, field.mul(c, field.mul(x, y)))
               for x in field.elements() for y in field.elements())


# ---------------------------------------------------------------------------
# characteristic-polynomial probabilities in GL


@lru_cache(maxsize=None)
def _monic_irreducibles(field_key, max_deg: int):
    """All monic irreducibles of degree <= max_deg over the field, by sieve."""
    field = field_from_q(field_key)
    by_deg = {d: [] for d in range(1, max_deg + 1)}
    for d in range(1, max_deg + 1):
        for tail in itertools.product(range(field.q), repeat=d):
            f = poly(field, list(tail) + [1])
            if _is_irreducible_monic(f, by_deg):
                by_deg[d].append(f)
    return by_deg


def _is_irreducible_monic(f: Poly, smaller_by_deg) -> bool:
    d = f.degree
    if d == 1:
        return True
    for dd in range(1, d // 2 + 1):
        for g in smaller_by_deg[dd]:
            if poly_divmod(f, g)[1].is_zero():
                return False
    return True


def factor_monic(f: Poly):
    """Full factorization [(g_i, e_i)] of monic f by exhaustive trial
    division (intended for small q^{deg f})."""
    field = f.field
    if f.is_zero() or f.coeffs[-1] != 1:
        raise BadParams("factor_monic needs a monic nonzero polynomial")
    if field.q ** max(f.degree, 1) > 1 << 20:
        raise BadParams("field/degree too large for exhaustive factorization")
    out = []
    rest = f
    by_deg = _monic_irreducibles(field.q, max(f.degree, 1))
    for d in range(1, f.degree + 1):
        for g in by_deg[d]:
            e = 0
            while True:
                quo, rem = poly_divmod(rest, g)
                if not rem.is_zero():
                    break
                rest = quo
                e += 1
            if e:
                out.append((g, e))
            if rest.degree == 0:
                return out
    return out


def p_gl(f: Poly, factorization=None) -> Fraction:
    """Exact Pr[uniform GL(n, q) element has characteristic polynomial f]
    = prod_i q^{deg(g_i) e_i (e_i - 1)} / |GL(e_i, q^{deg(g_i)})| over the
    factorization f = prod g_i^{e_i}."""
    field = f.field
    q = field.q
    if f.is_zero() or f.coeffs[-1] != 1:
        raise BadParams("p_gl needs a monic polynomial")
    if poly_eval(f, 0) == 0:
        raise BadParams("p_gl needs f(0) != 0 (charpoly of an invertible matrix)")
    if f.degree == 0:
        return Fraction(1)
    if factorization is None:
        factorization = factor_monic(f)
    check = poly(field, [1])
    prob = Fraction(1)
    for g, e in factorization:
        for _ in range(e):
            check = poly_mul(check, g)
        d = g.degree
        prob *= Fraction(q ** (d * e * (e - 1)), gl_order(e, q ** d))
    if check.coeffs != f.coeffs:
        raise BadParams("supplied factorization does not multiply back to f")
    return prob


# ---------------------------------------------------------------------------
# beta / gamma limits and bounds


def beta_inf(q: int) -> Enclosure:
    """Limit of beta(n, q, k) for every trace class k: c(q)^{q-1} / q."""
    return c_power_enclosure(q, q - 1).scale(1, q)


def gamma_inf(q: int) -> Enclosure:
    """Limit of the self-dual-conditioned unique-simple-eigenvalue
    probability: q c(q)^q / (q - 1)."""
    return alpha_inf(q)


def Gamma_bound(n: int, q: int) -> float:
    """Certified bound on |beta(infinity) - beta(n)|, valid for
    n > 5 (q - 1)^2."""
    _check_q(q)
    if n <= 5 * (q - 1) ** 2:
        raise BadParams(f"Gamma bound needs n > 5(q-1)^2 = {5 * (q - 1) ** 2}")
    qf = float(q)
    first = 0.5 * 16.0 ** (q - 1) * qf ** (-(n + 1) * (n + q) / (2.0 * (q - 1)) - 1.0)
    expo = (-(n * n) / (2.0 * (q + 1))
            + (q - 1) * n / (2.0 * (q + 1))
            + (q - 1) / (4.0 * (q + 1)))
    second = ((n + 1) ** 2 * math.comb(n + q - 2, q - 2)
              * (qf / (qf - 1.0)) ** n * qf ** expo)
    return first + second


def gamma_bound(n: int, q: int) -> float:
    """Certified bound on |gamma(infinity, q) - gamma(n, q)| (same validity
    region as Gamma_bound)."""
    _check_q(q)
    qf = float(q)
    denom = 1.0 - (q - 1) * qf ** (-(n * n) / 2.0)
    if denom <= 0:
        raise BadParams("bound not valid at this n (sigma bound exceeds 1/q)")
    inner = ((q - 1) * qf ** (-(n * n) / 2.0 - 1.0)
             + (qf / (qf - 1.0)) * (qf ** (-(n + 1)) + Gamma_bound(n, q)))
    return qf * qf / denom * inner


def beta_gamma_limits(q: int) -> dict:
    """Bundle of the trace-conditioned limits and their bound evaluators."""
    return {
        "beta_inf": beta_inf(q),
        "gamma_inf": gamma_inf(q),
        "Gamma_bound": Gamma_bound,
        "gamma_bound": gamma_bound,
    }


def delta_exact(n: int, q: int, beta_values: dict) -> Fraction:
    """delta(n, q) = c_n(q)/(q-1) * sum_k beta(n-1, q, k), given the exact
    beta(n-1, q, k) values (e.g. from a census) keyed by k in F_q."""
    _check_q(q)
    if n < 1:
        raise BadParams("n must be >= 1")
    if len(beta_values) != q:
        raise BadParams("need a beta value for every trace class k in F_q")
    return c_n(q, n) / (q - 1) * sum(beta_values.values())


# ---------------------------------------------------------------------------
# brute-force census


@dataclass
class CensusReport:
    """Joint census of M(n, q): counts keyed by (eigen-profile signature,
    Tr(A^2) value), where the signature is the sorted tuple of
    (eigenvalue, algebraic multiplicity) pairs over F_q."""

    n: int
    q: int
    counts: dict

    @property
    def total(self) -> int:
        return self.q ** (self.n * self.n)

    def count_where(self, pred) -> int:
        return sum(c for (sig, tr2), c in self.counts.items() if pred(sig, tr2))

    # marginal counts -----------------------------------------------------
    def unique_simple_count(self) -> int:
        return self.count_where(lambda sig, _: len(sig) == 1 and sig[0][1] == 1)

    def unique_simple_nonzero_count(self) -> int:
        return self.count_where(
            lambda sig, _: len(sig) == 1 and sig[0][1] == 1 and sig[0][0] != 0)

    def eigenvalue_free_count(self) -> int:
        return self.count_where(lambda sig, _: len(sig) == 0)

    def invertible_count(self) -> int:
        return self.count_where(lambda sig, _: all(lam != 0 for lam, _m in sig))

    def selfdual_count(self) -> int:
        return self.count_where(lambda _sig, tr2: tr2 == 0)

    def profile_census_count(self, profile: ProfileSpec) -> int:
        return self.count_where(lambda sig, _: sig == profile.assignments)

    # fractions -----------------------------------------------------------
    def sigma(self) -> Fraction:
        return Fraction(self.selfdual_count(), self.total)

    def alpha(self) -> Fraction:
        return Fraction(self.unique_simple_count(), self.total)

    def alpha_star(self) -> Fraction:
        return Fraction(self.unique_simple_nonzero_count(), self.total)

    def beta(self, k: int) -> Fraction:
        """Pr[eigenvalue-free and Tr(A^2) = k] over GL(n, q) (eigenvalue-free
        matrices are automatically invertible)."""
        cnt = self.count_where(lambda sig, tr2: len(sig) == 0 and tr2 == k)
        return Fraction(cnt, gl_order(self.n, self.q))

    def delta(self) -> Fraction:
        cnt = self.count_where(
            lambda sig, tr2: len(sig) == 1 and sig[0][1] == 1 and tr2 == 0)
        return Fraction(cnt, self.total)

    def gamma(self) -> Fraction:
        return self.delta() / self.sigma()


def _census_chunks(q: int, n: int):
    chunk = 1 << 18
    total = q ** (n * n)
    if total > CENSUS_LIMIT:
        raise TooLarge(f"census size q^(n^2) = {total} exceeds {CENSUS_LIMIT}")
    for start in range(0, total, chunk):
        digits = digit_planes(np.arange(start, min(start + chunk, total)), q, n * n)
        yield np.moveaxis(digits.reshape(n, n, -1), -1, 0)


def brute_force_census(n: int, q: int) -> CensusReport:
    """Deterministic full enumeration of M(n, q): for every matrix, record
    the F_q eigen-profile (eigenvalue, algebraic multiplicity pairs) and
    Tr(A^2).

    One path serves every field.  Each chunk of matrices gets its
    characteristic polynomials from `matgf.charpoly_stack` and Tr(A^2) from
    `trace_of_square_stack`, all with `FieldOps`.  The row (c_0, ...,
    c_{n-1}, Tr A^2) is packed into one integer key below q^(n+1) <= 2^48
    and counted with `np.unique`.  The roots of each distinct characteristic
    polynomial come from one `roots_in_Fq` call.  Feasible for
    q^{n^2} <= `CENSUS_LIMIT` = 2^24, hence for n <= 4.
    """
    _check_q(q)
    if n < 1:
        raise BadParams("n must be >= 1")
    field = field_from_q(q)
    profiles: dict = {}  # charpoly coefficients c_0..c_{n-1} -> eigen-profile
    counts: dict = {}
    for D in _census_chunks(q, n):
        cols = charpoly_stack(field, D)
        cols[:, n] = trace_of_square_stack(field, D)  # in place of the monic 1
        keys, cnt = np.unique(join_digit_planes(cols.T, q), return_counts=True)
        for digits, c in zip(digit_planes(keys, q, n + 1).T.tolist(), cnt.tolist()):
            cp = tuple(digits[:n])
            sig = profiles.get(cp)
            if sig is None:
                sig = profiles[cp] = tuple(roots_in_Fq(poly(field, cp + (1,))))
            entry = (sig, digits[n])
            counts[entry] = counts.get(entry, 0) + c
    if sum(counts.values()) != q ** (n * n):
        raise InvariantViolation(f"census of M({n}, {q}) does not cover every matrix")
    return CensusReport(n, q, counts)


# ---------------------------------------------------------------------------
# rank / corank distribution


def rank_count(n: int, r: int, q: int) -> int:
    """Number of n x n matrices over F_q of rank r:
    prod_{i=0}^{r-1} (q^n - q^i)^2 / (q^r - q^i)."""
    _check_q(q)
    if not (0 <= r <= n):
        raise BadParams("need 0 <= r <= n")
    out = Fraction(1)
    for i in range(r):
        out *= Fraction((q ** n - q ** i) ** 2, q ** r - q ** i)
    if out.denominator != 1:
        raise NonIntegralCount("rank count evaluated to non-integer")
    return int(out)


def corank_probability(n: int, c: int, q: int) -> Fraction:
    """Exact Pr[uniform n x n matrix has rank n - c]."""
    return Fraction(rank_count(n, n - c, q), q ** (n * n))


# ---------------------------------------------------------------------------
# Monte Carlo estimators

MC_STATS = ("hull_dim1", "unique_simple", "unique_simple_nonzero", "selfdual",
            "gamma_conditional", "full_algebra_pair", "corank_c")


def monte_carlo(stat: str, n: int, q, trials: int, seed, c: int | None = None):
    """Seeded frequency estimate of a spectral/self-duality event over
    uniform random matrices; returns (estimate, binomial stderr)."""
    if stat not in MC_STATS:
        raise BadParams(f"unknown statistic {stat!r}; choose from {MC_STATS}")
    if trials < 100:
        raise BadParams("trials must be >= 100")
    if n < 1:
        raise BadParams("n must be >= 1")
    if stat == "corank_c" and (c is None or not 0 <= c <= n):
        raise BadParams("corank_c needs a corank parameter 0 <= c <= n")
    field = q if isinstance(q, FieldSpec) else field_from_q(q)
    rng = as_rng(seed)
    hits = 0
    for _ in range(trials):
        if _mc_trial(stat, field, n, rng, c):
            hits += 1
    est = hits / trials
    stderr = math.sqrt(est * (1.0 - est) / trials)
    return est, stderr


def _mc_trial(stat: str, field: FieldSpec, n: int, rng, c) -> bool:
    if stat == "hull_dim1":
        mats = [random_matrix(field, n, n, rng) for _ in range(n)]
        return hull(code_from_matrices(field, mats, n)).dim == 1
    if stat == "unique_simple":
        A = random_matrix(field, n, n, rng)
        return unique_simple_eigenvalue(A) is not None
    if stat == "unique_simple_nonzero":
        A = random_matrix(field, n, n, rng)
        return unique_simple_eigenvalue(A, require_nonzero=True) is not None
    if stat == "selfdual":
        A = random_matrix(field, n, n, rng)
        return trace_of_square(A) == 0
    if stat == "gamma_conditional":
        # rejection-sample the self-dual condition, then test the event
        for _ in range(64 * field.q):
            A = random_matrix(field, n, n, rng)
            if trace_of_square(A) == 0:
                return unique_simple_eigenvalue(A) is not None
        raise BadParams("self-dual rejection sampling failed to terminate")
    if stat == "full_algebra_pair":
        A1 = random_matrix(field, n, n, rng)
        A2 = random_matrix(field, n, n, rng)
        return generates_full_algebra(A1, A2)
    if stat == "corank_c":
        A = random_matrix(field, n, n, rng)
        return len(rref(field, A.a)[1]) == n - c
    raise BadParams(stat)
