#!/usr/bin/env python3
"""Exact-versus-census report for the spectral statistics engine.

For every census-reachable (n, q) in a small grid, prime and extension
fields alike, prints the closed-form values of alpha, alpha*, sigma next to
the full-enumeration census, and the certified limits with their enclosure
half-widths.

Example:
    python3 scripts/rmt_report.py
"""

import sys
from fractions import Fraction

from tiso import cli, rmt

GRID = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 5), (3, 4), (2, 8), (2, 9)]


def fs(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def main():
    print("== finite-n exact vs census ==")
    for n, q in GRID:
        rep = rmt.brute_force_census(n, q)
        a_formula, a_census = rmt.alpha(n, q), rep.alpha()
        s_census = rep.sigma()
        mark = "ok" if a_formula == a_census else "MISMATCH"
        print(f"n={n} q={q}: alpha={fs(a_formula)} census={fs(a_census)} "
              f"[{mark}]  alpha*={fs(rmt.alpha_star(n, q))} "
              f"sigma_census={fs(s_census)} "
              f"gamma_census={fs(rep.gamma())}")

    print("\n== certified limits ==")
    for q in (2, 3, 4, 5, 7, 11, 13):
        a = rmt.alpha_inf(q)
        s = rmt.alpha_star_inf(q)
        b = rmt.beta_inf(q)
        print(f"q={q}: alpha_inf={a.value:.6f} (+-{a.halfwidth:.1e})  "
              f"alpha*_inf={s.value:.6f}  beta_inf={b.value:.6f}")

    print("\n== convergence bounds at n=24 ==")
    for q in (2, 3):
        print(f"q={q}: bound_alpha={rmt.bound_alpha(24, q):.3e} "
              f"sigma_bound={rmt.sigma_bound(24, q):.3e} "
              f"gamma_bound={rmt.gamma_bound(24, q):.3e}")


if __name__ == "__main__":
    sys.exit(cli.quiet_on_closed_pipe(main))
