#!/usr/bin/env python3
"""Monte-Carlo estimates of the individual stage-gate probabilities against
their exact finite-n values or certified limits.

Each row prints the sampled frequency, its standard error, and the target
the gate converges to:
  hull_dim1              -> 1/q
  unique_simple          -> q c(q)^q / (q-1)
  unique_simple_nonzero  -> c(q)^q
  selfdual               -> 1/q (exact in characteristic 2)
  gamma_conditional      -> q c(q)^q / (q-1)
  full_algebra_pair      -> 1 - O(1/q^{n})

Example:
    python3 scripts/stage_gates.py --trials 2000
"""

import argparse
import sys

from tiso import cli, rmt


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rows = [
        ("hull_dim1", 12, 3, 1.0 / 3),
        ("hull_dim1", 12, 5, 1.0 / 5),
        ("hull_dim1", 12, 7, 1.0 / 7),
        ("unique_simple", 32, 3, rmt.alpha_inf(3).value),
        ("unique_simple_nonzero", 32, 3, rmt.alpha_star_inf(3).value),
        ("selfdual", 16, 2, 0.5),
        ("gamma_conditional", 24, 3, rmt.gamma_inf(3).value),
        ("full_algebra_pair", 6, 3, 1.0),
    ]
    for stat, n, q, target in rows:
        est, se = rmt.monte_carlo(stat, n, q, args.trials, args.seed)
        sig = abs(est - target) / se if se else 0.0
        print(f"{stat:22s} n={n:3d} q={q} est={est:.4f} stderr={se:.4f} "
              f"target={target:.4f} ({sig:.2f} sigma)")


if __name__ == "__main__":
    sys.exit(cli.quiet_on_closed_pipe(main))
