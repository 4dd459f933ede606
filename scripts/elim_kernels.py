#!/usr/bin/env python3
"""Kernel rows for the elimination row update, the extension-field
products and the t4 candidate screen: the best-of-N wall time, in ms, of
`matgf._pivot_loop` on one seeded random matrix per row, of
`matgf.rref_stack` on one seeded random stack, of `matgf.charpoly` on one
seeded random square matrix, of `FieldOps.matmul`, `mul`, `inv` and
`isubmul` (on a fresh copy of x each call) on seeded random operands, over
the fields the benchmark workloads use, and of
`solvers._ordered_basis_candidates` on the first kernel-code side of a
seeded planted corank-3 t4 instance that passes the step-3 gate (shape
[n, c]).  The `mul` and `inv` rows over GF(2^8) and
GF(3^5) read the q x q byte tables; those over GF(17^2) and GF(3^6), the
first fields past q = 256, take digit planes.

Each row runs once untimed first, so lazily built field tables are not
timed.  Prints one JSON object; its "rows" are the kernel rows of
BENCH_elimination.json, BENCH_plane_products.json, BENCH_field_tables.json,
BENCH_t4_enumeration.json, BENCH_delayed_reduction.json and
BENCH_row_update.json.

Example:
    python3 scripts/elim_kernels.py --repeats 5
"""

import argparse
import json
import sys
import time

import numpy as np

from tiso import cli
from tiso.gf import field_create
from tiso.matgf import MatGF, _pivot_loop, charpoly, rref_rank_kernel, rref_stack
from tiso.solvers import _kernel_code_side, _ordered_basis_candidates
from tiso.tensor import flatten4, gen_instance, vec_to_matrix

# each takes the field, then the operands
KERNELS = {
    "_pivot_loop": _pivot_loop,
    "rref_stack": rref_stack,
    "charpoly": lambda field, A: charpoly(MatGF(field, A)),
    "matmul": lambda field, *xs: field.ops.matmul(*xs),
    "mul": lambda field, *xs: field.ops.mul(*xs),
    "inv": lambda field, *xs: field.ops.inv(*xs),
    "isubmul": lambda field, x, a, b: field.ops.isubmul(x.copy(), a, b),
    "t4_candidates": _ordered_basis_candidates,
}

# (kernel, (p, m), operand shapes)
ROWS = [
    ("_pivot_loop", ((1 << 20) + 7, 1), [(64, 192)]),
    ("_pivot_loop", ((1 << 20) + 7, 1), [(64, 128)]),
    ("_pivot_loop", (5, 1), [(24, 72)]),
    ("_pivot_loop", (5, 1), [(10, 30)]),
    ("_pivot_loop", (7, 1), [(24, 24)]),
    ("_pivot_loop", (2, 1), [(9, 9)]),
    ("_pivot_loop", ((1 << 31) - 1, 1), [(16, 48)]),
    ("_pivot_loop", (2, 8), [(16, 48)]),
    ("_pivot_loop", (3, 5), [(16, 48)]),
    ("_pivot_loop", (5, 7), [(8, 24)]),
    ("rref_stack", (2, 1), [(512, 9, 18)]),
    ("rref_stack", (2, 1), [(8, 3, 6)]),
    ("rref_stack", (2, 1), [(6, 18, 9)]),
    ("charpoly", (7, 1), [(10, 10)]),
    ("charpoly", ((1 << 20) + 7, 1), [(32, 32)]),
    ("charpoly", ((1 << 31) - 1, 1), [(16, 16)]),
    ("charpoly", (3, 5), [(16, 16)]),
    ("charpoly", (5, 7), [(8, 8)]),
    ("matmul", (2, 8), [(16, 16), (16, 16)]),
    ("matmul", (2, 8), [(16, 16), (16, 224)]),
    ("matmul", (2, 8), [(16, 16), (16, 256)]),
    ("matmul", (2, 8), [(16, 16), (16, 16, 16)]),
    ("matmul", (2, 8), [(64, 64), (64, 64)]),
    ("matmul", (3, 5), [(16, 16), (16, 16)]),
    ("matmul", (3, 5), [(64, 64), (64, 64)]),
    ("matmul", (5, 7), [(16, 16), (16, 16)]),
    ("matmul", (5, 7), [(64, 64), (64, 64)]),
    ("matmul", ((1 << 20) + 7, 1), [(64, 64), (64, 64)]),
    ("mul", (5, 7), [(64, 24), (64, 24)]),
    ("mul", (5, 7), [(8,), (8,)]),
    ("mul", (2, 8), [(24,), (24,)]),
    ("mul", (2, 8), [(64, 64), (64, 64)]),
    ("mul", (3, 5), [(24,), (24,)]),
    ("mul", (3, 5), [(64, 64), (64, 64)]),
    ("mul", (17, 2), [(24,), (24,)]),
    ("mul", (17, 2), [(64, 64), (64, 64)]),
    ("mul", (3, 6), [(24,), (24,)]),
    ("mul", (3, 6), [(64, 64), (64, 64)]),
    ("inv", (2, 8), [(24,)]),
    ("inv", (3, 5), [(24,)]),
    ("inv", (17, 2), [(24,)]),
    ("inv", (3, 6), [(24,)]),
    ("isubmul", (5, 7), [(8, 24), (8, 1), (1, 24)]),
    ("isubmul", (5, 7), [(16, 48), (16, 1), (1, 48)]),
    ("t4_candidates", (2, 1), [(3, 3)]),
    ("t4_candidates", (2, 2), [(3, 3)]),
]


def t4_side(field, n, c):
    """(A_1, reduced tuple, other code's basis) of the first kernel-code side
    of gen_instance's planted corank-c pair at seed 1 that passes the step-3
    gate."""
    A, B, _ = gen_instance("t4", n, field, f"planted_corank({c})", 1)
    _, rightA, leftA = rref_rank_kernel(flatten4(A))
    _, rightB, leftB = rref_rank_kernel(flatten4(B))
    for vecsA, vecsB in ((leftA, leftB), (rightA, rightB)):
        fixed = _kernel_code_side(field, vecsA, n)
        if fixed is not None:
            return fixed[0], fixed[1], [vec_to_matrix(field, v, n) for v in vecsB]
    raise SystemExit(f"no t4 side of seed 1 over {field} passes step 3")


def best_ms(f, repeats):
    f()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t0)
    return round(1000 * best, 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=5, help="timed runs per row, >= 1")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    rows = []
    for kernel, pm, shapes in ROWS:
        field = field_create(*pm)
        rng = np.random.default_rng(1)
        if kernel == "t4_candidates":
            operands = t4_side(field, *shapes[0])
        else:
            operands = [rng.integers(0, field.q, size=shape) for shape in shapes]
        f = KERNELS[kernel]
        rows.append({"kernel": kernel, "field": str(field),
                     "shape": [list(s) for s in shapes] if len(shapes) > 1 else list(shapes[0]),
                     "best_ms": best_ms(lambda: f(field, *operands), args.repeats)})
    print(json.dumps({"repeats": args.repeats, "rows": rows}, indent=1))


if __name__ == "__main__":
    sys.exit(cli.quiet_on_closed_pipe(main))
