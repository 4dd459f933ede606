"""Command-line front end: instance generation, solving, verification,
random-matrix statistics reports, and the batch experiment harness.

Exit codes: 0 = ran to a verdict/report (solver Failure / NotIsomorphic are
answers, not errors), 1 = internal error, 2 = usage error (bad flags, bad
field spec, malformed input files).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import rmt
from .errors import (BadParams, DegreeMismatch, NotPrime, ReducibleModulus,
                     ShapeMismatch, TisoError, TooLarge)
from .gf import field_create
from .solvers import STAGES, solve
from .tensor import (PROBLEMS, gen_instance, instance_from_json,
                     instance_to_json, prime_power, verify_witness,
                     witness_from_json, witness_to_json)

EXIT_OK, EXIT_INTERNAL, EXIT_USAGE = 0, 1, 2


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    """Batch-run description; per-trial seeds are a pure function of
    (master_seed, trial index), so any single trial is re-runnable alone."""

    problem: str
    n: int
    p: int
    m: int = 1
    modulus: tuple | None = None
    trials: int = 100
    master_seed: int = 0
    mode: str = "planted"
    out: str | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise BadParams("trials must be >= 1")
        if self.jobs < 1:
            raise BadParams("jobs must be >= 1")
        if self.problem not in PROBLEMS:
            raise BadParams(f"unknown problem {self.problem!r}")


def trial_seed(master_seed: int, index: int) -> int:
    """128-bit per-trial seed: blake2b of the (master_seed, index) pair.

    Fixed mixing function so trials reproduce identically regardless of
    parallelism or execution order.
    """
    h = hashlib.blake2b(f"tiso:{master_seed}:{index}".encode(), digest_size=16)
    return int.from_bytes(h.digest(), "big")


def _modulus_from_args(args):
    if not getattr(args, "modulus", None):
        return None
    try:
        return tuple(int(x) for x in args.modulus.split(","))
    except ValueError as e:
        raise BadParams(f"bad --modulus: {e}") from None


def _field_from_args(args):
    return field_create(args.p, getattr(args, "m", 1) or 1, _modulus_from_args(args))


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# gen / solve / verify


def cmd_gen(args) -> int:
    field = _field_from_args(args)
    A, B, witness = gen_instance(args.problem, args.n, field, args.mode, args.seed)
    doc = instance_to_json(args.problem, A, B,
                           meta={"mode": args.mode, "seed": args.seed})
    _emit(_json_dumps(doc), args.out)
    if args.witness_out:
        if witness is None:
            raise BadParams("unrelated instances carry no secret witness")
        _emit(_json_dumps(witness_to_json(args.problem, witness)),
              args.witness_out)
    return EXIT_OK


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise BadParams(f"cannot read {path}: {e}") from None


def cmd_solve(args) -> int:
    problem, A, B, _meta = instance_from_json(_load_json(args.instance))
    t0 = time.perf_counter()
    verdict, trace = solve(problem, A, B, rng=args.seed)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    doc = verdict.to_json()
    doc["stages"] = trace.to_json()
    doc["wall_ms"] = round(wall_ms, 3)
    _emit(_json_dumps(doc), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    problem, A, B, _meta = instance_from_json(_load_json(args.instance))
    wproblem, mats, lam = witness_from_json(_load_json(args.witness), A.field)
    if wproblem != problem:
        raise BadParams("witness and instance are for different problems")
    res = verify_witness(problem, A, B, mats)
    if problem == "algiso":
        ok = res[0] and (lam is None or res[1] == lam)
    else:
        ok = bool(res)
    print("witness verifies" if ok else "witness REJECTED")
    return EXIT_OK if ok else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# experiment harness


def _run_trial(problem, n, field, mode, seed):
    """One generate+solve trial; importable at module top level so process
    pools can ship it to workers."""
    A, B, _w = gen_instance(problem, n, field, mode, seed)
    t0 = time.perf_counter()
    verdict, _ = solve(problem, A, B, rng=seed)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    return {"verdict": verdict.kind, "stage": verdict.stage, "wall_ms": wall_ms}


def wilson_interval(hits: int, trials: int, z: float = 1.96):
    """95% Wilson score interval for a binomial fraction."""
    if trials == 0:
        return 0.0, 1.0
    phat = hits / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * (phat * (1.0 - phat) / trials
                          + z * z / (4.0 * trials * trials)) ** 0.5
    return max(0.0, center - half), min(1.0, center + half)


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute the batch and build the report.

    The "results" section is a pure function of the config (trial seeds are
    derived, merges are order-independent counts), so it is byte-identical
    across parallelism degrees; the "timing" section is not.
    """
    field = field_create(config.p, config.m, config.modulus)
    argtuples = [(config.problem, config.n, field, config.mode,
                  trial_seed(config.master_seed, i))
                 for i in range(config.trials)]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = list(pool.map(_run_trial_star, argtuples,
                                     chunksize=max(1, config.trials // (4 * config.jobs))))
    else:
        outcomes = [_run_trial_star(t) for t in argtuples]

    attrition = {s: {"failure": 0, "not_isomorphic": 0} for s in STAGES}
    verdict_counts = {"Isomorphic": 0, "NotIsomorphic": 0, "Failure": 0}
    for o in outcomes:
        verdict_counts[o["verdict"]] += 1
        if o["verdict"] == "Failure":
            attrition[o["stage"]]["failure"] += 1
        elif o["verdict"] == "NotIsomorphic":
            attrition[o["stage"]]["not_isomorphic"] += 1
    non_failure = config.trials - verdict_counts["Failure"]
    lo, hi = wilson_interval(non_failure, config.trials)
    walls = [o["wall_ms"] for o in outcomes]
    results = {
        "trials": config.trials,
        "verdicts": verdict_counts,
        "stage_attrition": attrition,
        "non_failure": {
            "count": non_failure,
            "fraction": non_failure / config.trials,
            "wilson95": [lo, hi],
        },
    }
    cfg = asdict(config)
    cfg["modulus"] = list(config.modulus) if config.modulus else None
    return {
        "config": cfg,
        "results": results,
        "timing": {"mean_wall_ms": statistics.fmean(walls),
                   "median_wall_ms": statistics.median(walls)},
    }


def _run_trial_star(t):
    return _run_trial(*t)


def _experiment_csv(report: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["key", "value"])
    r = report["results"]
    for k, v in r["verdicts"].items():
        w.writerow([f"verdict.{k}", v])
    for s, d in r["stage_attrition"].items():
        w.writerow([f"attrition.{s}.failure", d["failure"]])
        w.writerow([f"attrition.{s}.not_isomorphic", d["not_isomorphic"]])
    w.writerow(["non_failure.fraction", r["non_failure"]["fraction"]])
    w.writerow(["non_failure.wilson95.lo", r["non_failure"]["wilson95"][0]])
    w.writerow(["non_failure.wilson95.hi", r["non_failure"]["wilson95"][1]])
    w.writerow(["timing.mean_wall_ms", report["timing"]["mean_wall_ms"]])
    w.writerow(["timing.median_wall_ms", report["timing"]["median_wall_ms"]])
    return buf.getvalue()


def cmd_experiment(args) -> int:
    config = ExperimentConfig(
        problem=args.problem, n=args.n, p=args.p, m=args.m or 1,
        modulus=_modulus_from_args(args),
        trials=args.trials, master_seed=args.seed, mode=args.mode,
        out=args.out, jobs=args.jobs)
    report = run_experiment(config)
    text = (_experiment_csv(report) if args.format == "csv"
            else _json_dumps(report))
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# rmt reports


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _rmt_exact(args) -> dict:
    name, n, q = args.quantity, args.n, args.q
    doc = {"quantity": name, "n": n, "q": q}
    if name == "alpha":
        doc["exact"] = _frac_str(rmt.alpha(n, q))
    elif name == "alpha_star":
        doc["exact"] = _frac_str(rmt.alpha_star(n, q))
    elif name == "c_n":
        doc["exact"] = _frac_str(rmt.c_n(q, n))
    elif name == "v_n":
        doc["exact"] = _frac_str(rmt.v_n(q, n))
    elif name == "sigma_char2":
        doc["exact"] = _frac_str(rmt.sigma_exact_char2(q))
    elif name == "corank":
        if args.corank is None:
            raise BadParams("corank quantity needs --corank")
        doc["c"] = args.corank
        doc["exact"] = _frac_str(rmt.corank_probability(n, args.corank, q))
    else:
        raise BadParams(f"unknown exact quantity {name!r}")
    return doc


def _rmt_census(args) -> dict:
    name, n, q = args.quantity, args.n, args.q
    doc = {"quantity": name, "n": n, "q": q}
    if name == "sigma":
        doc["census"] = _frac_str(rmt.sigma_census(n, q))
        doc["bound"] = rmt.sigma_bound(n, q)
        return doc
    rep = rmt.brute_force_census(n, q)
    if name == "alpha":
        doc["census"] = _frac_str(rep.alpha())
        doc["exact"] = _frac_str(rmt.alpha(n, q))
    elif name == "alpha_star":
        doc["census"] = _frac_str(rep.alpha_star())
        doc["exact"] = _frac_str(rmt.alpha_star(n, q))
    elif name == "gamma":
        doc["census"] = _frac_str(rep.gamma())
    elif name == "delta":
        doc["census"] = _frac_str(rep.delta())
    elif name == "beta":
        doc["census"] = {str(k): _frac_str(rep.beta(k)) for k in range(q)}
    else:
        raise BadParams(f"unknown census quantity {name!r}")
    return doc


def _rmt_mc(args) -> dict:
    est, stderr = rmt.monte_carlo(args.quantity, args.n, args.q, args.trials,
                                  args.seed, c=args.corank)
    return {"quantity": args.quantity, "n": args.n, "q": args.q,
            "mc": {"estimate": est, "stderr": stderr,
                   "trials": args.trials, "seed": args.seed}}


def _rmt_limits(args) -> dict:
    q = args.q
    a = rmt.alpha_inf(q)
    astar = rmt.alpha_star_inf(q)
    b = rmt.beta_inf(q)
    g = rmt.gamma_inf(q)
    def enc(e):
        return {"limit": e.value, "bound": e.halfwidth}
    return {"quantity": "limits", "q": q,
            "alpha_inf": enc(a), "alpha_star_inf": enc(astar),
            "beta_inf": enc(b), "gamma_inf": enc(g)}


def cmd_rmt(args) -> int:
    prime_power(args.q)
    if args.n is None and args.action != "limits" and args.quantity != "sigma_char2":
        raise BadParams(f"rmt {args.action} {args.quantity} needs --n")
    action = {"exact": _rmt_exact, "census": _rmt_census,
              "mc": _rmt_mc, "limits": _rmt_limits}[args.action]
    doc = action(args)
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["key", "value"])
        for k, v in sorted(doc.items()):
            w.writerow([k, json.dumps(v) if isinstance(v, (dict, list)) else v])
        _emit(buf.getvalue(), args.out)
    else:
        _emit(_json_dumps(doc), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args) -> int:
    from fractions import Fraction as F
    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))
        print(f"{'ok ' if ok else 'FAIL'} {name}")

    check("alpha(3,2) = 7/32", rmt.alpha(3, 2) == F(7, 32))
    check("v(GL,2,2) = 1/3", rmt.v_n(2, 2) == F(1, 3))
    rep = rmt.brute_force_census(2, 2)
    check("eigenvalue-free GL(2,2) count = 2", rep.eigenvalue_free_count() == 2)
    check("sigma census(3,2) = 1/2",
          rmt.sigma_census(3, 2) == F(1, 2))
    import math
    check("|gauss_sum(3,1)| = sqrt(3)",
          abs(abs(rmt.gauss_sum(3, 1)) - math.sqrt(3)) < 1e-9)

    field = field_create(5)
    A, B, w = gen_instance("algiso", 8, field, "planted", 20240817)
    ok_w = verify_witness("algiso", A, B, w)[0]
    check("planted witness verifies", ok_w)
    verdict, _tr = solve("algiso", A, B, rng=1)
    check("solver answers on planted instance",
          verdict.kind in ("Isomorphic", "Failure"))
    if verdict.kind == "Isomorphic":
        check("recovered witness verifies",
              verify_witness("algiso", A, B, verdict.witness)[0])
    passed = all(ok for _n, ok in checks)
    print(f"{sum(ok for _n, ok in checks)}/{len(checks)} checks passed")
    return EXIT_OK if passed else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# argument parsing


def _add_field_flags(sp, required=True):
    sp.add_argument("--p", type=int, required=required, help="field characteristic")
    sp.add_argument("--m", type=int, default=1, help="extension degree")
    sp.add_argument("--modulus", type=str, default=None,
                    help="comma-separated modulus coefficients, ascending")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tiso",
        description="Average-case tensor-isomorphism solvers and exact "
                    "random-matrix statistics over finite fields.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance (and optional witness)")
    g.add_argument("--problem", required=True, choices=sorted(PROBLEMS))
    g.add_argument("--n", type=int, required=True)
    _add_field_flags(g)
    g.add_argument("--mode", default="planted",
                   help="planted | unrelated | planted_corank(c)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.add_argument("--witness-out", default=None)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="solve an instance file")
    s.add_argument("instance", help="instance JSON path")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="verify a witness against an instance")
    v.add_argument("instance", help="instance JSON path")
    v.add_argument("witness", help="witness JSON path")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("experiment", help="batch generate+solve with a report")
    e.add_argument("--problem", required=True, choices=sorted(PROBLEMS))
    e.add_argument("--n", type=int, required=True)
    _add_field_flags(e)
    e.add_argument("--mode", default="planted")
    e.add_argument("--trials", type=int, default=100)
    e.add_argument("--seed", type=int, default=0, help="master seed")
    e.add_argument("--jobs", type=int, default=1,
                   help="worker processes, >= 1 (default: 1)")
    e.add_argument("--out", default=None)
    e.add_argument("--format", choices=("json", "csv"), default="json")
    e.set_defaults(func=cmd_experiment)

    r = sub.add_parser("rmt", help="exact / census / Monte-Carlo statistics")
    r.add_argument("action", choices=("exact", "census", "mc", "limits"))
    r.add_argument("quantity", nargs="?", default=None)
    r.add_argument("--n", type=int, default=None)
    r.add_argument("--q", type=int, required=True, help="field order")
    r.add_argument("--trials", type=int, default=1000)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--corank", type=int, default=None)
    r.add_argument("--out", default=None)
    r.add_argument("--format", choices=("json", "csv"), default="json")
    r.set_defaults(func=cmd_rmt)

    t = sub.add_parser("selftest", help="quick end-to-end sanity checks")
    t.set_defaults(func=cmd_selftest)
    return ap


def quiet_on_closed_pipe(func, *args):
    """func(*args), ending quietly with EXIT_OK if the reader of stdout goes
    away (`tiso ... | head`); the command-line entry points run through it."""
    try:
        code = func(*args)
        sys.stdout.flush()  # so a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # point stdout at devnull so the flush at shutdown does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "rmt" and args.action != "limits" and not args.quantity:
        ap.error("rmt exact/census/mc need a quantity name")
    try:
        return quiet_on_closed_pipe(args.func, args)
    except (BadParams, DegreeMismatch, NotPrime, ReducibleModulus, ShapeMismatch,
            TooLarge) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except TisoError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except KeyboardInterrupt:
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
