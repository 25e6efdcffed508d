#!/usr/bin/env python3
"""Random-instance sweep comparing the worst-case bound with the actual error.

Generates synthetic problems with known truth, runs the slice-constrained
projection on each, and summarizes how tight the a-priori bound is.  The
per-instance table lands in the output CSV (same schema as `msrom run`).
Exits 1 when a row breaks ``actual_ms_error <= ms_bound`` or, where both
cells are defined, ``actual_pg_error <= babuska_bound`` (each up to 1e-9).
"""

import argparse
import csv
import json
import statistics

from msrom import parse_config, run_experiment


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-min", type=int, default=3)
    ap.add_argument("--n-max", type=int, default=10)
    ap.add_argument("--repetitions", type=int, default=100)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--tau-mode", choices=("known", "practitioner"), default="known")
    ap.add_argument("--output", default="sweep.csv")
    args = ap.parse_args()

    doc = {
        "mode": "random-sweep",
        "n_min": args.n_min,
        "n_max": args.n_max,
        "seed": args.seed,
        "repetitions": args.repetitions,
        "tau_mode": args.tau_mode,
        "output_path": args.output,
    }
    code = run_experiment(parse_config(json.dumps(doc)), quiet=True)

    with open(args.output) as fh:
        rows = list(csv.DictReader(fh))
    ratios = [float(r["actual_ms_error"]) / float(r["ms_bound"]) for r in rows]
    ms_violations = sum(
        float(r["actual_ms_error"]) > float(r["ms_bound"]) + 1e-9 for r in rows
    )
    # PG is checked where both cells are defined (not on a singular Gram)
    pg_violations = sum(
        float(r["actual_pg_error"]) > float(r["babuska_bound"]) + 1e-9
        for r in rows
        if "undefined" not in (r["actual_pg_error"], r["babuska_bound"])
    )
    violations = ms_violations + pg_violations
    print(f"instances    {len(rows)}")
    print(f"violations   {violations} (MS {ms_violations}, PG {pg_violations})")
    print(f"ratio max    {max(ratios):.4f}")
    print(f"ratio median {statistics.median(ratios):.4f}")
    print(f"table        {args.output}")
    raise SystemExit(code if violations == 0 else 1)


if __name__ == "__main__":
    main()
