#!/usr/bin/env python3
"""Run the two reference configurations and print the headline numbers.

Writes example1.csv and example2.csv into --outdir and prints one line per
run with the quotient bound, the worst-case bound, and the error actually
realized by the slice-constrained solve.
"""

import argparse
import csv
import dataclasses
import pathlib

from msrom import parse_config, run_experiment

CONFIG_DIR = pathlib.Path(__file__).resolve().parent / "configs"


def run_one(name: str, outdir: pathlib.Path) -> int:
    cfg = parse_config((CONFIG_DIR / f"{name}.json").read_text())
    out = outdir / f"{name}.csv"
    code = run_experiment(dataclasses.replace(cfg, output_path=str(out)), quiet=True)
    with out.open() as fh:
        row = next(csv.DictReader(fh))
    print(
        f"{name}: babuska={row['babuska_bound']} ms_bound={row['ms_bound']} "
        f"actual_ms={row['actual_ms_error']} -> {out}"
    )
    return code


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("."))
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    code = 0
    for name in ("example1", "example2"):
        code = max(code, run_one(name, args.outdir))
    raise SystemExit(code)


if __name__ == "__main__":
    main()
