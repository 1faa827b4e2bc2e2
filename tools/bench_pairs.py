"""Alternating parent/change perfbench runs, collected into a BENCH_<k>.json file.

    python3 tools/bench_pairs.py --parent PARENT_CHECKOUT --workload W --seeds 101 102 ... \
        --out BENCH_k.json [--seconds 35]

For each seed, runs ``python3 perfbench/run.py --workload W --seed S --seconds
SECONDS --trace 0`` from the root of the parent checkout and from the root of
this one, one after the other: the parent first for the 1st, 3rd, ... seed
and this checkout first for the others.  Each run's result (the last stdout
line) goes into ``end_to_end.runs`` of the output file, next to the runs
already there, and ``end_to_end.summary`` is recomputed over all of them: for
each workload and each end-to-end metric of ``BENCHMARK.json``, each side's
median and quartiles, and in how many seed pairs the change was better (ties
count for neither side).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> dict | None:
    if not values:
        return None
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = {}
        for r in mine:
            pairs.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for p in pairs.values() if len(p) == 2]
        summary[workload] = {}
        for metric in metrics:
            name, sign = metric["name"], (1 if metric["better"] == "higher" else -1)
            cell = {side: quartiles([r[name] for r in mine if r["side"] == side])
                    for side in ("parent", "change")}
            wins = sum(sign * (p["change"][name] - p["parent"][name]) > 0 for p in pairs)
            cell["change_better_in_pairs"] = f"{wins}/{len(pairs)}"
            summary[workload][name] = cell
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    section = doc.setdefault("end_to_end", {})
    section["command"] = (f"python3 perfbench/run.py --workload W --seed N --seconds "
                          f"{args.seconds:g} --trace 0, parent and change alternating which "
                          f"runs first")
    runs = section.setdefault("runs", [])
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    for i, seed in enumerate(args.seeds):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            record = run_side(sides[side], args.workload, seed, args.seconds)
            runs.append({"workload": args.workload, "seed": seed, "side": side, **record})
            print(json.dumps(runs[-1]), flush=True)
            section["summary"] = summarize(runs, metrics)
            args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
