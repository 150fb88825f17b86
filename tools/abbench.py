"""A/B benchmark: the perfbench harness of two source trees, run alternately in pairs.

    python3 tools/abbench.py BASE CHANGE --out BENCH.json [--seconds 25] [--pairs 5]
                             [--run WORKLOAD:SEED[:PAIRS] ...] [--names BASE_NAME CHANGE_NAME]

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds N --trace 0``
once in each tree, in its own checkout, with the tree first that went second in the pair
before, so a drifting machine favours neither side.  Without ``--run`` every workload of
CHANGE's BENCHMARK.json runs at seed 3.  The JSON holds the environment, and per workload
and seed, per side, each end-to-end metric's runs, median and quartiles, the output
digests and the attempted and failed counts; ``wins`` counts the pairs in which CHANGE was
better.  Exits 1 if a run fails or a run's JSON lacks a metric that BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values) -> list:
    """[q1, q3] by linear interpolation between order statistics."""
    s = sorted(values)

    def at(p):
        i, frac = divmod(p * (len(s) - 1), 1.0)
        i = int(i)
        return s[i] + (s[min(i + 1, len(s) - 1)] - s[i]) * frac

    return [at(0.25), at(0.75)]


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run in ``tree``: its final JSON plus the ``detail`` line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree.name}: {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(next(ln[len("detail "):] for ln in lines
                                       if ln.startswith("detail ")))
    return result


def side(results: list, metrics: list) -> dict:
    out = {"metrics": {}}
    for m in metrics:
        runs = [r["metrics"][m["name"]]["value"] for r in results]
        out["metrics"][m["name"]] = {"runs": runs, "median": statistics.median(runs),
                                     "quartiles": quartiles(runs)}
    out["output_digest"] = sorted({r["detail"]["output_digest"] for r in results})
    out["attempted"] = sorted({r["attempted"] for r in results})
    out["failed"] = sorted({r["failed"] for r in results})
    out["correct"] = all(r["correct"] for r in results)
    return out


def compare(base: dict, change: dict, metrics: list) -> dict:
    """Per metric: pairs won by the change, median change, and whether the medians lie
    further apart than the base's interquartile range."""
    out = {}
    for m in metrics:
        a, b = base["metrics"][m["name"]], change["metrics"][m["name"]]
        sign = 1.0 if m["better"] == "higher" else -1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(a["runs"], b["runs"]))
        gap = sign * (b["median"] - a["median"])
        out[m["name"]] = {"wins": wins, "pairs": len(a["runs"]),
                          "median_change": b["median"] / a["median"] - 1.0 if a["median"] else None,
                          "gap_exceeds_base_iqr": gap > a["quartiles"][1] - a["quartiles"][0]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="A/B perfbench runs of two source trees")
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--run", action="append", default=[], metavar="WORKLOAD:SEED[:PAIRS]")
    parser.add_argument("--names", nargs=2, metavar=("BASE_NAME", "CHANGE_NAME"))
    args = parser.parse_args(argv)
    trees = [args.base.resolve(), args.change.resolve()]
    spec = json.loads((trees[1] / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    plan = []
    for item in args.run or [f"{w['name']}:3" for w in spec["workloads"]]:
        workload, seed, *pairs = item.split(":")
        plan.append((workload, int(seed), int(pairs[0]) if pairs else args.pairs))
    names = args.names or [t.name for t in trees]
    report = {"base": names[0], "change": names[1], "seconds": args.seconds,
              "env": None, "runs": []}
    try:
        for workload, seed, pairs in plan:
            results = ([], [])
            for i in range(pairs):
                for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                    result = run_once(trees[k], workload, seed, args.seconds)
                    missing = {m["name"] for m in metrics} - set(result["metrics"])
                    if missing:
                        raise RuntimeError(f"{names[k]}: {workload} lacks {sorted(missing)}")
                    results[k].append(result)
                    print(f"{workload} seed {seed} pair {i + 1}/{pairs} {names[k]}: "
                          f"{result['metrics']['jobs_per_s']['value']:.1f} jobs/s", flush=True)
            if report["env"] is None:
                env = results[1][0]["detail"]["env"]
                report["env"] = {key: env.get(key) for key in ("python", "numpy", "blas", "cpu")}
                report["env"]["OPENBLAS_CORETYPE"] = os.environ.get("OPENBLAS_CORETYPE")
            sides = [side(r, metrics) for r in results]
            report["runs"].append({"workload": workload, "seed": seed, "pairs": pairs,
                                   "base": sides[0], "change": sides[1],
                                   "wins": compare(sides[0], sides[1], metrics)})
    except (RuntimeError, OSError, ValueError, StopIteration) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for run in report["runs"]:
        for name, w in run["wins"].items():
            a, b = run["base"]["metrics"][name], run["change"]["metrics"][name]
            print(f"{run['workload']:14s} seed {run['seed']:<3d} {name:12s} "
                  f"{a['median']:10.4g} -> {b['median']:10.4g}  wins {w['wins']}/{w['pairs']}  "
                  f"gap > base IQR: {w['gap_exceeds_base_iqr']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
