#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and reports, for
every metric, the median and quartiles across the runs and the spread
(third minus first quartile, as a share of the median) that BENCHMARK.json's
bounds are judged against.

    python3 perfbench/spread.py --seeds 1-10 --json perfbench-spread.json
    python3 perfbench/spread.py --workloads isort-2n --seeds 1-5 --seconds 10

Run it from the root of the repository. It uses only the standard library.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="also write the summary to this file")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {
        "machine": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "go": subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip(),
        },
        "seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    ok = True
    for wl in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{wl} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            res = json.loads(lines[-1])
            ok = ok and res["correct"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(wl, seed, json.dumps({k: v["value"] for k, v in res["metrics"].items()}), flush=True)
        rows = {}
        for name, v in sorted(values.items()):
            q1, q2, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"n": len(v), "median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {wl:14s} {name:34s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:7.4f}  {flag}")
        summary["workloads"][wl] = rows
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
    if not ok:
        sys.exit("some runs reported failed output checks")


if __name__ == "__main__":
    main()
