#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Run from the repository root.

  python3 perfbench/stability.py run --seed0 100 --out set1.json
      runs every workload of BENCHMARK.json once per seed (seed0 ..
      seed0+runs-1) with --trace 0 and writes every metric value, the
      median, the quartiles and the spread (quartile distance over the
      median) of each workload's metrics, as statistics.quantiles(n=4)
      gives them.

  python3 perfbench/stability.py compare set1.json set2.json
      prints, for each workload and end-to-end metric, both sets' medians
      and quartiles, the spreads and how far the second median is worse
      than the first, against the metric's bound in BENCHMARK.json. A pair
      whose spread or shift exceeds the bound is marked unresolved, and the
      exit code is 1 if any is.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def summarise(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q[0], "q3": q[2], "spread": (q[2] - q[0]) / med}


def run(args):
    bench = load_bench()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    out = {"seed0": args.seed0, "runs": args.runs, "seconds": bench["run_seconds"], "workloads": {}}
    for wl in workloads:
        values, walls = {}, []
        for i in range(args.runs):
            seed = args.seed0 + i
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            walls.append(time.time() - start)
            if p.returncode != 0:
                sys.exit(f"{wl} seed {seed} failed (exit {p.returncode}):\n{p.stderr[-3000:]}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"{wl} seed {seed}: result not correct")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary = {name: summarise(v) for name, v in values.items()}
        out["workloads"][wl] = {"values": values, "summary": summary, "wall_s": walls}
        for name, s in sorted(summary.items()):
            print(f"{wl:13s} {name:18s} median {s['median']:14.6g} q1 {s['q1']:14.6g} "
                  f"q3 {s['q3']:14.6g} spread {100 * s['spread']:6.2f}%", flush=True)
        print(f"{wl:13s} longest run {max(walls):.1f} s", flush=True)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


def compare(args):
    bench = load_bench()
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(json.load(f))
    unresolved = 0
    for wl in (w["name"] for w in bench["workloads"]):
        if wl not in sets[0]["workloads"] or wl not in sets[1]["workloads"]:
            print(f"{wl}: not in both sets")
            unresolved += 1
            continue
        for m in bench["end_to_end"]:
            a = sets[0]["workloads"][wl]["summary"][m["name"]]
            b = sets[1]["workloads"][wl]["summary"][m["name"]]
            worse = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                worse = -worse
            spread_ok = m["name"] == "setup_s" or max(a["spread"], b["spread"]) <= m["bound"]
            ok = spread_ok and worse <= m["bound"]
            unresolved += not ok
            print(f"{wl:13s} {m['name']:17s} "
                  f"set1 {a['median']:.5g} [{a['q1']:.5g}, {a['q3']:.5g}] spread {100 * a['spread']:5.2f}%  "
                  f"set2 {b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}] spread {100 * b['spread']:5.2f}%  "
                  f"worse {100 * worse:+6.2f}% bound {100 * m['bound']:.0f}%"
                  f"{'' if ok else '  UNRESOLVED'}")
    sys.exit(1 if unresolved else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seed0", type=int, required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--out", required=True)
    r.add_argument("--workloads", nargs="*")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    run(args) if args.cmd == "run" else compare(args)


if __name__ == "__main__":
    main()
