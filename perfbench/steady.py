"""Steadiness check: repeat whole sets of benchmark runs and compare.

    python3 perfbench/steady.py --runs 10

Two sets of runs of every workload of BENCHMARK.json, each run
`perfbench/run.py` in a fresh process with its own seed and the run length
of BENCHMARK.json (the two sets use disjoint seeds).  For every workload
and end-to-end metric it prints the median and quartiles of each set, the
spread (q3 - q1) / median against the metric's bound, and how far the
second median moved the worse way.  It exits 1 when a spread reaches its
bound, a median moves the worse way by more than its bound, a run is not
correct, or the share of failed ops differs between runs.  Raw results go
to `--out` as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=None, help="write raw results here")
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for r in range(args.runs):
            seed = args.first_seed + s * args.runs + r
            for w in workloads:
                res = one_run(w, seed, spec["run_seconds"])
                results[w][s].append({"seed": seed, **res})
                print(f"set {s + 1} run {r + 1} {w} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                    file=sys.stderr)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(results, indent=1))

    ok = True
    for w in workloads:
        runs = [run for runs in results[w] for run in runs]
        shares = {(run["failed"] / run["attempted"]) for run in runs}
        if len(shares) != 1 or not all(run["correct"] for run in runs):
            ok = False
        print(f"{w}: failed share {sorted(shares)}, correct "
              f"{all(run['correct'] for run in runs)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line, meds = [], []
            for s in range(SETS):
                q1, med, q3 = quartiles([run["metrics"][name]["value"]
                                         for run in results[w][s]])
                spread = (q3 - q1) / med
                meds.append(med)
                line.append(f"set{s + 1} median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} "
                            f"spread {spread:.3f}")
                if spread >= bound:
                    ok = False
            worse = (meds[1] - meds[0]) / meds[0]
            if metric["better"] == "higher":
                worse = -worse
            line.append(f"shift {worse:+.3f}")
            if worse > bound:
                ok = False
            print(f"  {name:12s} bound {bound:.2f}  " + "  ".join(line))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
