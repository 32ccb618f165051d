#!/usr/bin/env python3
"""Paired parent/change runs of the repository benchmark (bhbench).

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload fabric_feed --seeds 40-49 [--seconds 24] [--trace 0]
        [--work-dir DIR] [--json OUT]

DIR is a bhbench build tree: the directory holding the `bhbench` binary
(bhbench/run.py builds it as $CARGO_TARGET_DIR/bhbench), or one level
above it.  Each seed is one pair: both trees' binaries run the workload
with that seed and the same --seconds, one after the other, and the
order flips every pair so neither side always runs on a warmer host.

Any run that reports `correct: false` or `failed > 0` aborts the
summary (exit 2): a speed-up measured on a wrong answer is no speed-up.

For every metric the summary prints each side's median and quartiles,
the median of the per-pair ratios (change / parent), the pairs each
side won (by the metric's `better` direction in BENCHMARK.json), and
whether the gap between the medians exceeds the parent's interquartile
range.  A metric whose interquartile range on either side exceeds its
BENCHMARK.json `bound` (relative to its median) is flagged SPREAD: its
runs scatter too widely for a verdict at that bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def find_binary(tree):
    for path in (os.path.join(tree, "bhbench"),
                 os.path.join(tree, "bhbench", "bhbench")):
        if os.path.isfile(path) and os.access(path, os.X_OK):
            return path
    sys.exit(f"bench_pairs: no bhbench binary in {tree}")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_catalogue():
    """name -> {"better": "lower"|"higher", "bound": float|None}."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    out = {}
    for group in ("end_to_end", "per_layer"):
        for m in bench.get(group, []):
            out[m["name"]] = {"better": m["better"], "bound": m.get("bound")}
    return out


def parse_run(stdout):
    """Last-line JSON metrics, plus the untraced `close_s=.. peak_rss_mb=..`
    progress line, as {name: value}; and the JSON verdict fields."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None, {}
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, {}
    values = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    for line in lines:
        if line.startswith("close_s="):
            for field in line.split():
                key, _, val = field.partition("=")
                values.setdefault(key, float(val))
    return result, values


def run_one(binary, args, seed, work_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(170, 7 * args.seconds))
    except subprocess.TimeoutExpired:
        return None, {}, "timed out"
    result, values = parse_run(proc.stdout)
    if result is None:
        return None, {}, f"no JSON result (exit {proc.returncode})"
    return result, values, None


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarise(runs, catalogue):
    names = []
    for pair in runs:
        for side in ("parent", "change"):
            for name in pair[side]:
                if name not in names:
                    names.append(name)
    rows = []
    for name in names:
        pairs = [(p["parent"][name], p["change"][name]) for p in runs
                 if name in p["parent"] and name in p["change"]]
        if not pairs:
            continue
        par = [a for a, _ in pairs]
        chg = [b for _, b in pairs]
        pq1, pmed, pq3 = quartiles(par)
        cq1, cmed, cq3 = quartiles(chg)
        ratios = [b / a for a, b in pairs if a != 0]
        info = catalogue.get(name, {})
        better = info.get("better")
        won_change = won_parent = 0
        if better:
            for a, b in pairs:
                if a == b:
                    continue
                change_wins = b > a if better == "higher" else b < a
                won_change += change_wins
                won_parent += not change_wins
        flags = []
        bound = info.get("bound")
        if bound is not None:
            for label, q1, med, q3 in (("parent", pq1, pmed, pq3),
                                       ("change", cq1, cmed, cq3)):
                if med and (q3 - q1) / abs(med) > bound:
                    flags.append(f"SPREAD({label})")
        rows.append({
            "metric": name,
            "better": better,
            "parent": {"q1": pq1, "median": pmed, "q3": pq3},
            "change": {"q1": cq1, "median": cmed, "q3": cq3},
            "median_ratio": statistics.median(ratios) if ratios else None,
            "won_change": won_change,
            "won_parent": won_parent,
            "gap_exceeds_parent_iqr": abs(cmed - pmed) > (pq3 - pq1),
            "flags": flags,
        })
    return rows


def fmt(v):
    return "-" if v is None else f"{v:.4g}"


def print_table(rows, n_pairs):
    print(f"{'metric':36} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
          f"{'ratio':>7} {'won c:p':>8} {'gap>IQR':>7}  flags")
    for r in rows:
        p, c = r["parent"], r["change"]
        side = lambda s: f"{fmt(s['q1'])}/{fmt(s['median'])}/{fmt(s['q3'])}"
        won = (f"{r['won_change']}:{r['won_parent']}" if r["better"] else "-")
        print(f"{r['metric']:36} {side(p):>32} {side(c):>32} "
              f"{fmt(r['median_ratio']):>7} {won:>8} "
              f"{'yes' if r['gap_exceeds_parent_iqr'] else 'no':>7}  "
              f"{' '.join(r['flags'])}")
    print(f"({n_pairs} pairs; ratio = median of change/parent per pair)")


def main():
    parser = argparse.ArgumentParser(
        description="Alternating parent/change bhbench pairs.")
    parser.add_argument("--parent", required=True, help="parent build tree")
    parser.add_argument("--change", required=True, help="change build tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 40-49 or 1,5,9")
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", default=os.path.join(ROOT, ".bench_build",
                                                           "pairs"))
    parser.add_argument("--json", help="write raw runs + summary here")
    args = parser.parse_args()

    binaries = {"parent": find_binary(args.parent),
                "change": find_binary(args.change)}
    catalogue = load_catalogue()
    runs, failures = [], []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "order": list(order)}
        for side in order:
            work = os.path.join(args.work_dir, side)
            result, values, error = run_one(binaries[side], args, seed, work)
            if error is None and (not result.get("correct")
                                  or result.get("failed", 0) > 0):
                error = (f"correct={result.get('correct')} "
                         f"failed={result.get('failed')}")
            if error:
                failures.append(f"seed {seed} {side}: {error}")
            pair[side] = values
            print(f"pair {i + 1} seed {seed} {side}: "
                  + (error or " ".join(f"{k}={fmt(v)}" for k, v in values.items()
                                       if k in catalogue
                                       and catalogue[k]["bound"] is not None)),
                  file=sys.stderr, flush=True)
        runs.append(pair)
    if failures:
        print("bench_pairs: refusing to summarise; failed runs:",
              file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 2
    rows = summarise(runs, catalogue)
    print(f"workload={args.workload} seconds={args.seconds} trace={args.trace}")
    print_table(rows, len(runs))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"args": vars(args), "runs": runs, "summary": rows}, f,
                      indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
