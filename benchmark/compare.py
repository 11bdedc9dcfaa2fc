#!/usr/bin/env python3
"""Compare two sets of benchmark result files.

    python3 benchmark/compare.py OLD/ NEW/

OLD/ and NEW/ hold result files written by benchmark/run.sh
(<workload>.seed<N>.trace<T>.json). For every (metric, workload) pair
the report gives each side's median and quartiles, the fraction of
seed-matched pairs the new side wins, and a verdict:

  improved    at least 10 pairs, the new side wins at least 9/10 of them
              (ties count for neither), and the medians differ by more
              than the old side's interquartile range
  regressed   the same rule with the old side winning, or an end-to-end
              median worse than the old one by more than its bound in
              BENCHMARK.json
  unresolved  neither

Runs of the same seed must also agree exactly on the work counts that
are deterministic: the campaign check tallies and eval.faulty_passes.
Exit status 1 on any regression or such disagreement.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return metrics


def load_runs(directory):
    """{(workload, trace): {seed: result file}}"""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError:
                continue
        if not isinstance(doc, dict) or "result" not in doc:
            continue
        key = (doc["workload"], doc["trace"])
        runs.setdefault(key, {})[doc["seed"]] = doc
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(old, new, pairs, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    q1_old, med_old, q3_old = quartiles(old)
    med_new = statistics.median(new)
    gap = sign * (med_new - med_old)  # > 0: new is better
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    losses = sum(1 for o, n in pairs if sign * (n - o) < 0)
    iqr = q3_old - q1_old
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap > iqr:
        return "improved", wins
    worse_than_bound = (bound is not None and med_old != 0 and
                        -gap > bound * abs(med_old))
    if worse_than_bound or (len(pairs) >= 10 and losses >= 0.9 * len(pairs)
                            and -gap > iqr):
        return "regressed", wins
    return "unresolved", wins


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec = load_spec()
    old_runs, new_runs = load_runs(argv[1]), load_runs(argv[2])
    bad = 0
    rows = []
    for key in sorted(set(old_runs) & set(new_runs)):
        workload, _ = key
        old, new = old_runs[key], new_runs[key]
        common = sorted(set(old) & set(new))
        for seed in common:
            o, n = old[seed], new[seed]
            faulty = [r["result"]["metrics"].get("eval.faulty_passes")
                      for r in (o, n)]
            if (o.get("check_tallies") != n.get("check_tallies") or
                    faulty[0] != faulty[1]):
                print(f"MISMATCH {workload} seed {seed}: deterministic work "
                      "counts differ")
                bad += 1
        # Pair runs by seed; without common seeds, in seed order.
        pairs_of = (list(zip(common, common)) if common else
                    list(zip(sorted(old), sorted(new))))
        for name in old[next(iter(old))]["result"]["metrics"]:
            if name not in spec:
                continue
            better, bound = spec[name]

            def values(runs, seeds):
                return [runs[s]["result"]["metrics"][name]["value"]
                        for s in seeds]
            ov, nv = values(old, sorted(old)), values(new, sorted(new))
            pairs = [(old[a]["result"]["metrics"][name]["value"],
                      new[b]["result"]["metrics"][name]["value"])
                     for a, b in pairs_of]
            v, wins = verdict(ov, nv, pairs, better, bound)
            bad += v == "regressed"
            rows.append((workload, name, quartiles(ov), quartiles(nv), wins,
                         len(pairs), v))

    fmt = "{:<17} {:<34} {:>30} {:>30} {:>7} {:>8} {}"
    print(fmt.format("workload", "metric", "old median [q1, q3]",
                     "new median [q1, q3]", "change", "wins", "verdict"))
    for workload, name, (oq1, om, oq3), (nq1, nm, nq3), wins, n, v in rows:
        change = f"{(nm - om) / om:+.1%}" if om else "n/a"
        print(fmt.format(workload, name,
                         f"{om:.5g} [{oq1:.5g}, {oq3:.5g}]",
                         f"{nm:.5g} [{nq1:.5g}, {nq3:.5g}]",
                         change, f"{wins}/{n}", v))
    if not rows:
        print("no (metric, workload) pair found in both directories",
              file=sys.stderr)
        return 2
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
