#!/usr/bin/env bash
# A/B runner for roundbench: runs two revisions' benchmark in alternating
# pairs and compares every metric. Run from anywhere inside the repository:
#
#   scripts/ab.sh PARENT CHANGE --pairs 10 --workload rounds-hospital
#   scripts/ab.sh HEAD~1 HEAD --pairs 10 --workload durable-omdb --seed 1001
#
# Each revision is checked out in its own `git worktree` under the work
# directory (default `.ab/`, or `--dir DIR`); roundbench/run.sh builds it
# offline into its own target directory there, and a later invocation on
# the same commits reuses both. Every run lasts BENCHMARK.json's
# `run_seconds`. Pair i runs the parent first when i is odd and the change
# first when i is even, so a drift in host speed over the session biases
# neither side. Every run's JSON result line is kept in
# `DIR/<workload>/runs.jsonl`, tagged with its side and pair.
#
# The summary prints, for every metric: both medians, the parent's IQR,
# the shift of the change's median as a fraction of the parent's, the
# pairs in which the change was better, and, for the end-to-end metrics
# of BENCHMARK.json, the verdict against their bound:
#   `unresolved` when the parent's IQR exceeds the bound as a fraction of
#                its median, unless every change run beats every parent run;
#   `worse`      when the median moved the wrong way by more than the bound;
#   `better`     when the median moved the right way by more than the
#                parent's IQR and the change won at least 9 pairs in 10;
#   `noise`      otherwise.
# Failed runs are counted per side.
#
# Remove the checkouts with `git worktree remove DIR/parent` (and
# `DIR/change`) when done.
set -euo pipefail

usage() {
  echo "usage: scripts/ab.sh PARENT CHANGE [--pairs N] [--workload W] [--seed N] [--dir DIR]" >&2
  exit 2
}

[ $# -ge 2 ] || usage
parent_rev="$1"
change_rev="$2"
shift 2
pairs=10
workload=rounds-hospital
seed=1
root="$(git rev-parse --show-toplevel)"
dir="$root/.ab"
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case "$1" in
    --pairs) pairs="$2" ;;
    --workload) workload="$2" ;;
    --seed) seed="$2" ;;
    --dir) dir="$2" ;;
    *) usage ;;
  esac
  shift 2
done
command -v python3 >/dev/null 2>&1 || { echo "ab.sh: ab.sh needs python3" >&2; exit 1; }
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$root/BENCHMARK.json")"
mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"

# Checks out `rev` at DIR/side, replacing a checkout of another commit.
prepare() {
  local side="$1" rev commit wt
  rev="$(git -C "$root" rev-parse --verify "$2^{commit}")"
  wt="$dir/$side"
  if [ -d "$wt" ]; then
    commit="$(git -C "$wt" rev-parse HEAD 2>/dev/null || true)"
    if [ "$commit" != "$rev" ]; then
      git -C "$root" worktree remove --force "$wt"
    fi
  fi
  if [ ! -d "$wt" ]; then
    git -C "$root" worktree add --quiet --detach "$wt" "$rev"
  fi
  echo "ab.sh: $side = $(git -C "$wt" log -1 --format='%h %s')" >&2
}

prepare parent "$parent_rev"
prepare change "$change_rev"

out="$dir/$workload"
mkdir -p "$out"
runs="$out/runs.jsonl"
: > "$runs"

# Runs one side once and appends its tagged result line to runs.jsonl.
run_side() {
  local side="$1" pair="$2" line
  echo "ab.sh: pair $pair/$pairs, $side" >&2
  if line="$(cd "$dir/$side" && CARGO_TARGET_DIR="$dir/target-$side" \
      bash roundbench/run.sh --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace 0 2>>"$out/stderr-$side.log" | tail -n 1)" \
      && [ "${line:0:1}" = "{" ]; then
    echo "{\"side\":\"$side\",\"pair\":$pair,\"result\":$line}" >> "$runs"
  else
    echo "{\"side\":\"$side\",\"pair\":$pair,\"result\":null}" >> "$runs"
  fi
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then
    run_side parent "$i"
    run_side change "$i"
  else
    run_side change "$i"
    run_side parent "$i"
  fi
done

python3 - "$runs" "$root/BENCHMARK.json" "$workload" <<'PY'
import json
import sys

runs_path, bench_path, workload = sys.argv[1:4]
bench = json.load(open(bench_path))
bounds = {m["name"]: m for m in bench["end_to_end"]}
better_of = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

runs = {"parent": {}, "change": {}}
failed = {"parent": 0, "change": 0}
for line in open(runs_path):
    rec = json.loads(line)
    res = rec["result"]
    if res is None or not res.get("correct", False) or res.get("failed", 0):
        failed[rec["side"]] += 1
        continue
    runs[rec["side"]][rec["pair"]] = {k: v["value"] for k, v in res["metrics"].items()}


def quantile(xs, q):
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


both = sorted(set(runs["parent"]) & set(runs["change"]))
print(f"# workload {workload}: {len(both)} complete pairs; failed runs: "
      f"parent {failed['parent']}, change {failed['change']}")
names = sorted({n for r in runs["parent"].values() for n in r}
               & {n for r in runs["change"].values() for n in r})
names.sort(key=lambda n: (n not in bounds, n))
print(f"{'metric':44} {'parent':>12} {'change':>12} {'p.IQR':>10} {'shift':>8} {'better':>7}  verdict")
for name in names:
    p = [runs["parent"][i][name] for i in both if name in runs["parent"][i]]
    c = [runs["change"][i][name] for i in both if name in runs["change"][i]]
    if not p or not c:
        continue
    pm, cm = quantile(p, 0.5), quantile(c, 0.5)
    iqr = quantile(p, 0.75) - quantile(p, 0.25)
    shift = (cm - pm) / pm if pm else 0.0
    sign = -1.0 if better_of.get(name) == "lower" else 1.0
    wins = sum(1 for i in both
               if name in runs["parent"][i] and name in runs["change"][i]
               and sign * (runs["change"][i][name] - runs["parent"][i][name]) > 0)
    verdict = "-"
    if name in bounds:
        bound = bounds[name]["bound"]
        gain = sign * (cm - pm)
        separated = min(c) > max(p) if sign > 0 else max(c) < min(p)
        if pm and iqr / abs(pm) > bound and not separated:
            verdict = "unresolved"
        elif pm and -gain / abs(pm) > bound:
            verdict = "worse"
        elif gain > iqr and wins >= 0.9 * len(both):
            verdict = "better"
        else:
            verdict = "noise"
    print(f"{name:44} {pm:12.4f} {cm:12.4f} {iqr:10.4f} {shift:+8.3f} {wins:>3}/{len(both):<3}  {verdict}")
PY
