#!/usr/bin/env bash
# Paired A/B runner for the repository benchmark: compares a git revision
# (the base) with the working tree on one BENCHMARK.json workload.
#
#   scripts/ab.sh REV WORKLOAD [PAIRS] [FIRST_SEED]
#
#   REV         base revision, e.g. HEAD or HEAD~1
#   WORKLOAD    a workload name from BENCHMARK.json (design_loop, ltl_check)
#   PAIRS       number of run pairs (default 10)
#   FIRST_SEED  seed of the first pair; pair i uses FIRST_SEED + i - 1 on
#               both sides (default: derived from the clock, so fresh)
#
# Each side is an exported copy under $AB_DIR (default $TMPDIR/pnp-ab):
# REV through `git archive`, the working tree as its tracked and untracked,
# not ignored files. Each side builds into its own CARGO_TARGET_DIR, which
# is kept between invocations so an unchanged side rebuilds nothing. One
# warm-up run per side builds it and fills the caches; then the pairs run
# `wfbench/run.py --workload W --seconds S --trace 0` with S from
# BENCHMARK.json's run_seconds, the base first on odd pairs and the working
# tree first on even ones. Every run's output is kept in $AB_DIR/logs.
#
# For each end-to-end metric of BENCHMARK.json the summary prints both
# sides' quartiles, the change of the medians, the working tree's wins out
# of the pairs (ties count for neither), and a status: `worse` when the
# median moved the wrong way by more than the metric's bound, `unresolved`
# when the base's own spread (interquartile range over median) is wider
# than the bound, `ok` otherwise. It ends with the failed and attempted job
# counts per side. BENCHMARK.json and wfbench/ are read, never changed.
set -euo pipefail
cd "$(dirname "$0")/.."

[[ $# -ge 2 ]] || { sed -n '5,11p' "$0" >&2; exit 2; }
rev=$1
workload=$2
pairs=${3:-10}
seed0=${4:-$(( $(date +%s) % 1000000 ))}
root=$(pwd)
ab=${AB_DIR:-${TMPDIR:-/tmp}/pnp-ab}
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)
git rev-parse --verify -q "$rev^{commit}" > /dev/null || {
  echo "ab: unknown revision $rev" >&2; exit 2; }

mkdir -p "$ab/logs"
echo "ab: exporting $rev and the working tree under $ab" >&2
rm -rf "$ab/base" "$ab/work"
mkdir -p "$ab/base" "$ab/work"
git archive "$rev" | tar -x -C "$ab/base"
git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do [[ -e $f ]] && printf '%s\0' "$f"; done |
  tar --null -T - -cf - | tar -xf - -C "$ab/work"

# run SIDE SEED SECONDS: one benchmark process; its output lands in a log.
run() {
  local log=$ab/logs/$1-$workload-seed$2.txt
  (cd "$ab/$1" && CARGO_TARGET_DIR=$ab/$1-build \
    python3 wfbench/run.py --workload "$workload" --seed "$2" \
      --seconds "$3" --trace 0) > "$log" 2> "$log.err" || {
    echo "ab: $1 seed $2 exited nonzero (see $log.err)" >&2; }
  echo "$log"
}

for side in base work; do
  echo "ab: building and warming up $side" >&2
  run "$side" 0 1 > /dev/null
done

logs=()
for ((i = 1; i <= pairs; i++)); do
  seed=$((seed0 + i - 1))
  order=(base work)
  ((i % 2 == 0)) && order=(work base)
  for side in "${order[@]}"; do
    echo "ab: pair $i/$pairs seed $seed $side" >&2
    logs+=("$side=$(run "$side" "$seed" "$seconds")")
  done
done

python3 - "$root/BENCHMARK.json" "$rev" "$workload" "${logs[@]}" <<'EOF'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
rev, workload = sys.argv[2], sys.argv[3]
runs = {"base": {}, "work": {}}  # side -> seed -> parsed result
for arg in sys.argv[4:]:
    side, path = arg.split("=", 1)
    seed = int(path.rsplit("seed", 1)[1].split(".")[0])
    lines = open(path).read().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    runs[side][seed] = result
seeds = sorted(runs["base"])

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"A/B {workload}: base {rev} vs working tree, {len(seeds)} pairs, "
      f"seeds {seeds[0]}..{seeds[-1]}")
print(f"{'metric':<14}{'base q1/med/q3':>32}{'work q1/med/q3':>32}"
      f"{'change':>9}{'wins':>7}{'bound':>7}  status")
for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    pairs = [(runs["base"][s]["metrics"][name]["value"],
              runs["work"][s]["metrics"][name]["value"])
             for s in seeds if runs["base"][s] and runs["work"][s]]
    if not pairs:
        print(f"{name:<14} no complete pairs")
        continue
    b = quartiles([p[0] for p in pairs])
    w = quartiles([p[1] for p in pairs])
    wins = sum(1 for pb, pw in pairs if (pw < pb if lower else pw > pb))
    change = w[1] / b[1] - 1 if b[1] else 0.0
    worse = change if lower else -change
    spread = (b[2] - b[0]) / b[1] if b[1] else 0.0
    status = ("worse" if worse > m["bound"]
              else "unresolved" if spread > m["bound"] else "ok")
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    print(f"{name:<14}{fmt(b):>32}{fmt(w):>32}{change:>+9.1%}"
          f"{wins:>4}/{len(pairs):<2}{m['bound']:>7.0%}  {status}")
for side in ("base", "work"):
    done = [r for r in runs[side].values() if r]
    print(f"{side}: failed {sum(r['failed'] for r in done)} of "
          f"{sum(r['attempted'] for r in done)} jobs; "
          f"{len(runs[side]) - len(done)} runs without a result")
EOF
