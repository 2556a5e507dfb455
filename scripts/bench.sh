#!/usr/bin/env bash
# Benchmark runner: builds the Release tree and runs the parallel-exploration
# throughput bench plus the reduction/cache bench, merging both row sets into
# one machine-readable JSON artifact.
#
#   scripts/bench.sh                 # full run, results in BENCH.json
#   scripts/bench.sh --smoke         # quick CI-sized run -> BENCH_ci.json
#   scripts/bench.sh --out FILE.json # choose the output path
#
# Smoke runs also gate against the committed baseline (when the output path
# already holds one): any row whose bytes_per_state grew by more than 10%
# against the matching (bench, threads) baseline row fails the run, and so
# does any row whose states_per_sec fell more than 10% after normalizing by
# the run-wide geometric-mean speed ratio -- the normalization cancels the
# absolute speed difference between the baseline machine and this one, so
# the gate catches one bench regressing relative to the others rather than
# punishing slower hardware.
#
# The wall-clock gates (observability overhead, spill overhead, normalized
# throughput) get ONE retry: a failure reruns both benches and only a second
# consecutive failure fails the script. Shared CI runners see transient
# load spikes that a single sample cannot distinguish from a regression;
# two independent runs agreeing is a real signal. The deterministic gates
# (bytes/state, pnpd warm-cache hit rate) fail immediately -- they cannot
# be noise.
#
# Rows: {"bench", "threads", "states", "states_per_sec", "wall_seconds"} from
# bench_parallel, plus {"bench", "mode", "states", "ratio", ...} reduction-
# ratio rows and {"bench", "mode", "obligations", "cache_hits", "hit_rate",
# ...} cache rows from bench_reduce, plus the compiled-engine rows from
# bench_codegen: codegen_{interp,bytecode,aot} throughput rows (and the
# codegen_por_* / codegen_ltl_* lanes for the engine-backed POR and LTL
# product searches) carrying "speedup_vs_interp" and "bytes_per_state",
# and one codegen_compile row with the cold/warm artifact-cache compile
# times. Both benches exit non-zero when a run
# fails verification, minimized verdicts diverge, or state counts disagree
# across thread counts, so this doubles as a determinism/soundness gate.
set -euo pipefail
cd "$(dirname "$0")/.."

smoke=0
out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) smoke=1 ;;
    --out) out="$2"; shift ;;
    *) echo "usage: scripts/bench.sh [--smoke] [--out FILE.json]" >&2; exit 2 ;;
  esac
  shift
done
if [[ -z "$out" ]]; then
  out=$([[ $smoke -eq 1 ]] && echo BENCH_ci.json || echo BENCH.json)
fi

# Preserve the committed baseline (if any) before it is overwritten, for the
# regression gates below.
baseline=""
if [[ $smoke -eq 1 && -f "$out" ]]; then
  baseline=$(mktemp)
  cp "$out" "$baseline"
fi

cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-bench -j --target bench_parallel --target bench_reduce \
  --target bench_codegen

args=(--json)
[[ $smoke -eq 1 ]] && args+=(--quick)
tmp_parallel=$(mktemp) tmp_reduce=$(mktemp) tmp_codegen=$(mktemp)
trap 'rm -f "$tmp_parallel" "$tmp_reduce" "$tmp_codegen" ${baseline:+"$baseline"}' EXIT

run_benches() {
  ./build-bench/bench/bench_parallel "${args[@]}" > "$tmp_parallel"
  ./build-bench/bench/bench_reduce "${args[@]}" > "$tmp_reduce"
  ./build-bench/bench/bench_codegen "${args[@]}" > "$tmp_codegen"
  # Merge the three JSON arrays: keep bench_parallel's opening bracket and
  # bench_codegen's closing one, joined by bare comma row separators.
  { sed '$d' "$tmp_parallel"; echo '  ,'; sed '1d;$d' "$tmp_reduce";
    echo '  ,'; sed '1d' "$tmp_codegen"; } | tee "$out"
  echo "wrote $out" >&2
}

# Observability gate: the recorder's measured overhead on the fig13
# full-space row must stay within the <=3% acceptance bar (see obs.h).
# Needs no baseline -- the bound is absolute -- so it runs in full and
# smoke modes alike.
gate_obs() {
  awk '
    /"bench": "obs_overhead"/ {
      seen = 1
      if (match($0, /"overhead_pct": [0-9.]+/)) {
        pct = substr($0, RSTART + 16, RLENGTH - 16) + 0
        if (pct > 3.0) {
          printf "FAIL observability overhead %.2f%% exceeds 3%% bar\n",
                 pct > "/dev/stderr"
          exit 1
        }
        printf "observability overhead gate passed (%.2f%% <= 3%%)\n",
               pct > "/dev/stderr"
      }
    }
    END { if (!seen) { print "FAIL no obs_overhead row" > "/dev/stderr"; exit 1 } }
  ' "$out"
}

# Durability gate: spilling the visited stores to mmap'd disk files must
# cost <= 15% wall time against the in-RAM run on the fig13 full space
# (same states either way -- spill is exact). Absolute bound.
gate_spill() {
  awk '
    /"bench": "spill_overhead"/ {
      seen = 1
      if (match($0, /"overhead_pct": [0-9.]+/)) {
        pct = substr($0, RSTART + 16, RLENGTH - 16) + 0
        if (pct > 15.0) {
          printf "FAIL spill overhead %.2f%% exceeds 15%% bar\n",
                 pct > "/dev/stderr"
          exit 1
        }
        printf "spill overhead gate passed (%.2f%% <= 15%%)\n",
               pct > "/dev/stderr"
      }
    }
    END { if (!seen) { print "FAIL no spill_overhead row" > "/dev/stderr"; exit 1 } }
  ' "$out"
}

# Service gate: the serve_rtt row's warm submissions resubmit an identical
# model to a live pnpd, so every check must come out of the shared verdict
# cache -- warm_hit_rate is deterministic and must be > 0 (in practice 1.0).
# rtt_ms is wall-clock and deliberately NOT gated.
gate_serve() {
  awk '
    /"bench": "serve_rtt"/ {
      seen = 1
      if (match($0, /"warm_hit_rate": [0-9.]+/)) {
        rate = substr($0, RSTART + 17, RLENGTH - 17) + 0
        if (rate <= 0) {
          printf "FAIL pnpd warm-cache hit rate %.4f is not > 0\n",
                 rate > "/dev/stderr"
          exit 1
        }
        printf "pnpd warm-cache gate passed (hit rate %.2f)\n",
               rate > "/dev/stderr"
      }
    }
    END { if (!seen) { print "FAIL no serve_rtt row" > "/dev/stderr"; exit 1 } }
  ' "$out"
}

# Memory gate against the committed baseline: bytes/state is deterministic
# for the exact engines, so any >10% growth is a real regression.
gate_bytes() {
  awk '
    /"bytes_per_state"/ {
      bench = ""; threads = ""; bps = ""
      if (match($0, /"bench": "[^"]+"/))
        bench = substr($0, RSTART + 10, RLENGTH - 11)
      if (match($0, /"threads": [0-9]+/))
        threads = substr($0, RSTART + 11, RLENGTH - 11)
      if (match($0, /"bytes_per_state": [0-9.]+/))
        bps = substr($0, RSTART + 19, RLENGTH - 19)
      key = bench "/" threads
      if (FILENAME == ARGV[1]) old[key] = bps + 0
      else cur[key] = bps + 0
    }
    END {
      bad = 0
      for (k in cur) {
        if (k in old && old[k] > 0 && cur[k] > old[k] * 1.10) {
          printf "FAIL bytes/state regression in %s: %.1f -> %.1f (>10%%)\n",
                 k, old[k], cur[k] > "/dev/stderr"
          bad = 1
        }
      }
      if (!bad)
        print "bytes/state gate passed (baseline: committed)" > "/dev/stderr"
      exit bad
    }' "$baseline" "$out"
}

# Throughput gate, machine-normalized: scale every current states_per_sec
# by the geometric-mean speed ratio across all (bench, threads) rows both
# files share, then fail any row more than 10% below its baseline. A
# uniformly slower machine scales out; one bench falling behind the rest
# does not. The seeded bitstate swarm is excluded -- its workers sample
# randomized search orders, so its throughput is not a stable quantity.
# The codegen_* rows are excluded too: their regression signal is the
# engine-vs-interp ratio (machine-normalized by construction, gated by
# gate_codegen_speed), their interp row duplicates bridge_exact, and in
# smoke mode they time a ~40ms cache-resident run whose absolute
# throughput swings well past this gate's 10% band.
gate_throughput() {
  awk '
    /"states_per_sec"/ && !/"bench": "bridge_swarm"/ &&
    !/"bench": "codegen_/ {
      bench = ""; threads = ""; sps = ""
      if (match($0, /"bench": "[^"]+"/))
        bench = substr($0, RSTART + 10, RLENGTH - 11)
      if (match($0, /"threads": [0-9]+/))
        threads = substr($0, RSTART + 11, RLENGTH - 11)
      if (match($0, /"states_per_sec": [0-9.]+/))
        sps = substr($0, RSTART + 18, RLENGTH - 18)
      key = bench "/" threads
      if (FILENAME == ARGV[1]) old[key] = sps + 0
      else cur[key] = sps + 0
    }
    END {
      n = 0; logsum = 0
      for (k in cur) if (k in old && old[k] > 0 && cur[k] > 0) {
        logsum += log(cur[k] / old[k]); n++
      }
      if (n == 0) exit 0
      scale = exp(logsum / n)
      bad = 0
      for (k in cur) if (k in old && old[k] > 0 && cur[k] > 0) {
        norm = cur[k] / scale
        if (norm < old[k] * 0.90) {
          printf "FAIL throughput regression in %s: %.0f -> %.0f " \
                 "normalized states/s (>10%% below baseline, machine " \
                 "scale %.2fx)\n", k, old[k], norm, scale > "/dev/stderr"
          bad = 1
        }
      }
      if (!bad)
        printf "throughput gate passed (%d rows, machine scale %.2fx)\n",
               n, scale > "/dev/stderr"
      exit bad
    }' "$baseline" "$out"
}

# Codegen cache gate: the second AOT build in bench_codegen reuses the
# content-addressed artifact, so cache_hit is deterministic -- a miss means
# the digest or cache layout broke, never noise. Fails immediately.
gate_codegen_cache() {
  awk '
    /"bench": "codegen_compile"/ {
      seen = 1
      if (!/"cache_hit": true/) {
        print "FAIL codegen artifact cache missed on a warm rebuild" \
              > "/dev/stderr"
        exit 1
      }
      print "codegen artifact-cache gate passed (warm hit)" > "/dev/stderr"
    }
    END { if (!seen) { print "FAIL no codegen_compile row" > "/dev/stderr"; exit 1 } }
  ' "$out"
}

# Codegen speed gates (wall-clock, in the retried group): the AOT engine
# must hold >= 1.8x over the interpreter on the plain sweep (acceptance bar
# is 2x on a quiet machine; 1.8 leaves headroom for shared-runner noise the
# retry cannot fully cancel), >= 1.6x on the POR-reduced search, the
# bytecode fallback >= 1.2x on those lanes, and a cold AOT compile must
# fit the 15s budget -- compiling one specialized TU, not a project. The
# plain-sweep bars read the threads-1 rows: the thread-sweep rows time
# the parallel engine, whose scaling is not this gate's subject. The
# LTL lane holds softer floors (1.35x aot / 1.10x bytecode): the product
# search runs the same streaming COLLAPSE pipeline as the plain sweep,
# but Buchi label and proposition evaluation stay interpreted on every
# product edge by design, so the engine's share is smaller there; the
# 1-car product measured ~2.5x aot / ~1.7x bytecode on a 4-vCPU VM
# (BENCH.json records the measured number; the floor is a regression
# tripwire, not the headline). The smoke instance completes in ~30-60ms with every store cache-resident,
# which both compresses the real ratio (the engines' win grows with DRAM-
# bound probes) and amplifies timer noise, so smoke mode holds softer bars
# across the board -- the full bars are enforced where they mean
# something, on the full-space run that writes BENCH.json.
gate_codegen_speed() {
  awk -v abar="$([[ $smoke -eq 1 ]] && echo 1.4 || echo 1.8)" \
      -v pbar="$([[ $smoke -eq 1 ]] && echo 1.3 || echo 1.6)" \
      -v lbar="$([[ $smoke -eq 1 ]] && echo 1.25 || echo 1.35)" \
      -v lbbar="$([[ $smoke -eq 1 ]] && echo 1.05 || echo 1.10)" \
      -v bbar="$([[ $smoke -eq 1 ]] && echo 1.1 || echo 1.2)" '
    function speedup() {
      return substr($0, RSTART + 21, RLENGTH - 21) + 0
    }
    /"bench": "codegen_aot", "threads": 1,/ &&
        match($0, /"speedup_vs_interp": [0-9.]+/) {
      aot = speedup()
    }
    /"bench": "codegen_bytecode", "threads": 1,/ &&
        match($0, /"speedup_vs_interp": [0-9.]+/) {
      bc = speedup()
    }
    /"bench": "codegen_por_aot"/ && match($0, /"speedup_vs_interp": [0-9.]+/) {
      por_aot = speedup()
    }
    /"bench": "codegen_por_bytecode"/ && match($0, /"speedup_vs_interp": [0-9.]+/) {
      por_bc = speedup()
    }
    /"bench": "codegen_ltl_aot"/ && match($0, /"speedup_vs_interp": [0-9.]+/) {
      ltl_aot = speedup()
    }
    /"bench": "codegen_ltl_bytecode"/ && match($0, /"speedup_vs_interp": [0-9.]+/) {
      ltl_bc = speedup()
    }
    /"bench": "codegen_compile"/ && match($0, /"cold_ms": [0-9.]+/) {
      cold = substr($0, RSTART + 11, RLENGTH - 11) + 0; saw_cold = 1
    }
    function need(v, bar, name) {
      if (v == 0) {
        printf "FAIL no %s speedup row\n", name > "/dev/stderr"
        return 1
      }
      if (v < bar) {
        printf "FAIL %s speedup %.2fx below %.1fx bar\n", name, v, bar \
               > "/dev/stderr"
        return 1
      }
      return 0
    }
    END {
      bad = 0
      bad += need(aot, abar, "codegen_aot")
      bad += need(bc, bbar, "codegen_bytecode")
      bad += need(por_aot, pbar, "codegen_por_aot")
      bad += need(por_bc, bbar, "codegen_por_bytecode")
      bad += need(ltl_aot, lbar, "codegen_ltl_aot")
      bad += need(ltl_bc, lbbar, "codegen_ltl_bytecode")
      if (!saw_cold) { print "FAIL no codegen cold-compile row" > "/dev/stderr"; bad = 1 }
      else if (cold > 15000) {
        printf "FAIL cold aot compile %.0fms exceeds 15s budget\n", cold > "/dev/stderr"
        bad = 1
      }
      if (!bad)
        printf "codegen gates passed (aot %.2fx, por %.2fx, ltl %.2fx, " \
               "bytecode %.2fx, cold compile %.0fms)\n",
               aot, por_aot, ltl_aot, bc, cold > "/dev/stderr"
      exit bad > 0 ? 1 : 0
    }' "$out"
}

wall_ok=0
for attempt in 1 2; do
  run_benches
  gate_serve || { echo "pnpd warm-cache gate FAILED" >&2; exit 1; }
  gate_codegen_cache || { echo "codegen cache gate FAILED" >&2; exit 1; }
  if [[ -n "$baseline" ]]; then
    gate_bytes || { echo "bytes/state gate FAILED" >&2; exit 1; }
  fi
  if gate_obs && gate_spill && gate_codegen_speed &&
     { [[ -z "$baseline" ]] || gate_throughput; }; then
    wall_ok=1
    break
  fi
  if [[ $attempt -eq 1 ]]; then
    echo "bench: wall-clock gate failed; rerunning once to rule out runner noise" >&2
  fi
done
[[ $wall_ok -eq 1 ]] || { echo "wall-clock gates FAILED twice" >&2; exit 1; }

# Smoke runs also emit a sample run ledger (BENCH_ledger/ledger.jsonl) so CI
# archives a machine-readable record of a real verification run alongside
# the throughput rows.
if [[ $smoke -eq 1 ]]; then
  cmake --build build-bench -j --target pnpv
  rm -rf BENCH_ledger
  ./build-bench/tools/pnpv examples/models/demo.arch \
    --end-invariant "delivered == 3" --ledger BENCH_ledger
  echo "wrote BENCH_ledger/ledger.jsonl" >&2
fi
