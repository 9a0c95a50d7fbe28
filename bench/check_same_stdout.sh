#!/usr/bin/env bash
# Checks that a change leaves every deterministic simulator run printing
# the same bytes as its parent.
#
#   bench/check_same_stdout.sh PARENT_BUILD CHANGE_BUILD
#
# Both arguments are CMake build directories configured the same way (for
# instance a `git clone` of the parent commit and the working tree, each
# built with `cmake -B build -S . && cmake --build build`). Each binary
# below runs once per build; only stdout is compared (fuzz_switch prints
# its wall time on stderr), and the soak's `vm_hwm_kb=` field, the peak
# resident memory, is dropped first. Prints `same NAME` or `DIFF NAME` per
# run and exits 1 if any run differs or fails to start. A change that
# fixes a simulator bug moves these outputs on purpose, so no CI job runs
# this script.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent=$1
change=$2
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

runs=(
  "bench_fig2_latency|bench/bench_fig2_latency"
  "bench_table1_properties|bench/bench_table1_properties"
  "bench_table2_metaproperties|bench/bench_table2_metaproperties"
  "bench_switch_overhead|bench/bench_switch_overhead"
  "bench_e2e_preservation|bench/bench_e2e_preservation"
  "bench_vsync_switch|bench/bench_vsync_switch"
  "bench_p2p_switching|bench/bench_p2p_switching"
  "bench_control_ablation|bench/bench_control_ablation"
  "bench_oracle_ablation|bench/bench_oracle_ablation"
  "bench_group_scaling|bench/bench_group_scaling --max-n 64"
  "fuzz_switch|src/fuzz_switch --seed 5000 --iters 60 --crash"
  "quickstart|examples/quickstart"
  "security_escalation|examples/security_escalation"
  "causal_chat|examples/causal_chat"
  "online_upgrade|examples/online_upgrade"
  "adaptive_total_order|examples/adaptive_total_order"
  "soak_hybrid|src/soak --messages 100000 --seed 1 --loss 0.01 --dup 0.01 --reorder 0.02 --churn-ms 10000 --switch-ms 5000 --quiet --dump-dir $out"
  "soak_causal|src/soak --stack causal --messages 100000 --members 8 --churn-ms 4000 --seed 1 --quiet --dump-dir $out"
)

status=0
for run in "${runs[@]}"; do
  name=${run%%|*}
  cmd=${run#*|}
  for side in parent change; do
    dir=$parent
    [ "$side" = change ] && dir=$change
    # Word splitting of $cmd is intended: it is a binary plus its flags.
    # shellcheck disable=SC2086
    "$dir"/$cmd 2>/dev/null | sed 's/ vm_hwm_kb=[0-9]*//' > "$out/$name.$side"
    if [ "${PIPESTATUS[0]}" -eq 127 ]; then
      echo "missing $dir/${cmd%% *}" >&2
      status=1
    fi
  done
  if cmp -s "$out/$name.parent" "$out/$name.change"; then
    echo "same $name"
  else
    echo "DIFF $name"
    status=1
  fi
done
exit $status
