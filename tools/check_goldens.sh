#!/usr/bin/env bash
# Reruns the seven quick-scale golden scenarios and diffs each against its
# CSV in bench/golden/ within a relative tolerance.
#
#   tools/check_goldens.sh --tol 0.0 [--sanperf build/cli/sanperf] [--out-dir DIR]
#
# --tol 0.0 demands exact bits (the goldens' own toolchain, regular and
# audit builds); 0.10 absorbs cross-compiler drift. Every golden is checked
# before the script exits non-zero on any mismatch.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
sanperf="$root/build/cli/sanperf"
tol=""
out_dir=""
while [ $# -gt 0 ]; do
  case "$1" in
    --tol) tol=$2; shift 2 ;;
    --sanperf) sanperf=$2; shift 2 ;;
    --out-dir) out_dir=$2; shift 2 ;;
    *) echo "check_goldens: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
if [ -z "$tol" ]; then
  echo "check_goldens: --tol is required" >&2
  exit 2
fi
if [ -z "$out_dir" ]; then
  out_dir=$(mktemp -d)
  trap 'rm -rf "$out_dir"' EXIT
fi
mkdir -p "$out_dir"

status=0
for pair in table1:table1_quick \
            crash_recovery_latency:crash_recovery_quick \
            load_latency_sweep:load_latency_quick \
            batch_throughput_sweep:batch_throughput_quick \
            recovery_under_load:recovery_under_load_quick \
            rack_loss_consensus:rack_loss_quick \
            scale_n_sweep:scale_n_quick; do
  scen=${pair%%:*}
  golden=${pair##*:}
  # The scaling sweep's wall-clock columns are machine facts, not simulated
  # results; only the simulated columns are golden.
  ignore=()
  if [ "$golden" = scale_n_quick ]; then
    ignore=(--ignore-cols events_per_s,ns_per_event,peak_rss_mb)
  fi
  SANPERF_THREADS=${SANPERF_THREADS:-8} "$sanperf" run "$scen" --scale quick --format csv \
    --out "$out_dir/$golden.csv" > /dev/null
  echo "$golden:"
  if ! "$sanperf" diff "$root/bench/golden/$golden.csv" "$out_dir/$golden.csv" \
      --tol "$tol" "${ignore[@]}"; then
    status=1
  fi
done
exit $status
