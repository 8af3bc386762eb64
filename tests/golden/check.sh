#!/usr/bin/env bash
# Golden check for the paper's figures and the ablations: runs the
# Fig. 4-9 and ablation benches from a build tree and diffs each one's
# stdout against tests/golden/<binary>.txt. Every bench is seeded and
# deterministic, so any difference is a behaviour change. Wall-clock
# lines go to stderr and are not compared.
#
#   tests/golden/check.sh BUILD_DIR            # exit 1 on any difference
#   tests/golden/check.sh --update BUILD_DIR   # rewrite the goldens
#
# BUILD_DIR must hold the bench targets (cmake --build BUILD_DIR --target
# fig4_nonsharing_newyork ... ablation_enroute). The full set takes a few
# minutes; it is kept out of ctest.
set -euo pipefail

update=0
if [[ "${1:-}" == "--update" ]]; then
  update=1
  shift
fi
if [[ $# -ne 1 ]]; then
  echo "usage: $0 [--update] BUILD_DIR" >&2
  exit 2
fi
build_dir=$1
golden_dir=$(cd "$(dirname "$0")" && pwd)

benches=(
  fig4_nonsharing_newyork fig5_nonsharing_boston fig6_taxi_sweep fig7_clock_time
  fig8_sharing_newyork fig9_sharing_boston
  ablation_thresholds ablation_network ablation_packing ablation_enroute
)

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

failed=0
for bench in "${benches[@]}"; do
  binary="$build_dir/bench/$bench"
  if [[ ! -x "$binary" ]]; then
    echo "MISSING $binary" >&2
    failed=1
    continue
  fi
  start=$SECONDS
  status=0
  "$binary" > "$out_dir/$bench.txt" 2> "$out_dir/$bench.err" || status=$?
  if [[ $status -ne 0 ]]; then
    echo "FAILED  $bench (exit status $status)" >&2
    cat "$out_dir/$bench.err" >&2
    failed=1
    continue
  fi
  if [[ $update -eq 1 ]]; then
    cp "$out_dir/$bench.txt" "$golden_dir/$bench.txt"
    echo "WROTE   $bench ($((SECONDS - start)) s)"
  elif diff -u "$golden_dir/$bench.txt" "$out_dir/$bench.txt"; then
    echo "OK      $bench ($((SECONDS - start)) s)"
  else
    echo "DIFFERS $bench" >&2
    failed=1
  fi
done
exit $failed
