#!/usr/bin/env bash
# Output identity against another tree of this repository, usually a
# checkout of the parent commit:
#
#   scripts/same_outputs.sh <parent-tree>
#
# Builds the release binaries and examples of both trees (each into its
# own target/), then runs, in both:
#   * every experiment binary e* in --quick and in default mode, passing
#     --manifest only to the seven that run orchestrated cells;
#   * e8 and e16 with --full;
#   * the four examples (quickstart with --tiny).
# Each pair of runs must give the same exit status, the same stdout
# without its "run manifest written to" line, and the same manifest
# without its "timing" lines (the one wall-clock part of a manifest).
#
# Exits 0 when every pair matches, 1 at the first difference (named on
# stderr), 2 on bad usage or a failed build.
set -euo pipefail

if [ $# -ne 1 ] || [ ! -f "$1/Cargo.toml" ]; then
  echo "usage: $0 <parent-tree>" >&2
  exit 2
fi
here=$(cd "$(dirname "$0")/.." && pwd)
parent=$(cd "$1" && pwd)
# One shared target dir would let the second build overwrite the first.
unset CARGO_TARGET_DIR

for tree in "$here" "$parent"; do
  (cd "$tree" && cargo build --offline --release --quiet --bins --examples) || exit 2
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# The binaries that run orchestrated cells, the only ones that accept
# --manifest.
manifested=" e1_grid_cover e3_conductance e4_expander e7_regular_hitting e8_lollipop e10_kary_trees e16_fault_degradation "

# check <name> <program under target/release> [args...]: run it in both
# trees, each in an empty directory, and compare the two runs.
check() {
  local name=$1 prog=$2
  shift 2
  local tree dir status
  for tree in current parent; do
    dir=$out/$tree/$name
    mkdir -p "$dir"
    local root=$here
    [ "$tree" = parent ] && root=$parent
    status=0
    (cd "$dir" && "$root/target/release/$prog" "$@" > stdout) || status=$?
    echo "$status" > "$dir/status"
  done
  local a=$out/current/$name b=$out/parent/$name
  if ! cmp -s "$a/status" "$b/status"; then
    echo "$name: exit status $(cat "$a/status") here, $(cat "$b/status") in the parent" >&2
    exit 1
  fi
  if ! diff <(grep -v 'run manifest written to' "$a/stdout") \
            <(grep -v 'run manifest written to' "$b/stdout") > "$out/diff"; then
    echo "$name: stdout differs (< here, > parent):" >&2
    head -n 20 "$out/diff" >&2
    exit 1
  fi
  if [ -f "$a/m.json" ] || [ -f "$b/m.json" ]; then
    if [ ! -f "$a/m.json" ] || [ ! -f "$b/m.json" ]; then
      echo "$name: only one tree wrote a manifest" >&2
      exit 1
    fi
    if ! diff <(grep -v '"timing"' "$a/m.json") <(grep -v '"timing"' "$b/m.json") > "$out/diff"; then
      echo "$name: manifest differs (< here, > parent):" >&2
      head -n 20 "$out/diff" >&2
      exit 1
    fi
  fi
  echo "same: $name"
}

for src in "$here"/crates/cobra-bench/src/bin/e*.rs; do
  bin=$(basename "$src" .rs)
  manifest=()
  case $manifested in *" $bin "*) manifest=(--manifest m.json) ;; esac
  check "$bin.quick" "$bin" --quick "${manifest[@]}"
  check "$bin.default" "$bin" "${manifest[@]}"
  case $bin in
    e8_lollipop | e16_fault_degradation) check "$bin.full" "$bin" --full "${manifest[@]}" ;;
  esac
done
check quickstart examples/quickstart --tiny
for ex in grid_frontier epidemic_sis rumor_network; do
  check "$ex" "examples/$ex"
done
echo "all outputs match"
