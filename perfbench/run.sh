#!/usr/bin/env bash
# Builds the benchmark and runs one workload:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
# Run it from the repository root. `--trace 1` runs the binary that counts
# allocations; the untraced binary leaves the allocator alone.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/perfbench"
args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--trace" && "${args[i + 1]}" == "1" ]]; then
        bin="$bin-traced"
    fi
done
exec "$bin" "$@"
