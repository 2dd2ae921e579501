#!/usr/bin/env bash
# The benchmark's one command (see ../BENCHMARK.json):
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Builds the package from source (offline, against ../shims) and runs the
# end-to-end binary, or the traced one when --trace 1 is among the arguments.
# Without --workload it runs all four workloads, one after the other.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

bin=pepc-benchmark
prev=
for arg in "$@"; do
    if [[ "$prev" == --trace && "$arg" == 1 ]]; then
        bin=pepc-benchmark-trace
    fi
    prev="$arg"
done

cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml >&2
target="${CARGO_TARGET_DIR:-benchmark/target}"
exec "$target/release/$bin" --out-dir benchmark/out "$@"
