#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a repository checkout,
# pinned to one CPU so the library's rayon shim sees one worker (README.md,
# "One CPU"). The CPU is the first one this process may run on, which need
# not be CPU 0 when the process is confined to a cpuset. Without a usable
# `taskset` the benchmark runs unpinned. Arguments are the benchmark's:
#
#   bash crates/bench/src/bin/benchmark/run.sh --workload mc_nominal --seed 1 --seconds 20 --trace 0
set -u

benchmark=(cargo run --release --offline -q
    --manifest-path crates/bench/src/bin/benchmark/Cargo.toml --)

# `taskset -pc` prints "pid N's current affinity list: 2,5-7".
if affinity=$(taskset -pc $$ 2>/dev/null); then
    list=${affinity##*: }
    cpu=${list%%[,-]*}
    if [[ $cpu =~ ^[0-9]+$ ]] && taskset -c "$cpu" true 2>/dev/null; then
        exec taskset -c "$cpu" "${benchmark[@]}" "$@"
    fi
fi
exec "${benchmark[@]}" "$@"
