#!/bin/sh
# Offline CI gate: build, test, and smoke the whole workspace without
# touching the network. Run from the repository root:
#
#   ./scripts/ci.sh
#
# The workspace has no external dependencies by policy (see README), so
# --offline must always succeed; a failure here means someone added a
# crates.io dependency or broke the build.
set -eu

cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== test (offline) =="
cargo test -q --offline --workspace

echo "== scorecard smoke (tiny scale) =="
./target/release/scorecard --scale tiny

echo "== artifact smoke (emit + validate round trip) =="
artifact_dir="$(mktemp -d)"
server_pid=""
trap 'rm -rf "$artifact_dir"; [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true' EXIT
./target/release/dynapar run --bench GC-citation --policy spawn --scale tiny \
    --metrics full --emit-json "$artifact_dir/run.json"
./target/release/dynapar check-artifact --file "$artifact_dir/run.json"
grep -q '"ccqs_samples"' "$artifact_dir/run.json"
grep -q '"estimate"' "$artifact_dir/run.json"

echo "== snapshot/resume byte identity (run --snapshot-at / --resume) =="
# A run that captures a snapshot mid-flight and a fresh run resumed
# from that snapshot must both reproduce the uninterrupted run's
# artifact byte for byte (DESIGN.md §13).
./target/release/dynapar run --bench AMR --policy spawn --scale tiny \
    --metrics full --emit-json "$artifact_dir/snap-cold.json"
./target/release/dynapar run --bench AMR --policy spawn --scale tiny \
    --metrics full --emit-json "$artifact_dir/snap-armed.json" \
    --snapshot-at 3000 --snapshot-out "$artifact_dir/amr.snap"
./target/release/dynapar run --bench AMR --policy spawn --scale tiny \
    --metrics full --emit-json "$artifact_dir/snap-resumed.json" \
    --resume "$artifact_dir/amr.snap"
cmp "$artifact_dir/snap-cold.json" "$artifact_dir/snap-armed.json"
cmp "$artifact_dir/snap-cold.json" "$artifact_dir/snap-resumed.json"

echo "== snapshot/resume byte identity under full MSHR sets (AMR small @100000) =="
# The tiny run above never stalls on a full MSHR set; this one about
# 150k times, so its snapshot holds full sets with returned but not yet
# reclaimed entries, and resuming from it must still agree byte for byte.
./target/release/dynapar run --bench AMR --policy spawn --scale small \
    --metrics full --emit-json "$artifact_dir/mshr-cold.json"
./target/release/dynapar run --bench AMR --policy spawn --scale small \
    --metrics full --emit-json "$artifact_dir/mshr-armed.json" \
    --snapshot-at 100000 --snapshot-out "$artifact_dir/amr-small.snap"
./target/release/dynapar run --bench AMR --policy spawn --scale small \
    --metrics full --emit-json "$artifact_dir/mshr-resumed.json" \
    --resume "$artifact_dir/amr-small.snap"
cmp "$artifact_dir/mshr-cold.json" "$artifact_dir/mshr-armed.json"
cmp "$artifact_dir/mshr-cold.json" "$artifact_dir/mshr-resumed.json"

echo "== snap-diff smoke (identical and divergent containers) =="
./target/release/dynapar snap-diff "$artifact_dir/amr.snap" "$artifact_dir/amr.snap" \
    | grep -q '^identical'
./target/release/dynapar run --bench AMR --policy spawn --scale tiny \
    --metrics full --snapshot-at 4000 --snapshot-out "$artifact_dir/amr-later.snap"
./target/release/dynapar snap-diff "$artifact_dir/amr.snap" "$artifact_dir/amr-later.snap" \
    | tee "$artifact_dir/snap-diff.out"
grep -q 'header job.cycle: A=3000 B=4000' "$artifact_dir/snap-diff.out"
grep -q 'state: first divergent byte' "$artifact_dir/snap-diff.out"

echo "== fork-sweep smoke (shared ramp, forked branch vs cold) =="
# Build a warm-ramp workload whose light prefix (600 CTAs of
# sub-threshold threads) far exceeds resident-CTA capacity: every
# policy simulates an identical ramp, so cycle 2000 is inside the
# policy-pristine window. A snapshot of that ramp taken under one
# policy must warm-start a *different* policy's run with byte-identical
# output — that is what makes `sweep --fork-warmup` a pure optimization.
awk 'BEGIN{
  printf "name: warm-ramp-ci\ninput: synthetic-ramp\nitems:";
  for(i=0;i<600*64;i++) printf " 6";
  for(t=0;t<40*64;t++) printf " %d", (t%4==0)?48:6;
  printf "\n";
}' > "$artifact_dir/ramp.spec"
./target/release/dynapar run --spec "$artifact_dir/ramp.spec" --policy threshold:0 \
    --metrics full --snapshot-at 2000 --snapshot-out "$artifact_dir/ramp.snap"
./target/release/dynapar run --spec "$artifact_dir/ramp.spec" --policy threshold:16 \
    --metrics full --emit-json "$artifact_dir/fork-cold.json"
./target/release/dynapar run --spec "$artifact_dir/ramp.spec" --policy threshold:16 \
    --metrics full --resume "$artifact_dir/ramp.snap" \
    --emit-json "$artifact_dir/fork-warm.json"
cmp "$artifact_dir/fork-cold.json" "$artifact_dir/fork-warm.json"
./target/release/dynapar sweep --spec "$artifact_dir/ramp.spec" --points 3 \
    --fork-warmup 2000 | tee "$artifact_dir/fork-sweep.out"
grep -q 'warm-start: ramped to cycle 2000' "$artifact_dir/fork-sweep.out"

echo "== timeline smoke (emit + validate perfetto JSON) =="
./target/release/dynapar run --bench BFS-citation --policy spawn --scale tiny \
    --emit-timeline "$artifact_dir/timeline.json"
./target/release/dynapar check-timeline --file "$artifact_dir/timeline.json"
grep -q '"traceEvents"' "$artifact_dir/timeline.json"

echo "== summary artifact byte-identity (timeline export must not perturb it) =="
# The timeseries section is gated on --metrics timeseries: at summary the
# artifact must be byte-identical whether or not a timeline is exported,
# and must not contain the timeseries key at all.
./target/release/dynapar run --bench GC-citation --policy spawn --scale tiny \
    --trace 4096 --metrics summary --emit-json "$artifact_dir/summary-a.json"
./target/release/dynapar run --bench GC-citation --policy spawn --scale tiny \
    --trace 4096 --metrics summary --emit-json "$artifact_dir/summary-b.json" \
    --emit-timeline "$artifact_dir/timeline-b.json"
cmp "$artifact_dir/summary-a.json" "$artifact_dir/summary-b.json"
if grep -q '"timeseries"' "$artifact_dir/summary-a.json"; then
    echo "summary artifact leaked a timeseries section" >&2
    exit 1
fi

echo "== perf smoke (regression gate vs results/BENCH_4.json) =="
# The committed baseline records throughput on the machine that produced
# it, so the gate is only meaningful on comparable hardware; set
# DYNAPAR_SKIP_PERF=1 to skip it (e.g. in cross-machine CI), and
# regenerate the baseline with `perf --runs 3 --emit-json
# results/BENCH_4.json` after intentional behavior or performance
# changes. The gate checks the aggregate rate and the per-run geomean
# (the geomean catches one benchmark collapsing behind a healthy total).
if [ "${DYNAPAR_SKIP_PERF:-0}" = "1" ]; then
    echo "skipped (DYNAPAR_SKIP_PERF=1)"
else
    ./target/release/perf --runs 3 --emit-json "$artifact_dir/perf.json" \
        --baseline results/BENCH_4.json
    grep -q '"dynapar-perf/1"' "$artifact_dir/perf.json"

    echo "== perf fork-sweep gate (amortization, vs results/BENCH_8.json) =="
    # Measures a four-policy sweep cold and warm (shared ramp + forks);
    # the mode itself fails unless the fork point is policy-pristine,
    # covers >= 30% of every run, and the warm sweep is >= 1.5x faster.
    # The baseline additionally gates absolute wall-clock. Regenerate
    # with `perf --sweep-fork --runs 5 --emit-json results/BENCH_8.json`.
    ./target/release/perf --sweep-fork --runs 3 \
        --emit-json "$artifact_dir/perf-fork.json" --baseline results/BENCH_8.json
    grep -q '"mode": "sweep-fork"' "$artifact_dir/perf-fork.json"
fi

echo "== server smoke (daemon round-trip, memoization, byte identity) =="
# One daemon on an ephemeral loopback port; the same paper-scale job is
# run three ways — directly via the CLI, via a first server submit
# (executes), and via a second identical submit (must be a memo hit,
# reported as cached=true) — and all three artifacts must be
# byte-identical, because `dynapar run` and a server submit build the
# same typed JobRequest (docs/SERVER.md).
port_file="$artifact_dir/port"
./target/release/dynapar serve --listen 127.0.0.1:0 --port-file "$port_file" &
server_pid=$!
i=0
while [ ! -s "$port_file" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "daemon never wrote its port file" >&2
        exit 1
    fi
    sleep 0.1
done
addr="127.0.0.1:$(cat "$port_file")"
./target/release/dynapar run --bench BFS-graph500 --policy spawn --scale paper \
    --metrics full --emit-json "$artifact_dir/server-cli.json"
./target/release/dynapar submit --addr "$addr" --bench BFS-graph500 --policy spawn \
    --scale paper --emit-json "$artifact_dir/server-1.json" \
    | tee "$artifact_dir/submit-1.out"
grep -q 'cached=false' "$artifact_dir/submit-1.out"
./target/release/dynapar submit --addr "$addr" --bench BFS-graph500 --policy spawn \
    --scale paper --emit-json "$artifact_dir/server-2.json" \
    | tee "$artifact_dir/submit-2.out"
grep -q 'cached=true' "$artifact_dir/submit-2.out"
cmp "$artifact_dir/server-cli.json" "$artifact_dir/server-1.json"
cmp "$artifact_dir/server-1.json" "$artifact_dir/server-2.json"
./target/release/dynapar server-stats --addr "$addr" \
    | grep -q '"memo_hits": 1'
./target/release/dynapar server-shutdown --addr "$addr"
wait "$server_pid"
server_pid=""

echo "== store-backed daemon (memo cache survives a restart) =="
# A daemon started with --store persists every completed artifact; a
# fresh daemon on the same directory preloads them, so a job executed
# before the restart is answered from the cache without re-simulating.
store_dir="$artifact_dir/store"
for round in 1 2; do
    : > "$port_file"
    ./target/release/dynapar serve --listen 127.0.0.1:0 \
        --port-file "$port_file" --store "$store_dir" &
    server_pid=$!
    i=0
    while [ ! -s "$port_file" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "store-backed daemon never wrote its port file" >&2
            exit 1
        fi
        sleep 0.1
    done
    addr="127.0.0.1:$(cat "$port_file")"
    ./target/release/dynapar submit --addr "$addr" --bench AMR --policy spawn \
        --scale tiny --emit-json "$artifact_dir/store-$round.json" \
        | tee "$artifact_dir/store-submit-$round.out"
    ./target/release/dynapar server-stats --addr "$addr" \
        | tee "$artifact_dir/store-stats-$round.out" > /dev/null
    ./target/release/dynapar server-shutdown --addr "$addr"
    wait "$server_pid"
    server_pid=""
done
grep -q 'cached=false' "$artifact_dir/store-submit-1.out"
# The second daemon answered from its preloaded store: cached, and it
# executed nothing in its whole lifetime.
grep -q 'cached=true' "$artifact_dir/store-submit-2.out"
grep -q '"executed": 0' "$artifact_dir/store-stats-2.out"
cmp "$artifact_dir/store-1.json" "$artifact_dir/store-2.json"

echo "== store cap (--store-max-bytes evicts, evicted entries re-execute) =="
# A cap far below one artifact forces total eviction: the preloaded
# entry is deleted at startup (so the submit re-executes instead of
# hitting the cache), the fresh artifact is evicted right after it
# persists, and the answer stays byte-identical throughout.
: > "$port_file"
./target/release/dynapar serve --listen 127.0.0.1:0 \
    --port-file "$port_file" --store "$store_dir" --store-max-bytes 1 &
server_pid=$!
i=0
while [ ! -s "$port_file" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "capped daemon never wrote its port file" >&2
        exit 1
    fi
    sleep 0.1
done
addr="127.0.0.1:$(cat "$port_file")"
./target/release/dynapar submit --addr "$addr" --bench AMR --policy spawn \
    --scale tiny --emit-json "$artifact_dir/store-3.json" \
    | tee "$artifact_dir/store-submit-3.out"
./target/release/dynapar server-shutdown --addr "$addr"
wait "$server_pid"
server_pid=""
grep -q 'cached=false' "$artifact_dir/store-submit-3.out"
cmp "$artifact_dir/store-1.json" "$artifact_dir/store-3.json"
if ls "$store_dir"/*.json >/dev/null 2>&1; then
    echo "store cap left persisted entries behind" >&2
    exit 1
fi

echo "== observability smoke (logs, metrics, trace; artifacts stay byte-identical) =="
# A fully instrumented daemon (structured log at debug, Perfetto trace)
# must answer the same job with artifacts byte-identical to the
# uninstrumented store daemon's (store-1.json above) — observability
# lives entirely off the simulation path.
: > "$port_file"
./target/release/dynapar serve --listen 127.0.0.1:0 --port-file "$port_file" \
    --log-file "$artifact_dir/daemon.log" --log-level debug \
    --trace-out "$artifact_dir/daemon-trace.json" &
server_pid=$!
i=0
while [ ! -s "$port_file" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "instrumented daemon never wrote its port file" >&2
        exit 1
    fi
    sleep 0.1
done
addr="127.0.0.1:$(cat "$port_file")"
./target/release/dynapar submit --addr "$addr" --bench AMR --policy spawn \
    --scale tiny --emit-json "$artifact_dir/obs-1.json"
./target/release/dynapar submit --addr "$addr" --bench AMR --policy spawn \
    --scale tiny --emit-json "$artifact_dir/obs-2.json"
cmp "$artifact_dir/store-1.json" "$artifact_dir/obs-1.json"
cmp "$artifact_dir/obs-1.json" "$artifact_dir/obs-2.json"
./target/release/dynapar server-health --addr "$addr" \
    | grep -q '"status": "ok"'
./target/release/dynapar server-metrics --addr "$addr" \
    | tee "$artifact_dir/server-metrics.out" > /dev/null
grep -q '"execute_us"' "$artifact_dir/server-metrics.out"
grep -q 'dynapar_job_execute_us_count' "$artifact_dir/server-metrics.out"
./target/release/dynapar server-shutdown --addr "$addr"
wait "$server_pid"
server_pid=""
# The log holds the lifecycle: the first submit executed, the second
# was a memo hit; every line is a JSON object.
grep -q '"event":"job_done"' "$artifact_dir/daemon.log"
grep -q '"event":"memo_hit"' "$artifact_dir/daemon.log"
if grep -v '^{.*}$' "$artifact_dir/daemon.log" >/dev/null; then
    echo "daemon log contains a non-JSON line" >&2
    exit 1
fi
# The trace is a well-formed Trace Event Format document, rendered from
# the session's job records: the executed job's span and the second
# submit's memo-hit instant.
grep -q '"traceEvents"' "$artifact_dir/daemon-trace.json"
./target/release/dynapar check-timeline --file "$artifact_dir/daemon-trace.json"
grep -q '"name":"job 0","ph":"X"' "$artifact_dir/daemon-trace.json"
grep -q '"name":"memo_hit","ph":"i"' "$artifact_dir/daemon-trace.json"

echo "== profile smoke (perf --profile emits a valid dynapar-profile/1) =="
# Separate target dir: the profile feature changes the compiled code, so
# sharing target/ with the default build would thrash the cache.
CARGO_TARGET_DIR=target/ci-profile \
    cargo build -q --release --offline -p dynapar-bench --features profile --bin perf
CARGO_TARGET_DIR=target/ci-profile ./target/ci-profile/release/perf \
    --scale tiny --profile --emit-json "$artifact_dir/perf-profile.json"
./target/release/perf --check-profile "$artifact_dir/perf-profile.json"

echo "== deprecated-API gate (workspace must not call shims) =="
CARGO_TARGET_DIR=target/ci-deprecated RUSTFLAGS="-D deprecated" \
    cargo check -q --offline --workspace --all-targets

echo "== ci: all green =="
