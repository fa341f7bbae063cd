#!/usr/bin/env bash
# Offline CI gate: format, lint, build, test, and a quick DES-throughput
# regression check. Everything runs without registry access — the workspace
# has no external dependencies.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
# rustfmt may be absent from minimal toolchains; the formatting gate is
# advisory there rather than a hard failure.
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    echo "rustfmt not installed; skipping format check"
fi

echo "== clippy =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets --release -- -D warnings
else
    echo "clippy not installed; skipping lint"
fi

echo "== one adaptation loop (the coordinator owns speed normalisation) =="
# The engines feed raw benchmark times to Coordinator::record_benchmark,
# and the coordinator forgets departed nodes' speeds itself. An engine that
# keeps its own SpeedTracker has to pair every departure with a second
# remove, or a departed node keeps anchoring the survivors' speeds. The two
# drivers of the coordinator, the DES engine and sagrid-coordinatord, keep
# none. No program code under crates/ outside sagrid-adapt may name the
# type (test directories aside).
if grep -rl --include='*.rs' --exclude-dir=tests 'SpeedTracker' crates \
    | grep -v '^crates/adapt/'; then
    echo "  FAIL: the files above name SpeedTracker; feed Coordinator::record_benchmark instead" >&2
    exit 1
fi
echo "  no SpeedTracker outside crates/adapt"

echo "== build =="
cargo build --workspace --release

echo "== test =="
cargo test --workspace -q

echo "== examples (smoke) =="
# The examples assert their own results: quickstart checks the parallel
# fib and n-queens answers against the sequential ones, and barnes_hut
# fails if the relative energy drift passes its bound (1e-3; 500 bodies
# over 3 steps measure about 1e-6). A non-zero exit stops the gate.
cargo run -q --release --example quickstart
cargo run -q --release --example barnes_hut -- 500 3

echo "== doc tests =="
cargo test --workspace -q --doc

echo "== rustdoc (warnings are errors) =="
# A deleted or renamed item leaves intra-doc links pointing at nothing;
# this fails on them instead of letting them rot.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== DES throughput (quick) =="
# Quick mode covers all three rows, the million-node stress scenario
# included (one ~30 s sample of its bounded virtual-time slice).
SAGRID_BENCH_QUICK=1 SAGRID_BENCH_OUT="$PWD/target/BENCH_des_throughput.quick.json" \
    cargo bench -p sagrid-bench --bench des_throughput
echo "wrote target/BENCH_des_throughput.quick.json (committed baseline: BENCH_des_throughput.json)"

echo "== DES throughput vs committed baseline (warn-only, +/-20%) =="
# Quick samples on shared hardware are noisy, so drift is reported, never
# fatal. Compares events_per_sec per run name against the checked-in
# full-scale baseline for every row, des_million_node included.
awk '
    /"name"/           { gsub(/[",]/, ""); name = $2 }
    /"events_per_sec"/ {
        gsub(/,/, "");
        if (NR == FNR) { base[name] = $2 }
        else if (name in base) {
            delta = ($2 / base[name] - 1.0) * 100.0
            printf "  %-28s baseline %12.0f ev/s, now %12.0f ev/s (%+.1f%%)\n", \
                   name, base[name], $2, delta
            if (delta > 20 || delta < -20)
                printf "  WARNING: %s drifted more than 20%% from the baseline\n", name
        }
    }
' BENCH_des_throughput.json target/BENCH_des_throughput.quick.json

echo "== DES throughput counts vs committed baseline (exact) =="
# Quick mode changes only the sample count, so every row's events and
# steal_attempts, and des_million_node's final_nodes, are deterministic:
# each must equal the committed baseline. A difference is a behaviour
# change, not noise. des_million_node is the only 7,680-cluster run with
# the hierarchical coordinator, so this also guards that path.
awk '
    /"name"/ { gsub(/[",]/, ""); name = $2 }
    /^ *"(events|steal_attempts|final_nodes)":/ {
        key = $1; gsub(/[":]/, "", key)
        value = $2; gsub(/,/, "", value)
        if (NR == FNR) { base[name " " key] = value }
        else { now[name " " key] = value }
    }
    END {
        for (k in base) {
            checked++
            if (!(k in now)) { printf "  FAIL: %s missing from the quick run\n", k; bad = 1 }
            else if (now[k] != base[k]) {
                printf "  FAIL: %s is %s, baseline %s\n", k, now[k], base[k]; bad = 1
            }
        }
        if (checked < 7) { printf "  FAIL: only %d baseline counts found\n", checked; bad = 1 }
        if (bad) exit 1
        printf "  all %d counts equal the baseline\n", checked
    }
' BENCH_des_throughput.json target/BENCH_des_throughput.quick.json

echo "== experiments smoke (parallel == serial) =="
./target/release/experiments --quick --serial > target/ci_serial.txt
./target/release/experiments --quick > target/ci_parallel.txt
diff target/ci_serial.txt target/ci_parallel.txt
echo "parallel output is byte-identical to serial"

echo "== process-mode smoke (crashed node + overloaded processor + expanding grid, one file drives both twins) =="
# The paper's crashed-node, overloaded-processor and expanding cases, each
# from one checked-in scenario file: through the DES, then over real
# sockets, where grid-local spawns the hub, three workers per site and the
# out-of-process coordinator and applies the same events (a SIGKILL; a
# tenfold CPU load on one worker; none for s2a, whose grid starts at 8 of
# the 36 nodes its workload is sized for). Beyond the JSONL invariants the
# launcher asserts what only it can see: the hub reports the crash
# (heartbeat timeout, not socket close), the blacklisted id never rejoins,
# the slowed worker heads the removal's badness ranking, a node granted
# after the coordinator's add decision joins, and every child is reaped —
# no orphans.
# Those post-conditions are conditional on what the run did, so the gate
# also requires that they were evaluated. The hard timeout keeps a wedged
# run from hanging the gate.
for f in node_crash slow_node s2a; do
    ./target/release/experiments --scenario "scenarios/$f.json"
    rm -rf "target/ci_grid_$f"
    timeout 55 ./target/release/grid-local --scenario-file "scenarios/$f.json" \
        --out "target/ci_grid_$f" | tee "target/ci_grid_$f.log"
    ./target/release/validate_metrics "target/ci_grid_$f"
done
grep -q "CHECK ok: crashed node is blacklisted in the final decision entry" \
    target/ci_grid_node_crash.log
grep -q "CHECK ok: slow worker ranked worst in the removal's badness provenance" \
    target/ci_grid_slow_node.log
grep -q "CHECK ok: a node granted after the coordinator's add decision joined the grid" \
    target/ci_grid_s2a.log

echo "== steal smoke (work migrates between processes over the wire) =="
# Bounded run of the wire-level work-stealing scenario: a slow root worker
# exports a fib frontier, thieves on two clusters steal jobs over TCP via
# CRS victim selection, and grid-local asserts the reassembled result
# matches the sequential value. The gate additionally requires that at
# least one remote steal actually happened — a run where every job stayed
# local would pass the arithmetic check while proving nothing.
rm -rf target/ci_grid_steal
timeout 60 ./target/release/grid-local --workers 4 --scenario steal \
    --duration-ms 30000 --out target/ci_grid_steal
./target/release/validate_metrics target/ci_grid_steal
awk '
    /"name":"net.steals.remote_ok"/ {
        n = $0
        sub(/.*"value":/, "", n); sub(/[,}].*/, "", n)
        total += n
    }
    END {
        printf "  net.steals.remote_ok total across thieves: %d\n", total
        if (total < 1) { print "  FAIL: no remote steals observed"; exit 1 }
    }
' target/ci_grid_steal/steal_thief*_metrics.jsonl

SOAK_WORKERS="${SAGRID_SOAK_WORKERS:-1000}"
echo "== churn-soak smoke (one hub thread serves ${SOAK_WORKERS} reactor workers) =="
# Bounded scale proof of the epoll reactor: the synthetic fleet joins from
# a single client-side reactor, rides out churn (disconnect +
# claim-rejoin), silent crashes (heartbeat-timeout deaths + blacklist)
# and a launcher-driven grow, while grid-local asserts the hub's OS
# thread count stays flat — independent of the connection count — and the
# teardown reaps everything orphan-free. The default 1000-worker tier
# fits the CI budget; set SAGRID_SOAK_WORKERS=10000 to opt in to the
# full-scale soak on beefier hardware.
rm -rf target/ci_grid_churn
timeout 300 ./target/release/grid-local --workers "$SOAK_WORKERS" --scenario churn-soak \
    --duration-ms 80000 --out target/ci_grid_churn
./target/release/validate_metrics target/ci_grid_churn
awk -v fleet="$SOAK_WORKERS" '
    /"name":"net.reactor.accepts"/ {
        n = $0
        sub(/.*"value":/, "", n); sub(/[,}].*/, "", n)
        total += n
    }
    END {
        printf "  net.reactor.accepts on the hub: %d\n", total
        if (total < fleet) { print "  FAIL: hub reactor accepted fewer than the fleet"; exit 1 }
    }
' target/ci_grid_churn/run_hub.jsonl

echo "== hub-crash smoke (standby hub takes over a SIGKILLed primary) =="
# Bounded end-to-end hub failover: a standby hub tails the primary's
# replication log; grid-local crashes a worker (so there is a blacklist
# worth inheriting), SIGKILLs the PRIMARY, and asserts the standby wins
# the deterministic election, promotes under a bumped fenced epoch,
# re-admits the survivors, still refuses the blacklisted victim, and the
# composed JSONL passes the hub-failover invariant. The gate additionally
# requires exactly one takeover counted in the standby's own metrics.
rm -rf target/ci_grid_hubcrash
timeout 55 ./target/release/grid-local --workers 4 --scenario hub-crash \
    --duration-ms 12000 --out target/ci_grid_hubcrash
./target/release/validate_metrics target/ci_grid_hubcrash
awk '
    /"name":"net.replica.takeovers"/ {
        n = $0
        sub(/.*"value":/, "", n); sub(/[,}].*/, "", n)
        total += n
    }
    END {
        printf "  net.replica.takeovers total across standbys: %d\n", total
        if (total != 1) { print "  FAIL: expected exactly one takeover"; exit 1 }
    }
' target/ci_grid_hubcrash/run_hub_standby*.jsonl

echo "== emit-metrics smoke (JSONL well-formed, stdout unperturbed) =="
rm -rf target/ci_metrics
./target/release/experiments --quick --serial --emit-metrics target/ci_metrics \
    > target/ci_emit.txt
diff target/ci_serial.txt target/ci_emit.txt
echo "stdout is byte-identical with --emit-metrics"
./target/release/validate_metrics target/ci_metrics

echo "== scenario fuzz smoke (25 seeded adaptation-invariant runs) =="
# Each seed deterministically generates a random scenario (grid, layout,
# timed perturbations), runs it through the DES, and asserts the four
# adaptation invariants on the emitted JSONL alone. A failing seed prints
# its exact re-run command, and the same seed always regenerates a
# byte-identical scenario file.
timeout 600 ./target/release/experiments --fuzz 25

echo "== scenario parity (one file drives both twins) =="
# The checked-in paper crash scenario runs through the DES and through
# real processes over loopback TCP from the *same* declarative file, and
# both runs are judged by the same invariant checker. Exit code 4 from
# grid-local would mean infrastructure timeout (not an invariant verdict).
./target/release/experiments --scenario scenarios/s6.json
rm -rf target/ci_scenario_parity
timeout 90 ./target/release/grid-local --scenario-file scenarios/s6.json \
    --min-decisions 3 --out target/ci_scenario_parity

echo "== mass-crash regression (hold-fire inside the detection window) =="
# The checked-in regression for the suspicion bug: 2 of 3 sites crash two
# seconds before a coordinator tick, so an evaluation deterministically
# lands inside the fault-detection window. Under the old silence-blind
# policy the coordinator shrank away survivors here; with three-state
# liveness it holds fire. Both twins run the same declarative file and
# both streams are judged by all five invariants — including
# no-suspect-shrink, checked from the JSONL alone (the 25-seed fuzz gate
# above applies the same fifth invariant to every generated scenario).
./target/release/experiments --scenario scenarios/mass_crash.json
rm -rf target/ci_mass_crash
timeout 90 ./target/release/grid-local --scenario-file scenarios/mass_crash.json \
    --min-decisions 3 --out target/ci_mass_crash

echo "== benchmark correctness (pinned event counts, decision hashes, simulated outcomes) =="
# The hub and reactor sit on a path only the benchmark's lock-step
# generator checks frame by frame: each workload pins its DES event count
# and decision hash in benchmark/workloads/*.expect and verifies them in
# the same command that times it. The two exact end-to-end metrics are
# pinned here: they are simulated time, so any change to them is a change
# of policy or of event order, never noise. Three seconds is the shortest
# run; no timing is compared.
while read -r w recovery ratio; do
    bash benchmark/run.sh --workload "$w" --seed 1 --seconds 3 --trace 0 </dev/null \
        | tail -n 1 > "target/ci_bench_$w.json"
    grep -q '"correct":true' "target/ci_bench_$w.json"
    for pin in "\"sim_recovery_s\":{\"value\":$recovery," \
               "\"sim_runtime_ratio\":{\"value\":$ratio,"; do
        grep -qF "$pin" "target/ci_bench_$w.json" \
            || { echo "  $w: expected $pin" >&2; exit 1; }
    done
    echo "  $w: correct, sim_recovery_s $recovery, sim_runtime_ratio $ratio"
done <<'PINS'
paper36     340  0.6869829423143701
wide_steady 8480 2.2804496305016957
wide_churn  4560 3.3795889242793447
bulk_wan    360  0.4544444135790188
PINS
# Memory must not grow with run length: a long-lived coordinator keeps
# only its latest decision. Four times the rounds of the 3 s run above
# may raise the high-water mark by at most 3 MiB.
bash benchmark/run.sh --workload paper36 --seed 1 --seconds 12 --trace 0 </dev/null \
    | tail -n 1 > target/ci_bench_paper36_12s.json
grep -q '"correct":true' target/ci_bench_paper36_12s.json
rss() { sed -n 's/.*"peak_rss_mb":{"value":\([0-9.]*\),.*/\1/p' "$1"; }
rss_3s="$(rss target/ci_bench_paper36.json)"
rss_12s="$(rss target/ci_bench_paper36_12s.json)"
awk -v a="$rss_3s" -v b="$rss_12s" 'BEGIN { exit !(a != "" && b != "" && b - a <= 3) }' \
    || { echo "  paper36: peak_rss_mb grew $rss_3s -> $rss_12s MiB from 3 s to 12 s" >&2; exit 1; }
echo "  paper36: peak_rss_mb $rss_3s MiB (3 s), $rss_12s MiB (12 s)"
# Width must not cost memory out of proportion: the untimed check runs one
# metered DES run, whose event log is held once as JSONL text and read
# back as typed records. Holding it as event structs, a cloned copy and a
# JSON tree per line put wide_steady 14.5-14.8 MiB above paper36; now 8.5-8.7.
rss_wide="$(rss target/ci_bench_wide_steady.json)"
awk -v a="$rss_3s" -v b="$rss_wide" 'BEGIN { exit !(a != "" && b != "" && b - a < 11) }' \
    || { echo "  wide_steady: peak_rss_mb $rss_wide MiB is 11 MiB or more above paper36's $rss_3s" >&2; exit 1; }
echo "  wide_steady: peak_rss_mb $rss_wide MiB (paper36 $rss_3s MiB, bound +11)"
# The victim's steal server is one reactor thread, named steal-io, however
# many thieves dial it. The benchmark's net.steal.server_threads counts
# 1 + the threads named steal-srv*, a name no thread carries since the
# server moved onto a reactor, so the grep below reads 1 whatever the
# server does: it only shows that the traced run still reports the
# metric. The census that can fail is the steal unit test run by name
# here: 16 thieves dial one server and it counts the steal-io threads,
# so a second server thread, or one per connection, turns this red.
bash benchmark/run.sh --workload paper36 --seed 1 --seconds 3 --trace 1 </dev/null \
    | tail -n 1 > target/ci_bench_paper36_traced.json
grep -qF '"net.steal.server_threads":{"value":1,' target/ci_bench_paper36_traced.json \
    || { echo "  paper36: expected net.steal.server_threads in the traced run" >&2; exit 1; }
cargo test -q -p sagrid-net --lib -- --exact steal::tests::one_server_thread_serves_many_thieves \
    | tee target/ci_steal_census.txt
grep -q ' 1 passed' target/ci_steal_census.txt \
    || { echo "  steal server: the steal-io thread census did not pass" >&2; exit 1; }
echo "  steal server: one steal-io thread for 16 thieves"
# Where the control path's reaction time goes, on the paper's scale and at
# width (256 members, churn): the hub's forwarding and relay lags, the
# coordinator's warm evaluation, and the reaction's tail. Printed only:
# these are timings on shared hardware. The wide run must still be correct.
bash benchmark/run.sh --workload wide_churn --seed 1 --seconds 3 --trace 1 </dev/null \
    | tail -n 1 > target/ci_bench_wide_churn_traced.json
grep -q '"correct":true' target/ci_bench_wide_churn_traced.json
for w in paper36 wide_churn; do
    for m in net.hub.fwd_lag_p50_us adapt.eval_us.flat net.hub.relay_lag_p50_us ctl.react_p95_us; do
        v="$(sed -n "s/.*\"$m\":{\"value\":\([0-9.e+-]*\),.*/\1/p" "target/ci_bench_${w}_traced.json")"
        printf '  %-10s (traced): %-26s %s\n' "$w" "$m" "${v:-MISSING}"
        [ -n "$v" ] || echo "  WARNING: $w traced run did not report $m"
    done
done

echo "CI OK"
