#!/usr/bin/env bash
# Observability smoke test: start a three-replica caesar-server cluster
# with the metrics endpoint enabled, drive real traffic, and assert that
# the live scrape exposes the key metric families — with a nonzero
# fast-decision count — that the STATS/TRACE/DIAGNOSE/FLIGHT/AUDIT
# admin commands answer, that /debugz serves the watchdog diagnosis,
# that caesar-trace merges a cluster-wide timeline from the live
# /tracez endpoints, and that the state auditor — /auditz, the
# in-process -audit-peers loop and the standalone caesar-audit checker
# — proves "no divergence" on the healthy cluster, and that the
# contention profile — /workloadz, the WORKLOAD admin command and the
# caesar_contention_* families — names a deliberately hammered key as
# the top offender, and that the admin RESIZE changes the live group
# count on every replica.
#
# Run from the repository root: ./scripts/obs-smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
cleanup() {
    kill $(jobs -p) 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/caesar-server" ./cmd/caesar-server
go build -o "$workdir/caesar-client" ./cmd/caesar-client
go build -o "$workdir/caesar-trace" ./cmd/caesar-trace
go build -o "$workdir/caesar-audit" ./cmd/caesar-audit
go build -o "$workdir/caesar-top" ./cmd/caesar-top

peers=127.0.0.1:7480,127.0.0.1:7481,127.0.0.1:7482
audit_peers=http://127.0.0.1:9180,http://127.0.0.1:9181,http://127.0.0.1:9182
for id in 0 1 2; do
    "$workdir/caesar-server" -id "$id" -peers "$peers" \
        -client "127.0.0.1:848$id" -shards 2 \
        -metrics-addr "127.0.0.1:918$id" -trace-buffer 4096 \
        -audit-peers "$audit_peers" -audit-interval 500ms \
        >"$workdir/server$id.log" 2>&1 &
done

# Wait for every replica's readiness probe.
for id in 0 1 2; do
    ok=0
    for _ in $(seq 1 100); do
        if curl -fsS "http://127.0.0.1:918$id/readyz" >/dev/null 2>&1; then
            ok=1
            break
        fi
        sleep 0.2
    done
    if [ "$ok" != 1 ]; then
        echo "replica $id never became ready" >&2
        cat "$workdir/server$id.log" >&2
        exit 1
    fi
done

# Drive traffic: consensus writes through node 0, a local read elsewhere.
for i in $(seq 1 30); do
    "$workdir/caesar-client" -server 127.0.0.1:8480 put "key$i" "val$i" >/dev/null
done
"$workdir/caesar-client" -server 127.0.0.1:8481 get key7 | grep -q "OK val7"

# Hammer one key from all three nodes concurrently so the contention
# profile has an unambiguous top offender (and real conflicts to
# attribute).
hammer_pids=()
for id in 0 1 2; do
    (
        for i in $(seq 1 15); do
            "$workdir/caesar-client" -server "127.0.0.1:848$id" put hotkey "v$id.$i" >/dev/null
        done
    ) &
    hammer_pids+=("$!")
done
wait "${hammer_pids[@]}"

health=$(curl -fsS http://127.0.0.1:9180/healthz)
echo "$health" | grep -q ok
metrics=$(curl -fsS http://127.0.0.1:9180/metrics)

for fam in \
    caesar_proposals_total \
    caesar_fast_decisions_total \
    caesar_slow_decisions_total \
    caesar_wait_condition_seconds \
    caesar_purge_fence_keys \
    caesar_latency_seconds_bucket \
    caesar_wal_fsyncs_total \
    caesar_wal_fsync_seconds \
    caesar_xshard_held \
    caesar_routing_epoch \
    caesar_shards \
    caesar_read_fence_parks_total \
    caesar_read_retries_total \
    caesar_store_keys \
    caesar_store_retained_versions \
    caesar_net_sent_bytes_total \
    caesar_net_recv_msgs_total \
    caesar_audit_writes_total \
    caesar_audit_groups \
    caesar_audit_divergence_total \
    caesar_contention_losses_total \
    caesar_hotkey_events; do
    if ! echo "$metrics" | grep -q "^$fam"; then
        echo "scrape missing family $fam:" >&2
        echo "$metrics" >&2
        exit 1
    fi
done

fast=$(echo "$metrics" | awk '/^caesar_fast_decisions_total/{s+=$2} END{print s+0}')
if [ "$fast" -le 0 ]; then
    echo "fast decisions = $fast after 30 writes, want > 0" >&2
    echo "$metrics" >&2
    exit 1
fi

# /statusz carries the same families as JSON.
statusz=$(curl -fsS http://127.0.0.1:9180/statusz)
echo "$statusz" | grep -q '"caesar_fast_decisions_total"'
echo "$statusz" | grep -q '"caesar_store_retained_versions"'
echo "$statusz" | grep -q '"caesar_read_retries_total"'
echo "$statusz" | grep -q '"caesar_purge_fence_keys"'

# Admin commands over the client port.
exec 3<>/dev/tcp/127.0.0.1/8480
printf 'STATS\n' >&3
IFS= read -r stats <&3
echo "$stats" | grep -q '^OK shards=' || { echo "STATS answered: $stats" >&2; exit 1; }
printf 'TRACE c0.1\n' >&3
trace_ok=""
while IFS= read -r line <&3; do
    case "$line" in
    OK\ *) trace_ok=$line; break ;;
    ERR*) echo "TRACE answered: $line" >&2; exit 1 ;;
    esac
done
exec 3<&-
echo "$trace_ok" | grep -Eq '^OK [1-9][0-9]* events' || {
    echo "TRACE c0.1 found no events: $trace_ok" >&2
    exit 1
}

# DIAGNOSE: the watchdog's on-demand bundle over the admin port. The
# cluster is healthy, so the header must say so and still carry the
# commit-table section.
exec 3<>/dev/tcp/127.0.0.1/8480
printf 'DIAGNOSE\n' >&3
diagnose=""
while IFS= read -r line <&3; do
    case "$line" in
    OK*) break ;;
    ERR*) echo "DIAGNOSE answered: $line" >&2; exit 1 ;;
    *) diagnose="$diagnose$line"$'\n' ;;
    esac
done
echo "$diagnose" | grep -q 'healthy' || {
    echo "DIAGNOSE on a healthy cluster did not report healthy:" >&2
    echo "$diagnose" >&2
    exit 1
}
echo "$diagnose" | grep -q 'commit table' || {
    echo "DIAGNOSE bundle missing the commit-table section:" >&2
    echo "$diagnose" >&2
    exit 1
}

# FLIGHT: the structured journal must hold the node-start event.
printf 'FLIGHT 8\n' >&3
flight_out=""
while IFS= read -r line <&3; do
    case "$line" in
    OK*) break ;;
    ERR*) echo "FLIGHT answered: $line" >&2; exit 1 ;;
    *) flight_out="$flight_out$line"$'\n' ;;
    esac
done
exec 3<&-
echo "$flight_out" | grep -q 'node started' || {
    echo "FLIGHT journal missing the node-start event:" >&2
    echo "$flight_out" >&2
    exit 1
}

# /debugz serves the same watchdog diagnosis over the metrics listener.
debugz=$(curl -fsS http://127.0.0.1:9181/debugz)
echo "$debugz" | grep -q 'healthy' || {
    echo "/debugz on a healthy replica did not report healthy:" >&2
    echo "$debugz" >&2
    exit 1
}

# caesar-trace: collect c0.1 from every replica's /tracez and merge the
# views into one cluster timeline — it must span at least two nodes.
traceout=$("$workdir/caesar-trace" \
    -nodes http://127.0.0.1:9180,http://127.0.0.1:9181,http://127.0.0.1:9182 \
    -cmd c0.1)
echo "$traceout" | head -1 | grep -Eq '^== c0\.1: [1-9][0-9]* events from [2-3]/3 nodes' || {
    echo "caesar-trace did not merge a multi-node timeline:" >&2
    echo "$traceout" >&2
    exit 1
}
echo "$traceout" | grep -q 'propose' || {
    echo "caesar-trace timeline missing the propose milestone:" >&2
    echo "$traceout" >&2
    exit 1
}

# /auditz: one node's audit report as JSON — per-group digest quotes
# with the digests rendered as hex strings, not JSON numbers.
auditz=$(curl -fsS http://127.0.0.1:9180/auditz)
echo "$auditz" | grep -q '"digest"' || {
    echo "/auditz missing digest quotes:" >&2
    echo "$auditz" >&2
    exit 1
}
echo "$auditz" | grep -q '"frontier"' || {
    echo "/auditz missing frontier:" >&2
    echo "$auditz" >&2
    exit 1
}

# AUDIT admin command: per-group digest lines over the client port.
exec 3<>/dev/tcp/127.0.0.1/8481
printf 'AUDIT\n' >&3
audit_out=""
while IFS= read -r line <&3; do
    case "$line" in
    OK\ *) audit_out="$audit_out$line"$'\n'; break ;;
    ERR*) echo "AUDIT answered: $line" >&2; exit 1 ;;
    *) audit_out="$audit_out$line"$'\n' ;;
    esac
done
exec 3<&-
echo "$audit_out" | grep -q '^group=.*digest=' || {
    echo "AUDIT missing per-group digest lines:" >&2
    echo "$audit_out" >&2
    exit 1
}
echo "$audit_out" | grep -q 'divergences=0' || {
    echo "AUDIT on a healthy cluster reports divergences:" >&2
    echo "$audit_out" >&2
    exit 1
}

# caesar-audit: the standalone cross-replica checker must gather all
# three live replicas and prove a non-vacuous "no divergence".
auditrun=$("$workdir/caesar-audit" -nodes "$audit_peers")
echo "$auditrun" | grep -q '^no divergence: ' || {
    echo "caesar-audit did not prove no-divergence:" >&2
    echo "$auditrun" >&2
    exit 1
}
echo "$auditrun" | grep -q 'across 3 nodes' || {
    echo "caesar-audit gathered fewer than 3 nodes:" >&2
    echo "$auditrun" >&2
    exit 1
}

# The in-process -audit-peers loop has been running since startup on
# every replica: no replica may have counted a divergence.
for id in 0 1 2; do
    div=$(curl -fsS "http://127.0.0.1:918$id/metrics" |
        awk '/^caesar_audit_divergence_total/{s+=$2} END{print s+0}')
    if [ "$div" != 0 ]; then
        echo "replica $id background auditor counted $div divergences on a healthy cluster" >&2
        cat "$workdir/server$id.log" >&2
        exit 1
    fi
done

# /workloadz: the contention profile as JSON — the hammered key must
# be the top offender (top_keys is sorted by events, so it leads the
# array), and the per-group loss decomposition must be present.
workloadz=$(curl -fsS 'http://127.0.0.1:9180/workloadz?top=5')
first_json_key=$(echo "$workloadz" | grep '"key":' | head -1)
echo "$first_json_key" | grep -q '"hotkey"' || {
    echo "/workloadz top offender is not the hammered key: $first_json_key" >&2
    echo "$workloadz" >&2
    exit 1
}
echo "$workloadz" | grep -q '"groups":' || {
    echo "/workloadz missing the per-group loss decomposition:" >&2
    echo "$workloadz" >&2
    exit 1
}

# WORKLOAD admin command: same profile as text over the client port —
# loss header, per-group lines, hammered key as the first key line.
exec 3<>/dev/tcp/127.0.0.1/8480
printf 'WORKLOAD 5\n' >&3
workload_out=""
while IFS= read -r line <&3; do
    case "$line" in
    OK\ *) workload_out="$workload_out$line"$'\n'; break ;;
    ERR*) echo "WORKLOAD answered: $line" >&2; exit 1 ;;
    *) workload_out="$workload_out$line"$'\n' ;;
    esac
done
exec 3<&-
echo "$workload_out" | grep -q '^# fast-path losses: nack=' || {
    echo "WORKLOAD missing the loss header:" >&2
    echo "$workload_out" >&2
    exit 1
}
first_key=$(echo "$workload_out" | grep '^key=' | head -1)
echo "$first_key" | grep -q '^key=hotkey ' || {
    echo "WORKLOAD top offender is not the hammered key: $first_key" >&2
    echo "$workload_out" >&2
    exit 1
}

# caesar-top: one frame of the live console, audit column clean.
topout=$("$workdir/caesar-top" -nodes "$audit_peers" -once)
echo "$topout" | grep -q 'NODE' || {
    echo "caesar-top printed no table:" >&2
    echo "$topout" >&2
    exit 1
}
echo "$topout" | grep -q 'DIVERGED' && {
    echo "caesar-top shows divergence on a healthy cluster:" >&2
    echo "$topout" >&2
    exit 1
}
echo "$topout" | grep -A2 'HOT KEY' | grep -q 'hotkey' || {
    echo "caesar-top hot-keys panel missing the hammered key:" >&2
    echo "$topout" >&2
    exit 1
}

# RESIZE: the admin port changes the live deployment's group count,
# 2 -> 3. The replica answers once its own transition completed; every
# replica — the others complete as the fences deliver — must then report
# the new count and epoch through STATS and caesar_routing_epoch.
exec 3<>/dev/tcp/127.0.0.1/8480
printf 'RESIZE 3\n' >&3
IFS= read -r resize <&3
exec 3<&-
[ "$resize" = "OK 3 shards" ] || { echo "RESIZE 3 answered: $resize" >&2; exit 1; }
for id in 0 1 2; do
    resized=0
    for _ in $(seq 1 50); do
        exec 3<>/dev/tcp/127.0.0.1/848$id
        printf 'STATS\n' >&3
        IFS= read -r stats_after <&3
        exec 3<&-
        epoch=$(curl -fsS "http://127.0.0.1:918$id/metrics" | awk '/^caesar_routing_epoch /{print $2}')
        if echo "$stats_after" | grep -q '^OK shards=3 epoch=1 ' && [ "$epoch" = 1 ]; then
            resized=1
            break
        fi
        sleep 0.2
    done
    if [ "$resized" != 1 ]; then
        echo "replica $id did not reach 3 shards at epoch 1: STATS $stats_after, caesar_routing_epoch $epoch" >&2
        cat "$workdir/server$id.log" >&2
        exit 1
    fi
done

echo "observability smoke OK: fast_decisions=$fast, $(echo "$traceout" | head -1), $(echo "$auditrun" | head -1), $(echo "$stats" | cut -c1-120)"
