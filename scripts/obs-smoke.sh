#!/usr/bin/env bash
# Observability smoke test: start a three-replica caesar-server cluster
# with the metrics endpoint enabled, drive real traffic, and assert that
# the live scrape exposes the key metric families — with a nonzero
# fast-decision count — that /statusz carries the group count, that
# /tracez holds a command's events, that /debugz serves the watchdog
# diagnosis with its commit-table and flight-recorder sections, that
# caesar-trace merges a cluster-wide timeline from the live /tracez
# endpoints, that the state auditor — /auditz, the in-process
# -audit-peers loop and the standalone caesar-audit checker — proves "no
# divergence" on the healthy cluster, that the contention profile —
# /workloadz and the caesar_contention_* families — names a deliberately
# hammered key as the top offender, that the client port refuses the
# diagnostic verbs it no longer serves, and that the admin RESIZE changes
# the live group count on every replica and refuses a count above the
# bound.
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
        -metrics-addr "127.0.0.1:918$id" \
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
    # A here-string, not a pipe: grep -q exits at the first match, and
    # under pipefail the echo it cut off would fail the check.
    if ! grep -q "^$fam" <<<"$metrics"; then
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

# /statusz reports the group count the client port's RESIZE changes.
echo "$statusz" | grep -q '"caesar_shards"' || {
    echo "/statusz missing caesar_shards:" >&2
    echo "$statusz" >&2
    exit 1
}

# /tracez on the node the writes went through holds c0.1's events.
tracez=$(curl -fsS 'http://127.0.0.1:9180/tracez?cmd=c0.1')
trace_events=$(echo "$tracez" | grep -c '"At":' || true)
if [ "$trace_events" -lt 1 ]; then
    echo "/tracez?cmd=c0.1 found no events:" >&2
    echo "$tracez" >&2
    exit 1
fi

# /debugz: the watchdog's on-demand bundle. The cluster is healthy, so
# the header must say so on every replica asked, the bundle must carry
# the commit-table section, and its flight-recorder section (the newest
# 64 events) must hold the node-start event.
for id in 0 1; do
    debugz=$(curl -fsS "http://127.0.0.1:918$id/debugz")
    echo "$debugz" | grep -q 'healthy' || {
        echo "/debugz on healthy replica $id did not report healthy:" >&2
        echo "$debugz" >&2
        exit 1
    }
    echo "$debugz" | grep -q '^-- commit table --' || {
        echo "/debugz on replica $id missing the commit-table section:" >&2
        echo "$debugz" >&2
        exit 1
    }
    echo "$debugz" | sed -n '/^-- flight recorder --/,/^-- /p' | grep -q 'node started' || {
        echo "/debugz flight-recorder section on replica $id missing the node-start event:" >&2
        echo "$debugz" >&2
        exit 1
    }
done

# The client port serves clients only: a diagnostic verb gets the usage
# line.
exec 3<>/dev/tcp/127.0.0.1/8480
printf 'STATS\n' >&3
IFS= read -r stats <&3
exec 3<&-
echo "$stats" | grep -q '^ERR usage' || { echo "STATS on the client port answered: $stats" >&2; exit 1; }

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

# A -nodes list that names no URL is a usage error (exit 2) for every
# CLI that takes one, not a collection that found nothing on zero nodes.
for cli in "caesar-trace -cmd c0.1" caesar-audit caesar-top; do
    code=0
    # shellcheck disable=SC2086 # $cli is the binary and its other flags
    "$workdir/"$cli -nodes , 2>"$workdir/empty-nodes.err" || code=$?
    if [ "$code" != 2 ] || ! grep -q -- '-nodes named no URLs' "$workdir/empty-nodes.err"; then
        echo "$cli -nodes , exited $code, want 2 and a refusal:" >&2
        cat "$workdir/empty-nodes.err" >&2
        exit 1
    fi
done

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
# Node 0 led the writes, so its FAST% column is a number: the decision
# counters are exported per group, and the console sums them.
fastcol=$(awk '$1 == "127.0.0.1:9180" {print $5}' <<<"$topout")
[[ "$fastcol" =~ ^[0-9]+(\.[0-9]+)?$ ]] || {
    echo "caesar-top shows node 0's FAST% as '$fastcol' after the writes, want a number:" >&2
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
# the new count and epoch through caesar_shards and caesar_routing_epoch.
exec 3<>/dev/tcp/127.0.0.1/8480
printf 'RESIZE 3\n' >&3
IFS= read -r resize <&3
exec 3<&-
[ "$resize" = "OK 3 shards" ] || { echo "RESIZE 3 answered: $resize" >&2; exit 1; }
# routing prints replica $1's group count and routing epoch from /metrics.
routing() {
    curl -fsS "http://127.0.0.1:918$1/metrics" |
        awk '/^caesar_shards /{s=$2} /^caesar_routing_epoch /{e=$2} END{print s, e}'
}
for id in 0 1 2; do
    resized=0
    for _ in $(seq 1 50); do
        read -r shards epoch < <(routing "$id")
        if [ "$shards" = 3 ] && [ "$epoch" = 1 ]; then
            resized=1
            break
        fi
        sleep 0.2
    done
    if [ "$resized" != 1 ]; then
        echo "replica $id did not reach 3 shards at epoch 1: caesar_shards $shards, caesar_routing_epoch $epoch" >&2
        cat "$workdir/server$id.log" >&2
        exit 1
    fi
done

# RESIZE above the most groups a node runs (4096) is refused with ERR
# before any fence is ordered, and every replica keeps serving at 3
# shards, epoch 1.
exec 3<>/dev/tcp/127.0.0.1/8481
printf 'RESIZE 4097\n' >&3
IFS= read -r refused <&3
exec 3<&-
case "$refused" in
    ERR*) ;;
    *) echo "RESIZE 4097 answered: $refused" >&2; exit 1 ;;
esac
for id in 0 1 2; do
    read -r shards epoch < <(routing "$id")
    [ "$shards" = 3 ] && [ "$epoch" = 1 ] || {
        echo "replica $id after RESIZE 4097: caesar_shards $shards, caesar_routing_epoch $epoch" >&2
        cat "$workdir/server$id.log" >&2
        exit 1
    }
done

echo "observability smoke OK: fast_decisions=$fast, $(echo "$traceout" | head -1), $(echo "$auditrun" | head -1), shards=$shards epoch=$epoch"
