#!/usr/bin/env bash
# End-to-end smoke for cmd/deepfleetd: boot the daemon on a random port with
# a tiny queue and a 1 req/s tenant budget, deploy a testbed app and assert a
# placement, force a 429 with Retry-After, scrape the per-tenant HTTP
# counters, the spec-table counters, the decode-path and the encode-path
# counters off /metrics, check that the door's accepted count equals the
# fleet's submitted and answered counts, then SIGTERM and require a clean
# bounded drain.
#
# Deterministic by construction: the second deploy trades on an empty token
# bucket (rate=1 burst=1), so the 429 does not depend on timing. The
# queue-full and quota 429 paths are pinned by internal/fleetd's Go tests;
# this script proves the same contract end to end over a real socket.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'kill -9 "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/deepfleetd" ./cmd/deepfleetd

log="$workdir/daemon.log"
# Create the log before the daemon starts: the polls below read it at once,
# and a sed on a missing file would end the script under set -e.
: >"$log"
"$workdir/deepfleetd" -addr 127.0.0.1:0 -admin-addr 127.0.0.1:0 -workers 1 -queue 1 \
  -rate 1 -burst 1 -drain-timeout 20s >"$log" 2>&1 &
pid=$!

# The daemon prints "deepfleetd: listening on HOST:PORT" (format pinned in
# cmd/deepfleetd/main.go) — poll for it to learn the random port.
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^deepfleetd: listening on //p' "$log" | head -1)
  [ -n "$addr" ] && break
  kill -0 "$pid" 2>/dev/null || { echo "daemon died at startup:" >&2; cat "$log" >&2; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] || { echo "daemon never printed its address" >&2; cat "$log" >&2; exit 1; }
base="http://$addr"
echo "smoke: daemon at $base"

admin_addr=""
for _ in $(seq 1 100); do
  admin_addr=$(sed -n 's/^deepfleetd: admin on //p' "$log" | head -1)
  [ -n "$admin_addr" ] && break
  sleep 0.1
done
[ -n "$admin_addr" ] || { echo "daemon never printed its admin address" >&2; cat "$log" >&2; exit 1; }
admin="http://$admin_addr"
echo "smoke: admin at $admin"

curl -fsS "$base/readyz" >/dev/null
curl -fsS "$base/healthz" >/dev/null

# The operator surface must be absent from the public port and live on the
# admin one: clients cannot drain, churn, or profile-pin the daemon.
for path in /v1/drain /v1/churn /debug/pprof/ /debug/slow /debug/vars; do
  status=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "$base$path")
  [ "$status" = 404 ] || { echo "public $path returned $status, want 404" >&2; exit 1; }
done
curl -fsS "$admin/debug/vars" >/dev/null
curl -fsS "$admin/debug/slow" >/dev/null
echo "smoke: admin endpoints split off the public port"

deploy="$workdir/deploy.json"
cat >"$deploy" <<'EOF'
{
  "tenant": "smoke",
  "app": {
    "version": 1,
    "name": "smoke-pipeline",
    "microservices": [
      {"name": "ingest", "image_size_bytes": 50000000, "cpu_mi": 500, "external_input_bytes": 1000000},
      {"name": "infer", "image_size_bytes": 80000000, "cpu_mi": 800}
    ],
    "dataflows": [
      {"from": "ingest", "to": "infer", "size_bytes": 500000}
    ]
  }
}
EOF

# First deploy: the token bucket is full, so this must succeed and return a
# placement for every microservice.
resp=$(curl -fsS -X POST "$base/v1/deploy" -d @"$deploy")
echo "smoke: deploy -> $resp"
for ms in ingest infer; do
  device=$(echo "$resp" | jq -re ".placement[\"$ms\"].device")
  [ -n "$device" ] || { echo "no placement for $ms" >&2; exit 1; }
done

# Second deploy, immediately: the bucket is empty (rate=1 burst=1), so the
# daemon must shed with 429 rate_limited and a Retry-After hint.
headers="$workdir/reject.headers"
status=$(curl -sS -o "$workdir/reject.json" -D "$headers" -w '%{http_code}' \
  -X POST "$base/v1/deploy" -d @"$deploy")
[ "$status" = 429 ] || { echo "second deploy returned $status, want 429" >&2; cat "$workdir/reject.json" >&2; exit 1; }
code=$(jq -re '.error.code' <"$workdir/reject.json")
[ "$code" = rate_limited ] || { echo "429 code $code, want rate_limited" >&2; exit 1; }
grep -qi '^retry-after: [0-9]' "$headers" || { echo "429 without Retry-After:" >&2; cat "$headers" >&2; exit 1; }
echo "smoke: second deploy shed with 429 rate_limited, Retry-After present"

# The per-tenant HTTP counters must be live on /metrics.
metrics=$(curl -fsS "$base/metrics")
echo "$metrics" | grep -q 'fleetd_http_accepted{tenant="smoke"} 1' || {
  echo "missing accepted counter for tenant smoke:" >&2
  echo "$metrics" | grep fleetd_http >&2 || true
  exit 1
}
echo "$metrics" | grep -q 'fleetd_http_rejected{tenant="smoke"} 1' || {
  echo "missing rejected counter for tenant smoke:" >&2
  echo "$metrics" | grep fleetd_http >&2 || true
  exit 1
}
echo "smoke: per-tenant counters present on /metrics"

# The spec table interns app specs by their body bytes, before the limiter
# runs: the two posts above (one served, one shed) were first sight and
# admission. A third post of the same app bytes — under a fresh tenant, whose
# bucket is full — is the first hit. Exact counts, so this must stay ahead of
# the batch section, which posts a differently formatted copy of the app.
sed 's/"tenant": "smoke"/"tenant": "smoke-intern"/' "$deploy" >"$workdir/deploy3.json"
curl -fsS -X POST "$base/v1/deploy" -d @"$workdir/deploy3.json" >/dev/null
metrics=$(curl -fsS "$base/metrics")
for want in 'fleetd_spec_intern_misses 2' 'fleetd_spec_intern_admitted 1' \
  'fleetd_spec_intern_hits 1' 'fleetd_spec_intern_evicted 0' \
  'fleetd_spec_intern_entries 1'; do
  echo "$metrics" | grep -qx "$want" || {
    echo "spec table: want '$want', got:" >&2
    echo "$metrics" | grep fleetd_spec_intern >&2 || true
    exit 1
  }
done
echo "$metrics" | grep -q '^fleetd_spec_intern_bytes [1-9]' || {
  echo "spec table retains no bytes after an admission:" >&2
  echo "$metrics" | grep fleetd_spec_intern >&2 || true
  exit 1
}
echo "smoke: spec table saw 2 misses, 1 admission, 1 hit and holds 1 entry for one body posted three times"

# All three posts were canonical JSON (indented, but that is whitespace), so
# the scanner decoded every one and encoding/json never ran on the accept
# path. The 429 counts too: decoding precedes the limiter.
for want in 'fleetd_decode_fast_total 3' 'fleetd_decode_fallback_total 0'; do
  echo "$metrics" | grep -qx "$want" || {
    echo "decode path: want '$want', got:" >&2
    echo "$metrics" | grep fleetd_decode >&2 || true
    exit 1
  }
done
echo "smoke: three canonical posts decoded on the fast path, none fell back"

# The same app once more, under a fresh tenant whose bucket is full. The
# first deploy missed the placement cache and the third was its entry's
# first hit: both encoded their answer's tail (placement, makespan, energy),
# and the first hit stored it in the entry. This fourth post is answered
# with the stored tail.
sed 's/"tenant": "smoke"/"tenant": "smoke-encode"/' "$deploy" >"$workdir/deploy4.json"
repeat=$(curl -fsS -X POST "$base/v1/deploy" -d @"$workdir/deploy4.json")
[ "$(echo "$repeat" | jq -c '[.placement, .makespan_s, .total_energy_j]')" = \
  "$(echo "$resp" | jq -c '[.placement, .makespan_s, .total_energy_j]')" ] || {
  echo "stored answer differs from the first: $repeat" >&2
  exit 1
}
metrics=$(curl -fsS "$base/metrics")
for want in 'fleetd_encode_fresh_total 2' 'fleetd_encode_stored_total 1'; do
  echo "$metrics" | grep -qx "$want" || {
    echo "encode path: want '$want', got:" >&2
    echo "$metrics" | grep fleetd_encode >&2 || true
    exit 1
  }
done
echo "smoke: a repeated deploy answered with its entry's stored tail"

# Batched admission, on a fresh tenant so the exact-count greps above stay
# untouched. A 2-item batch needs 2 tokens against burst=1, so it can NEVER
# pass — a deterministic whole-batch 429 rate_limited regardless of timing —
# and because a rejected batch consumes nothing, the 1-item batch right after
# still finds the tenant's single token and must deploy.
batch2="$workdir/batch2.json"
jq '{tenant: "smoke-batch", items: [{app: .app}, {app: .app}]}' "$deploy" >"$batch2"
bheaders="$workdir/batch_reject.headers"
status=$(curl -sS -o "$workdir/batch_reject.json" -D "$bheaders" -w '%{http_code}' \
  -X POST "$base/v1/deploy:batch" -d @"$batch2")
[ "$status" = 429 ] || { echo "2-item batch returned $status, want 429" >&2; cat "$workdir/batch_reject.json" >&2; exit 1; }
code=$(jq -re '.error.code' <"$workdir/batch_reject.json")
[ "$code" = rate_limited ] || { echo "batch 429 code $code, want rate_limited" >&2; exit 1; }
grep -qi '^retry-after: [0-9]' "$bheaders" || { echo "batch 429 without Retry-After:" >&2; cat "$bheaders" >&2; exit 1; }

batch1="$workdir/batch1.json"
jq '{tenant: "smoke-batch", items: [{app: .app}]}' "$deploy" >"$batch1"
bresp=$(curl -fsS -X POST "$base/v1/deploy:batch" -d @"$batch1")
echo "smoke: batch deploy -> $bresp"
count=$(echo "$bresp" | jq -re '.results | length')
[ "$count" = 1 ] || { echo "batch returned $count results, want 1" >&2; exit 1; }
idx=$(echo "$bresp" | jq -re '.results[0].index')
[ "$idx" = 0 ] || { echo "batch result index $idx, want 0" >&2; exit 1; }
for ms in ingest infer; do
  device=$(echo "$bresp" | jq -re ".results[0].deploy.placement[\"$ms\"].device")
  [ -n "$device" ] || { echo "batch result has no placement for $ms" >&2; exit 1; }
done
echo "smoke: oversized batch shed atomically, 1-item batch deployed per-item"

# Conservation, with the door idle: the door counts a request accepted
# exactly when the fleet admits it, so the per-tenant accepted counters sum
# to the fleet's submitted count, and every submitted request has been
# answered, completed or failed.
metrics=$(curl -fsS "$base/metrics")
accepted=$(echo "$metrics" | awk '/^fleetd_http_accepted\{/ {s += $2} END {printf "%d", s}')
gauge() { echo "$metrics" | awk -v name="$1" '$1 == name {printf "%d", $2}'; }
submitted=$(gauge fleet_requests_submitted)
completed=$(gauge fleet_requests_completed)
failed=$(gauge fleet_requests_failed)
[ -n "$submitted" ] && [ -n "$completed" ] && [ -n "$failed" ] &&
  [ "$accepted" = "$submitted" ] && [ "$((completed + failed))" = "$submitted" ] || {
  echo "conservation: accepted $accepted, submitted '$submitted', completed '$completed' + failed '$failed'" >&2
  echo "$metrics" | grep -E '^(fleetd_http_accepted|fleet_requests_)' >&2 || true
  exit 1
}
echo "smoke: door accepted $accepted = fleet submitted $submitted = completed $completed + failed $failed"

# SIGTERM must drain cleanly well inside -drain-timeout: readiness flips,
# accepted work completes, the process exits 0 and says so.
kill -TERM "$pid"
for _ in $(seq 1 200); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$pid" 2>/dev/null; then
  echo "daemon still running 20s after SIGTERM" >&2
  cat "$log" >&2
  exit 1
fi
set +e
wait "$pid"
exit_code=$?
set -e
[ "$exit_code" = 0 ] || { echo "daemon exited $exit_code after SIGTERM" >&2; cat "$log" >&2; exit 1; }
grep -q 'drained cleanly' "$log" || { echo "no clean-drain line in log:" >&2; cat "$log" >&2; exit 1; }
echo "smoke: SIGTERM drained cleanly"
echo "smoke: OK"
