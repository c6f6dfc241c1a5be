#!/usr/bin/env bash
# Distributed-sweep smoke test: boot a dispatch-only constable-server plus
# two constable-workers, run a sweep sharded across both under batched
# dispatch (the default) AND under per-cell dispatch (-batch 1), and diff
# both per-cell artifact streams against the same sweep on a
# single-process server. Needs: go, curl, jq. Runs in CI and locally
# (./ci/distributed_smoke.sh).
set -euo pipefail

SERVER_PORT=${SERVER_PORT:-18080}
CELL_PORT=${CELL_PORT:-18085}
LOCAL_PORT=${LOCAL_PORT:-18090}
W1_PORT=${W1_PORT:-18081}
W2_PORT=${W2_PORT:-18082}
W3_PORT=${W3_PORT:-18083}
W4_PORT=${W4_PORT:-18084}
FED_PORT=${FED_PORT:-18091}
MIXED_PORT=${MIXED_PORT:-18092}
ADMIT_PORT=${ADMIT_PORT:-18093}

workdir=$(mktemp -d)
bindir="$workdir/bin"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

say() { echo "--- $*"; }

wait_http() { # url attempts
  for _ in $(seq 1 "${2:-100}"); do
    curl -sf "$1" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "timed out waiting for $1" >&2
  return 1
}

SWEEP_BODY='{
  "workloads":  ["server-kvstore-00", "client-browser-00", "ispec17-intbranchy-00"],
  "mechanisms": ["baseline", "eves", "constable"],
  "instructions": 20000
}'

# Normalize a sweep NDJSON event stream into a stable per-cell artifact:
# cells keyed and sorted by (row,col), carrying status + the full result
# document. job ids, seq numbers and cache_hit flags legitimately differ
# between runs and are dropped.
normalize() {
  jq -cS 'select(.cell != null) | {row: .cell.row, col: .cell.col, status: .cell.status, result: .cell.result}' "$1" \
    | sort
}

run_sweep() { # base-url outfile [sweep-body]
  local base=$1 out=$2 body=${3:-$SWEEP_BODY}
  local id
  id=$(curl -sf "$base/v1/sweeps" -d "$body" | jq -r .id)
  curl -sfN "$base/v1/sweeps/$id/events?results=1" > "$out"
  # Every cell must be done.
  local bad
  bad=$(jq -s '[.[] | select(.cell != null and .cell.status != "done")] | length' "$out")
  [ "$bad" -eq 0 ] || { echo "sweep $id at $base had $bad non-done cells" >&2; return 1; }
}

say "building binaries"
go build -o "$bindir/" ./cmd/constable-server ./cmd/constable-worker

# boot_cluster name server-port server-extra-args w1-port w2-port
boot_cluster() {
  local tag=$1 port=$2 extra=$3 w1=$4 w2=$5
  # shellcheck disable=SC2086
  "$bindir/constable-server" -addr "127.0.0.1:$port" -workers -1 $extra \
    -data-dir "$workdir/$tag-data" &
  pids+=($!)
  wait_http "http://127.0.0.1:$port/healthz"
  "$bindir/constable-worker" -server "http://127.0.0.1:$port" -addr "127.0.0.1:$w1" -name "$tag-w1" -capacity 2 &
  pids+=($!)
  "$bindir/constable-worker" -server "http://127.0.0.1:$port" -addr "127.0.0.1:$w2" -name "$tag-w2" -capacity 2 &
  pids+=($!)
  for _ in $(seq 1 100); do
    n=$(curl -sf "http://127.0.0.1:$port/v1/workers" | jq length)
    [ "$n" -eq 2 ] && break
    sleep 0.1
  done
  [ "$(curl -sf "http://127.0.0.1:$port/v1/workers" | jq length)" -eq 2 ] || {
    echo "$tag workers never registered" >&2; exit 1; }
}

check_sharding() { # base-url tag
  curl -sf "$1/v1/workers" | jq -e '
    (map(.completed) | add) == 9 and all(.completed > 0)' >/dev/null || {
    echo "$2 sharding check failed:" >&2
    curl -s "$1/v1/workers" | jq . >&2
    exit 1; }
}

say "starting batched dispatch-only server (:$SERVER_PORT) + 2 workers"
boot_cluster batched "$SERVER_PORT" "" "$W1_PORT" "$W2_PORT"

say "running batched distributed sweep (9 cells across 2 workers)"
run_sweep "http://127.0.0.1:$SERVER_PORT" "$workdir/batched.ndjson"
check_sharding "http://127.0.0.1:$SERVER_PORT" batched

say "checking the batched server dispatched multi-cell chunks"
curl -sf "http://127.0.0.1:$SERVER_PORT/metrics" \
  | awk '$1 == "constable_batches_dispatched_total" && $2 > 0 {found=1} END {exit !found}' || {
  echo "constable_batches_dispatched_total is 0: batching never engaged" >&2
  curl -s "http://127.0.0.1:$SERVER_PORT/metrics" >&2
  exit 1; }

say "starting per-cell (-batch 1) dispatch-only server (:$CELL_PORT) + 2 workers"
boot_cluster percell "$CELL_PORT" "-batch 1" "$W3_PORT" "$W4_PORT"

say "running the same sweep per-cell"
run_sweep "http://127.0.0.1:$CELL_PORT" "$workdir/percell.ndjson"
check_sharding "http://127.0.0.1:$CELL_PORT" percell

say "running the same sweep on a single-process server (:$LOCAL_PORT)"
"$bindir/constable-server" -addr "127.0.0.1:$LOCAL_PORT" -workers 4 &
pids+=($!)
wait_http "http://127.0.0.1:$LOCAL_PORT/healthz"
run_sweep "http://127.0.0.1:$LOCAL_PORT" "$workdir/local.ndjson"

say "diffing batched and per-cell artifacts against the single-process golden output"
normalize "$workdir/batched.ndjson" > "$workdir/batched.norm"
normalize "$workdir/percell.ndjson" > "$workdir/percell.norm"
normalize "$workdir/local.ndjson"   > "$workdir/local.norm"
if ! diff -u "$workdir/local.norm" "$workdir/batched.norm"; then
  echo "batched sweep artifacts differ from single-process run" >&2
  exit 1
fi
if ! diff -u "$workdir/local.norm" "$workdir/percell.norm"; then
  echo "per-cell sweep artifacts differ from single-process run" >&2
  exit 1
fi

INTERPLAY_SWEEP_BODY='{
  "workloads":  ["server-kvstore-00", "ispec17-intbranchy-00"],
  "mechanisms": ["constable",
                 "constable,bpred=bimodal",
                 "constable,prefetch=none",
                 "constable,bpred=bimodal,prefetch=none"],
  "instructions": 20000
}'

say "running the mechanism-zoo interplay sweep (Constable x 2 bpred variants x prefetch on/off) across the 2-worker cluster"
run_sweep "http://127.0.0.1:$SERVER_PORT" "$workdir/interplay-dist.ndjson" "$INTERPLAY_SWEEP_BODY"

say "running the same interplay sweep on the single-process server"
run_sweep "http://127.0.0.1:$LOCAL_PORT" "$workdir/interplay-local.ndjson" "$INTERPLAY_SWEEP_BODY"

say "diffing interplay artifacts between distributed and single-process runs"
normalize "$workdir/interplay-dist.ndjson"  > "$workdir/interplay-dist.norm"
normalize "$workdir/interplay-local.ndjson" > "$workdir/interplay-local.norm"
if ! diff -u "$workdir/interplay-local.norm" "$workdir/interplay-dist.norm"; then
  echo "interplay sweep artifacts differ between distributed and single-process runs" >&2
  exit 1
fi
# Qualified names must round-trip into each cell's result identity.
jq -s -e 'map(select(.cell != null) | .cell.result.identity.mechanism)
    | sort | unique == ["constable",
                        "constable,bpred=bimodal",
                        "constable,bpred=bimodal,prefetch=none",
                        "constable,prefetch=none"]' \
  "$workdir/interplay-dist.ndjson" >/dev/null || {
  echo "interplay cells did not carry qualified mechanism identities:" >&2
  jq -c 'select(.cell != null) | .cell.result.identity' "$workdir/interplay-dist.ndjson" >&2
  exit 1; }

say "waiting for worker write-backs to land on the batched server's store"
wb_check() {
  curl -sf "http://127.0.0.1:$SERVER_PORT/metrics" \
    | awk '$1 == "constable_store_remote_writebacks_total" && $2 > 0 {found=1} END {exit !found}'
}
for _ in $(seq 1 100); do wb_check && break; sleep 0.1; done
wb_check || {
  echo "constable_store_remote_writebacks_total is 0: workers never wrote results back" >&2
  curl -s "http://127.0.0.1:$SERVER_PORT/metrics" | grep constable_store >&2
  exit 1; }

say "starting a worker-less federated server (:$FED_PORT) sharing against the batched server's result store"
"$bindir/constable-server" -addr "127.0.0.1:$FED_PORT" -workers -1 \
  -results-server "http://127.0.0.1:$SERVER_PORT" &
pids+=($!)
wait_http "http://127.0.0.1:$FED_PORT/healthz"

say "re-running the original sweep on the federated server (every cell must come from the shared store)"
run_sweep "http://127.0.0.1:$FED_PORT" "$workdir/federated.ndjson"

say "diffing federated artifacts against the single-process golden output"
normalize "$workdir/federated.ndjson" > "$workdir/federated.norm"
if ! diff -u "$workdir/local.norm" "$workdir/federated.norm"; then
  echo "federated sweep artifacts differ from single-process run" >&2
  exit 1
fi

say "checking dedup metrics: federated server executed zero cells, batched server served the hits"
curl -sf "http://127.0.0.1:$FED_PORT/metrics" | awk '
  $1 == "constable_jobs_executed_total"               {ex=$2; seen=1}
  $1 == "constable_jobs_submitted_total" && $2 >= 9   {subm=1}
  $1 == "constable_store_remote_hits_total" && $2 >= 9 {hits=1}
  END {exit !(seen && ex == 0 && subm && hits)}' || {
  echo "federated dedup metrics check failed (need executed == 0, submitted >= 9, remote hits >= 9):" >&2
  curl -s "http://127.0.0.1:$FED_PORT/metrics" >&2
  exit 1; }
curl -sf "http://127.0.0.1:$SERVER_PORT/metrics" \
  | awk '$1 == "constable_store_remote_hits_total" && $2 > 0 {found=1} END {exit !found}' || {
  echo "constable_store_remote_hits_total is 0 on the batched server: federation never consulted it" >&2
  curl -s "http://127.0.0.1:$SERVER_PORT/metrics" | grep constable_store >&2
  exit 1; }

say "starting a mixed-load server (:$MIXED_PORT) with fair-share weights and per-cell dispatch"
"$bindir/constable-server" -addr "127.0.0.1:$MIXED_PORT" -workers 2 -batch 1 \
  -queue-max 4 -class-weights interactive=8,batch=1 &
pids+=($!)
wait_http "http://127.0.0.1:$MIXED_PORT/healthz"

say "flooding the batch class with a 100-cell sweep"
MIXED_SWEEP_BODY=$(jq -n '{specs: [[range(0; 100) |
  {workload: "server-kvstore-00", mechanism: "constable", instructions: (200000 + .)}]]}')
mixed_sweep_id=$(curl -sf "http://127.0.0.1:$MIXED_PORT/v1/sweeps" -d "$MIXED_SWEEP_BODY" | jq -r .id)
curl -sf "http://127.0.0.1:$MIXED_PORT/metrics" \
  | awk -v m='constable_class_queue_depth{class="batch"}' \
    '$1 == m && $2 > 0 {found=1} END {exit !found}' || {
  echo "batch class queue depth is 0 right after submitting a 100-cell sweep" >&2
  curl -s "http://127.0.0.1:$MIXED_PORT/metrics" | grep constable_class >&2
  exit 1; }

say "interactive ?wait=1 runs must overtake the sweep backlog with bounded latency"
for i in 1 2 3; do
  start_ms=$(date +%s%3N)
  view=$(curl -sf --max-time 10 "http://127.0.0.1:$MIXED_PORT/v1/runs?wait=1" \
    -d "{\"workload\":\"client-browser-00\",\"mechanism\":\"constable\",\"instructions\":$((300000 + i))}")
  elapsed_ms=$(( $(date +%s%3N) - start_ms ))
  echo "$view" | jq -e '.status == "done" and .class == "interactive"' >/dev/null || {
    echo "interactive run $i did not finish as class interactive: $view" >&2; exit 1; }
  [ "$elapsed_ms" -lt 5000 ] || {
    echo "interactive run $i took ${elapsed_ms}ms under sweep load, want <5000ms" >&2; exit 1; }
  echo "    interactive run $i: ${elapsed_ms}ms"
done

say "waiting for the mixed sweep to drain cleanly"
curl -sfN "http://127.0.0.1:$MIXED_PORT/v1/sweeps/$mixed_sweep_id/events" >/dev/null
curl -sf "http://127.0.0.1:$MIXED_PORT/v1/sweeps/$mixed_sweep_id" \
  | jq -e '.completed_cells == .total_cells and .failed_cells == 0' >/dev/null || {
  echo "mixed sweep did not complete cleanly" >&2
  curl -s "http://127.0.0.1:$MIXED_PORT/v1/sweeps/$mixed_sweep_id" | jq . >&2
  exit 1; }

say "admission-control leg: saturating a parked server (:$ADMIT_PORT) with -queue-max 2"
"$bindir/constable-server" -addr "127.0.0.1:$ADMIT_PORT" -workers -1 -queue-max 2 &
pids+=($!)
wait_http "http://127.0.0.1:$ADMIT_PORT/healthz"
codes=""
for i in $(seq 1 5); do
  code=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$ADMIT_PORT/v1/runs" \
    -d "{\"workload\":\"server-kvstore-00\",\"instructions\":$((500000 + i))}")
  codes="$codes $code"
done
echo "    submit statuses:$codes"
echo "$codes" | grep -Eq '20[0-9]' || { echo "no submission was admitted: $codes" >&2; exit 1; }
echo "$codes" | grep -q 429 || { echo "no submission hit admission control: $codes" >&2; exit 1; }

say "a refused submission must carry a sane Retry-After header"
ra=$(curl -s -D - -o /dev/null "http://127.0.0.1:$ADMIT_PORT/v1/runs" \
  -d '{"workload":"server-kvstore-00","instructions":777777}' \
  | awk -F': ' 'tolower($1) == "retry-after" {print $2}' | tr -d '\r')
[ -n "$ra" ] && [ "$ra" -ge 1 ] && [ "$ra" -le 60 ] || {
  echo "Retry-After header = '$ra', want integer seconds in [1, 60]" >&2; exit 1; }

say "sweeps stay admitted on the saturated server (batch watermark is 64x)"
curl -sf "http://127.0.0.1:$ADMIT_PORT/v1/sweeps" -d "$SWEEP_BODY" | jq -e '.id' >/dev/null || {
  echo "sweep was refused on a server whose interactive class is full" >&2; exit 1; }

say "checking admission metrics on the parked server"
curl -sf "http://127.0.0.1:$ADMIT_PORT/metrics" \
  | awk '$1 == "constable_admission_rejected_total" && $2 > 0 {found=1} END {exit !found}' || {
  echo "constable_admission_rejected_total is 0 after forced 429s" >&2
  curl -s "http://127.0.0.1:$ADMIT_PORT/metrics" | grep -E 'admission|class' >&2
  exit 1; }

say "distributed smoke OK: 9/9 cells in both modes, all workers used, chunks dispatched, interplay sweep (qualified mechanisms) byte-identical, federated re-sweep executed zero cells, interactive latency bounded under a 100-cell sweep flood, admission control returned 429 + Retry-After, artifacts byte-identical"
