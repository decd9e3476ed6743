#!/usr/bin/env bash
# fleetbench: multi-process policyd fleet harness.
#
# Boots 2 cmd/policyd replicas and a cmd/policygw gateway on loopback,
# then drives them with concurrent cmd/loadgen processes on both wires
# (JSON batch API and the binary frame protocol) while the replicas
# hot-reload through corpus snapshots. Two modes (throughput and latency
# of the fleet are measured by bench/, in process):
#
#   scripts/fleetbench.sh smoke         CI-sized gate: phase A diffs a
#                                       deterministic static-fleet run
#                                       against the checked-in golden
#                                       dir; phase B pushes load through
#                                       a live snapshot rollover and
#                                       checks QPS, zero decision
#                                       errors, and the fleet metric
#                                       families (and that the retired
#                                       repin counter is gone)
#   scripts/fleetbench.sh golden DIR    regenerate the golden run dir
#                                       (same parameters as phase A)
#
# Every decision error aborts the run: loadgen exits non-zero on any
# failed decide call, and this script fails on any child failure.
set -euo pipefail

cd "$(dirname "$0")/.."

# Fixed loopback ports. The golden run's spec hash covers the target
# address, so smoke and golden must agree on these.
R1_JSON=18561 R1_FRAME=18562
R2_JSON=18571 R2_FRAME=18572
GW_JSON=19561 GW_FRAME=19562 GW_METRICS=19564
GW="127.0.0.1:$GW_JSON"
REPLICAS="127.0.0.1:$R1_JSON:$R1_FRAME,127.0.0.1:$R2_JSON:$R2_FRAME"

MODE="${1:-smoke}"
BIN="$(mktemp -d)"
WORK="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$BIN" "$WORK"
}
trap cleanup EXIT

log() { echo "fleetbench: $*" >&2; }

log "building binaries"
go build -o "$BIN/" ./cmd/policyd ./cmd/policygw ./cmd/loadgen ./cmd/rundiff

wait_port() { # host:port
  for _ in $(seq 1 120); do
    if curl -fsS --max-time 2 "http://$1/" -o /dev/null 2>/dev/null; then return 0; fi
    # Any HTTP answer (404 included) means the listener is up.
    code=$(curl -s --max-time 2 -o /dev/null -w '%{http_code}' "http://$1/" 2>/dev/null || true)
    [ "$code" != "000" ] && [ -n "$code" ] && return 0
    sleep 0.25
  done
  log "timed out waiting for $1"
  return 1
}

wait_fleet_settled() { # gateway /v1/stats must show both replicas on one version
  for _ in $(seq 1 120); do
    if curl -fsS --max-time 2 "http://$GW/v1/stats" 2>/dev/null | grep -q '"skew": *0'; then
      return 0
    fi
    sleep 0.25
  done
  log "fleet never settled on one version"
  curl -fsS "http://$GW/v1/stats" >&2 || true
  return 1
}

start_fleet() { # scale snap advance rate
  local scale=$1 snap=$2 advance=$3 rate=$4
  "$BIN/policyd" -addr 127.0.0.1:$R1_JSON -frame-addr 127.0.0.1:$R1_FRAME \
    -scale "$scale" -snap "$snap" -advance "$advance" &
  PIDS+=($!)
  "$BIN/policyd" -addr 127.0.0.1:$R2_JSON -frame-addr 127.0.0.1:$R2_FRAME \
    -scale "$scale" -snap "$snap" -advance "$advance" &
  PIDS+=($!)
  wait_port 127.0.0.1:$R1_JSON
  wait_port 127.0.0.1:$R2_JSON
  "$BIN/policygw" -addr 127.0.0.1:$GW_JSON -frame-addr 127.0.0.1:$GW_FRAME \
    -metrics-addr 127.0.0.1:$GW_METRICS \
    -replicas "$REPLICAS" -rate "$rate" &
  PIDS+=($!)
  wait_port "$GW"
  wait_fleet_settled
}

stop_fleet() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  PIDS=()
}

# qps_of FILE NAME -> decisions_per_sec of one benchmark entry
qps_of() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
print(int(snap["benchmarks"][sys.argv[2]]["metrics"]["decisions_per_sec"]))
EOF
}

# check_complete FILE NAME: every issued decision got a verdict
check_complete() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))["benchmarks"][sys.argv[2]]
m = r["metrics"]
decided = int(m["allow"] + m["deny"] + m["block"])
if decided != r["iterations"]:
    sys.exit(f"{sys.argv[2]}: {decided} decided of {r['iterations']} issued")
print(f"{sys.argv[2]}: {r['iterations']} issued, all decided "
      f"(p99 {m.get('p99_ns', 0)/1e6:.2f}ms, rollovers {int(m.get('snapshot_rollovers', 0))})")
EOF
}

# Deterministic phase-A / golden parameters. Static pinned snapshot,
# accounting-only limiter: the decision mix and the per-tenant quota
# ledger are then pure functions of the seeded workload.
GOLDEN_SCALE=0.01 GOLDEN_SNAP=14 GOLDEN_N=20000 GOLDEN_BATCH=16 GOLDEN_CONC=2

run_golden_shaped() { # storedir
  "$BIN/loadgen" -target "http://$GW" -wire json -scale $GOLDEN_SCALE \
    -n $GOLDEN_N -batch $GOLDEN_BATCH -concurrency $GOLDEN_CONC \
    -name fleet-golden -store "$1"
}

case "$MODE" in
smoke)
  # Phase A: deterministic static fleet, diffed against the golden dir.
  log "phase A: static fleet vs golden run dir"
  start_fleet $GOLDEN_SCALE $GOLDEN_SNAP 0 0
  run_golden_shaped "$WORK/.runs"
  "$BIN/rundiff" -store "$WORK/.runs" diff cmd/rundiff/testdata/golden-fleet latest \
    -fail-on mix,quotas
  stop_fleet

  # Phase B: rollover fleet under concurrent two-wire load.
  SCALE="${SCALE:-0.02}" SNAP=5 ADVANCE="${ADVANCE:-1s}"
  N="${N:-500000}" BATCH=64 CONC=4 MIN_AGG_QPS="${MIN_AGG_QPS:-40000}"
  log "phase B: rollover fleet (advance $ADVANCE, n=$N x2 processes)"
  start_fleet "$SCALE" "$SNAP" "$ADVANCE" 0
  "$BIN/loadgen" -target "http://$GW" -wire json -scale "$SCALE" \
    -n "$N" -batch $BATCH -concurrency $CONC \
    -name fleet_smoke_json -o "$WORK/sj.json" &
  LG1=$!
  "$BIN/loadgen" -target "127.0.0.1:$GW_FRAME" -wire binary -scale "$SCALE" \
    -n "$N" -batch $BATCH -concurrency $CONC \
    -name fleet_smoke_frame -o "$WORK/sf.json" &
  LG2=$!
  wait $LG1; wait $LG2
  check_complete "$WORK/sj.json" fleet_smoke_json
  check_complete "$WORK/sf.json" fleet_smoke_frame
  AGG=$(( $(qps_of "$WORK/sj.json" fleet_smoke_json) + $(qps_of "$WORK/sf.json" fleet_smoke_frame) ))
  log "aggregate: $AGG decisions/sec"
  if [ "$AGG" -lt "$MIN_AGG_QPS" ]; then
    log "FAIL: aggregate $AGG < $MIN_AGG_QPS decisions/sec"
    exit 1
  fi
  # The run must have crossed a reload on at least one wire, and the
  # gateway must export the fleet metric families.
  python3 - "$WORK/sj.json" "$WORK/sf.json" <<'EOF'
import json, sys
total = sum(next(iter(json.load(open(f))["benchmarks"].values()))
            ["metrics"].get("snapshot_rollovers", 0) for f in sys.argv[1:])
if total < 1:
    sys.exit("no snapshot rollover observed on either wire")
print(f"observed {int(total)} rollovers across both wires")
EOF
  curl -fsS "http://127.0.0.1:$GW_METRICS/metrics" -o "$WORK/metrics.txt"
  for fam in fleet_gateway_requests_total fleet_route_total fleet_version_skew \
    fleet_ratelimit_drops_total fleet_swap_notifications_total; do
    grep -q "^# TYPE $fam " "$WORK/metrics.txt" || {
      log "missing gateway metric family $fam"
      cat "$WORK/metrics.txt" >&2
      exit 1
    }
  done
  # Batches route whole to one replica, so there is no repin to count.
  if grep -q 'fleet_batch_repinned_total' "$WORK/metrics.txt"; then
    log "gateway still serves fleet_batch_repinned_total"
    exit 1
  fi
  stop_fleet
  log "smoke OK"
  ;;

golden)
  DIR="${2:?usage: fleetbench.sh golden DIR}"
  log "regenerating golden fleet run into $DIR"
  start_fleet $GOLDEN_SCALE $GOLDEN_SNAP 0 0
  run_golden_shaped "$WORK/.golden"
  stop_fleet
  run_id=$("$BIN/rundiff" -store "$WORK/.golden" list | awk 'NR==2 {print $1}')
  rm -rf "$DIR"
  mkdir -p "$(dirname "$DIR")"
  cp -r "$WORK/.golden/$run_id" "$DIR"
  log "golden run $run_id copied to $DIR"
  ;;

*)
  echo "usage: scripts/fleetbench.sh [smoke|golden DIR]" >&2
  exit 2
  ;;
esac
