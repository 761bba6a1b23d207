#!/bin/sh
# Telemetry smoke test: launch a sharded dxbar-sim with the live-telemetry
# endpoint, scrape /healthz and /metrics while the simulation is running, and
# assert the core and per-shard series are present; then do the same against a
# live dxbar-sweep, whose worker pool must aggregate the engine and ledger
# counters of every point into the one registry. Exercises the same path a
# dashboard scraping a long sweep would use. Needs curl and the go toolchain.
set -eu

PORT="${1:-18230}"
BASE="http://127.0.0.1:$PORT"
# shellcheck source=scripts/lib.sh
. "$(dirname "$0")/lib.sh"
METRICS="$WORK/metrics.txt"

# require_series REGEX...: every regex must match a line of $METRICS.
require_series() {
	for series in "$@"; do
		grep -q "$series" "$METRICS" || fail "/metrics is missing series matching: $series" "$METRICS"
	done
}

build_tool dxbar-sim
build_tool dxbar-sweep

# A run long enough to still be in flight when we scrape; cleanup kills it.
"$WORK/dxbar-sim" -measure 50000000 -shards 2 -http "127.0.0.1:$PORT" \
	>/dev/null 2>"$WORK/sim.stderr" &
SIM_PID=$!
wait_healthz "$BASE" "$SIM_PID" "$WORK/sim.stderr"

# Let the engine pass its first publish interval so gauges are populated.
sleep 1

curl -sf "$BASE/healthz" | grep -q '^ok$' || fail "/healthz did not answer ok"
curl -sf "$BASE/progress" | grep -q '"unit"' || fail "/progress is not serving JSON"
curl -sf "$BASE/metrics" >"$METRICS"
require_series \
	'^dxbar_cycles_total [1-9]' \
	'^dxbar_shard_barrier_wait_seconds_total{shard="0"}' \
	'^dxbar_shard_imbalance_ratio '
samples="$(grep -c '^dxbar_' "$METRICS")"

kill "$SIM_PID"
wait "$SIM_PID" 2>/dev/null || true

# The sweep: 54 full-quality points, seconds of work — scrape until the first
# point has been archived (the run options reach every point of every figure,
# or these counters stay absent), then let cleanup kill it.
"$WORK/dxbar-sweep" -fig 7 -quality full -quiet -http "127.0.0.1:$PORT" -ledger "$WORK/ledger" \
	>/dev/null 2>"$WORK/sweep.stderr" &
SIM_PID=$!
wait_healthz "$BASE" "$SIM_PID" "$WORK/sweep.stderr"
archived=""
for _ in $(seq 1 120); do
	curl -sf "$BASE/metrics" >"$METRICS" || break # the sweep finished first
	if grep -q '^dxbar_ledger_records_total [1-9]' "$METRICS"; then
		archived=yes
		break
	fi
	sleep 0.25
done
[ -n "$archived" ] || fail "the sweep's /metrics never showed an archived point" "$METRICS"
require_series '^dxbar_cycles_total [1-9]' '^dxbar_flits_ejected_total [1-9]'

echo "$TAG: ok ($samples dxbar samples live from dxbar-sim, sweep counters aggregated at $BASE/metrics)"
