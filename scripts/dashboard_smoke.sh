#!/bin/sh
# Dashboard + ledger smoke test. Two phases:
#
#  1. Ledger: run a short dxbar-sim with -ledger and assert the completed
#     run's record (run-<key>.json, full Result + env stamp) landed on disk,
#     then re-run with -ledger-reuse and assert the second run was served
#     from the archive (no second record), and that a record whose result
#     was edited is not served: the next -ledger-reuse run re-simulates and
#     rewrites it.
#  2. Dashboard: launch a longer run with -http, assert the root path serves
#     the self-contained dashboard page and that /events streams at least
#     two SSE frames while the simulation is live.
#
# Needs curl and the go toolchain.
set -eu

PORT="${1:-18231}"
BASE="http://127.0.0.1:$PORT"
# shellcheck source=scripts/lib.sh
. "$(dirname "$0")/lib.sh"

build_tool dxbar-sim

# --- Phase 1: run ledger ---------------------------------------------------

LEDGER="$WORK/ledger"
"$WORK/dxbar-sim" -warmup 100 -measure 500 -ledger "$LEDGER" >/dev/null

records=$(ls "$LEDGER"/run-*.json 2>/dev/null | wc -l)
[ "$records" -eq 1 ] || fail "expected 1 ledger record after the run, found $records"
REC="$(ls "$LEDGER"/run-*.json)"
for field in '"schema"' '"key"' '"config"' '"result"' '"env"'; do
	grep -q "$field" "$REC" || fail "ledger record $REC is missing $field"
done

# Same config + seed with -ledger-reuse must be served from the archive:
# still exactly one record, and the run reports the reuse.
"$WORK/dxbar-sim" -warmup 100 -measure 500 -ledger "$LEDGER" -ledger-reuse \
	>"$WORK/reuse.out" 2>&1
records=$(ls "$LEDGER"/run-*.json | wc -l)
[ "$records" -eq 1 ] || fail "-ledger-reuse wrote a duplicate record ($records files)"

# Flip one digit of the archived result's packet count. The record's digest
# no longer matches, so -ledger-reuse must re-simulate and rewrite the record
# with the true count.
packets=$(sed -n 's/^    "Packets": \([0-9]*\),$/\1/p' "$REC")
[ -n "$packets" ] || fail "ledger record $REC has no result packet count" "$REC"
flipped=$((packets ^ 1))
sed "s/^    \"Packets\": $packets,\$/    \"Packets\": $flipped,/" "$REC" >"$WORK/flipped.json"
mv "$WORK/flipped.json" "$REC"
grep -q "^    \"Packets\": $flipped,\$" "$REC" || fail "could not flip a digit of $REC"
"$WORK/dxbar-sim" -warmup 100 -measure 500 -ledger "$LEDGER" -ledger-reuse >/dev/null 2>&1
grep -q "^    \"Packets\": $packets,\$" "$REC" ||
	fail "-ledger-reuse served a tampered record: packet count $flipped is still archived" "$REC"

echo "$TAG: ledger ok ($(basename "$REC"))"

# --- Phase 2: live dashboard + SSE -----------------------------------------

"$WORK/dxbar-sim" -measure 50000000 -http "127.0.0.1:$PORT" \
	>/dev/null 2>"$WORK/sim.stderr" &
SIM_PID=$!
wait_healthz "$BASE" "$SIM_PID" "$WORK/sim.stderr"

# The root path serves the self-contained dashboard page.
PAGE="$WORK/page.html"
curl -sf "$BASE/" >"$PAGE"
grep -q '<title>dxbar telemetry</title>' "$PAGE" || fail "/ is not serving the dashboard page"
grep -q 'EventSource' "$PAGE" || fail "dashboard page has no EventSource wiring"

# /events must stream at least two SSE data frames while the run is live.
# The hub emits one frame immediately on subscribe and then one per sampling
# interval (1s), so 3 seconds is comfortably enough for two.
FRAMES="$WORK/frames.txt"
curl -sf --max-time 4 -N "$BASE/events" >"$FRAMES" 2>/dev/null || true
frames=$(grep -c '^data: ' "$FRAMES" || true)
[ "$frames" -ge 2 ] || fail "expected >=2 SSE frames from /events, got $frames" "$FRAMES"
grep -q '"schema":1' "$FRAMES" || fail "SSE frames carry no schema stamp" "$FRAMES"

echo "$TAG: ok ($frames SSE frames, dashboard live at $BASE/)"
