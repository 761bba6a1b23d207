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
#     the self-contained dashboard page and that two reads of /live at least
#     1.1 s apart carry the schema stamp and different cycle counts while the
#     simulation is live.
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

# Flip one digit of the archived result's packet count (the record is one
# compact line; the count is a top-level field of "result", before any nested
# object). The record's digest no longer matches, so -ledger-reuse must
# re-simulate and rewrite the record with the true count.
packets=$(sed -n 's/.*"result":{[^{}]*"Packets":\([0-9]*\),.*/\1/p' "$REC")
[ -n "$packets" ] || fail "ledger record $REC has no result packet count" "$REC"
flipped=$((packets ^ 1))
sed "s/\(\"result\":{[^{}]*\"Packets\":\)$packets,/\1$flipped,/" "$REC" >"$WORK/flipped.json"
mv "$WORK/flipped.json" "$REC"
grep -q "\"Packets\":$flipped," "$REC" || fail "could not flip a digit of $REC"
"$WORK/dxbar-sim" -warmup 100 -measure 500 -ledger "$LEDGER" -ledger-reuse >/dev/null 2>&1
grep -q "\"Packets\":$packets," "$REC" ||
	fail "-ledger-reuse served a tampered record: packet count $flipped is still archived" "$REC"

echo "$TAG: ledger ok ($(basename "$REC"))"

# --- Phase 2: live dashboard + /live ---------------------------------------

"$WORK/dxbar-sim" -measure 50000000 -http "127.0.0.1:$PORT" \
	>/dev/null 2>"$WORK/sim.stderr" &
SIM_PID=$!
wait_healthz "$BASE" "$SIM_PID" "$WORK/sim.stderr"

# The root path serves the self-contained dashboard page.
PAGE="$WORK/page.html"
curl -sf "$BASE/" >"$PAGE"
grep -q '<title>dxbar telemetry</title>' "$PAGE" || fail "/ is not serving the dashboard page"
grep -q 'fetch(' "$PAGE" || fail "dashboard page has no fetch polling"

# /live is read afresh on every GET: two reads more than a second apart must
# both carry the schema stamp, and the cycle count must have moved between
# them (the engine publishes every 64 cycles).
LIVE1="$WORK/live1.json"
LIVE2="$WORK/live2.json"
curl -sf "$BASE/live" >"$LIVE1" || fail "GET /live failed"
sleep 1.1
curl -sf "$BASE/live" >"$LIVE2" || fail "GET /live failed"
for f in "$LIVE1" "$LIVE2"; do
	grep -q '"schema":2' "$f" || fail "/live frame carries no schema 2 stamp" "$f"
done
c1=$(sed -n 's/.*"cycles":\([0-9]*\),.*/\1/p' "$LIVE1")
[ -n "$c1" ] || fail "/live frame has no cycle count" "$LIVE1"
c2=$(sed -n 's/.*"cycles":\([0-9]*\),.*/\1/p' "$LIVE2")
[ -n "$c2" ] || fail "/live frame has no cycle count" "$LIVE2"
[ "$c1" != "$c2" ] || fail "/live read $c1 cycles twice, 1.1 s apart, on a live run" "$LIVE2"

echo "$TAG: ok (/live cycles $c1 -> $c2, dashboard live at $BASE/)"
