#!/bin/sh
# Diagnostics smoke test: force an anomaly on a saturated dxbar-sim run and
# assert a complete post-mortem bundle lands in -diag-dir, then SIGQUIT a
# live healthy run and assert the signal bundle. Exercises the same black-box
# path an operator (or CI triage) would use on a sick run. Needs the go
# toolchain.
set -eu

DIAG="${1:-diag-artifacts}"
# shellcheck source=scripts/lib.sh
. "$(dirname "$0")/lib.sh"

build_tool dxbar-sim
rm -rf "$DIAG"

# The bundle's required file set; manifest.json is written last, so its
# presence marks a bundle complete.
BUNDLE_FILES="anomalies.json config.json goroutines.txt latency.json manifest.json metrics.prom run.json shards.json trace.json"

check_bundle() {
	bdir="$1"
	for f in $BUNDLE_FILES; do
		[ -s "$bdir/$f" ] || fail "bundle $bdir is missing or has empty $f"
	done
	grep -q '"schema"' "$bdir/manifest.json" || fail "$bdir/manifest.json has no schema field"
}

# 1. Forced anomaly: far past saturation with a low age watermark, the
#    starvation detector must fire and auto-dump one bundle.
"$WORK/dxbar-sim" -design dxbar -load 0.95 -warmup 200 -measure 4000 \
	-diag-dir "$DIAG/anomaly" -diag-max-age 500 -diag-window 128 \
	-log-format json >"$WORK/run.stdout" 2>"$WORK/run.stderr"

grep -q '"kind":"starvation"' "$WORK/run.stderr" ||
	fail "no structured starvation record on stderr" "$WORK/run.stderr"
grep -q 'starvation' "$WORK/run.stdout" || fail "run report has no anomaly table" "$WORK/run.stdout"
set -- "$DIAG"/anomaly/dxbar-diag-anomaly-starvation-*
[ -d "$1" ] || fail "no anomaly bundle under $DIAG/anomaly"
check_bundle "$1"
grep -q '"reason": "anomaly-starvation"' "$1/manifest.json" ||
	fail "bundle reason is not anomaly-starvation" "$1/manifest.json"

# 2. SIGQUIT on a live healthy run: the dump request is consumed at the next
#    detector-window boundary and writes a signal bundle while the run keeps
#    going; cleanup kills the run afterwards.
"$WORK/dxbar-sim" -measure 50000000 -diag-dir "$DIAG/signal" -diag-window 1024 \
	>/dev/null 2>"$WORK/sig.stderr" &
SIM_PID=$!
sleep 1
kill -0 "$SIM_PID" 2>/dev/null || fail "dxbar-sim exited before SIGQUIT" "$WORK/sig.stderr"
kill -QUIT "$SIM_PID"

bdir=""
for _ in $(seq 1 40); do
	set -- "$DIAG"/signal/dxbar-diag-signal-*
	if [ -d "$1" ] && [ -s "$1/manifest.json" ]; then
		bdir="$1"
		break
	fi
	sleep 0.25
done
[ -n "$bdir" ] || fail "SIGQUIT produced no signal bundle" "$WORK/sig.stderr"
kill -0 "$SIM_PID" 2>/dev/null || fail "SIGQUIT killed the run instead of snapshotting it"
check_bundle "$bdir"
grep -q '"reason": "signal"' "$bdir/manifest.json" || fail "bundle reason is not signal" "$bdir/manifest.json"

echo "$TAG: ok (anomaly + SIGQUIT bundles complete under $DIAG)"
