#!/bin/sh
# Checkpoint smoke test: the crash-recovery story end to end. Run dxbar-sim
# with checkpointing, kill -9 it mid-flight (no signal handler gets a say),
# resume from the newest surviving checkpoint, and assert the resumed run's
# measured metrics are identical to an uninterrupted reference run's. Needs
# the go toolchain.
set -eu

# shellcheck source=scripts/lib.sh
. "$(dirname "$0")/lib.sh"

build_tool dxbar-sim

# Shared run shape: small mesh, long enough to straddle several checkpoints.
RUN_FLAGS="-design dxbar -width 4 -height 4 -load 0.3 -seed 11 -warmup 500 -measure 2000000"

# summary extracts the deterministic lines of a run report: everything except
# host-dependent noise (there is none today, but keep the filter explicit so
# a future wall-clock line cannot break the comparison).
summary() {
	grep -E '^(design|pattern|offered load|accepted load|packets|avg latency|latency tail|avg hops|avg energy|deflections|retransmits|buffering prob|dropped flits)' "$1"
}

# 1. Reference: the same configuration, uninterrupted, no checkpointing.
"$WORK/dxbar-sim" $RUN_FLAGS >"$WORK/ref.stdout" 2>"$WORK/ref.stderr"

# 2. Checkpointed run, murdered mid-flight. -9 is the point: no flush, no
#    handler — only the atomically renamed checkpoint files survive.
"$WORK/dxbar-sim" $RUN_FLAGS -checkpoint-interval 50000 -checkpoint-dir "$WORK/ckpt" \
	>/dev/null 2>"$WORK/kill.stderr" &
SIM_PID=$!

# Wait for at least two checkpoints so the kill lands mid-run, not pre-run.
have_ckpt=0
for _ in $(seq 1 100); do
	n="$(ls "$WORK/ckpt"/ckpt-*.dxsn 2>/dev/null | wc -l)"
	if [ "$n" -ge 2 ]; then
		have_ckpt=1
		break
	fi
	kill -0 "$SIM_PID" 2>/dev/null || break
	sleep 0.1
done
if [ "$have_ckpt" -eq 1 ] && kill -0 "$SIM_PID" 2>/dev/null; then
	kill -9 "$SIM_PID"
	wait "$SIM_PID" 2>/dev/null || true
	SIM_PID=""
else
	# The run outpaced the poll loop and finished; its checkpoints are still
	# on disk, so the resume below still proves recovery — note it and go on.
	wait "$SIM_PID" 2>/dev/null || true
	SIM_PID=""
	echo "$TAG: run finished before kill -9 landed; resuming from its last checkpoint anyway"
fi

set -- "$WORK/ckpt"/ckpt-*.dxsn
[ -e "$1" ] || fail "no checkpoint files under $WORK/ckpt" "$WORK/kill.stderr"

# 3. Resume from the directory (newest checkpoint wins) and compare the
#    deterministic summary against the uninterrupted reference.
"$WORK/dxbar-sim" -resume "$WORK/ckpt" >"$WORK/res.stdout" 2>"$WORK/res.stderr"

summary "$WORK/ref.stdout" >"$WORK/ref.summary"
summary "$WORK/res.stdout" >"$WORK/res.summary"
diff -u "$WORK/ref.summary" "$WORK/res.summary" ||
	fail "resumed run diverged from the uninterrupted reference"

echo "$TAG: ok (kill -9 mid-run, resumed bit-identical)"
