# shellcheck shell=sh
# The functions below are called by the sourcing scripts, not from this file.
# shellcheck disable=SC2317
#
# Shared plumbing of the smoke scripts (POSIX sh; needs the go toolchain, and
# curl for wait_healthz). Source it first, from the repository root:
#
#	. "$(dirname "$0")/lib.sh"
#
# It makes the scratch directory $WORK, installs the exit trap — which kills
# the background process whose pid the script stored in $SIM_PID and removes
# $WORK — and derives $TAG, the prefix of every message, from the script's
# name (telemetry_smoke.sh -> telemetry-smoke).

TAG="$(basename "$0" .sh | tr _ -)"
WORK="$(mktemp -d)"
SIM_PID=""
cleanup() {
	if [ -n "$SIM_PID" ]; then
		kill "$SIM_PID" 2>/dev/null || true
		wait "$SIM_PID" 2>/dev/null || true # it may still be writing into $WORK
	fi
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# fail MESSAGE [FILE]: print MESSAGE (and FILE, the evidence) on stderr, exit 1.
fail() {
	echo "$TAG: $1" >&2
	[ -n "${2:-}" ] && cat "$2" >&2
	exit 1
}

# build_tool NAME: build ./cmd/NAME into $WORK/NAME.
build_tool() {
	go build -o "$WORK/$1" "./cmd/$1"
}

# wait_healthz BASE PID STDERR: poll BASE/healthz for up to 15 s; give up at
# once when process PID (whose stderr is in the file STDERR) has exited.
wait_healthz() {
	for _ in $(seq 1 60); do
		if curl -sf "$1/healthz" >/dev/null 2>&1; then
			return 0
		fi
		kill -0 "$2" 2>/dev/null || fail "process exited before serving" "$3"
		sleep 0.25
	done
	fail "/healthz never came up on $1"
}
