#!/bin/sh
# Alternating parent/change pairs of one benchmark workload (the rule every
# speed claim in CHANGES.md is held to): the parent commit is unpacked into a
# temporary directory, `bash benchmark/run.sh --workload W --trace 0` is run
# in that tree and in this one n times each — which side goes first
# alternates too, so drift of the box reads as spread, not as a gain — and for
# each end-to-end metric the script prints both sides' quartiles, the change's
# wins, whether the medians lie further apart than the parent's own
# inter-quartile distance, and the median of the per-pair change/parent ratios
# with a percentile-bootstrap 95 % interval (2,000 resamples of the pairs at
# a fixed seed, so a rerun over the same records prints the same interval).
# An A/A batch — PAIRS_PARENT=HEAD on a clean tree — gives the interval's
# width when nothing changed: the smallest ratio a batch of this size can tell
# from 1 on this host.
#
#	scripts/pairs.sh <workload> [pairs=10] [seed]     (or: make pairs WORKLOAD=...)
#
# The parent is $PAIRS_PARENT (any git ref) when set — a PR of several commits,
# or a dirty tree on top of one, needs it — else HEAD while the working tree has
# uncommitted changes and HEAD~1 once it is clean; its SHA is printed before
# the first run. The parent tree is a `git archive` copy under $TMPDIR,
# removed on exit (nothing is registered in .git, so nothing is left behind
# even after a kill -9); this tree gets only what run.sh itself writes
# (.bench_build/, benchmark/out/). Run nothing else on the box meanwhile.
# Needs git, tar, awk and the go toolchain.
set -eu

[ $# -ge 1 ] || {
	echo "usage: scripts/pairs.sh <workload> [pairs=10] [seed]" >&2
	exit 2
}
workload=$1
pairs=${2:-10}
seed=${3:-}
cd "$(dirname "$0")/.."

base=${PAIRS_PARENT:-}
if [ -z "$base" ]; then
	base=HEAD~1
	[ -z "$(git status --porcelain)" ] || base=HEAD
fi
sha="$(git rev-parse --short "$base^{commit}")"
echo "pairs: parent $base ($sha)" >&2
set -- --workload "$workload" --trace 0
[ -z "$seed" ] || set -- "$@" --seed "$seed"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM
mkdir "$work/parent"
git archive "$base" | tar -x -C "$work/parent"

metrics="wall_s cpu_s ns_per_router_cycle setup_s peak_rss_mb"

# measure SIDE TREE ARGS...: one run in TREE; appends each metric of its result
# line to $work/SIDE.<metric>.
measure() {
	side=$1 tree=$2
	shift 2
	line="$(cd "$tree" && bash benchmark/run.sh "$@" | tail -n 1)"
	case $line in
	*'"correct":true'*) ;;
	*)
		echo "pairs: the $side run was not correct: $line" >&2
		exit 1
		;;
	esac
	# shellcheck disable=SC2086
	for m in $metrics; do
		printf '%s\n' "$line" | sed -n "s/.*\"$m\":{\"value\":\\([^,}]*\\).*/\\1/p" >>"$work/$side.$m"
	done
}

i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		measure parent "$work/parent" "$@"
		measure change "$PWD" "$@"
	else
		measure change "$PWD" "$@"
		measure parent "$work/parent" "$@"
	fi
	echo "pair $i/$pairs: wall_s parent $(tail -n 1 "$work/parent.wall_s") change $(tail -n 1 "$work/change.wall_s")" >&2
	i=$((i + 1))
done

echo "$workload: $pairs alternating pairs, parent $base ($sha), args: $*"
printf '%-20s %-36s %-36s %8s %6s  %-5s  %s\n' metric "parent q1 / median / q3" "change q1 / median / q3" delta wins "> IQR" "change/parent ratio, median [95% CI]"
# shellcheck disable=SC2086
for m in $metrics; do
	paste "$work/parent.$m" "$work/change.$m" | awk -v m="$m" '
		# q(v, n, f): the f-quantile of the sorted v[1..n], linearly interpolated.
		function q(v, n, f,    h, lo) { h = (n - 1) * f + 1; lo = int(h); return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
		function sort(v, n,    i, j, t) { for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t } }
		{
			p[NR] = $1 + 0; c[NR] = $2 + 0; if (c[NR] < p[NR]) wins++; else if (c[NR] == p[NR]) ties++
			if (p[NR]) r[NR] = c[NR] / p[NR]; else noratio = 1
		}
		END {
			ci = "-"
			if (!noratio) {
				# The median ratio, then the 2.5 and 97.5 percentiles of the
				# medians of 2,000 resamples (with replacement) of the pairs.
				for (i = 1; i <= NR; i++) s[i] = r[i]
				sort(s, NR); rm = q(s, NR, .5)
				srand(1); B = 2000
				for (b = 1; b <= B; b++) {
					for (i = 1; i <= NR; i++) s[i] = r[int(rand() * NR) + 1]
					sort(s, NR); meds[b] = q(s, NR, .5)
				}
				sort(meds, B)
				ci = sprintf("%.3f [%.3f, %.3f]", rm, q(meds, B, .025), q(meds, B, .975))
			}
			sort(p, NR); sort(c, NR)
			pm = q(p, NR, .5); cm = q(c, NR, .5); iqr = q(p, NR, .75) - q(p, NR, .25)
			d = cm - pm; if (d < 0) d = -d
			printf "%-20s %-36s %-36s %+7.1f%% %3d/%-2d  %-5s  %s\n", m,
				sprintf("%.4g / %.4g / %.4g", q(p, NR, .25), pm, q(p, NR, .75)),
				sprintf("%.4g / %.4g / %.4g", q(c, NR, .25), cm, q(c, NR, .75)),
				(pm ? 100 * (cm - pm) / pm : 0), wins, NR - ties, (d > iqr ? "yes" : "no"), ci
		}'
done
