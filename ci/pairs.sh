#!/usr/bin/env bash
# Paired A/B runs of the front-door benchmark: a commit against the working
# tree, on one workload.
#
#   ./ci/pairs.sh HEAD~1 churn_zipf 10
#   ./ci/pairs.sh main cold_unique 4 --seconds 8    # extra args go to run.sh
#
# Extracts <ref> with `git archive` into .bench_build/pairs/<sha>/ and runs
# `benchmark/run.sh --workload <workload> --trace 0` n times on each side,
# alternately: the base goes first in odd pairs, the working tree in even
# ones, so drift in host speed falls on both sides alike. Each side builds
# its own daemon and runner from its own tree. Then, for every end-to-end
# metric that BENCHMARK.json names, it prints both medians, both
# interquartile ranges, the change of the medians, how many pairs moved each
# way (better/worse by the metric's direction) and whether that change
# exceeds the base's IQR; and whether placement_energy_j was bit-identical
# on every run of both sides. Every run's output is kept beside the summary.
#
# It reports and gates nothing: a run that fails deploys or exits non-zero
# is counted in the summary, not in the exit status. Needs git, jq and awk;
# no network.
set -euo pipefail
usage="usage: ci/pairs.sh <ref> <workload> <n> [run.sh args...]"
ref=${1:?$usage}
workload=${2:?$usage}
n=${3:?$usage}
shift 3
[[ $n =~ ^[1-9][0-9]*$ ]] || { echo "pairs: n must be a positive integer" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
sha=$(git -C "$root" rev-parse --verify "$ref^{commit}")
base="$root/.bench_build/pairs/${sha:0:12}"
if [ ! -f "$base/.extracted" ]; then
	rm -rf "$base"
	mkdir -p "$base"
	git -C "$root" archive "$sha" | tar -x -C "$base"
	touch "$base/.extracted"
fi
out="$root/.bench_build/pairs/$workload-$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p "$out"

# The end-to-end metrics and the direction in which each is better.
jq -r '.end_to_end[] | "\(.name) \(.better)"' "$root/BENCHMARK.json" >"$out/metrics"

# run <side> <tree> <pair> [run.sh args...]: one benchmark run. Its metric
# lines go to values as "side pair metric value", and "side pair failed exit"
# to runs, failed being the run's failed-deploy count.
run() {
	local side=$1 tree=$2 pair=$3 status=0 failed
	shift 3
	local log="$out/$side-$pair.txt"
	bash "$tree/benchmark/run.sh" --workload "$workload" --trace 0 "$@" >"$log" 2>&1 || status=$?
	awk -v s="$side" -v w="$workload" -v p="$pair" 'NR == FNR { want[$1] = 1; next }
		$1 == w && ($2 in want) { print s, p, $2, $3 }' "$out/metrics" "$log" >>"$out/values"
	failed=$(tail -n 1 "$log" | jq -r '.failed' 2>/dev/null) || failed="?"
	echo "$side $pair $failed $status" >>"$out/runs"
	echo "pairs: pair $pair, $side: exit $status, $failed failed deploys" >&2
}

for pair in $(seq "$n"); do
	if ((pair % 2)); then
		run base "$base" "$pair" "$@"
		run change "$root" "$pair" "$@"
	else
		run change "$root" "$pair" "$@"
		run base "$base" "$pair" "$@"
	fi
done

{
	echo "# base ${sha:0:12} ($ref) vs the working tree; workload $workload, $n pairs"
	awk '$3 != 0 || $4 != 0 { bad[$1]++ }
		END { printf "# runs that failed deploys or exited non-zero: base %d, change %d\n", bad["base"], bad["change"] }' "$out/runs"
	awk '
	# quantile returns the p-quantile of the sorted v[1..k], interpolated
	# linearly between order statistics.
	function quantile(v, k, p,   h, lo) {
		h = (k - 1) * p + 1
		lo = int(h)
		return lo >= k ? v[k] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
	}
	# sorted fills v[1..k] with the side'"'"'s values of metric m, ascending,
	# and returns k.
	function sorted(side, m, v,   k, p, i, t) {
		k = 0
		for (p = 1; p <= npair; p++)
			if ((side, m, p) in val) v[++k] = val[side, m, p]
		for (p = 2; p <= k; p++)
			for (i = p; i > 1 && v[i - 1] > v[i]; i--) { t = v[i]; v[i] = v[i - 1]; v[i - 1] = t }
		return k
	}
	NR == FNR { order[++nm] = $1; better[$1] = $2; next }
	{
		val[$1, $3, $2] = $4 + 0
		if ($3 == "placement_energy_j") {
			if (energy == "") energy = $4
			else if ($4 != energy) energyDiffers = 1
		}
		if ($2 + 0 > npair) npair = $2 + 0
	}
	END {
		printf "%-26s %12s %10s %12s %10s %8s %6s %6s %6s  %s\n", "metric", "base_med", "base_iqr", "change_med", "change_iqr", "delta", "better", "worse", "equal", "delta>base_iqr"
		for (j = 1; j <= nm; j++) {
			m = order[j]
			kb = sorted("base", m, b)
			kc = sorted("change", m, c)
			if (kb == 0 || kc == 0) { printf "%-26s (no values)\n", m; continue }
			mb = quantile(b, kb, 0.5); mc = quantile(c, kc, 0.5)
			ib = quantile(b, kb, 0.75) - quantile(b, kb, 0.25)
			ic = quantile(c, kc, 0.75) - quantile(c, kc, 0.25)
			up = down = eq = 0
			for (p = 1; p <= npair; p++) {
				if (!(("base", m, p) in val) || !(("change", m, p) in val)) continue
				d = val["change", m, p] - val["base", m, p]
				if (better[m] == "higher") d = -d
				if (d < 0) up++
				else if (d > 0) down++
				else eq++
			}
			delta = mb != 0 ? sprintf("%+.2f%%", 100 * (mc - mb) / mb) : "n/a"
			printf "%-26s %12.6g %10.4g %12.6g %10.4g %8s %6d %6d %6d  %s\n", m, mb, ib, mc, ic, delta, up, down, eq, (mc - mb > ib || mb - mc > ib) ? "yes" : "no"
		}
		if (energy == "") print "placement_energy_j: no values"
		else printf "placement_energy_j bit-identical on every run of both sides: %s (%s)\n", energyDiffers ? "no" : "yes", energy
	}' "$out/metrics" "$out/values"
} | tee "$out/summary.txt"
echo "pairs: every run's output and the summary are in $out" >&2
