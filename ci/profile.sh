#!/usr/bin/env bash
# CPU-profile the real deepfleetd under one front-door workload.
#
#   ./ci/profile.sh cold_unique        # 10 s profile
#   ./ci/profile.sh churn_zipf 5
#
# Runs `benchmark/run.sh --workload W --seconds N --trace 0` in the
# background, waits for the measured phase (the runner boots the daemon three
# times and the third boot serves it), takes a CPU profile from the daemon's
# admin listener (/debug/pprof/profile), waits for the run to finish, and
# prints the cumulative top of the profile. The profile is left in
# .bench_build/out/<W>.pprof and the run's output in .bench_build/out/<W>.run;
# the daemon binary the runner built is .bench_build/deepfleetd. Needs curl.
set -euo pipefail
w=${1:?usage: ci/profile.sh <workload> [seconds]}
secs=${2:-10}
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/out"
log="$out/$w.log"
mkdir -p "$out"
# The daemon log is append-mode: start from empty so only this run's boots
# are counted.
: >"$log"

# The profile must fall inside the measured phase. cold_unique's phase is a
# fixed sequence of 4000 requests per requested second, which a daemon
# serving 11k-16k deploys/s finishes in a quarter to a third of the requested
# time; six requested seconds per profiled second (at least 30) outlast the
# profile on every workload.
run_secs=$((secs * 6 > 30 ? secs * 6 : 30))
bash "$root/benchmark/run.sh" --workload "$w" --seconds "$run_secs" --trace 0 >"$out/$w.run" 2>&1 &
run=$!
trap 'kill "$run" 2>/dev/null || true' EXIT

# The third "admin on" line is the boot that serves the measured phase; its
# warm-up and the host-speed reading before the first slice take well under
# a second.
prefix="deepfleetd: admin on "
for _ in $(seq 600); do
	if [ "$(grep -c "^$prefix" "$log" || true)" -ge 3 ]; then
		break
	fi
	if ! kill -0 "$run" 2>/dev/null; then
		echo "profile: the benchmark exited before its third boot (see $out/$w.run)" >&2
		exit 1
	fi
	sleep 0.2
done
admin=$(grep "^$prefix" "$log" | sed -n 3p | cut -c$((${#prefix} + 1))-)
[ -n "$admin" ] || { echo "profile: no third boot within 120 s" >&2; exit 1; }
sleep 1
# The first two boots each logged one "draining" line when they were
# stopped; a third means the measured phase ended while the profile ran.
if ! curl -fsS -o "$out/$w.pprof" "http://$admin/debug/pprof/profile?seconds=$secs" ||
	[ "$(grep -c ': draining$' "$log" || true)" -ge 3 ]; then
	echo "profile: the daemon left its measured phase before the ${secs} s profile finished (see $out/$w.run); try fewer seconds" >&2
	exit 1
fi

wait "$run"
trap - EXIT
tail -1 "$out/$w.run"
go tool pprof -top -cum "$root/.bench_build/deepfleetd" "$out/$w.pprof" 2>/dev/null | head -60
