#!/bin/sh
# Per-package coverage summary with regression floors.
#
#   ./scripts/cover.sh
#
# Prints `go test -cover` for every package, then enforces floors on the
# packages at the heart of the control plane and the experiment runner:
# internal/fabric, internal/cluster and internal/faults must not drop below
# the baselines recorded when every run became a ShardSet run (a single
# partition at Shards ≤ 1) and the fault thresholds moved to its barrier
# hook, internal/sim below its baseline from when events became
# fire-and-forget, and internal/c3,
# internal/dist and internal/kv below theirs from when C3's state split
# and the hash ring gained its bucket index, and internal/kvnet and
# internal/wire below theirs from when the kvnet datapath stopped
# allocating, and internal/placement below its baseline from when the
# heuristic began sorting its candidates once. The internal/sim floor was
# last raised when the exchange inbox and the arrival cursors left the
# agenda heap, and again when the one-partition ShardSet contract got its
# own test, and the internal/c3 floor when selectors without rate control
# dropped their rate records. The internal/sim, internal/workload and
# internal/cluster floors were last raised when every run's arrivals
# became partition streams refilled a chunk at a time from a pull source.
# The root netrs package and cmd/netrs-figs hold theirs from when the
# golden runs and the figure tables became plain-text golden files. The
# internal/cluster and internal/faults floors were last raised, and the
# internal/stats floor added, when faults, the timeline and the latency
# trace began running at every partition count, and the root netrs floor
# when the facade lost its uncovered schedule-file and scenario loaders.
# The internal/stats, internal/cluster, internal/dist, internal/cache and
# internal/fabric floors were last raised when the latency recorder became
# exact-only, the SplitMix64 mixer moved to sim.Mix64, and the controller's
# traffic collection and the accelerator's utilization got their tests.
# The internal/selection, internal/scenario and cmd/netrs-figs floors were
# last raised when the load-aware baselines began sharing one ranking,
# the scenario shaping sections became the workload hooks themselves, and
# the netrs-figs usage-error cases grew. The internal/fabric,
# internal/cluster and internal/placement floors were last raised when
# servers began answering with the request's own packet, the solver
# began refusing methods that only label plans, and unrouted packets
# began returning to the partition that handed them out. The
# internal/kv and internal/placement floors were last raised when the
# hash ring became flat arrays with one dedup table and the placement
# candidate lists began being computed once per solve.
# Raise a floor when new tests push coverage up; never lower one to make
# a PR pass.
set -eu
cd "$(dirname "$0")/.."

echo "== go test -cover ./..."
out=$(go test -cover ./...)
printf '%s\n' "$out" | grep -v 'no test files'

# check_floor <package> <min-percent>
check_floor() {
	pkg=$1
	floor=$2
	pct=$(printf '%s\n' "$out" | awk -v p="$pkg" '$1=="ok" && $2==p {sub(/%/,"",$5); print $5}')
	if [ -z "$pct" ]; then
		echo "cover: no coverage line for $pkg" >&2
		exit 1
	fi
	if awk -v got="$pct" -v min="$floor" 'BEGIN { exit !(got < min) }'; then
		echo "cover: $pkg coverage ${pct}% fell below its ${floor}% floor" >&2
		exit 1
	fi
	echo "cover: $pkg ${pct}% (floor ${floor}%)"
}

check_floor netrs/internal/fabric 90.3
check_floor netrs/internal/cluster 90.0
check_floor netrs/internal/faults 96.3
check_floor netrs/internal/workload 92.6
check_floor netrs/internal/selection 99.2
check_floor netrs/internal/scenario 98.6
check_floor netrs/internal/stats 96.0
check_floor netrs/internal/cache 100.0
check_floor netrs/internal/sim 95.9
check_floor netrs/internal/kv 97.6
check_floor netrs/internal/c3 94.1
check_floor netrs/internal/dist 96.2
check_floor netrs/internal/kvnet 85.9
check_floor netrs/internal/wire 98.0
check_floor netrs/internal/placement 88.3
check_floor netrs 89.6
check_floor netrs/cmd/netrs-figs 89.3

echo "== OK (cover)"
