#!/usr/bin/env bash
# The CI steps, in the order CI runs them.  .github/workflows/ci.yml
# calls this script once per named step; run it whole before opening a
# pull request, race steps included:
#
#	bash ci.sh all       # every step in order; stops at the first failure
#	bash ci.sh <step>    # one step, e.g. bash ci.sh race-reliable
#	bash ci.sh list      # the step names
set -euo pipefail
cd "$(dirname "$0")"

steps=(
	build vet gofmt cmlint cmlint-selftest
	race-obs race-durable race-trace race-multi-p race-fleet race-relstore
	fifo-flake race-reliable crash-recovery chaos-smoke
	engine-smoke open-loop-smoke saturated-smoke fuzz
	e18-smoke compaction-recovery docs race-all bench-smoke e17-f2-golden
	benchmark-module read-side-smoke
)

# smoke runs one benchmark workload for 2 s and requires a correct run.
smoke() {
	bash benchmarks/run.sh --workload "$1" --seed 2 --seconds 2 --trace 0 | grep 'failed=0 correct=true'
}

# fuzz runs one target for 15 s; extra arguments go to go test.
fuzz() {
	go test -run '^$' -fuzz "^$1\$" -fuzztime 15s "${@:3}" "$2"
}

run() {
	case "$1" in
	build) go build ./... ;;
	vet) go vet ./... ;;
	gofmt)
		# reads benchmarks/ too; fails on any file gofmt would rewrite
		test -z "$(gofmt -l .)" ;;
	cmlint) go run ./cmd/cmlint ./... ;;
	cmlint-selftest) go test -count=1 ./internal/analysis/... ;;
	race-obs) go test -race -count=1 ./internal/obs/... ./internal/transport/... ;;
	race-durable) go test -race -count=1 ./internal/durable/... ./internal/shell/... ./internal/demarcation/... ;;
	race-trace) go test -race -count=1 ./internal/trace/... ./internal/guarantee/... ;;
	race-multi-p) go test -race -count=1 -cpu 2,8 ./internal/shell ./internal/trace ./internal/fleet ;;
	race-fleet) go test -race -count=1 ./internal/fleet/... ;;
	race-relstore) go test -race -count=10 -run 'TestExecConcurrentStatements|TestTriggerRegistryConcurrent' ./internal/ris/relstore ;;
	fifo-flake)
		go test -count=50 -run 'TestBusZeroLatencyRealClockFIFO' ./internal/transport
		go test -count=50 -run 'TestTCPSerialDeliveryAcrossReconnect|TestTCPStalledPeerQueuesWithoutLoss' ./internal/transport
		go test -count=50 -run 'TestFleetShardsAndCascades' ./internal/fleet ;;
	race-reliable) go test -race -count=20 -cpu 1,2 -run TestReliableCountersRace ./internal/transport ;;
	crash-recovery) go test -race -count=1 -run 'TestCrashRecoveryAcrossProcesses' -v . ;;
	chaos-smoke) go test -race -count=1 -run 'TestE15|TestSkew|TestNegativeSkew|TestCampaign|TestPartitionFault|TestLossy|TestStopCancels' ./internal/harness ./internal/chaos ./internal/vclock ;;
	engine-smoke) smoke engine_rules ;;
	open-loop-smoke) smoke mesh_durable_paced ;;
	saturated-smoke) smoke mesh_tcp_sat ;;
	fuzz)
		fuzz FuzzWireFrame ./internal/wire
		fuzz FuzzMessageBatch ./internal/transport
		fuzz FuzzJournal ./internal/transport
		# The durable targets write each input to disk: the default
		# minimization of a new input (60 s) would take the whole 15 s.
		fuzz FuzzLogRecovery ./internal/durable -fuzzminimizetime 50x
		fuzz FuzzWALFrame ./internal/durable -fuzzminimizetime 50x
		fuzz FuzzSQLParse ./internal/ris/relstore
		fuzz FuzzExec ./internal/ris/relstore
		fuzz FuzzItemKey ./internal/data
		fuzz FuzzValueOrder ./internal/data
		fuzz FuzzSpecParse ./internal/rule ;;
	e18-smoke) go test -race -count=1 -short -run 'TestE18RetentionShape' ./internal/harness ;;
	compaction-recovery) go test -race -count=1 -run 'TestCompactionCorruptedCheckpointRecovery|TestRetentionColdStartFromCheckpoint|TestPrivateHandoffKeepsValues' ./internal/shell ;;
	docs) go test -count=1 -run 'TestDocs|TestObservabilityCatalogues|TestDeadSurface|TestDeadOptions|TestDeadFlags' . ;;
	race-all) go test -race ./... ;;
	bench-smoke) go test -bench=. -benchtime=1x -benchmem -short -run '^$' ./... ;;
	e17-f2-golden) go test -race -count=1 -run 'TestGoldenExperiments/(E17|F2)' ./internal/harness ;;
	benchmark-module) (cd benchmarks && go vet ./... && go test ./...) ;;
	read-side-smoke) smoke verify_trace ;;
	*)
		echo "ci.sh: unknown step '$1' (bash ci.sh list)" >&2
		return 2 ;;
	esac
}

case "${1:-}" in
all)
	for s in "${steps[@]}"; do
		echo "=== ci.sh $s"
		run "$s"
	done
	echo "=== ci.sh all: ${#steps[@]} steps passed" ;;
list) printf '%s\n' "${steps[@]}" ;;
"")
	echo "usage: bash ci.sh <step>|all|list" >&2
	exit 2 ;;
*) run "$1" ;;
esac
