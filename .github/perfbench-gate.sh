#!/usr/bin/env bash
# Benchmark gate: runs every perfbench workload briefly and fails on a
# wrong result or a large regression. Run from the repository root:
#   bash .github/perfbench-gate.sh
#
# For each workload in BENCHMARK.json it makes two 2-second runs of
# perfbench/run.sh at seed 1998, one untraced and one traced. The gate
# fails when
#   - a run does not report "correct": true and "failed": 0 (every op's
#     output digest matched and every delivery check held), or
#   - a metric listed in .github/perfbench-ref.json is worse than its
#     reference by more than the file's tolerance factor. End-to-end
#     metrics come from the untraced run, per-layer ones from the traced
#     run; BENCHMARK.json says whether higher or lower is better.
# It prints one line per gated metric. Run logs go to .bench_build/gate/.
set -euo pipefail

spec=BENCHMARK.json
ref=.github/perfbench-ref.json
seed=1998
seconds=2
logs=.bench_build/gate
mkdir -p "$logs"

status=0
for w in $(jq -r '.workloads[].name' "$spec"); do
	if ! jq -e --arg w "$w" '.workloads | has($w)' "$ref" >/dev/null; then
		echo "FAIL $w: no reference in $ref"
		status=1
		continue
	fi
	for trace in 0 1; do
		log="$logs/$w-trace$trace"
		if ! bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
			>"$log.out" 2>"$log.err"; then
			echo "FAIL $w --trace $trace: perfbench exited non-zero; last lines of $log.err:"
			tail -n 5 "$log.err"
			status=1
			continue 2
		fi
		tail -n 1 "$log.out" >"$log.json"
		if ! jq -e '.correct == true and .failed == 0' "$log.json" >/dev/null; then
			echo "FAIL $w --trace $trace: $(jq -c '{correct, attempted, failed}' "$log.json")"
			status=1
		fi
	done
	# Untraced metrics win on a name clash: ops_per_s and the other
	# end-to-end metrics are gated at full speed.
	verdicts=$(jq -r -n --arg w "$w" \
		--slurpfile spec "$spec" --slurpfile ref "$ref" \
		--slurpfile traced "$logs/$w-trace1.json" --slurpfile plain "$logs/$w-trace0.json" '
		($spec[0].end_to_end + $spec[0].per_layer | map({(.name): .better}) | add) as $better
		| ($traced[0].metrics + $plain[0].metrics) as $got
		| $ref[0].tolerance as $tol
		| $ref[0].workloads[$w] | to_entries[]
		| .key as $m | .value as $want | $got[$m].value as $v | $better[$m] as $dir
		| (if $v == null or $dir == null then "FAIL"
		   elif $dir == "higher" and $v * $tol < $want then "FAIL"
		   elif $dir == "lower" and $v > $want * $tol then "FAIL"
		   else "ok  " end) as $verdict
		| "\($verdict) \($w) \($m) = \($v), reference \($want), tolerance \($tol)x, \($dir // "no direction in BENCHMARK.json") is better"
	')
	echo "$verdicts"
	if grep -q '^FAIL' <<<"$verdicts"; then
		status=1
	fi
done
if [ "$status" -ne 0 ]; then
	echo "perfbench gate failed"
else
	echo "perfbench gate passed"
fi
exit "$status"
