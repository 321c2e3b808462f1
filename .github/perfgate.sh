#!/usr/bin/env bash
# The performance gate: run the repo's benchmark (bench/) at <base-ref> and
# at this checkout, one after the other on this machine, and fail if an
# end-to-end metric is worse here by more than its bound (bench -compare).
# There is no recorded baseline to go stale: both sides see the same host,
# and the one variable is the commit.
#
#	bash .github/perfgate.sh HEAD~1
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
base=${1:?usage: perfgate.sh <base-ref>}
tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/base" || true; rm -rf "$tmp"' EXIT
git worktree add --detach "$tmp/base" "$base"
bash "$tmp/base/bench/run.sh" -seconds 5 -json "$tmp/base.json"
bash bench/run.sh -seconds 5 -json "$tmp/head.json"
status=0
bash bench/run.sh -compare "$tmp/base.json" "$tmp/head.json" >"$tmp/verdict" || status=$?
cat "$tmp/verdict"
# The script's status is -compare's, with one exception. paper_err_pct has
# a bound of zero and bench/ sums it in map order, so between two runs of
# one binary it moves in its last bit about one time in five, and -compare
# calls the rise "+0.00% regressed". That line alone does not fail the
# gate. (To be fixed in bench/, which this change may not edit.)
if [[ $status == 1 ]] && ! grep 'regressed$' "$tmp/verdict" | grep -qv 'paper_err_pct .* +0\.00% '; then
	status=0
fi
exit $status
