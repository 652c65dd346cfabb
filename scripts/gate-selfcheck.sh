#!/usr/bin/env bash
# Checks that the Makefile's test gates still select tests: for every
# `$(GO) test ... -run '<regex>' <packages>` recipe line (benchmark lines
# with -bench are skipped), each `|`-separated alternative of the regex
# must match at least one test that `go test -list` reports in those
# packages, built with the same -race setting as the gate. A renamed or
# deleted test otherwise leaves its gate silently checking nothing.
#
#   bash scripts/gate-selfcheck.sh [Makefile]
set -euo pipefail
makefile=${1:-Makefile}
go=${GO:-go}
status=0
checked=0

while IFS= read -r line; do
	regex=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
	pkgs=$(sed -E "s/.*-run '[^']*'//" <<<"$line")
	race=
	if [[ $line == *" -race "* ]]; then
		race=-race
	fi
	# shellcheck disable=SC2086 # $pkgs and $race are word lists
	names=$($go test $race -list "$regex" $pkgs | grep -E '^(Test|Fuzz|Example|Benchmark)' || true)
	IFS='|' read -ra alts <<<"$regex"
	for alt in "${alts[@]}"; do
		checked=$((checked + 1))
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "gate-selfcheck: -run alternative '$alt' matches no test in$pkgs" >&2
			status=1
		fi
	done
done < <(grep -E "^[[:space:]]+\\\$\(GO\) test .*-run '" "$makefile" | grep -v -- '-bench')

if [[ $status -eq 0 ]]; then
	echo "gate-selfcheck: $checked -run alternatives, each matches a test"
fi
exit $status
