#!/usr/bin/env bash
# Checks that every -run, -bench and -fuzz pattern in the CI workflow still
# names something: each |-alternative of each pattern (up to its first /,
# the top-level part) must match at least one test (-run), benchmark
# (-bench) or fuzz target (-fuzz) of the packages its step names. A rename
# that leaves a step with "no tests to run" fails here instead of passing
# silently. -run '^$' is exempt.
#
#   .github/ci-patterns.sh [workflow.yml]
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
workflow=${1:-.github/workflows/ci.yml}

declare -A listed
names() { # the tests, benchmarks and fuzz targets of the packages in $@
	local p
	for p in "$@"; do
		if [[ -z ${listed[$p]+x} ]]; then
			listed[$p]=$(go test -list . "$p" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
		fi
		printf '%s\n' "${listed[$p]}"
	done
}

# goargs cuts a workflow line down to the arguments of its go test: from
# after "go test" to the first unquoted |, &, ;, < or >.
goargs() {
	awk '{
		s = substr($0, index($0, "go test") + 7); q = ""
		for (i = 1; i <= length(s); i++) {
			c = substr(s, i, 1)
			if (q != "") { if (c == q) q = "" }
			else if (c == "\047" || c == "\"") q = c
			else if (index("|&;<>", c)) break
		}
		print substr(s, 1, i - 1)
	}' <<<"$1"
}

bad=0 checked=0
while IFS= read -r line; do
	eval "set -- $(goargs "$line")"
	pkgs=() pats=()
	while [[ $# -gt 0 ]]; do
		case $1 in
		-run | -bench | -fuzz) pats+=("${1#-}:$2"); shift ;;
		-run=* | -bench=* | -fuzz=*) f=${1%%=*}; pats+=("${f#-}:${1#*=}") ;;
		-timeout | -fuzztime | -benchtime | -count | -o | -p | -cpu | -tags | -parallel) shift ;;
		.* ) pkgs+=("$1") ;;
		esac
		shift
	done
	for kp in "${pats[@]}"; do
		kind=${kp%%:*} pat=${kp#*:}
		[[ $kind == run && $pat == '^$' ]] && continue
		case $kind in
		run) prefix='^(Test|Fuzz|Example)' ;;
		bench) prefix='^Benchmark' ;;
		fuzz) prefix='^Fuzz' ;;
		esac
		all=$(names "${pkgs[@]}" | grep -E "$prefix" || true)
		alts=("$pat")
		[[ $pat == *"("* ]] || IFS='|' read -ra alts <<<"$pat"
		for alt in "${alts[@]}"; do
			checked=$((checked + 1))
			if ! grep -qE -- "${alt%%/*}" <<<"$all"; then
				echo "ci-patterns: -$kind alternative '$alt' of '$pat' matches nothing in ${pkgs[*]}" >&2
				bad=$((bad + 1))
			fi
		done
	done
done < <(grep -E 'go test .*-(run|bench|fuzz)' "$workflow")
echo "ci-patterns: $checked alternatives checked, $bad match nothing"
[[ $bad -eq 0 ]]
