#!/usr/bin/env bash
# Mutation census: which tests kill which single-line mutation.
#
#   census.sh [run] [-o FILE] [ID ...]   run the mutants of mutants.txt (all, or the IDs)
#   census.sh compare OLD NEW            diff two runs' outputs
#
# run applies each mutation of mutants.txt to a throwaway copy of the
# working tree (tracked and untracked files, never the tree itself), fails
# unless the mutation matches exactly one line and the mutated package
# builds, then runs
#
#   go test -count=1 -json -timeout 5m <package> <its direct importers>
#
# then, in every package whose binary a panic aborted, each test that never
# reported, alone; and writes one line per mutant to FILE (default stdout):
#
#   <id> <killed|survived|equivalent> <killing test ids, space-separated>
#
# A killing id is <package>.<TopLevelTest>; a package that fails without a
# failing test (a timeout, a crash outside any test) is <package>.(package).
# A mutant that survives and is marked "= <id> <reason>" in mutants.txt
# reads "equivalent". Progress goes to stderr.
#
# compare prints every mutant whose status or killers differ between two
# runs and exits 1 if a mutant OLD killed is not killed in NEW.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
list=$here/mutants.txt
root=$(cd "$here/../.." && pwd)
module=$(cd "$root" && go list -m)

compare() {
	local old=$1 new=$2
	awk -F'\t' '
		FNR == NR { if ($0 !~ /^#/) { st[$1] = $2; k[$1] = $3 }; next }
		$0 ~ /^#/ { next }
		{
			seen[$1] = 1
			if (!($1 in st)) { printf "new      %s %s\n", $1, $2; next }
			was = (st[$1] == "killed"); now = ($2 == "killed")
			if (was && !now) { printf "LOST     %s (killed by %s)\n", $1, k[$1]; lost++; next }
			if (!was && now) { printf "gained   %s (killed by %s)\n", $1, $3; next }
			if (k[$1] != $3) {
				split(k[$1], a, " "); split($3, b, " ")
				delete ina; delete inb; out = ""
				for (i in a) ina[a[i]] = 1
				for (i in b) inb[b[i]] = 1
				for (t in ina) if (!(t in inb)) out = out " -" t
				for (t in inb) if (!(t in ina)) out = out " +" t
				printf "killers  %s%s\n", $1, out
			}
		}
		END {
			for (id in st) if (!(id in seen)) printf "dropped  %s\n", id
			printf "# %d mutant(s) lost\n", lost
			exit lost > 0
		}' "$old" "$new"
}

if [[ ${1:-} == compare ]]; then
	[[ $# -eq 3 ]] || { echo "usage: census.sh compare OLD NEW" >&2; exit 2; }
	compare "$2" "$3"
	exit
fi
[[ ${1:-} == run ]] && shift
out=/dev/stdout
if [[ ${1:-} == -o ]]; then
	out=$2
	shift 2
fi
want=" $* "

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
# Only files that exist: a tracked file deleted in the working tree but not
# yet staged is still listed by ls-files.
(cd "$root" && git ls-files -co --exclude-standard -z |
	while IFS= read -r -d '' f; do if [[ -e $f ]]; then printf '%s\0' "$f"; fi; done |
	tar -cf - --null -T -) | tar -xf - -C "$work/base"

# importers[pkg] = the module's packages that import pkg from code or tests.
declare -A importers
while read -r pkg deps; do
	for d in $deps; do
		[[ $d == "$module"* && " ${importers[$d]:-} " != *" $pkg "* ]] && importers[$d]+=" $pkg"
	done
done < <(cd "$work/base" && go list -f '{{.ImportPath}} {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./...)

declare -A equiv
while read -r mark id _; do
	[[ $mark == = ]] && equiv[$id]=1
done < "$list"

total=0 killed=0 survived=0 equivalent=0
: > "$out"
while read -r id file expr; do
	[[ -z $id || $id == \#* || $id == = ]] && continue
	[[ $want == "  " || $want == *" $id "* ]] || continue
	total=$((total + 1))
	m=$work/m
	rm -rf "$m"
	cp -a "$work/base" "$m"
	n=$(sed -n "${expr}p" "$m/$file" | wc -l)
	if [[ $n -ne 1 ]]; then
		echo "census: mutant $id matches $n lines of $file, want 1" >&2
		exit 1
	fi
	sed -i "$expr" "$m/$file"
	pkg=$module/$(dirname "$file")
	if ! (cd "$m" && go build "$pkg" >/dev/null 2>&1); then
		echo "census: mutant $id does not build:" >&2
		(cd "$m" && go build "$pkg") >&2 || true
		exit 1
	fi
	echo "census: $id ($pkg${importers[$pkg]:-})" >&2
	log=$work/log.json
	(cd "$m" && go test -count=1 -json -timeout 5m "$pkg" ${importers[$pkg]:-} >"$log" 2>&1 </dev/null) || true
	# A test that panics aborts its package's test binary, and the tests
	# after it never report: run each of those alone, so that every test
	# the mutant kills is named, not only the first.
	for p in $pkg ${importers[$pkg]:-}; do
		grep -q "\"Action\":\"fail\",\"Package\":\"$p\",\"Elapsed\"" "$log" || continue
		reported=" $(sed -n 's#.*"Action":"\(pass\|fail\|skip\)","Package":"'"$p"'","Test":"\([^"/]*\)".*#\2#p' "$log" | tr '\n' ' ') "
		for t in $(cd "$m" && go test -list . "$p" 2>/dev/null | grep -E '^(Test|Fuzz|Example)'); do
			[[ $reported == *" $t "* ]] && continue
			echo "census: $id: $p.$t never reported, running it alone" >&2
			(cd "$m" && go test -count=1 -json -timeout 5m -run "^$t\$" "$p" >>"$log" 2>&1 </dev/null) || true
		done
	done
	killers=$(
		{
			sed -n 's/.*"Action":"fail","Package":"\([^"]*\)","Test":"\([^"/]*\).*/\1.\2/p' "$log"
			# a package that failed with no failing test: a timeout or a crash
			sed -n 's/.*"Action":"fail","Package":"\([^"]*\)","Elapsed".*/\1/p' "$log" | while read -r p; do
				grep -q "\"Action\":\"fail\",\"Package\":\"$p\",\"Test\"" "$log" || echo "$p.(package)"
			done
		} | sed "s#^$module/internal/##" | sort -u | tr '\n' ' ' | sed 's/ $//'
	)
	if [[ -n $killers ]]; then
		status=killed
		killed=$((killed + 1))
	elif [[ -n ${equiv[$id]:-} ]]; then
		status=equivalent
		equivalent=$((equivalent + 1))
	else
		status=survived
		survived=$((survived + 1))
	fi
	printf '%s\t%s\t%s\n' "$id" "$status" "$killers" >> "$out"
	echo "census: $id $status $killers" >&2
done < "$list"
printf '# %d mutants: %d killed, %d survived, %d equivalent\n' "$total" "$killed" "$survived" "$equivalent" >> "$out"
