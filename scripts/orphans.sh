#!/usr/bin/env bash
# Prints, sorted, every exported func or method declared in non-test Go
# of the root module that no non-test Go calls — bench/, cmd/ and
# examples/ count as callers: dead, or alive only for the tests. It is a
# grep, so a line that is a comment or the func's own declaration does
# not count. A top-level func pkg.Name is used by a line that names it
# bare in its own package's directory, or as pkg.Name anywhere else. A
# method is used by any line naming it bare, which clears every method
# of that name; one reached only through an interface is listed. `make
# verify` holds the output against scripts/orphans.allow, which gives
# each name its reason to stay; a name with no such reason is deleted,
# with the tests that were its only callers.
#
# `orphans.sh bench` runs the same scan with bench/ not counted as a
# caller. What that adds to the list is kept alive by the benchmark
# harness alone; `make verify` holds those names against
# scripts/bench.pins, the pins the next bench/ change retires.
set -eu
cd "$(dirname "$0")/.."
skip='./bench/out/*'
[ "${1:-}" != bench ] || skip='./bench/*'
mapfile -t files < <(find . -name '*.go' ! -name '*_test.go' ! -path './.*' ! -path "$skip" | sed 's|^\./||' | sort)
for f in "${files[@]}"; do
	case $f in bench/* | cmd/* | examples/*) continue ;; esac
	pkg=$(sed -nE 's/^package //p' "$f" | head -1)
	dir=./$f dir=${dir%/*}
	own=() others=()
	for g in "${files[@]}"; do
		d=./$g
		if [ "${d%/*}" = "$dir" ]; then own+=("$g"); else others+=("$g"); fi
	done
	sed -nE -e 's/^func \([A-Za-z_]+ \*?([A-Za-z0-9_]+)[^)]*\) ([A-Z][A-Za-z0-9_]*)[[(].*/\1.\2/p' \
		-e 's/^func ([A-Z][A-Za-z0-9_]*)[[(].*/\1/p' "$f" | sort -u | while read -r sym; do
		name=${sym##*.}
		if [ "$sym" = "$name" ]; then
			lines=$({ grep -hw -- "$name" "${own[@]}"; grep -hwF -- "$pkg.$name" "${others[@]}"; } || true)
		else
			lines=$(grep -hw -- "$name" "${files[@]}" || true)
		fi
		uses=$(printf '%s\n' "$lines" | grep -cvE "^[[:space:]]*//|^func (\([^)]*\) )?$name[[(]|^$" || true)
		[ "$uses" -gt 0 ] || echo "$pkg.$sym"
	done
done | sort
