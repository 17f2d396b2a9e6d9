#!/usr/bin/env bash
# Prints, sorted, every exported func or method declared in non-test Go
# of the root module that no non-test Go calls — bench/, cmd/ and
# examples/ count as callers: dead, or alive only for the tests. It is a
# grep on the bare name: any line that is neither a comment nor a func
# declaration of that name clears every func of that name, and a method
# reached only through an interface is listed. `make verify` holds the
# output against scripts/orphans.allow, which gives each name its reason
# to stay; a name with no such reason is deleted, with the tests that
# were its only callers.
set -eu
cd "$(dirname "$0")/.."
mapfile -t files < <(find . -name '*.go' ! -name '*_test.go' ! -path './.*' ! -path './bench/out/*' | sed 's|^\./||' | sort)
for f in "${files[@]}"; do
	case $f in bench/* | cmd/* | examples/*) continue ;; esac
	pkg=$(sed -nE 's/^package //p' "$f" | head -1)
	sed -nE -e 's/^func \([A-Za-z_]+ \*?([A-Za-z0-9_]+)[^)]*\) ([A-Z][A-Za-z0-9_]*)[[(].*/\1.\2/p' \
		-e 's/^func ([A-Z][A-Za-z0-9_]*)[[(].*/\1/p' "$f" | sort -u | while read -r sym; do
		name=${sym##*.}
		uses=$(grep -hw -- "$name" "${files[@]}" | grep -cvE "^[[:space:]]*//|^func (\([^)]*\) )?$name[[(]" || true)
		[ "$uses" -gt 0 ] || echo "$pkg.$sym"
	done
done | sort
