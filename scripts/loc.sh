#!/usr/bin/env bash
# Prints the size of the root module without bench/ (a nested module
# with its own go.mod): the Go lines of non-test files, the Go lines of
# _test.go files, and the package count `go list ./...` reports.
# Simplicity changes quote these numbers before and after; `make loc`
# runs it.
set -eu
cd "$(dirname "$0")/.."
lines() {
	find . -name '*.go' ! -path './bench/*' ! -path './.*' "$@" -print0 | xargs -0 cat | wc -l
}
echo "non-test Go lines: $(lines ! -name '*_test.go')"
echo "test Go lines:     $(lines -name '*_test.go')"
echo "packages:          $(go list ./... | wc -l)"
