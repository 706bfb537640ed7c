#!/usr/bin/env bash
# Prints the functions declared in non-test files under internal/ that no
# binary links, with their line counts and the total. Not a gate: the list
# over-approximates (a method reached only through an interface the linker
# can prune, say), so each entry wants a look by hand.
#
# It builds every cmd/*, every examples/* and the front-door benchmark runner
# with inlining off for this module's packages (an inlined function leaves no
# symbol), reads their symbols with `go tool nm`, and hands them to the
# stdlib go/ast lister in ci/unlinked.
set -euo pipefail
cd "$(dirname "$0")/.."
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
flags=(-gcflags='deep/...=-l')
go build "${flags[@]}" -o "$bin/" ./cmd/... ./examples/...
go build -C benchmark "${flags[@]}" -o "$bin/frontdoor" .
for b in "$bin"/*; do go tool nm "$b"; done | go run ./ci/unlinked -module deep internal
