#!/bin/sh
# Reproduces the CI lint job locally in one command:
#
#   scripts/lint.sh          # full: gofmt, go vet, sqlmlvet, deadexports, staticcheck, govulncheck
#   scripts/lint.sh --fast   # inner loop: gofmt + sqlmlvet + deadexports only
#
# sqlmlvet is the repository's own vettool (batchretain, errdiscard,
# lockhygiene, maporder, poolreturn, retrybudget, vecsafety, wiretrust);
# a stale or reason-less //lint:allow fails the run like any other
# diagnostic. deadexports (scripts/deadexports) lists exported names under
# internal/ that no file in the module references; it prints nothing on a
# swept tree. staticcheck and govulncheck are pinned to the exact
# versions CI uses and are skipped with a note when not installed, so the
# script works in a stdlib-only sandbox; CI always runs them.
set -eu

# Keep these in sync with .github/workflows/ci.yml.
STATICCHECK_VERSION=2025.1.1
GOVULNCHECK_VERSION=v1.1.4

fast=0
case "${1:-}" in
--fast) fast=1 ;;
"") ;;
*)
    echo "usage: scripts/lint.sh [--fast]" >&2
    exit 2
    ;;
esac

cd "$(dirname "$0")/.."

echo "== gofmt"
out=$(gofmt -l .)
if [ -n "$out" ]; then
    echo "files need gofmt:"
    echo "$out"
    exit 1
fi

echo "== sqlmlvet (batchretain errdiscard lockhygiene maporder poolreturn retrybudget vecsafety wiretrust)"
tool="${TMPDIR:-/tmp}/sqlmlvet"
go build -o "$tool" ./cmd/sqlmlvet
go vet -vettool="$tool" ./...

echo "== deadexports (exported names under internal/ nothing references)"
go run ./scripts/deadexports

if [ "$fast" = 1 ]; then
    echo "lint OK (fast)"
    exit 0
fi

echo "== go vet (standard analyzers)"
go vet ./...

echo "== staticcheck ($STATICCHECK_VERSION)"
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "skipped: staticcheck not installed" \
        "(go install honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION)"
fi

echo "== govulncheck ($GOVULNCHECK_VERSION)"
if command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./...
else
    echo "skipped: govulncheck not installed" \
        "(go install golang.org/x/vuln/cmd/govulncheck@$GOVULNCHECK_VERSION)"
fi

echo "lint OK"
