#!/usr/bin/env bash
# vet.sh — run the repo's full static-analysis gate locally: exactly
# what CI's static-analysis job runs. From the repo root:
#
#   scripts/vet.sh            # go vet + pmsortvet (+ govulncheck if present)
#   scripts/vet.sh -only tagrange ./internal/coll   # pass-through args
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== pmsortvet =="
if [ $# -gt 0 ]; then
	go run ./cmd/pmsortvet "$@"
else
	go run ./cmd/pmsortvet ./...
fi

echo "== govulncheck =="
if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./...
else
	echo "govulncheck not installed; skipping (CI installs it)"
fi

echo "static analysis clean"
