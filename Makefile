# Developer entry points; CI runs the same commands (see
# .github/workflows/ci.yml and scripts/lint.sh).

.PHONY: build test race lint lint-fast fuzz-smoke

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Full lint: gofmt, go vet, sqlmlvet, pinned staticcheck + govulncheck.
lint:
	scripts/lint.sh

# Inner loop: gofmt + the sqlmlvet suite + deadexports (seconds, stdlib-only).
lint-fast:
	scripts/lint.sh --fast

fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzKeyCodec$$' -fuzztime 10s ./internal/row
	go test -run '^$$' -fuzz '^FuzzBlockFrame$$' -fuzztime 10s ./internal/row
	go test -run '^$$' -fuzz '^FuzzTextScan$$' -fuzztime 10s ./internal/row
	go test -run '^$$' -fuzz '^FuzzControlMessage$$' -fuzztime 10s ./internal/stream
	go test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/sqlengine
