# SWS-Go reproduction build targets.

GO ?= go
BIN ?= bin

.PHONY: all build test race bench tables experiments fuzz clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchmem ./internal/...

# Regenerate every table and figure of the paper's evaluation.
tables:
	$(GO) run ./cmd/sws-tables -reps 5 -pes-list 2,4,8,16

# Built binaries, not `go run`: the fingerprint line names the commit the
# go tool stamps into a build.
experiments:
	mkdir -p results $(BIN)
	$(GO) build -o $(BIN)/ ./cmd/sws-tables ./cmd/sws-uts
	$(BIN)/sws-tables -reps 5 -pes-list 2,4,8,16 > results/tables.txt
	$(BIN)/sws-uts -sweep -tree small -pes-list 2,4,8,16 -reps 5 > results/fig8.txt
	$(BIN)/sws-tables -only ablations > results/ablations.txt
	$(BIN)/sws-tables -only fig2 > results/fig2.txt

# -fuzz takes a regexp that must match exactly one target.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzStealvalRoundTrip$$' -fuzztime 30s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzStealPlan$$' -fuzztime 30s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzGrowShrinkSpill$$' -fuzztime 30s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime 30s ./internal/task/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeArbitrary$$' -fuzztime 30s ./internal/task/

clean:
	$(GO) clean ./...
	rm -rf $(BIN)
