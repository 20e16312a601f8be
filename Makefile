# CI and humans invoke the same targets (.github/workflows/ci.yml).

GO ?= go

# Pinned staticcheck release; CI installs exactly this version, so a
# local `go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)`
# reproduces the gate bit for bit.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: all build test race bench bench-json bench-compare lint fmt docs fuzz-corpus ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# surface; the seed is printed on failure for replay with -shuffle=<seed>.
race:
	$(GO) test -race -shuffle=on ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Benchmark trajectory: one 1x pass distilled into the newest committed
# BENCH_<n>.json (ns/op per benchmark); CI archives it per run.
bench-json:
	sh scripts/bench_json.sh

# Bench ratchet: fresh 1x pass diffed against the committed baseline;
# fails on any benchmark slower than BENCH_TOLERANCE (default 2.0x).
bench-compare:
	sh scripts/bench_compare.sh

lint:
	$(GO) vet ./...
	$(GO) run ./cmd/xrlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; fi
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

fmt:
	gofmt -w .

docs:
	sh scripts/check_docs.sh

# Fuzz-corpus drift gate: the generator is deterministic, so rerunning it
# must leave the committed seed corpora byte-identical.
fuzz-corpus:
	$(GO) run scripts/gen_fuzz_corpus.go
	git diff --exit-code -- internal/testbed/testdata/fuzz

ci: build lint race bench docs fuzz-corpus
