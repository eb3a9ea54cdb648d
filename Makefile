# Developer entry points. `make lint` reproduces the CI lint job
# locally: check gofmt, build hybridlint from its own module, run it
# through go vet over every package, then run staticcheck and
# govulncheck when they are installed (both are skipped with a note
# otherwise, so the target works offline).

BIN := $(CURDIR)/bin

.PHONY: all build test lint hybridlint tools-test clean

all: build test lint

build:
	go build ./...

# test runs the root module's tests, then vets and tests the bench
# module the way the CI bench job does: it has its own go.mod, so the
# root ./... patterns never reach it.
test:
	go test ./...
	cd bench && go vet ./... && go test -short ./...

# tools-test runs the linter's own analysistest suites.
tools-test:
	cd tools/hybridlint && go test ./...

hybridlint:
	@mkdir -p $(BIN)
	cd tools/hybridlint && go build -o $(BIN)/hybridlint .

lint: hybridlint tools-test
	@unformatted=$$(gofmt -l $$(git ls-files '*.go' | grep -v '\(^\|/\)testdata/')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi
	go vet ./...
	go vet -vettool=$(BIN)/hybridlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (CI runs it)"; \
	fi

clean:
	rm -rf $(BIN)
