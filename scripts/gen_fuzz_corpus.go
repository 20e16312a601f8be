//go:build ignore

// gen_fuzz_corpus regenerates the committed seed corpora under
// internal/testbed/testdata/fuzz/. The seeds mirror the f.Add calls in
// fuzz_test.go but live on disk in `go test fuzz v1` format, so `go
// test` exercises them on every run and a future wire-format change
// regenerates them with one command:
//
//	go run scripts/gen_fuzz_corpus.go
//
// The output depends on nothing but the wire format, so `make
// fuzz-corpus` (a CI step) reruns it and fails if the committed corpora
// drift.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/testbed"
)

func frame(v any) []byte {
	var buf bytes.Buffer
	if err := testbed.WriteFrame(&buf, v); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

func binFrame(v any) []byte {
	var buf bytes.Buffer
	if err := testbed.WriteBinaryFrame(&buf, v); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

func writeSeed(dir, name string, data []byte) {
	body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", path)
}

func main() {
	root := filepath.Join("internal", "testbed", "testdata", "fuzz")
	batch := testbed.WireBatch{ID: 3, Reqs: []testbed.Request{
		{Trials: 2, Seed: 9},
		{Op: testbed.OpAnalyze, Fit: &testbed.FitConfig{Seed: 3, TrainRows: 10, TestRows: 4}},
	}}
	result := testbed.WireBatchResult{ID: 3, Items: []testbed.WireItem{{Err: "trial count"}}}

	seeds := map[string]map[string][]byte{
		"FuzzReadFrame": {
			"hello":          frame(testbed.Hello()),
			"batch":          frame(batch),
			"batch-result":   frame(result),
			"hostile-length": {0, 128, 0, 0, 'x', 'x', 'x', 'x', 'x', 'x'},
		},
		"FuzzBinaryFrame": {
			"batch":         binFrame(batch),
			"batch-result":  binFrame(result),
			"hostile-count": {0, 0, 0, 6, 1, 1, 0xff, 0xff, 0xff, 0x7f},
		},
		"FuzzWireHello": {
			"hello":      frame(testbed.Hello()),
			"jobs-hello": frame(testbed.JobsHello()),
			"future":     frame(testbed.WireHello{Protocol: 99, Physics: 1}),
		},
	}
	for target, files := range seeds {
		dir := filepath.Join(root, target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
		for name, data := range files {
			writeSeed(dir, name, data)
		}
	}
}
