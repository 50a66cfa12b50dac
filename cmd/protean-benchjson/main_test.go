package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleCurrent = `goos: linux
goarch: amd64
pkg: protean/internal/gpu
BenchmarkRebalanceMPS/jobs=8-16 	 1000000	      1000 ns/op	     100 B/op	       2 allocs/op
BenchmarkSlowdownFor-16          	 9000000	       120.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkNoMem-16                	  500000	      2500 ns/op
PASS
ok  	protean/internal/gpu	7.247s
`

const sampleBaseline = `# recorded at commit deadbeef
goos: linux
BenchmarkRebalanceMPS/jobs=8 	  571256	      2000 ns/op	     889 B/op	      16 allocs/op
BenchmarkOnlyInBaseline      	  100000	      9999 ns/op	       0 B/op	       0 allocs/op
PASS
`

type output struct {
	Benchmarks []Result `json:"benchmarks"`
}

func decode(t *testing.T, data []byte) output {
	t.Helper()
	var out output
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	return out
}

func TestJoinAgainstBaseline(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.txt")
	if err := os.WriteFile(basePath, []byte(sampleBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	err := run([]string{"-baseline", basePath}, strings.NewReader(sampleCurrent), &stdout, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := decode(t, stdout.Bytes())
	if len(out.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(out.Benchmarks), out.Benchmarks)
	}
	// Sorted by name, GOMAXPROCS suffix stripped.
	if got := out.Benchmarks[1].Name; got != "BenchmarkRebalanceMPS/jobs=8" {
		t.Fatalf("benchmarks[1].Name = %q", got)
	}
	reb := out.Benchmarks[1]
	if reb.NsPerOp != 1000 || reb.BaselineNsPerOp == nil || *reb.BaselineNsPerOp != 2000 {
		t.Errorf("rebalance ns/op join wrong: %+v", reb)
	}
	if reb.Speedup == nil || *reb.Speedup != 2 {
		t.Errorf("speedup = %v, want 2", reb.Speedup)
	}
	if reb.BaselineAllocsPerOp == nil || *reb.BaselineAllocsPerOp != 16 {
		t.Errorf("baseline allocs = %v, want 16", reb.BaselineAllocsPerOp)
	}
	// SlowdownFor has no baseline row: baseline fields must be absent.
	slow := out.Benchmarks[2]
	if slow.BaselineNsPerOp != nil || slow.Speedup != nil {
		t.Errorf("unexpected baseline join on %q: %+v", slow.Name, slow)
	}
	if !strings.Contains(stdout.String(), `"ns_per_op"`) {
		t.Error("missing ns_per_op key in JSON")
	}
	if strings.Contains(stdout.String(), "BenchmarkOnlyInBaseline") {
		t.Error("baseline-only benchmarks must not appear in output")
	}
}

func TestNoBenchmemColumns(t *testing.T) {
	var stdout bytes.Buffer
	if err := run(nil, strings.NewReader(sampleCurrent), &stdout, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := decode(t, stdout.Bytes())
	for _, b := range out.Benchmarks {
		if b.Name == "BenchmarkNoMem" {
			if b.BytesPerOp != nil || b.AllocsPerOp != nil {
				t.Errorf("no-benchmem row grew memory columns: %+v", b)
			}
			return
		}
	}
	t.Fatal("BenchmarkNoMem not parsed")
}

func TestCustomMetricColumns(t *testing.T) {
	// b.ReportMetric columns print between ns/op and the -benchmem pair;
	// both placements must parse, and B/op and allocs/op must land in
	// their dedicated fields rather than the metrics map.
	const sample = `
BenchmarkScaleCell/scale=100x-16          	       2	 428546130 ns/op	   1296030 events/sec
BenchmarkWithMem-16                         	    1000	      1500 ns/op	       42.5 items/op	     128 B/op	       3 allocs/op
PASS
`
	results, _, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	cell := results["BenchmarkScaleCell/scale=100x"]
	if cell == nil {
		t.Fatal("no-benchmem benchmark not parsed")
	}
	if got := cell.Metrics["events/sec"]; got != 1296030 {
		t.Errorf("events/sec = %v, want 1296030", got)
	}
	if cell.BytesPerOp != nil || cell.AllocsPerOp != nil {
		t.Errorf("no-benchmem row grew memory columns: %+v", cell)
	}
	mem := results["BenchmarkWithMem"]
	if mem == nil {
		t.Fatal("benchmem benchmark not parsed")
	}
	if got := mem.Metrics["items/op"]; got != 42.5 {
		t.Errorf("items/op = %v, want 42.5", got)
	}
	if mem.BytesPerOp == nil || *mem.BytesPerOp != 128 {
		t.Errorf("B/op = %v, want 128", mem.BytesPerOp)
	}
	if mem.AllocsPerOp == nil || *mem.AllocsPerOp != 3 {
		t.Errorf("allocs/op = %v, want 3", mem.AllocsPerOp)
	}
	if _, stray := mem.Metrics["B/op"]; stray {
		t.Error("B/op leaked into the metrics map")
	}
}

func TestDeterministicOutput(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(nil, strings.NewReader(sampleCurrent), &a, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(nil, strings.NewReader(sampleCurrent), &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same input produced different JSON bytes")
	}
}

func TestWriteToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var stdout bytes.Buffer
	if err := run([]string{"-o", path}, strings.NewReader(sampleCurrent), &stdout, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("-o still wrote to stdout: %q", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out := decode(t, data); len(out.Benchmarks) != 3 {
		t.Errorf("file output has %d benchmarks, want 3", len(out.Benchmarks))
	}
}

func TestEmptyInputFails(t *testing.T) {
	if err := run(nil, strings.NewReader("PASS\nok\n"), io.Discard, io.Discard); err == nil {
		t.Error("empty benchmark input did not error")
	}
}

func TestRealBaselineParses(t *testing.T) {
	// The checked-in baseline must stay parseable; make bench depends on it.
	f, err := os.Open("../../bench/baseline.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	results, _, err := parseBench(f)
	if err != nil {
		t.Fatalf("parse bench/baseline.txt: %v", err)
	}
	if _, ok := results["BenchmarkRebalanceMPS/jobs=8"]; !ok {
		t.Errorf("baseline missing the headline rebalance benchmark; have %d results", len(results))
	}
}
