// Command benchjson converts `go test -bench` output on stdin into a
// JSON array on stdout, one object per benchmark, so CI can emit a
// machine-readable perf trajectory (the BENCH_PR<n>.json snapshots at
// the repository root) alongside the human-readable log.
//
//	go test -run '^$' -bench 'RunStudy$|RunSweep' -benchmem -count 5 -benchtime 1x . | benchjson > BENCH.json
//
// Run with -count N, each benchmark prints N result lines. They are
// grouped by name, in order of first appearance, into one row holding
// the sample count and, per unit (ns/op, B/op, allocs/op and anything
// reported via b.ReportMetric), the median, min and max, so a single
// outlier shows as a spread instead of posing as the number.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// stat summarizes one unit's samples.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// row is one benchmark's samples, summarized per unit.
type row struct {
	Name    string          `json:"name"`
	Samples int             `json:"samples"`
	Values  map[string]stat `json:"values"`
}

func main() {
	os.Exit(appMain(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// appMain is the whole command, parameterized for tests: argv is
// os.Args[1:], and the return value is the process exit code. The
// command reads only stdin, so any argument is a usage error.
func appMain(argv []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(argv) > 0 {
		fmt.Fprintf(stderr, "benchjson: unexpected argument %q (pipe go test -bench output to stdin)\n", argv[0])
		return 2
	}
	rows, err := convert(stdin)
	if err == nil {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(rows)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	return 0
}

// convert reads benchmark output and returns one row per benchmark
// name, in order of first appearance.
func convert(r io.Reader) ([]row, error) {
	var order []string
	samples := make(map[string][]map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, values, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if samples[name] == nil {
			order = append(order, name)
		}
		samples[name] = append(samples[name], values)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Non-nil so zero parsed benchmarks encode as [], not null.
	rows := []row{}
	for _, name := range order {
		byUnit := make(map[string][]float64)
		for _, values := range samples[name] {
			for unit, v := range values {
				byUnit[unit] = append(byUnit[unit], v)
			}
		}
		r := row{Name: name, Samples: len(samples[name]), Values: make(map[string]stat)}
		for unit, vs := range byUnit {
			sort.Float64s(vs)
			n := len(vs)
			r.Values[unit] = stat{Median: (vs[(n-1)/2] + vs[n/2]) / 2, Min: vs[0], Max: vs[n-1]}
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// parseLine decodes one "BenchmarkName-8  N  V unit  V unit ..." line
// into the name, without its -GOMAXPROCS suffix, and its values by
// unit. A line without ns/op is not a result.
func parseLine(line string) (string, map[string]float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", nil, false
	}
	values := make(map[string]float64)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		values[fields[i+1]] = v
	}
	_, ok := values["ns/op"]
	return name, values, ok
}
