package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestConvertGroupsSamples: -count N output folds into one row per
// benchmark name, in first-appearance order, with every unit's median,
// min and max; non-result lines are skipped.
func TestConvertGroupsSamples(t *testing.T) {
	in := `goos: linux
BenchmarkRunStudy-2   	       1	 500 ns/op	 7000 B/op	 90 allocs/op
BenchmarkRunStudy-2   	       1	 300 ns/op	 8000 B/op	 80 allocs/op
BenchmarkRunStudy-2   	       1	 900 ns/op	 6000 B/op	 70 allocs/op
BenchmarkRunSweep/workers=2-2 	 1	 40 ns/op	 2.5 studies/s
BenchmarkRunSweep/workers=2-2 	 1	 20 ns/op	 3.5 studies/s
BenchmarkAccess/LRU/768   	 100	 64.5 ns/op
BenchmarkBroken-2   	 1	 12 B/op	 3 allocs/op
PASS
ok  	repro	12.3s
`
	rows, err := convert(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3: %+v", len(rows), rows)
	}
	check := func(r row, name string, samples int, want map[string]stat) {
		t.Helper()
		if r.Name != name || r.Samples != samples || len(r.Values) != len(want) {
			t.Fatalf("row %+v, want %s with %d samples and units %v", r, name, samples, want)
		}
		for unit, w := range want {
			if r.Values[unit] != w {
				t.Fatalf("%s %s = %+v, want %+v", name, unit, r.Values[unit], w)
			}
		}
	}
	check(rows[0], "BenchmarkRunStudy", 3, map[string]stat{
		"ns/op":     {Median: 500, Min: 300, Max: 900},
		"B/op":      {Median: 7000, Min: 6000, Max: 8000},
		"allocs/op": {Median: 80, Min: 70, Max: 90},
	})
	// An even sample count takes the mean of the middle two, custom
	// metrics included.
	check(rows[1], "BenchmarkRunSweep/workers=2", 2, map[string]stat{
		"ns/op":     {Median: 30, Min: 20, Max: 40},
		"studies/s": {Median: 3, Min: 2.5, Max: 3.5},
	})
	check(rows[2], "BenchmarkAccess/LRU/768", 1, map[string]stat{
		"ns/op": {Median: 64.5, Min: 64.5, Max: 64.5},
	})
}

func TestConvertEmpty(t *testing.T) {
	rows, err := convert(strings.NewReader("PASS\n"))
	if err != nil || rows == nil || len(rows) != 0 {
		t.Fatalf("rows %v, err %v; want an empty, non-nil slice", rows, err)
	}
}

// TestArgumentIsUsageError: benchjson reads stdin only, so a file
// argument exits 2. It used to be dropped: "benchjson bench.out" read
// an empty stdin and printed [].
func TestArgumentIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := appMain([]string{"bench.out"}, strings.NewReader(""), &stdout, &stderr)
	if code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), `unexpected argument "bench.out"`) {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 naming the argument", code, stdout.String(), stderr.String())
	}
}
