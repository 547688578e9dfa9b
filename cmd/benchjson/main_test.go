package main

import "testing"

// TestBenchLineColumns: the -benchmem columns are read with and without
// the MB/s column a benchmark that calls b.SetBytes prints before them.
func TestBenchLineColumns(t *testing.T) {
	for _, line := range []string{
		"BenchmarkCheckpoint-2   	     631	   1771080 ns/op	 657.51 MB/s	     275 B/op	       9 allocs/op",
		"BenchmarkDefaultRun-2   	       5	   1771080 ns/op	     275 B/op	       9 allocs/op",
	} {
		m := benchLine.FindStringSubmatch(line)
		if m == nil || m[3] != "1771080" || m[4] != "275" || m[5] != "9" {
			t.Errorf("%q parsed as %q", line, m)
		}
	}
}
