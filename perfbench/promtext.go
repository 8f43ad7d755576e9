package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// parseMetrics reads a Prometheus text exposition and returns each
// series' value by metric name, summed over label sets (the per-engine
// series of rmserved carry dataset/h labels; the benchmark serves one
// engine, and sums are what its deltas need).
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if strings.HasPrefix(rest, "{") {
			j := strings.LastIndexByte(rest, '}')
			if j < 0 {
				return nil, fmt.Errorf("metrics line %q: unclosed labels", line)
			}
			rest = rest[j+1:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// delta returns after[name] - before[name].
func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}
