package main

import (
	"os"
	"strconv"
	"strings"
)

// stolenSeconds is the CPU time the hypervisor has taken from the
// machine's CPUs since boot — the steal column of /proc/stat — divided
// by the number of CPUs: the wall time a program using every CPU has
// lost to other tenants of the host. It reads 0 where there is no such
// counter.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	return parseStolen(string(b))
}

// parseStolen reads stolenSeconds from the text of /proc/stat, whose
// times are in USER_HZ (1/100 s) ticks.
func parseStolen(stat string) float64 {
	var total float64
	ncpu := 0
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0 || !strings.HasPrefix(f[0], "cpu"):
		case f[0] != "cpu":
			ncpu++
		case len(f) < 9:
			return 0
		default:
			v, err := strconv.ParseFloat(f[8], 64)
			if err != nil {
				return 0
			}
			total = v
		}
	}
	if ncpu == 0 {
		return 0
	}
	return total / 100 / float64(ncpu)
}
