// Package cliutil holds small helpers shared by the netrs command-line
// tools.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSeeds parses a comma-separated seed list ("1,2,3").
func ParseSeeds(list string) ([]uint64, error) {
	var seeds []uint64
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed %q: %w", s, err)
		}
		seeds = append(seeds, v)
	}
	return seeds, nil
}
