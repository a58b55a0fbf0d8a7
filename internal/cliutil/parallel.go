// Package cliutil holds small helpers shared by the netrs command-line
// tools.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// ApplyEnvParallel lets the NETRS_PARALLEL environment variable supply the
// trial parallelism when the named flag was not given explicitly on the
// command line (an explicit flag always wins): the environment adjusts
// defaults, flags decide.
// Surrounding whitespace is ignored, so an empty or whitespace-only value
// behaves like an unset variable.
func ApplyEnvParallel(fs *flag.FlagSet, name string, parallel *int) error {
	env := strings.TrimSpace(os.Getenv("NETRS_PARALLEL"))
	if env == "" {
		return nil
	}
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	if set {
		return nil
	}
	n, err := strconv.Atoi(env)
	if err != nil || n < 0 {
		return fmt.Errorf("NETRS_PARALLEL=%q: want a nonnegative integer", env)
	}
	*parallel = n
	return nil
}

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
