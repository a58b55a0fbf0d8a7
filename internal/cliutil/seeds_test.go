package cliutil

import (
	"reflect"
	"testing"
)

func TestParseSeeds(t *testing.T) {
	got, err := ParseSeeds(" 1, 2,3 ")
	if err != nil || !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
		t.Fatalf("got %v, %v", got, err)
	}
	for _, bad := range []string{"", "1,,2", "a", "1,-2"} {
		if _, err := ParseSeeds(bad); err == nil {
			t.Fatalf("ParseSeeds(%q) accepted", bad)
		}
	}
}
