package workload

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"netrs/internal/sim"
)

func TestTraceRoundTrip(t *testing.T) {
	in := []TraceEntry{
		{At: 0, Client: 3, Key: 42},
		{At: 1500, Client: 0, Key: 7},
		{At: 1500, Client: 1, Key: 7},
		{At: 90000, Client: 2, Key: 1 << 40},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d entries", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []string{
		"arrival_ns,client,key\n1,2\n",           // too few fields
		"x,0,0\n",                                // bad arrival
		"-5,0,0\n",                               // negative arrival
		"0,x,0\n",                                // bad client
		"0,-1,0\n",                               // negative client
		"0,0,x\n",                                // bad key
		"arrival_ns,client,key\n10,0,0\n5,0,0\n", // unsorted
	}
	for i, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c)); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
	// Blank lines and header are tolerated.
	out, err := ReadTrace(strings.NewReader("arrival_ns,client,key\n\n1,2,3\n"))
	if err != nil || len(out) != 1 {
		t.Fatalf("lenient parse = %v, %v", out, err)
	}
}

func TestRecordingSourceCapturesAndReplays(t *testing.T) {
	eng := sim.NewEngine()
	cfg := sourceConfig(500)
	var live []Request
	rec, err := NewRecordingSource(cfg, eng, sim.NewRNG(12), func(r Request) { live = append(live, r) })
	if err != nil {
		t.Fatal(err)
	}
	rec.Start()
	eng.Run()
	entries := rec.Entries()
	if len(entries) != 500 || len(live) != 500 {
		t.Fatalf("recorded %d, emitted %d", len(entries), len(live))
	}

	for i, e := range entries {
		if e.Client != live[i].Client || e.Key != live[i].Key {
			t.Fatalf("entry %d = %+v, emitted %+v", i, e, live[i])
		}
	}

	// Serialize and re-read: the parsed trace must be the recorded one.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, entries); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(parsed, entries) {
		t.Fatal("parsed trace differs from the recorded one")
	}
}
