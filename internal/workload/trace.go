package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"netrs/internal/sim"
)

// TraceEntry is one request of a recorded workload: an absolute arrival
// instant, the issuing client, and the key.
type TraceEntry struct {
	At     sim.Time
	Client int
	Key    uint64
}

// WriteTrace serializes entries as CSV (`arrival_ns,client,key`, one per
// line, with a header).
func WriteTrace(w io.Writer, entries []TraceEntry) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("arrival_ns,client,key\n"); err != nil {
		return fmt.Errorf("write trace header: %w", err)
	}
	for _, e := range entries {
		if _, err := fmt.Fprintf(bw, "%d,%d,%d\n", int64(e.At), e.Client, e.Key); err != nil {
			return fmt.Errorf("write trace entry: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("flush trace: %w", err)
	}
	return nil
}

// ReadTrace parses a CSV trace produced by WriteTrace. Entries must be
// sorted by arrival time.
func ReadTrace(r io.Reader) ([]TraceEntry, error) {
	scanner := bufio.NewScanner(r)
	var entries []TraceEntry
	line := 0
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" || (line == 1 && strings.HasPrefix(text, "arrival_ns")) {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("trace line %d: %d fields: %w", line, len(parts), ErrInvalidParam)
		}
		at, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		if err != nil || at < 0 {
			return nil, fmt.Errorf("trace line %d arrival %q: %w", line, parts[0], ErrInvalidParam)
		}
		client, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil || client < 0 {
			return nil, fmt.Errorf("trace line %d client %q: %w", line, parts[1], ErrInvalidParam)
		}
		key, err := strconv.ParseUint(strings.TrimSpace(parts[2]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace line %d key %q: %w", line, parts[2], ErrInvalidParam)
		}
		if n := len(entries); n > 0 && sim.Time(at) < entries[n-1].At {
			return nil, fmt.Errorf("trace line %d not sorted by arrival: %w", line, ErrInvalidParam)
		}
		entries = append(entries, TraceEntry{At: sim.Time(at), Client: client, Key: key})
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("read trace: %w", err)
	}
	return entries, nil
}

// RecordingSource captures every request a Source emits with its arrival
// time, so a synthetic run can be saved and replayed.
type RecordingSource struct {
	src     *Source
	emit    func(Request)
	entries []TraceEntry
}

// NewRecordingSource builds a Poisson source whose emissions Start both
// records and forwards to emit. The source times its arrivals itself, so
// eng, kept for the callers that pass one, is not used.
func NewRecordingSource(cfg SourceConfig, eng *sim.Engine, rng *sim.RNG, emit func(Request)) (*RecordingSource, error) {
	if emit == nil {
		return nil, fmt.Errorf("nil emit: %w", ErrInvalidParam)
	}
	src, err := NewSource(cfg, rng)
	if err != nil {
		return nil, err
	}
	return &RecordingSource{src: src, emit: emit}, nil
}

// Start generates the whole workload: each request, in emission order, is
// recorded and then forwarded to emit.
func (s *RecordingSource) Start() {
	for at, req, ok := s.src.Next(); ok; at, req, ok = s.src.Next() {
		s.entries = append(s.entries, TraceEntry{At: at, Client: req.Client, Key: req.Key})
		s.emit(req)
	}
}

// Entries returns the recorded trace so far.
func (s *RecordingSource) Entries() []TraceEntry { return s.entries }
