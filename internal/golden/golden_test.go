package golden

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type level int

func (l level) String() string { return fmt.Sprintf("L%d", int(l)) }

type inner struct {
	P99 float64
	Tag string
}

func TestDump(t *testing.T) {
	got := Dump([]struct {
		Name    string
		Level   level
		Ok      bool
		Count   uint16
		Small   float32
		Runs    []inner
		None    []int
		Pair    [2]int8
		Mutate  func()
		Wall    float64 `golden:"-"`
		private int
	}{{
		Name:  "a\nb",
		Level: 3,
		Ok:    true,
		Count: 7,
		Small: 0.1,
		Runs:  []inner{{P99: math.Nextafter(0.3, 1), Tag: "x"}, {P99: math.Inf(-1)}},
		Pair:  [2]int8{-1, 2},
		Wall:  9,
	}})
	want := `[0].Name "a\nb"
[0].Level 3 (L3)
[0].Ok true
[0].Count 7
[0].Small 0.1
[0].Runs[0].P99 0.30000000000000004
[0].Runs[0].Tag "x"
[0].Runs[1].P99 -Inf
[0].Runs[1].Tag ""
[0].None []
[0].Pair[0] -1
[0].Pair[1] 2
`
	if got != want {
		t.Fatalf("Dump:\n%s\nwant:\n%s", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a map field did not panic")
		}
	}()
	Dump(struct{ M map[int]int }{})
}

func TestDiff(t *testing.T) {
	if d := Diff("a\nb\n", "a\nb\n"); d != "" {
		t.Fatalf("equal texts differ: %q", d)
	}
	d := Diff("x 1\ny 2\nz 3\nw 4\n", "x 1\ny 5\nz 3\nnew 0\nw 4\n")
	if want := "    2 - y 2\n    2 + y 5\n    4 + new 0"; d != want {
		t.Errorf("diff:\n%s\nwant:\n%s", d, want)
	}
	if d := Diff("", strings.Repeat("v\n", 3*maxDiffLines)); !strings.HasSuffix(d, "… and 40 more differing lines") {
		t.Errorf("long diff not cut:\n%s", d)
	}
}

// recorder is a testing.TB that keeps what Check reports.
type recorder struct {
	testing.TB
	errors, logs []string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
}
func (r *recorder) Logf(format string, args ...any) {
	r.logs = append(r.logs, fmt.Sprintf(format, args...))
}

func TestCheck(t *testing.T) {
	var r recorder
	Check(&r, "pinned", "a 1\nb 2\n")
	Check(&r, "pinned", "a 1\nb 3\n")
	Check(&r, "missing", "c 1\n")
	if len(r.errors) != 2 || !strings.Contains(r.errors[0], "+ b 3") || len(r.logs) != 2 ||
		!strings.HasSuffix(r.logs[0], filepath.Join("testdata", "golden", "pinned.txt")) {
		t.Fatalf("checks reported %q, logs %q", r.errors, r.logs)
	}
	// Each logged command copies the saved output onto the golden file.
	for i, want := range []string{"a 1\nb 3\n", "c 1\n"} {
		cmd := strings.Fields(r.logs[i])
		saved, err := os.ReadFile(cmd[len(cmd)-2])
		os.Remove(cmd[len(cmd)-2])
		if err != nil || string(saved) != want {
			t.Errorf("re-pin command %q saved %q (%v)", r.logs[i], saved, err)
		}
	}
}
