// Package golden pins test output as plain text. Dump renders a value one
// field per line, and Check compares a rendering with a golden file under
// the calling package's testdata/golden directory, so a changed number
// shows up in a failing test as the field that moved, not as a new hash.
package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// Dump renders v one scalar per line as "<path> <value>", for example
// "Runs[1].Summary.P99Ms 16.81". It walks structs, slices and arrays.
// Floats print in the shortest form that parses back to the same bits,
// strings are quoted, and a number whose type has a String method is
// followed by that name in parentheses. An empty slice prints as "[]".
// Func fields, unexported fields and fields tagged `golden:"-"` are
// skipped; any other kind panics, so a new field of a type Dump cannot
// render is noticed rather than dropped.
func Dump(v any) string {
	var b strings.Builder
	dump(&b, "", reflect.ValueOf(v))
	return b.String()
}

func dump(b *strings.Builder, path string, v reflect.Value) {
	var s string
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Type.Kind() == reflect.Func || f.Tag.Get("golden") == "-" {
				continue
			}
			p := f.Name
			if path != "" {
				p = path + "." + f.Name
			}
			dump(b, p, v.Field(i))
		}
		return
	case reflect.Slice, reflect.Array:
		if v.Len() == 0 {
			fmt.Fprintf(b, "%s []\n", path)
		}
		for i := 0; i < v.Len(); i++ {
			dump(b, path+"["+strconv.Itoa(i)+"]", v.Index(i))
		}
		return
	case reflect.String:
		fmt.Fprintf(b, "%s %s\n", path, strconv.Quote(v.String()))
		return
	case reflect.Bool:
		s = strconv.FormatBool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		s = strconv.FormatInt(v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		s = strconv.FormatUint(v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		s = strconv.FormatFloat(v.Float(), 'g', -1, v.Type().Bits())
	default:
		panic(fmt.Sprintf("golden: cannot dump %s at %q", v.Type(), path))
	}
	if str, ok := v.Interface().(fmt.Stringer); ok {
		s += " (" + str.String() + ")"
	}
	fmt.Fprintf(b, "%s %s\n", path, s)
}

// Check compares got with the golden file testdata/golden/<name>.txt of
// the package under test; name is usually t.Name(). On a mismatch or a
// missing file it fails the test with the differing lines, writes got to
// a temporary file and logs the command that re-pins the golden file.
func Check(t testing.TB, name, got string) {
	t.Helper()
	file := filepath.Join("testdata", "golden", name+".txt")
	want, err := os.ReadFile(file)
	switch {
	case err != nil:
		t.Errorf("%v", err)
	case string(want) != got:
		t.Errorf("%s differs (- golden, + got):\n%s", file, Diff(string(want), got))
	default:
		return
	}
	tmp, err := os.CreateTemp("", "golden-*.txt")
	if err == nil {
		_, err = tmp.WriteString(got)
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		t.Logf("cannot save the output: %v", err)
		return
	}
	abs, err := filepath.Abs(file)
	if err != nil {
		abs = file
	}
	t.Logf("re-pin with: mkdir -p %s && cp %s %s", filepath.Dir(abs), tmp.Name(), abs)
}

// maxDiffLines caps the lines Diff reports.
const maxDiffLines = 20

// Diff returns the lines that differ between want and got, or "" when the
// texts are equal. After their common first and last lines, the rest of
// the two texts is compared line by line, and each pair that differs is
// reported as "-" (want) and "+" (got), numbered by its line. A moved
// value therefore shows as one pair naming its field; an inserted line
// shows first, as a "+" line, before the lines it shifts.
func Diff(want, got string) string {
	if want == got {
		return ""
	}
	a, b := strings.Split(want, "\n"), strings.Split(got, "\n")
	pre := 0
	for pre < len(a) && pre < len(b) && a[pre] == b[pre] {
		pre++
	}
	suf := 0
	for suf < len(a)-pre && suf < len(b)-pre && a[len(a)-1-suf] == b[len(b)-1-suf] {
		suf++
	}
	a, b = a[pre:len(a)-suf], b[pre:len(b)-suf]
	var out []string
	for i := 0; i < max(len(a), len(b)); i++ {
		if i < len(a) && i < len(b) && a[i] == b[i] {
			continue
		}
		if i < len(a) {
			out = append(out, fmt.Sprintf("%5d - %s", pre+i+1, a[i]))
		}
		if i < len(b) {
			out = append(out, fmt.Sprintf("%5d + %s", pre+i+1, b[i]))
		}
	}
	if len(out) > maxDiffLines {
		out = append(out[:maxDiffLines], fmt.Sprintf("… and %d more differing lines", len(out)-maxDiffLines))
	}
	return strings.Join(out, "\n")
}
