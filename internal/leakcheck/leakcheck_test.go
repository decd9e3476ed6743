package leakcheck

import (
	"flag"
	"testing"
)

// TestFuzzing: Main skips its check exactly when -test.fuzz names a
// target, as it does under `go test -fuzz`.
func TestFuzzing(t *testing.T) {
	f := flag.Lookup("test.fuzz")
	if f == nil {
		t.Fatal("the testing package registers no -test.fuzz flag")
	}
	defer flag.Set("test.fuzz", f.Value.String())
	for _, c := range []struct {
		value string
		want  bool
	}{{"", false}, {"FuzzParseSpec", true}} {
		if err := flag.Set("test.fuzz", c.value); err != nil {
			t.Fatal(err)
		}
		if got := fuzzing(); got != c.want {
			t.Errorf("with -test.fuzz=%q, fuzzing() = %v, want %v", c.value, got, c.want)
		}
	}
}
