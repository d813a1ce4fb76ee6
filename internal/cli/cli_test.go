package cli

import (
	"bytes"
	"strings"
	"testing"

	"sws/internal/bench"
)

func TestParsePEList(t *testing.T) {
	got, err := ParsePEList(" 2, 4,8 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 2 || got[2] != 8 {
		t.Errorf("got %v", got)
	}
	if def, err := ParsePEList(""); err != nil || len(def) == 0 {
		t.Errorf("default list: %v %v", def, err)
	}
	for _, bad := range []string{"a", "0", "-1", "1,,x"} {
		if _, err := ParsePEList(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestEmit(t *testing.T) {
	tbl := &bench.Table{Title: "t", Header: []string{"a"}, Rows: [][]string{{"1"}}}
	var buf bytes.Buffer
	if err := Emit(&buf, []*bench.Table{tbl}, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "## t") {
		t.Errorf("text emit: %q", buf.String())
	}
	buf.Reset()
	if err := Emit(&buf, []*bench.Table{tbl}, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# t") || !strings.Contains(buf.String(), "a") {
		t.Errorf("csv emit: %q", buf.String())
	}
}

// TestFingerprint: one comment line naming the machine and the build, so a
// results file says where its numbers came from.
func TestFingerprint(t *testing.T) {
	fp := Fingerprint()
	for _, want := range []string{"# nproc=", " GOMAXPROCS=", " go", " commit=", " sha1="} {
		if !strings.Contains(fp, want) {
			t.Errorf("fingerprint %q lacks %q", fp, want)
		}
	}
	if !strings.HasSuffix(fp, " sha1=shani") && !strings.HasSuffix(fp, " sha1=generic") {
		t.Errorf("fingerprint %q does not end with the SHA-1 kernel", fp)
	}
	if !strings.HasPrefix(fp, "# ") || strings.Contains(fp, "\n") {
		t.Errorf("fingerprint %q is not one comment line", fp)
	}
}
