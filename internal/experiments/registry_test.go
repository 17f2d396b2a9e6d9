package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"mbrtopo/internal/workload"
)

// TestQuickGolden is the tier-1 gate on the evaluation: every count
// `topobench -quick -exp all` prints — Table 3's hits, Figure 11's
// 3 × 3 × 8 accesses, Table 4's short circuits, the Table 1 and Table 2
// row sizes — is diffed against the committed text. After an intended
// change regenerate it with
//
//	go run ./cmd/topobench -quick -exp all > internal/experiments/testdata/quick.golden
//
// and review the diff (results_full.txt is the same at paper scale;
// `make paper` diffs that one).
func TestQuickGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := Run(&got, "all", Quick(), workload.Medium); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	section := ""
	for i, w := range wantLines {
		if strings.HasPrefix(w, "=== ") {
			section = w
		}
		if i >= len(gotLines) || gotLines[i] != w {
			g := "(output ends)"
			if i < len(gotLines) {
				g = gotLines[i]
			}
			t.Fatalf("`topobench -quick -exp all` no longer prints testdata/quick.golden; first difference at line %d, in %s\n  golden: %q\n  got:    %q",
				i+1, section, w, g)
		}
	}
	t.Fatalf("`topobench -quick -exp all` prints %d lines past the end of testdata/quick.golden", len(gotLines)-len(wantLines))
}

// TestRegistry: ids are unique, every entry states the claim it checks,
// an alias names a real non-alias entry and is left out of "all", and an
// unknown id is answered with the list of known ones.
func TestRegistry(t *testing.T) {
	byID := map[string]entry{}
	for _, e := range registry {
		if _, dup := byID[e.id]; dup || e.id == "all" || e.id == "" {
			t.Errorf("id %q is empty, reserved or registered twice", e.id)
		}
		byID[e.id] = e
		if strings.TrimSpace(e.claim) == "" {
			t.Errorf("%s: no claim", e.id)
		}
		if e.run == nil {
			t.Errorf("%s: nothing to run", e.id)
		}
	}
	section := func(id string) string {
		var b bytes.Buffer
		if err := Run(&b, id, Quick(), workload.Medium); err != nil {
			t.Fatal(err)
		}
		return strings.TrimPrefix(b.String(), "=== "+id+" ===")
	}
	for _, e := range registry {
		if e.aliasOf == "" {
			continue
		}
		if target, ok := byID[e.aliasOf]; !ok || target.aliasOf != "" {
			t.Errorf("%s: alias of %q, which is not a registered non-alias entry", e.id, e.aliasOf)
		} else if section(e.id) != section(e.aliasOf) {
			t.Errorf("%s does not print %s's section", e.id, e.aliasOf)
		}
	}
	all, err := lookup("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range all {
		if e.aliasOf != "" {
			t.Errorf(`"all" runs the alias %s`, e.id)
		}
	}

	err = Run(new(bytes.Buffer), "no-such-experiment", Quick(), workload.Medium)
	if err == nil {
		t.Fatal("an unknown id ran")
	}
	for _, id := range IDs() {
		if !strings.Contains(err.Error(), "\n  "+id+" ") {
			t.Errorf("the unknown-id error does not list %q:\n%v", id, err)
		}
	}
}
