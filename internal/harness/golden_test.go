package harness

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current experiment output")

// TestGoldenExperiments holds every deterministic experiment's scale-1
// table byte for byte against testdata/<id>.golden — exactly what
// `cmbench -exp <id>` prints, minus Println's trailing newline.  A change
// that moves a verdict, a count or a virtual-clock delay shows up here
// and in its diff.  Regenerate with
// `go test ./internal/harness -run TestGoldenExperiments -update`.
func TestGoldenExperiments(t *testing.T) {
	for _, x := range Suite {
		if !x.Golden {
			continue
		}
		t.Run(x.ID, func(t *testing.T) {
			got := x.Run(1).String()
			path := filepath.Join("testdata", x.ID+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("%s output differs from %s:\n--- got ---\n%s--- want ---\n%s", x.ID, path, got, want)
			}
		})
	}
}
