package main

import "testing"

// goldenStreams pins the first 1000 updates of every workload's stream
// under seed 1.  A change here changes what every committed baseline was
// measured on.
var goldenStreams = map[string]string{
	"engine_rules":       "324cbe2ff7b70b652f7f01952b17789467388b0d30eaafe1689360b9a363a0d4",
	"mesh_tcp_sat":       "3cae35904cfb25aec38e19e52dcc45070c41cf420016a551176ebdeda2122302",
	"mesh_durable_paced": "847a4af602c3a398500aa59bdaf2770a223d50a5a97f26aeef2234cf1b8a329b",
	"verify_trace":       "f9543786e0b0281154646028170acd51e7c387a0b901d7d42154fa9f428470ea",
}

func TestInputsGolden(t *testing.T) {
	seen := map[string]string{}
	for _, w := range workloads {
		got := streamHash(1, w, 1000)
		if got != goldenStreams[w.name] {
			t.Errorf("%s: seed 1 stream hash %s, want %s", w.name, got, goldenStreams[w.name])
		}
		if again := streamHash(1, w, 1000); again != got {
			t.Errorf("%s: the same seed gave two different streams", w.name)
		}
		if other := streamHash(2, w, 1000); other == got {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.name)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("%s and %s share a stream under one seed", w.name, prev)
		}
		seen[got] = w.name
	}
}

// TestStreamValuesIdentifyUpdates: values count up from 1 without gaps, so
// a value names exactly one update at every seam.
func TestStreamValuesIdentifyUpdates(t *testing.T) {
	g := newUpdateGen(9, "mesh_tcp_sat", meshKeys)
	for want := int64(1); want <= 500; want++ {
		stmt, val := g.sql()
		if val != want {
			t.Fatalf("update %d carries value %d", want, val)
		}
		if stmt == "" {
			t.Fatal("empty statement")
		}
	}
}
