package bench

import (
	"bytes"
	"reflect"
	"testing"
)

// TestFleetDeterminism pins the fleet-routing sweep: same options, same
// rows and same rendered table, run to run — and every cell accounts
// for the whole stream.
func TestFleetDeterminism(t *testing.T) {
	o := Options{PhysBudget: 1 << 10, Seed: 1}
	rows1, err := Fleet(o)
	if err != nil {
		t.Fatalf("Fleet: %v", err)
	}
	rows2, err := Fleet(o)
	if err != nil {
		t.Fatalf("Fleet (second run): %v", err)
	}
	if !reflect.DeepEqual(rows1, rows2) {
		t.Fatalf("fleet sweep is not deterministic:\n%+v\nvs\n%+v", rows1, rows2)
	}
	if len(rows1) != 2*len(fleetWidths) {
		t.Fatalf("got %d rows, want %d", len(rows1), 2*len(fleetWidths))
	}
	for _, r := range rows1 {
		if r.Done+r.Rejected != FleetJobs {
			t.Fatalf("row %+v: done+rejected = %d, want %d", r, r.Done+r.Rejected, FleetJobs)
		}
		if r.MaxJobs < r.MinJobs {
			t.Fatalf("row %+v: max < min", r)
		}
	}
	// The bounded-load walk must never be more skewed than plain hashing
	// at the same width — leveling is the point.
	for i := 0; i+1 < len(rows1); i += 2 {
		plain, bounded := rows1[i], rows1[i+1]
		if plain.Bounded || !bounded.Bounded || plain.Shards != bounded.Shards {
			t.Fatalf("row order changed: %+v then %+v", plain, bounded)
		}
		if spread(bounded) > spread(plain) {
			t.Fatalf("bounded hashing more skewed than plain at %d shards: %+v vs %+v",
				plain.Shards, bounded, plain)
		}
	}
	var b1, b2 bytes.Buffer
	RenderFleet(&b1, rows1)
	RenderFleet(&b2, rows2)
	if b1.String() != b2.String() {
		t.Fatal("rendered fleet tables differ across runs")
	}
}

func spread(r FleetRow) int { return r.MaxJobs - r.MinJobs }
