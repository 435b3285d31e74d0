package serve

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestExplainAcrossShardsAndBackends is the acceptance gate for the
// explain endpoint: every job's breakdown must (a) partition the job's
// end-to-end latency exactly — contiguous phases whose durations sum to
// it — and (b) be byte-identical, in both JSON and text renderings,
// across kernel backends {serial, pool(1), pool(4)} on the node-leased
// scheduling model (Shards = 1).
func TestExplainAcrossShardsAndBackends(t *testing.T) {
	tr := metricsTrace()
	tr.Events[0].Arrive.TraceID = "f7"

	configs := []struct {
		name            string
		shards, workers int
	}{
		{"shard1-serial", 1, 0},
		{"shard1-pool1", 1, 1},
		{"shard1-pool4", 1, 4},
	}
	var golden string
	for _, c := range configs {
		ses, _, err := replaySession(tr, ReplayOptions{Obs: obs.New(), Shards: c.shards, Workers: c.workers})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var b strings.Builder
		for _, info := range ses.jobs {
			ex, err := ses.explain(info.Name)
			if err != nil {
				t.Fatalf("%s: explain %s: %v", c.name, info.Name, err)
			}
			var sum int64
			cur := ex.ArrivalNs
			for _, p := range ex.Phases {
				if p.StartNs != cur {
					t.Errorf("%s: %s: phase %q starts at %d, previous ended at %d",
						c.name, info.Name, p.Name, p.StartNs, cur)
				}
				cur = p.EndNs
				sum += p.DurNs
			}
			if sum != ex.LatencyNs {
				t.Errorf("%s: %s: phases sum to %d, latency %d", c.name, info.Name, sum, ex.LatencyNs)
			}
			if cur != ex.FinishNs {
				t.Errorf("%s: %s: phases end at %d, finish %d", c.name, info.Name, cur, ex.FinishNs)
			}
			j, err := json.Marshal(ex)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(j)
			b.WriteByte('\n')
			b.WriteString(ex.String())
		}
		if golden == "" {
			golden = b.String()
		} else if b.String() != golden {
			t.Errorf("%s: explanations differ from %s:\n--- golden\n%s\n--- got\n%s",
				c.name, configs[0].name, golden, b.String())
		}
	}

	// The trace ID threads through: job record and explanation both echo
	// the submission's stamp.
	ses, _, err := replaySession(tr, ReplayOptions{Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if got := ses.jobs[0].TraceID; got != "f7" {
		t.Errorf("job TraceID = %q, want f7", got)
	}
	ex, err := ses.explain(ses.jobs[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if ex.TraceID != "f7" {
		t.Errorf("explanation TraceID = %q, want f7", ex.TraceID)
	}
	if ex.State != "done" || len(ex.Phases) != 7 {
		t.Errorf("placed job explanation: %+v", ex)
	}

	// Without a recorder, explain refuses cleanly.
	plain, _, err := replaySession(metricsTrace(), ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.explain(plain.jobs[0].Name); err != ErrNoRecorder {
		t.Errorf("explain without recorder: err = %v, want ErrNoRecorder", err)
	}
}
