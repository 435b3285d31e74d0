package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/serve"
)

// Merge renders the fleet-level report from per-shard drain responses:
// one banner-framed shard report per shard, ordered by shard ID, then a
// fleet summary line over the summed admission counters. A live drain
// and a replay of the same shard traces must produce byte-identical
// text — that equality is the fleet's correctness proof.
func Merge(resps []serve.DrainResponse) string {
	sorted := append([]serve.DrainResponse(nil), resps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Shard < sorted[j].Shard })
	var b strings.Builder
	var submitted, done, failed, cancelled, rejected int64
	for _, r := range sorted {
		fmt.Fprintf(&b, "=== shard %s epoch %d ===\n", r.Shard, r.Epoch)
		b.WriteString(r.Report)
		if !strings.HasSuffix(r.Report, "\n") {
			b.WriteByte('\n')
		}
		submitted += r.Submitted
		done += r.Done
		failed += r.Failed
		cancelled += r.Cancelled
		rejected += r.Rejected
	}
	fmt.Fprintf(&b, "fleet: %d shards  %d submitted  %d done  %d failed  %d cancelled  %d rejected\n",
		len(sorted), submitted, done, failed, cancelled, rejected)
	return b.String()
}

// ReplayDir replays every shard arrival trace in dir (*.jsonl, one per
// shard) through the offline path and merges the reports exactly as a
// live drain would: the output must match the live fleet's merged
// report byte for byte.
func ReplayDir(dir string, opt serve.ReplayOptions) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return "", err
	}
	if len(paths) == 0 {
		return "", fmt.Errorf("fleet: no shard traces (*.jsonl) in %s", dir)
	}
	sort.Strings(paths)
	var resps []serve.DrainResponse
	for _, p := range paths {
		dr, err := replayTrace(p, opt)
		if err != nil {
			return "", fmt.Errorf("fleet: replaying %s: %w", p, err)
		}
		resps = append(resps, dr)
	}
	return Merge(resps), nil
}

// replayTrace replays one shard trace into the drain-response shape.
func replayTrace(path string, opt serve.ReplayOptions) (serve.DrainResponse, error) {
	f, err := os.Open(path)
	if err != nil {
		return serve.DrainResponse{}, err
	}
	defer f.Close()
	tr, err := serve.ReadTrace(f)
	if err != nil {
		return serve.DrainResponse{}, err
	}
	rep, err := serve.Replay(tr, opt)
	if err != nil {
		return serve.DrainResponse{}, err
	}
	shard := tr.Header.Shard
	if shard == "" {
		// An unregistered shard's trace: fall back to the file name so the
		// merge order is still deterministic.
		shard = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	return serve.NewDrainResponse(rep, shard, tr.Header.Epoch), nil
}
