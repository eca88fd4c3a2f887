package bench

import (
	"fmt"
	"sync"

	phoenix "repro"
	"repro/internal/obs"
)

func init() {
	register(&Experiment{
		ID:    "groupcommit",
		Title: "Group commit: device syncs per call vs concurrent clients",
		Run:   runGroupCommit,
	})
}

// runGroupCommit measures the log's one force path with the commit
// window off ("direct") and on ("group-commit"): N external clients
// call N persistent components hosted in ONE server process, so every
// call pays Algorithm 3's two forces (incoming record, then reply
// record) against the shared log. Concurrent forces always share a
// device sync (the first requester leads it, later ones ride it);
// without the window that happens only when requests overlap a sync in
// flight, with it a fresh leader waits 200µs for company first. Device
// syncs per call drop below 1 as concurrency grows in both modes. The
// wal.group.* metrics expose the batch shape and land in phoenix-bench
// -json via the default registry.
func runGroupCommit(o Options) (*Table, error) {
	o = o.Defaults()
	t := &Table{
		ID: "GroupCommit",
		Title: fmt.Sprintf(
			"Group commit: device syncs per call, 2-forces-per-call workload, up to %d clients, %d log shard(s)",
			o.Concurrency, o.WALShards),
		Cols: []string{"Log manager", "Shards", "Clients", "Calls", "Device syncs", "Syncs/call", "Mean batch", "Syncs saved", "Calls/s (bound)", "Appends/s (bound)"},
		Notes: []string{
			"every external call semantically forces twice (Algorithm 3: incoming + reply); syncs/call < 1 means combining beats the per-call bill",
			"Mean batch (requests satisfied per device sync, leader included) and Syncs saved are the wal.group.* metrics, observed by the same leader/follower code in both modes",
			"Shards > 1 partitions the log by context (Config.WAL.Shards): appends and forces from different clients stop serializing on one mutex and one device file",
			"Calls/s (bound) divides total calls by the busiest shard's serialized busy time (append critical sections + flush/sync durations, Stats.*BusyNanos): the throughput ceiling the log's serial resources impose, independent of the measuring host's core count",
			"Appends/s (bound) is the same ceiling for the append path alone (record appends / busiest shard's AppendBusyNanos): the mutex-serialized work that sharding divides; sync busy does not divide here because tail-covering group commit already gives each device ~constant syncs per call",
		},
	}
	for _, gcOn := range []bool{false, true} {
		for _, clients := range clientLevels(o.Concurrency) {
			row, err := runGroupCommitCell(o, gcOn, clients)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// clientLevels sweeps 1, 2, 4, ... capped at max (always including it).
func clientLevels(max int) []int {
	var levels []int
	for c := 1; c < max; c *= 2 {
		levels = append(levels, c)
	}
	return append(levels, max)
}

func runGroupCommitCell(o Options, gcOn bool, clients int) ([]string, error) {
	ec := localEnv()
	ec.hostDisk = true // batching is about sync counts; real fsyncs make it visible
	e, err := newEnv(o, ec)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	m, err := e.u.AddMachine("server")
	if err != nil {
		return nil, err
	}
	cfg := benchConfig(phoenix.LogOptimized, true)
	if gcOn {
		cfg.WAL.GroupCommit = phoenix.GroupCommit{Enabled: true}
	}
	cfg.WAL.Shards = o.WALShards
	ps, err := m.StartProcess("srv", cfg)
	if err != nil {
		return nil, err
	}
	defer ps.Close()
	refs := make([]*phoenix.Ref, clients)
	for i := range refs {
		h, err := ps.Create(fmt.Sprintf("Comp%d", i), &BenchServer{})
		if err != nil {
			return nil, err
		}
		refs[i] = e.u.ExternalRef(h.URI())
	}
	// Warm up (creation noise), then measure.
	for _, ref := range refs {
		if _, err := ref.Call("Add", 0); err != nil {
			return nil, err
		}
	}
	ps.ResetLogStats()
	before := obs.Default().Snapshot()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for _, ref := range refs {
		wg.Add(1)
		go func(r *phoenix.Ref) {
			defer wg.Done()
			for i := 0; i < o.Calls; i++ {
				if _, err := r.Call("Add", 1); err != nil {
					errs <- err
					return
				}
			}
		}(ref)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}

	delta := obs.Default().Snapshot().Diff(before)
	syncs := ps.LogStats().Forces
	total := clients * o.Calls
	mode := "direct"
	if gcOn {
		mode = "group-commit"
	}
	// The busiest shard's serialized busy time bounds throughput: its
	// append mutex and device file admit one operation at a time no
	// matter how many clients (or host cores) there are.
	var maxBusy, maxAppendBusy, appends int64
	for _, sh := range ps.ShardLogStats() {
		if busy := sh.Stats.AppendBusyNanos + sh.Stats.SyncBusyNanos; busy > maxBusy {
			maxBusy = busy
		}
		if sh.Stats.AppendBusyNanos > maxAppendBusy {
			maxAppendBusy = sh.Stats.AppendBusyNanos
		}
		appends += sh.Stats.Appends
	}
	rate, appendRate := "-", "-"
	if maxBusy > 0 {
		rate = fmt.Sprintf("%.0f", float64(total)/(float64(maxBusy)/1e9))
	}
	if maxAppendBusy > 0 {
		appendRate = fmt.Sprintf("%.0f", float64(appends)/(float64(maxAppendBusy)/1e9))
	}
	return []string{
		mode,
		fmt.Sprintf("%d", o.WALShards),
		fmt.Sprintf("%d", clients),
		fmt.Sprintf("%d", total),
		fmt.Sprintf("%d", syncs),
		fmt.Sprintf("%.2f", float64(syncs)/float64(total)),
		fmt.Sprintf("%.2f", delta.HistogramFor(obs.WALGroupBatchSize).Mean()),
		fmt.Sprintf("%d", delta.Counter(obs.WALGroupSyncsSaved)),
		rate,
		appendRate,
	}, nil
}
