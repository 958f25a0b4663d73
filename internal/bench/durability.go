package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/reversecloak/reversecloak/internal/accessctl"
	"github.com/reversecloak/reversecloak/internal/anonymizer"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/metrics"
	"github.com/reversecloak/reversecloak/internal/profile"
)

// E17DurabilityOverhead measures the durability tax of the anonymizer
// store: registration throughput of the journal-less store (no directory)
// against the same store journaling to a WAL under each fsync policy. The
// workload registers one realistic cloaked region repeatedly from 8
// concurrent workers — the store-side hot path of every anonymize
// request, isolated from cloaking and networking costs. "logged B/op" is
// the on-disk WAL+snapshot footprint per registration.
func E17DurabilityOverhead(env *Env) (*metrics.Table, error) {
	reg, err := e17Registration(env)
	if err != nil {
		return nil, err
	}
	const workers = 8
	ops := 100 * env.Opts.Trials

	type config struct {
		name string
		opts []anonymizer.DurabilityOption // nil means no directory: journal-less
	}
	configs := []config{
		{"memory", nil},
		{"wal fsync=never", []anonymizer.DurabilityOption{
			anonymizer.WithFsyncPolicy(anonymizer.FsyncNever)}},
		{"wal fsync=interval", []anonymizer.DurabilityOption{
			anonymizer.WithFsyncPolicy(anonymizer.FsyncInterval)}},
		{"wal fsync=always", []anonymizer.DurabilityOption{
			anonymizer.WithFsyncPolicy(anonymizer.FsyncAlways)}},
	}

	tab := metrics.NewTable(
		fmt.Sprintf("E17: durable store overhead (%d registrations, %d workers)", ops, workers),
		"store", "regs/s", "us/op", "logged B/op", "slowdown")
	var base float64
	for _, cfg := range configs {
		rate, bytesPerOp, err := registerStep(cfg.opts, reg, ops, workers)
		if err != nil {
			return nil, fmt.Errorf("E17 %s: %w", cfg.name, err)
		}
		if base == 0 && rate > 0 {
			base = rate
		}
		logged := "-"
		if cfg.opts != nil {
			logged = fmt.Sprintf("%.0f", bytesPerOp)
		}
		tab.AddRow(
			cfg.name,
			fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%.1f", 1e6/rate),
			logged,
			fmt.Sprintf("%.2fx", base/rate),
		)
	}
	return tab, nil
}

// e17Registration cloaks one sampled user into the registration payload
// every step re-registers.
func e17Registration(env *Env) (*anonymizer.Registration, error) {
	prof := uniformProfile(2, 10)
	ks, err := keys.FromBytes(env.keysFor("e17", 2))
	if err != nil {
		return nil, err
	}
	for _, user := range env.SampleUsers(20, "e17") {
		region, _, err := env.RGE.Anonymize(cloak.Request{
			UserSegment: user, Profile: prof, Keys: ks.All(),
		})
		if err != nil {
			continue
		}
		policy, err := accessctl.NewPolicy(2, 2)
		if err != nil {
			return nil, err
		}
		return anonymizer.NewRegistration(region, ks, policy), nil
	}
	return nil, fmt.Errorf("bench: no sampled user cloaked successfully")
}

// E18GroupCommit measures how much of the fsync=always tax group commit
// recovers: registration throughput under fsync=always versus
// fsync=interval across concurrent writer counts. Per shard, concurrent
// appenders coalesce into one fsync per cohort (a leader syncs for
// everything appended so far), so the per-operation cost shrinks as
// writers per shard grow. The bench runs a single shard: fsyncs of
// different WAL files serialize in the filesystem journal anyway, so
// concentrating writers on one WAL is exactly how a deployment that wants
// fsync=always should configure the store, and it shows the cohort effect
// at full strength. "gap" is the fsync=always slowdown relative to
// fsync=interval at the same concurrency — the number the group commit
// exists to shrink (from ~30x at one writer to ~2x at 64).
func E18GroupCommit(env *Env) (*metrics.Table, error) {
	reg, err := e17Registration(env)
	if err != nil {
		return nil, err
	}
	const shards = 1
	ops := 100 * env.Opts.Trials
	workerCounts := []int{1, 8, 32, 64}

	tab := metrics.NewTable(
		fmt.Sprintf("E18: group commit fsync=always vs interval (%d registrations, %d shards)",
			ops, shards),
		"workers", "always regs/s", "interval regs/s", "always us/op", "gap")
	for _, workers := range workerCounts {
		always, _, err := registerStep([]anonymizer.DurabilityOption{
			anonymizer.WithFsyncPolicy(anonymizer.FsyncAlways),
			anonymizer.WithDurableShards(shards),
		}, reg, ops, workers)
		if err != nil {
			return nil, fmt.Errorf("E18 always workers=%d: %w", workers, err)
		}
		interval, _, err := registerStep([]anonymizer.DurabilityOption{
			anonymizer.WithFsyncPolicy(anonymizer.FsyncInterval),
			anonymizer.WithDurableShards(shards),
		}, reg, ops, workers)
		if err != nil {
			return nil, fmt.Errorf("E18 interval workers=%d: %w", workers, err)
		}
		tab.AddRow(
			fmt.Sprintf("%d", workers),
			fmt.Sprintf("%.0f", always),
			fmt.Sprintf("%.0f", interval),
			fmt.Sprintf("%.1f", 1e6/always),
			fmt.Sprintf("%.2fx", interval/always),
		)
	}
	return tab, nil
}

// E21GroupCommitBatching measures the store-wide group commit of the
// unified log: under fsync=always one leader fsync covers appends from
// EVERY shard, so the fsync amortization tracks total writer concurrency
// rather than writers-per-shard. The sweep crosses writer counts with
// shard counts; under the retired per-shard WAL layout, spreading writers
// over 16 shards collapsed the cohorts (each shard fsynced its own file,
// so fsyncs/op stayed near 1), while with the single log the shard count
// is irrelevant to the fsync rate. "fsyncs/op" is the measured number of
// fsync calls per registration — the figure group commit exists to drive
// toward 1/cohort-size.
func E21GroupCommitBatching(env *Env) (*metrics.Table, error) {
	reg, err := e17Registration(env)
	if err != nil {
		return nil, err
	}
	ops := 100 * env.Opts.Trials
	writerCounts := []int{1, 4, 16, 64}
	shardCounts := []int{1, 4, 16}

	tab := metrics.NewTable(
		fmt.Sprintf("E21: store-wide group commit batching (%d registrations, fsync=always)", ops),
		"shards", "workers", "regs/s", "us/op", "fsyncs/op")
	for _, shards := range shardCounts {
		for _, workers := range writerCounts {
			rate, fsyncsPerOp, err := groupCommitStep(reg, ops, workers, shards)
			if err != nil {
				return nil, fmt.Errorf("E21 shards=%d workers=%d: %w", shards, workers, err)
			}
			tab.AddRow(
				fmt.Sprintf("%d", shards),
				fmt.Sprintf("%d", workers),
				fmt.Sprintf("%.0f", rate),
				fmt.Sprintf("%.1f", 1e6/rate),
				fmt.Sprintf("%.3f", fsyncsPerOp),
			)
		}
	}
	return tab, nil
}

// groupCommitStep times ops fsync=always registrations against a
// shards-wide store and returns the rate plus measured fsyncs per
// registration (from the store's own WAL counters, load-window only).
func groupCommitStep(
	reg *anonymizer.Registration,
	ops, workers, shards int,
) (rate, fsyncsPerOp float64, err error) {
	dir, err := os.MkdirTemp("", "reversecloak-e21-*")
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	ds, err := anonymizer.OpenDurableStore(dir,
		anonymizer.WithFsyncPolicy(anonymizer.FsyncAlways),
		anonymizer.WithDurableShards(shards))
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = ds.Close() }()

	var (
		wg       sync.WaitGroup
		firstErr error
		errMu    sync.Mutex
	)
	fsyncs0 := ds.WALStats().Fsyncs
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < ops; i += workers {
				if _, rerr := ds.Register(reg); rerr != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = rerr
					}
					errMu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return 0, 0, firstErr
	}
	rate = float64(ops) / elapsed.Seconds()
	fsyncsPerOp = float64(ds.WALStats().Fsyncs-fsyncs0) / float64(ops)
	return rate, fsyncsPerOp, nil
}

// E22DerivedKeys measures what the derived-keys record shape (store
// schema v3) buys over journaling key material (the v2 shape): durable
// bytes per registration and cold-recovery time of the resulting data
// directory. Both arms register the same cloaked region under the same
// policy; the stored arm journals the full per-level key set while the
// derived arm journals only an (epoch, id, levels) reference and
// re-derives the keys through the master keyring, so the footprint gap
// is exactly the key material the v3 schema keeps out of the log.
func E22DerivedKeys(env *Env) (*metrics.Table, error) {
	region, policy, ks, err := e22Parts(env)
	if err != nil {
		return nil, err
	}
	kr, err := keys.NewKeyring(1, map[uint32][]byte{
		1: []byte("bench-e22-master-secret-0123456789abcdef"),
	})
	if err != nil {
		return nil, err
	}
	const workers = 8
	ops := 100 * env.Opts.Trials

	storedReg := anonymizer.NewRegistration(region, ks, policy)
	type arm struct {
		name string
		opts []anonymizer.DurabilityOption
		next func(*anonymizer.DurableStore) *anonymizer.Registration
	}
	arms := []arm{
		{"stored keys (v2)", nil,
			func(*anonymizer.DurableStore) *anonymizer.Registration { return storedReg }},
		{"derived keys (v3)",
			[]anonymizer.DurabilityOption{anonymizer.WithKeyring(kr)},
			func(ds *anonymizer.DurableStore) *anonymizer.Registration {
				id := ds.AllocateID()
				return anonymizer.NewDerivedRegistration(
					region, kr, kr.ActiveEpoch(), id, ks.Levels(), policy)
			}},
	}

	tab := metrics.NewTable(
		fmt.Sprintf("E22: stored vs derived key records (%d registrations, %d workers, %d levels)",
			ops, workers, ks.Levels()),
		"records", "regs/s", "durable B/op", "recovery ms", "bytes vs stored")
	var storedBytes float64
	for _, a := range arms {
		rate, bytesPerOp, recovery, err := keyRecordStep(a.opts, a.next, ops, workers)
		if err != nil {
			return nil, fmt.Errorf("E22 %s: %w", a.name, err)
		}
		if storedBytes == 0 {
			storedBytes = bytesPerOp
		}
		tab.AddRow(
			a.name,
			fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%.0f", bytesPerOp),
			fmt.Sprintf("%.2f", recovery.Seconds()*1e3),
			fmt.Sprintf("%.2fx", bytesPerOp/storedBytes),
		)
	}
	return tab, nil
}

// e22Parts cloaks one sampled user under a fine-grained profile —
// durable key material scales with the level count while the region
// scales with the top level's k, so a deep profile with gently rising
// requirements (the paper's personalized trust hierarchy at its most
// granular) is where the record-shape difference matters most.
func e22Parts(env *Env) (*cloak.CloakedRegion, *accessctl.Policy, *keys.Set, error) {
	prof := profile.Profile{Levels: []profile.Level{
		{K: 3, L: 2}, {K: 3, L: 2}, {K: 4, L: 2}, {K: 4, L: 2}, {K: 5, L: 3},
		{K: 5, L: 3}, {K: 6, L: 3}, {K: 6, L: 3}, {K: 7, L: 4}, {K: 8, L: 4},
	}}
	levels := len(prof.Levels)
	ks, err := keys.FromBytes(env.keysFor("e22", levels))
	if err != nil {
		return nil, nil, nil, err
	}
	for _, user := range env.SampleUsers(20, "e22") {
		region, _, err := env.RGE.Anonymize(cloak.Request{
			UserSegment: user, Profile: prof, Keys: ks.All(),
		})
		if err != nil {
			continue
		}
		policy, err := accessctl.NewPolicy(levels, levels)
		if err != nil {
			return nil, nil, nil, err
		}
		return region, policy, ks, nil
	}
	return nil, nil, nil, fmt.Errorf("bench: no sampled user cloaked successfully")
}

// keyRecordStep times ops registrations built by next against a durable
// store opened with durOpts, then measures the closed directory's
// on-disk footprint and how long a cold reopen (recovery from log +
// snapshots, same durOpts) takes.
func keyRecordStep(
	durOpts []anonymizer.DurabilityOption,
	next func(*anonymizer.DurableStore) *anonymizer.Registration,
	ops, workers int,
) (rate, bytesPerOp float64, recovery time.Duration, err error) {
	dir, err := os.MkdirTemp("", "reversecloak-e22-*")
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	ds, err := anonymizer.OpenDurableStore(dir, durOpts...)
	if err != nil {
		return 0, 0, 0, err
	}

	var (
		wg       sync.WaitGroup
		firstErr error
		errMu    sync.Mutex
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < ops; i += workers {
				if _, rerr := ds.Register(next(ds)); rerr != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = rerr
					}
					errMu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if cerr := ds.Close(); cerr != nil && firstErr == nil {
		firstErr = cerr
	}
	if firstErr != nil {
		return 0, 0, 0, firstErr
	}
	rate = float64(ops) / elapsed.Seconds()

	var onDisk int64
	entries, derr := os.ReadDir(dir)
	if derr != nil {
		return 0, 0, 0, derr
	}
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".wal", ".snap", ".seg":
			if info, ierr := e.Info(); ierr == nil {
				onDisk += info.Size()
			}
		}
	}
	bytesPerOp = float64(onDisk) / float64(ops)

	recoverStart := time.Now()
	rs, err := anonymizer.OpenDurableStore(dir, durOpts...)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("cold reopen: %w", err)
	}
	recovery = time.Since(recoverStart)
	n := rs.Len()
	if cerr := rs.Close(); cerr != nil {
		return 0, 0, 0, cerr
	}
	if n != ops {
		return 0, 0, 0, fmt.Errorf("recovered %d registrations, want %d", n, ops)
	}
	return rate, bytesPerOp, recovery, nil
}

// registerStep times ops registrations against one store configuration
// and returns the rate plus the on-disk bytes written per registration
// (E17 and E18 share it).
func registerStep(
	durOpts []anonymizer.DurabilityOption,
	reg *anonymizer.Registration,
	ops, workers int,
) (rate, bytesPerOp float64, err error) {
	// nil options are the in-memory arm: no directory, so no journal.
	var dir string
	if durOpts != nil {
		dir, err = os.MkdirTemp("", "reversecloak-e17-*")
		if err != nil {
			return 0, 0, err
		}
		defer func() { _ = os.RemoveAll(dir) }()
	}
	st, err := anonymizer.OpenDurableStore(dir, durOpts...)
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = st.Close() }()

	var (
		wg       sync.WaitGroup
		firstErr error
		errMu    sync.Mutex
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < ops; i += workers {
				if _, rerr := st.Register(reg); rerr != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = rerr
					}
					errMu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return 0, 0, firstErr
	}
	rate = float64(ops) / elapsed.Seconds()
	if dir != "" {
		var onDisk int64
		entries, derr := os.ReadDir(dir)
		if derr == nil {
			for _, e := range entries {
				switch filepath.Ext(e.Name()) {
				case ".wal", ".snap", ".seg":
					if info, ierr := e.Info(); ierr == nil {
						onDisk += info.Size()
					}
				}
			}
		}
		bytesPerOp = float64(onDisk) / float64(ops)
	}
	return rate, bytesPerOp, nil
}
