package anonymizer

import (
	"fmt"
	"sync"
	"testing"

	"github.com/reversecloak/reversecloak/internal/accessctl"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// benchServer builds and starts a server over a denser grid so cloaking
// reliably succeeds while still doing real keyed-expansion work.
func benchServer(b *testing.B) (string, *roadnet.Graph) {
	b.Helper()
	g, err := mapgen.Grid(16, 16, 100)
	if err != nil {
		b.Fatal(err)
	}
	density := func(roadnet.SegmentID) int { return 4 }
	rge, err := cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RGE})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(map[cloak.Algorithm]*cloak.Engine{cloak.RGE: rge})
	if err != nil {
		b.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Close() })
	return addr.String(), g
}

func benchProfile() profile.Profile {
	return profile.Profile{Levels: []profile.Level{{K: 8, L: 4}}}
}

// BenchmarkServerThroughput sweeps the wire codec and the number of
// concurrent clients, each on its own connection, and reports req/s and
// allocs/op (client and server share the process, so allocs/op covers
// the whole hot path — scripts/check-allocs.sh gates it against
// testdata/alloc_baseline.json). Comparing clients=1 against clients=16
// shows how far the sharded store + per-connection pipelines scale past
// single-lock serialization; comparing codec=json against codec=binary
// shows what the pooled binary framing saves.
func BenchmarkServerThroughput(b *testing.B) {
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		for _, clients := range []int{1, 4, 16, 64} {
			b.Run(fmt.Sprintf("codec=%s/clients=%d", codec, clients), func(b *testing.B) {
				addr, g := benchServer(b)
				conns := make([]*Client, clients)
				for i := range conns {
					c, err := Dial(addr, WithCodec(codec))
					if err != nil {
						b.Fatal(err)
					}
					defer func() { _ = c.Close() }()
					conns[i] = c
				}
				numSeg := g.NumSegments()
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < clients; w++ {
					ops := b.N / clients
					if w < b.N%clients {
						ops++
					}
					wg.Add(1)
					go func(c *Client, w, ops int) {
						defer wg.Done()
						for i := 0; i < ops; i++ {
							user := roadnet.SegmentID((w*131 + i*17) % numSeg)
							// Cloak failures still exercise the full stack.
							_, _, _ = c.Anonymize(user, benchProfile(), "RGE")
						}
					}(conns[w], w, ops)
				}
				wg.Wait()
				b.StopTimer()
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(b.N)/secs, "req/s")
				}
			})
		}
	}
}

// BenchmarkReduceServerSide measures the read fast path: a stranger's
// reduce peels nothing, so the server answers with the registered
// region as-is (zero-copy since protocol v2 landed) and the codec is
// most of the per-request cost.
func BenchmarkReduceServerSide(b *testing.B) {
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		b.Run(fmt.Sprintf("codec=%s", codec), func(b *testing.B) {
			addr, g := benchServer(b)
			c, err := Dial(addr, WithCodec(codec))
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			// The response carries the region, so its decode cost grows
			// with the tags its levels carry, and keys are random per run:
			// reduce the first region with no tags, so allocs/op do not
			// depend on the draw.
			numSeg := g.NumSegments()
			var regionID string
			for u := 0; u < numSeg && regionID == ""; u++ {
				id, region, err := c.Anonymize(roadnet.SegmentID(u), benchProfile(), "RGE")
				tagless := err == nil
				for i := 0; tagless && i < len(region.Levels); i++ {
					tagless = len(region.Levels[i].Tags) == 0
				}
				if tagless {
					regionID = id
				}
			}
			if regionID == "" {
				b.Fatal("no tagless cloak on the bench grid")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.Reduce(regionID, "stranger", 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "req/s")
			}
		})
	}
}

// BenchmarkPipelinedSharedClient measures many goroutines multiplexed over
// ONE pipelined connection — the in-flight window hides the round-trips.
func BenchmarkPipelinedSharedClient(b *testing.B) {
	for _, callers := range []int{1, 16} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			addr, g := benchServer(b)
			c, err := Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			numSeg := g.NumSegments()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < callers; w++ {
				ops := b.N / callers
				if w < b.N%callers {
					ops++
				}
				wg.Add(1)
				go func(w, ops int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						user := roadnet.SegmentID((w*131 + i*17) % numSeg)
						_, _, _ = c.Anonymize(user, benchProfile(), "RGE")
					}
				}(w, ops)
			}
			wg.Wait()
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "req/s")
			}
		})
	}
}

// BenchmarkWALAppend measures the journaling hot path in isolation: one
// registration through check → unified-log append → apply, with syncing
// out of the way (fsync=never) and compaction disabled so every
// iteration is a pure append. scripts/check-allocs.sh gates its
// allocs/op against testdata/alloc_baseline.json.
func BenchmarkWALAppend(b *testing.B) {
	st, err := OpenDurableStore(b.TempDir(),
		WithFsyncPolicy(FsyncNever),
		WithSnapshotEvery(0),
		WithGCInterval(0))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	reg := fakeRegistration(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Register(reg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduceDerived measures the derive-on-reduce path of a
// derived-keys registration: every reduce re-derives the per-level keys
// through HKDF from the master keyring, then peels the region. It calls
// Registration.Reduce, which caches nothing, so it runs cache-off; a
// server with a reduce cache may instead hold the derived set in
// regcache's key tier (Server.regKeySet). Level 0 is the worst case —
// every level's key is derived and used. scripts/check-allocs.sh gates
// its allocs/op against testdata/alloc_baseline.json.
func BenchmarkReduceDerived(b *testing.B) {
	g, err := mapgen.Grid(16, 16, 100)
	if err != nil {
		b.Fatal(err)
	}
	density := func(roadnet.SegmentID) int { return 4 }
	engine, err := cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RGE})
	if err != nil {
		b.Fatal(err)
	}
	kr, err := keys.NewKeyring(1, map[uint32][]byte{
		1: []byte("bench-reduce-derived-master-secret-0001"),
	})
	if err != nil {
		b.Fatal(err)
	}
	prof := profile.Profile{Levels: []profile.Level{{K: 6, L: 3}, {K: 14, L: 6}}}
	const id = "r-bench-derived"
	ks, err := kr.DeriveSet(1, id, len(prof.Levels))
	if err != nil {
		b.Fatal(err)
	}
	var region *cloak.CloakedRegion
	for u := 0; u < g.NumSegments() && region == nil; u++ {
		region, _, _ = engine.Anonymize(cloak.Request{
			UserSegment: roadnet.SegmentID(u), Profile: prof, Keys: ks.All(),
		})
	}
	if region == nil {
		b.Fatal("no feasible cloak on the bench grid")
	}
	policy, err := accessctl.NewPolicy(len(prof.Levels), len(prof.Levels))
	if err != nil {
		b.Fatal(err)
	}
	reg := NewDerivedRegistration(region, kr, 1, id, len(prof.Levels), policy)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Reduce(engine, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduceCached measures the read-path cache's hit path in
// isolation: the same peeling reduce BenchmarkReduceDerived pays in full
// is served from the memoized reduction — a store lookup, a policy
// check, a cache hit and a pooled response shell, with zero heap
// allocations. scripts/check-allocs.sh pins that against
// testdata/alloc_baseline.json.
func BenchmarkReduceCached(b *testing.B) {
	g, err := mapgen.Grid(16, 16, 100)
	if err != nil {
		b.Fatal(err)
	}
	density := func(roadnet.SegmentID) int { return 4 }
	engine, err := cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RGE})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(map[cloak.Algorithm]*cloak.Engine{cloak.RGE: engine},
		WithReduceCacheBytes(-1))
	if err != nil {
		b.Fatal(err)
	}
	prof := profile.Profile{Levels: []profile.Level{{K: 6, L: 3}, {K: 14, L: 6}}}
	ks, err := keys.AutoGenerate(len(prof.Levels))
	if err != nil {
		b.Fatal(err)
	}
	var region *cloak.CloakedRegion
	for u := 0; u < g.NumSegments() && region == nil; u++ {
		region, _, _ = engine.Anonymize(cloak.Request{
			UserSegment: roadnet.SegmentID(u), Profile: prof, Keys: ks.All(),
		})
	}
	if region == nil {
		b.Fatal("no feasible cloak on the bench grid")
	}
	policy, err := accessctl.NewPolicy(len(prof.Levels), len(prof.Levels))
	if err != nil {
		b.Fatal(err)
	}
	id, err := srv.store.Register(NewRegistration(region, ks, policy))
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.store.SetTrust(id, "reader", 0); err != nil {
		b.Fatal(err)
	}
	req := &Request{Op: OpReduce, RegionID: id, Requester: "reader", ToLevel: 0}
	warm := srv.handleReduce(req) // populate the cache (the one real peel)
	if !warm.OK {
		b.Fatalf("warmup reduce failed: %s", warm.Error)
	}
	putResp(warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := srv.handleReduce(req)
		if !resp.OK {
			b.Fatal(resp.Error)
		}
		putResp(resp)
	}
	b.StopTimer()
	if st, ok := srv.ReduceCacheStats(); !ok || st.RegionMisses != 1 {
		b.Fatalf("hit path recomputed: %+v", st)
	}
}

// BenchmarkReducePipelinedHits is reduce_hot's shape in one process: one
// Client, eight callers, a cache holding every reduction, so every
// request is a hit the connection reader answers itself and only the
// pipeline, the codec and the cache lookup are left. Keys derive from a
// fixed master secret, so the regions, and with them allocs/op (client
// and server together), are the same every run; scripts/check-allocs.sh
// gates them against testdata/alloc_baseline.json.
func BenchmarkReducePipelinedHits(b *testing.B) {
	const callers, pool = 8, 8
	g, err := mapgen.Grid(16, 16, 100)
	if err != nil {
		b.Fatal(err)
	}
	density := func(roadnet.SegmentID) int { return 4 }
	engine, err := cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RGE})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(map[cloak.Algorithm]*cloak.Engine{cloak.RGE: engine},
		WithReduceCacheBytes(-1))
	if err != nil {
		b.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Close() })
	kr, err := keys.NewKeyring(1, map[uint32][]byte{
		1: []byte("bench-reduce-pipelined-master-secret-01"),
	})
	if err != nil {
		b.Fatal(err)
	}
	prof := profile.Profile{Levels: []profile.Level{{K: 6, L: 3}, {K: 14, L: 6}}}
	levels := len(prof.Levels)
	ids := make([]string, 0, pool)
	for u := 0; u < g.NumSegments() && len(ids) < pool; u++ {
		id := fmt.Sprintf("r-bench-hit-%d", len(ids))
		ks, err := kr.DeriveSet(1, id, levels)
		if err != nil {
			b.Fatal(err)
		}
		region, _, err := engine.Anonymize(cloak.Request{
			UserSegment: roadnet.SegmentID(u), Profile: prof, Keys: ks.All(),
		})
		if err != nil {
			continue
		}
		policy, err := accessctl.NewPolicy(levels, levels)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := srv.store.Register(NewDerivedRegistration(region, kr, 1, id, levels, policy)); err != nil {
			b.Fatal(err)
		}
		if err := srv.store.SetTrust(id, "reader", 0); err != nil {
			b.Fatal(err)
		}
		warm := srv.handleReduce(&Request{Op: OpReduce, RegionID: id, Requester: "reader"})
		if !warm.OK {
			b.Fatalf("warmup reduce failed: %s", warm.Error)
		}
		putResp(warm)
		ids = append(ids, id)
	}
	if len(ids) < pool {
		b.Fatal("not enough feasible cloaks on the bench grid")
	}
	c, err := Dial(addr.String())
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		ops := b.N / callers
		if w < b.N%callers {
			ops++
		}
		wg.Add(1)
		go func(w, ops int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if _, _, err := c.Reduce(ids[(w+i)%pool], "reader", 0); err != nil {
					b.Error(err)
					return
				}
			}
		}(w, ops)
	}
	wg.Wait()
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "req/s")
	}
	if st, _ := srv.ReduceCacheStats(); st.RegionMisses != pool {
		b.Fatalf("the timed reduces missed the cache: %+v", st)
	}
}
