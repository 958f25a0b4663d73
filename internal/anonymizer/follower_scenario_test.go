package anonymizer_test

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/reversecloak/reversecloak/internal/anonymizer"
	"github.com/reversecloak/reversecloak/internal/anonymizer/repl"
	"github.com/reversecloak/reversecloak/internal/cloak"
)

// TestReplicationConformance (network follower, the conformance scenario
// that drives repl, which imports this package): over a JSON and a binary
// link, a follower bootstrapped from a hot archive of a leader mid-log
// holds the model (model_test.go) and the leader's exact log; restarted
// mid-stream it resumes from its recovered watermark and converges again;
// and its own server answers a client of the other codec. The follower
// runs on the harness's fake clock through Config.StoreOptions.
func TestReplicationConformance(t *testing.T) {
	for i, tc := range []struct{ link, client anonymizer.Codec }{
		{anonymizer.CodecJSON, anonymizer.CodecBinary},
		{anonymizer.CodecBinary, anonymizer.CodecJSON},
	} {
		t.Run(tc.link.String(), func(t *testing.T) {
			h := anonymizer.NewHarness(t, int64(42+i))
			serve := func(opts ...anonymizer.ServerOption) string {
				srv, err := anonymizer.NewServer(map[cloak.Algorithm]*cloak.Engine{cloak.RGE: h.Engine()}, opts...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = srv.Close() })
				addr, err := srv.Start("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				return addr.String()
			}
			leader := anonymizer.OpenDurable(t, filepath.Join(t.TempDir(), "leader"), h.StoreOptions()...)
			cfg := repl.Config{
				LeaderAddr: serve(anonymizer.WithStore(leader)), DataDir: filepath.Join(t.TempDir(), "follower"),
				Advertise: "follower", PollInterval: time.Millisecond, StoreOptions: h.StoreOptions(), Codec: tc.link,
			}
			converge := func(label string, f *repl.Follower) {
				h.Sweep(leader)
				tick, deadline := time.NewTicker(time.Millisecond), time.After(10*time.Second)
				defer tick.Stop()
				for leader.Watermark() != f.Store().Watermark() && f.Err() == nil {
					select {
					case <-tick.C:
					case <-deadline:
						t.Fatalf("%s: follower at %d, leader at %d", label, f.Store().Watermark(), leader.Watermark())
					}
				}
				if err := f.Err(); err != nil {
					t.Fatalf("%s: follower stopped: %v", label, err)
				}
				h.RequireModel(label, f.Store())
				anonymizer.RequireSameLog(t, label, leader, f.Store())
			}

			h.Run(leader, 40)
			f, err := repl.Start(cfg)
			if err != nil || f.Store().Watermark() == 0 {
				t.Fatalf("bootstrap mid-log: %v", err)
			}
			h.Run(leader, 80)
			converge("first sync", f)
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			stopped, held := f.Store().Watermark(), f.Store().Len()
			h.Run(leader, 60)
			if f, err = repl.Start(cfg); err != nil {
				t.Fatal(err)
			}
			defer func() { _ = f.Close() }()
			if wm, got := f.Store().Watermark(), f.Store().Recovery().Registrations; wm < stopped || (got == 0 && held > 0) {
				t.Fatalf("restarted at %d with %d registrations, stopped at %d with %d: not a resume", wm, got, stopped, held)
			}
			converge("after restart", f)

			c, err := anonymizer.Dial(serve(anonymizer.WithStore(f.Store()), anonymizer.WithReplicator(f)),
				anonymizer.WithCodec(tc.client))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			for _, id := range h.IDs() {
				region, _, err := c.GetRegion(id)
				reg, lerr := f.Store().Lookup(id)
				if (err == nil) != (lerr == nil) || (err == nil && fmt.Sprint(*region) != fmt.Sprint(*reg.Region())) {
					t.Fatalf("follower read of %s over %s: %v, its store: %v", id, tc.client, err, lerr)
				}
			}
		})
	}
}
