package anonymizer

import (
	"testing"

	"github.com/reversecloak/reversecloak/internal/cloak"
)

// crash models kill -9 for a test: it stops the store's background loops
// (the fsync and GC tickers) and closes its files without writing
// or syncing anything, so a reopen sees exactly the bytes already handed
// to the kernel. Afterwards the store behaves as closed; a later Close is
// a no-op.
func (s *DurableStore) crash() {
	if s.closed.Swap(true) {
		return
	}
	close(s.stop)
	s.bg.Wait()
	if s.log == nil {
		return
	}
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	for _, seg := range s.log.segs {
		if seg.f != nil {
			_ = seg.f.Close()
		}
	}
}

// WithLogSegmentBytes sets the unified log's segment rotation threshold
// (default 64 MiB), so a test can force rotation and segment reclaim with
// a handful of records; records larger than the threshold still land
// whole (a segment always accepts at least one record).
func WithLogSegmentBytes(n int64) DurabilityOption {
	return func(c *durabilityConfig) {
		if n > 0 {
			c.segBytes = n
		}
	}
}

// Harness hands the reference-model harness (model_test.go) to the
// external tests, whose scenarios drive packages that import this one.
type Harness struct{ *harness }

func NewHarness(t *testing.T, seed int64) Harness             { return Harness{newHarness(t, seed)} }
func (h Harness) StoreOptions() []DurabilityOption            { return h.opts() }
func (h Harness) Engine() *cloak.Engine                       { return h.engine }
func (h Harness) Run(st *DurableStore, n int)                 { h.run(storeTarget{st}, n) }
func (h Harness) Sweep(st *DurableStore)                      { h.sweep(storeTarget{st}) }
func (h Harness) RequireModel(label string, st *DurableStore) { h.requireModel(label, st) }
func (h Harness) IDs() []string                               { return h.ids }
func OpenDurable(t *testing.T, dir string, o ...DurabilityOption) *DurableStore {
	return openDurable(t, dir, o...)
}
func RequireSameLog(t *testing.T, label string, a, b *DurableStore) { requireSameLog(t, label, a, b) }
