package anonymizer

// crash models kill -9 for a test: it stops the store's background loops
// (fsync, snapshot and GC tickers) and closes its files without writing
// or syncing anything, so a reopen sees exactly the bytes already handed
// to the kernel. Afterwards the store behaves as closed; a later Close is
// a no-op.
func (s *DurableStore) crash() {
	if s.closed.Swap(true) {
		return
	}
	s.gcMu.Lock()
	close(s.stop)
	s.gcMu.Unlock()
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
