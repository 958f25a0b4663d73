package anonymizer

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// TestServerStressNoCrossRegistrationLeakage hammers one server with many
// parallel clients doing interleaved register / reduce / key-fetch /
// local-deanonymize cycles. Run under -race it proves the sharded store and
// the connection pipeline are data-race free; the assertions prove that no
// client ever observes another client's registration: every reduce and
// every local de-anonymization lands exactly on the segment that client
// registered.
func TestServerStressNoCrossRegistrationLeakage(t *testing.T) {
	srv, addr, rge := startServer(t)

	const (
		clients   = 16
		perClient = 6
	)
	var (
		wg        sync.WaitGroup
		succeeded atomic.Int64
	)
	errCh := make(chan error, clients*perClient)
	for n := 0; n < clients; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer func() { _ = c.Close() }()
			me := fmt.Sprintf("client-%d", n)
			for i := 0; i < perClient; i++ {
				// Every client registers a distinct segment each round.
				user := roadnet.SegmentID((n*perClient + i*7) % 170)
				id, region, err := c.Anonymize(user, testProfile(), "RGE")
				if err != nil {
					// Keyed expansion can legitimately fail on awkward
					// segments; those rounds prove nothing, skip them.
					if errors.Is(err, ErrRemote) {
						continue
					}
					errCh <- err
					return
				}
				if !region.Contains(user) {
					errCh <- fmt.Errorf("%s: region %v misses own segment %d", me, region.Segments, user)
					return
				}

				// Owner-side: grant ourselves full access, then reduce
				// server-side. Under contention the result must still be
				// exactly OUR segment — anything else is leakage from a
				// concurrent registration.
				if err := c.SetTrust(id, me, 0); err != nil {
					errCh <- fmt.Errorf("%s: SetTrust: %w", me, err)
					return
				}
				exact, level, err := c.Reduce(id, me, 0)
				if err != nil {
					errCh <- fmt.Errorf("%s: Reduce: %w", me, err)
					return
				}
				if level != 0 || len(exact.Segments) != 1 || exact.Segments[0] != user {
					errCh <- fmt.Errorf("%s: reduce leaked %v (level %d), want [%d]",
						me, exact.Segments, level, user)
					return
				}

				// Requester-side: fetch the region and keys, peel locally.
				pub, levels, err := c.GetRegion(id)
				if err != nil {
					errCh <- fmt.Errorf("%s: GetRegion: %w", me, err)
					return
				}
				if levels != 2 || len(pub.Segments) != len(region.Segments) {
					errCh <- fmt.Errorf("%s: GetRegion returned a different registration", me)
					return
				}
				grant, err := c.RequestKeys(id, me)
				if err != nil {
					errCh <- fmt.Errorf("%s: RequestKeys: %w", me, err)
					return
				}
				local, err := rge.Deanonymize(pub, grant, 0)
				if err != nil {
					errCh <- fmt.Errorf("%s: local deanonymize: %w", me, err)
					return
				}
				if len(local.Segments) != 1 || local.Segments[0] != user {
					errCh <- fmt.Errorf("%s: local deanonymize leaked %v, want [%d]",
						me, local.Segments, user)
					return
				}
				succeeded.Add(1)
			}
		}(n)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// Cloak failures may eat some rounds, but if most vanish the test
	// proved nothing — flag it.
	if got := succeeded.Load(); got < clients*perClient/2 {
		t.Errorf("only %d/%d rounds completed; fixture too flaky to be meaningful",
			got, clients*perClient)
	}
	if srv.Registrations() != int(succeeded.Load()) {
		t.Errorf("registrations = %d, want %d", srv.Registrations(), succeeded.Load())
	}
}

// TestServerStressSharedClient pipelines every goroutine's register /
// grant / reduce chain over ONE shared client connection: the server runs
// the interleaved requests on its worker pool and the client must hand
// each caller its own response, so every reduce lands exactly on the
// segment that caller registered.
func TestServerStressSharedClient(t *testing.T) {
	_, addr, _ := startServer(t)

	const (
		workers   = 8
		perWorker = 3
	)
	shared := dial(t, addr) // one pipelined connection shared by everyone
	var (
		wg        sync.WaitGroup
		succeeded atomic.Int64
	)
	errCh := make(chan error, workers)
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				user := roadnet.SegmentID((n*19 + i*50) % 170)
				id, region, err := shared.Anonymize(user, testProfile(), "RGE")
				if err != nil {
					if errors.Is(err, ErrRemote) {
						continue // cloak failure on that segment
					}
					errCh <- err
					return
				}
				if !region.Contains(user) {
					errCh <- fmt.Errorf("region %v misses its segment %d", region.Segments, user)
					return
				}
				if err := shared.SetTrust(id, "auditor", 0); err != nil {
					errCh <- err
					return
				}
				exact, level, err := shared.Reduce(id, "auditor", 0)
				if err != nil {
					errCh <- err
					return
				}
				if level != 0 || len(exact.Segments) != 1 || exact.Segments[0] != user {
					errCh <- fmt.Errorf("reduce leaked %v at level %d, want [%d] at 0",
						exact.Segments, level, user)
					return
				}
				succeeded.Add(1)
			}
		}(n)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := succeeded.Load(); got < workers*perWorker/2 {
		t.Errorf("only %d/%d chains completed; fixture too flaky to be meaningful",
			got, workers*perWorker)
	}
}

// TestServerCloseUnderLoad closes the server while clients are mid-flight;
// nothing may hang or race, clients just observe transport errors.
func TestServerCloseUnderLoad(t *testing.T) {
	g, density := testGrid(t)
	srv := newTestServer(t, g, density)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for n := 0; n < 4; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c, err := Dial(addr.String())
			if err != nil {
				return // server may already be gone
			}
			defer func() { _ = c.Close() }()
			for i := 0; i < 50; i++ {
				if _, _, err := c.Anonymize(roadnet.SegmentID(10+i), testProfile(), "RGE"); err != nil {
					if !errors.Is(err, ErrRemote) {
						return // transport error: server shut down
					}
				}
			}
		}(n)
	}
	_ = srv.Close()
	wg.Wait()

	// The server must refuse work after Close.
	if _, err := srv.Start("127.0.0.1:0"); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Start after Close = %v, want ErrServerClosed", err)
	}
}

// TestCloseWithIdleConnection proves Close does not wait for clients to
// hang up: an idle open connection must not block shutdown (the daemon
// would otherwise never exit on SIGTERM).
func TestCloseWithIdleConnection(t *testing.T) {
	g, density := testGrid(t)
	srv := newTestServer(t, g, density)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	// Give the accept loop a moment to hand the connection to a handler.
	time.Sleep(50 * time.Millisecond)

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an idle connection")
	}
	// The server closed the connection under us: reads now fail.
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("connection still open after server Close")
	}
}
