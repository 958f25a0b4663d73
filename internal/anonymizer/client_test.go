package anonymizer

import (
	"errors"
	"sync"
	"testing"

	"github.com/reversecloak/reversecloak/internal/roadnet"
)

func TestReduce(t *testing.T) {
	_, addr, _ := startServer(t)
	owner := dial(t, addr)

	id, region, err := owner.Anonymize(33, testProfile(), "RGE")
	if err != nil {
		t.Fatalf("Anonymize: %v", err)
	}
	if err := owner.SetTrust(id, "doctor", 0); err != nil {
		t.Fatalf("SetTrust: %v", err)
	}
	if err := owner.SetTrust(id, "dispatcher", 1); err != nil {
		t.Fatalf("SetTrust: %v", err)
	}

	requester := dial(t, addr)

	// The doctor recovers the exact segment without ever seeing a key.
	exact, level, err := requester.Reduce(id, "doctor", 0)
	if err != nil {
		t.Fatalf("Reduce(doctor): %v", err)
	}
	if level != 0 {
		t.Errorf("doctor level = %d, want 0", level)
	}
	if len(exact.Segments) != 1 || exact.Segments[0] != 33 {
		t.Errorf("doctor recovered %v, want [33]", exact.Segments)
	}

	// The doctor may also ask for a coarser level than entitled.
	mid, level, err := requester.Reduce(id, "doctor", 1)
	if err != nil {
		t.Fatalf("Reduce(doctor, 1): %v", err)
	}
	if level != 1 {
		t.Errorf("coarse level = %d, want 1", level)
	}
	if len(mid.Segments) >= len(region.Segments) || !mid.Contains(33) {
		t.Errorf("coarse region = %v", mid.Segments)
	}

	// The dispatcher cannot go below level 1 no matter what they request.
	disp, level, err := requester.Reduce(id, "dispatcher", 0)
	if err != nil {
		t.Fatalf("Reduce(dispatcher): %v", err)
	}
	if level != 1 {
		t.Errorf("dispatcher level = %d, want 1", level)
	}
	if len(disp.Segments) != len(mid.Segments) {
		t.Errorf("dispatcher got %d segments, doctor's L1 view has %d",
			len(disp.Segments), len(mid.Segments))
	}

	// A stranger only ever sees the published region.
	pub, level, err := requester.Reduce(id, "stranger", 0)
	if err != nil {
		t.Fatalf("Reduce(stranger): %v", err)
	}
	if level != 2 {
		t.Errorf("stranger level = %d, want 2", level)
	}
	if len(pub.Segments) != len(region.Segments) {
		t.Errorf("stranger got %d segments, published region has %d",
			len(pub.Segments), len(region.Segments))
	}
}

func TestReduceErrors(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr)
	if _, _, err := c.Reduce("nope", "doctor", 0); !errors.Is(err, ErrRemote) {
		t.Errorf("unknown region err = %v", err)
	}
	id, _, err := c.Anonymize(42, testProfile(), "RGE")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Reduce(id, "", 0); !errors.Is(err, ErrRemote) {
		t.Errorf("missing requester err = %v", err)
	}
}

// TestPipelinedCalls issues many concurrent calls over ONE client
// connection; the pipelined client must match every response to its caller.
func TestPipelinedCalls(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr)

	const callers = 32
	var wg sync.WaitGroup
	errCh := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			user := roadnet.SegmentID(10 + n%80)
			id, region, err := c.Anonymize(user, testProfile(), "RGE")
			if err != nil {
				errCh <- err
				return
			}
			if !region.Contains(user) {
				errCh <- errors.New("region does not contain own segment")
				return
			}
			got, _, err := c.GetRegion(id)
			if err != nil {
				errCh <- err
				return
			}
			if len(got.Segments) != len(region.Segments) {
				errCh <- errors.New("GetRegion returned a different registration")
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if !errors.Is(err, ErrRemote) { // cloak failures are acceptable
			t.Errorf("pipelined call: %v", err)
		}
	}
}

func TestClientCloseIdempotentAndFailsCalls(t *testing.T) {
	_, addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := c.Ping(); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Ping after Close = %v, want ErrClientClosed", err)
	}
}
