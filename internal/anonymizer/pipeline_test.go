package anonymizer

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// This file pins the connection pipeline's two scheduling rules: the
// reader answers requests that cannot block itself, and both ends of the
// connection write once per burst without ever leaving a ready message
// in a buffer while they wait.

// rawJSON opens a bare connection for hand-written JSON lines, with a
// read deadline so a response that never comes fails the test instead of
// hanging it.
func rawJSON(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return conn, bufio.NewReader(conn)
}

// writeLines sends the requests as JSON lines in ONE write, so the
// server's reader decodes them back to back.
func writeLines(t *testing.T, conn net.Conn, reqs ...any) {
	t.Helper()
	var b strings.Builder
	for _, r := range reqs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	if _, err := conn.Write([]byte(b.String())); err != nil {
		t.Fatal(err)
	}
}

// readLine decodes the next JSON response line.
func readLine(t *testing.T, br *bufio.Reader, what string) *Response {
	t.Helper()
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("%s: no response: %v", what, err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatalf("%s: %v (%s)", what, err, line)
	}
	return &resp
}

// holdPeel occupies the cache's singleflight slot for (id, level) with a
// computation that blocks until the returned release is called, so any
// reduce of that level waits. The held computation fails with errHeld.
func holdPeel(t *testing.T, srv *Server, id string, level int) (release func()) {
	t.Helper()
	started, gate := make(chan struct{}), make(chan struct{})
	go func() {
		_, _ = srv.cache.DoRegion(id, level, func() (*cloak.CloakedRegion, error) {
			close(started)
			<-gate
			return nil, errHeld
		})
	}()
	<-started
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // before the server's Close, which waits for its workers
	return release
}

var errHeld = errors.New("peel held by the test")

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriterFlushesBeforeWaiting pins the server writer's flush rule: a
// ready response never waits in the buffer behind one that is not ready.
// Three reduces arrive in one write — a held peel, a cache hit, another
// held peel. Once the first peel is released, its response and the hit's
// must reach the client while the third is still held; a writer that
// flushed only when its queue ran empty would keep both buffered.
func TestWriterFlushesBeforeWaiting(t *testing.T) {
	// Two workers, so both held peels are waiting before the first is
	// released: the writer's queue then holds all three requests.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g, density := testGrid(t)
	srv := newTestServer(t, g, density, WithReduceCacheBytes(-1))
	addr := startTestServer(t, srv)
	ids := reduciblePool(t, srv.store, srv.engines[cloak.RGE], g, 2, cacheTestProfile())
	a, b := ids[0], ids[1]
	if resp := srv.handleReduce(&Request{Op: OpReduce, RegionID: a, Requester: "reader"}); !resp.OK {
		t.Fatal(resp.Error) // caches (a, 0) for the hit below
	}
	releaseA := holdPeel(t, srv, a, 1)
	releaseB := holdPeel(t, srv, b, 0)

	conn, br := rawJSON(t, addr)
	writeLines(t, conn,
		Request{Op: OpReduce, RegionID: a, Requester: "reader", ToLevel: 1},
		Request{Op: OpReduce, RegionID: a, Requester: "reader", ToLevel: 0},
		Request{Op: OpReduce, RegionID: b, Requester: "reader", ToLevel: 0})
	waitFor(t, "both held reduces to wait on their peels", func() bool {
		st, _ := srv.ReduceCacheStats()
		return st.SingleflightWaits == 2
	})
	releaseA()
	if resp := readLine(t, br, "released peel"); resp.OK || resp.Error != errHeld.Error() {
		t.Fatalf("released peel answered %+v, want the held computation's error", resp)
	}
	if resp := readLine(t, br, "cache hit behind it"); !resp.OK || resp.Level == nil || *resp.Level != 0 {
		t.Fatalf("cache hit answered %+v", resp)
	}
	releaseB()
	if resp := readLine(t, br, "second held peel"); resp.OK || resp.Error != errHeld.Error() {
		t.Fatalf("second held peel answered %+v", resp)
	}
}

// TestClientCallersBeyondWindow runs more concurrent callers than the
// client's in-flight window on one connection. A sender leaves its
// request in the buffer while another caller waits to send, so a sender
// that waited for a window slot without flushing first could wait for
// responses to requests still in its own buffer. The test builds exactly
// that: the window fills with reduces the server holds, maxPipelined+8
// pings queue behind the sender that waits for a slot, and then the
// server lets go. Every call must complete.
func TestClientCallersBeyondWindow(t *testing.T) {
	g, density := testGrid(t)
	srv := newTestServer(t, g, density, WithReduceCacheBytes(-1))
	addr := startTestServer(t, srv)
	id := reduciblePool(t, srv.store, srv.engines[cloak.RGE], g, 1, cacheTestProfile())[0]
	// Each codec holds a level of its own: a run leaves its level cached.
	for level, codec := range []Codec{CodecJSON, CodecBinary} {
		t.Run(codec.String(), func(t *testing.T) {
			c, err := Dial(addr, WithCodec(codec))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			// A buffer that holds a whole window of requests: only the
			// flush before waiting, not the buffer filling up, can then get
			// a sender waiting for a slot moving again.
			c.bw = bufio.NewWriterSize(c.conn, 1<<16)
			if c.enc != nil {
				c.enc = json.NewEncoder(c.bw)
			}
			release := holdPeel(t, srv, id, level)
			errs := make(chan error, 2*maxPipelined+9)
			for i := 0; i <= maxPipelined; i++ {
				go func() {
					_, _, err := c.Reduce(id, "reader", level)
					if errors.Is(err, ErrRemote) {
						err = nil // the held peel's own failure
					}
					errs <- err
				}()
			}
			waitFor(t, "the held reduces to fill the window", func() bool {
				return len(c.pending) == cap(c.pending)
			})
			const callers = maxPipelined + 8
			for i := 0; i < callers; i++ {
				go func() { errs <- c.Ping() }()
			}
			waitFor(t, "the pings to queue behind the sender waiting for a slot", func() bool {
				return c.sendWaiters.Load() == callers-1
			})
			release()
			timeout := time.After(30 * time.Second)
			for done := 0; done < cap(errs); done++ {
				select {
				case err := <-errs:
					if err != nil {
						t.Fatal(err)
					}
				case <-timeout:
					t.Fatalf("%d of %d calls never completed", cap(errs)-done, cap(errs))
				}
			}
		})
	}
}

// TestPipelinedOrderAcrossInlineAndWorkers interleaves requests the
// reader answers itself (cache hits, no-peel reduces, get_region) with
// requests it hands to the workers (cache misses, anonymize) on one binary
// connection, all in one write, and reads the raw frames back: response
// i must answer request i.
func TestPipelinedOrderAcrossInlineAndWorkers(t *testing.T) {
	g, density := testGrid(t)
	srv := newTestServer(t, g, density, WithReduceCacheBytes(-1))
	addr := startTestServer(t, srv)
	engine := srv.engines[cloak.RGE]
	prof := cacheTestProfile()
	levels := len(prof.Levels)
	ids := reduciblePool(t, srv.store, engine, g, 4, prof)
	for _, id := range ids {
		if resp := srv.handleReduce(&Request{Op: OpReduce, RegionID: id, Requester: "reader"}); !resp.OK {
			t.Fatal(resp.Error) // caches (id, 0): the hits below
		}
	}

	// Each request carries the check its response must pass.
	type step struct {
		req   Request
		check func(resp *Response) error
	}
	reduceStep := func(id string, level int) step {
		reg, err := srv.store.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reg.Reduce(engine, level)
		if err != nil {
			t.Fatal(err)
		}
		return step{
			req: Request{Op: OpReduce, RegionID: id, Requester: "reader", ToLevel: level},
			check: func(resp *Response) error {
				if !resp.OK || resp.RegionID != id || resp.Level == nil || *resp.Level != min(level, levels) {
					return fmt.Errorf("reduce(%s, %d) answered ok=%v id=%q level=%v %s",
						id, level, resp.OK, resp.RegionID, resp.Level, resp.Error)
				}
				if !reflect.DeepEqual(resp.Region.Segments, want.Segments) {
					return fmt.Errorf("reduce(%s, %d) answered another region", id, level)
				}
				return nil
			},
		}
	}
	getStep := func(id string) step {
		return step{
			req: Request{Op: OpGetRegion, RegionID: id},
			check: func(resp *Response) error {
				if !resp.OK || resp.RegionID != id || resp.Level != nil || resp.Levels != levels {
					return fmt.Errorf("get_region(%s) answered ok=%v id=%q level=%v levels=%d",
						id, resp.OK, resp.RegionID, resp.Level, resp.Levels)
				}
				return nil
			},
		}
	}
	anonymizeStep := func(user roadnet.SegmentID, nLevels int) step {
		p := profile.Profile{Levels: prof.Levels[:nLevels]}
		return step{
			req: Request{Op: OpAnonymize, UserSegment: user, Profile: &p, Algorithm: "RGE"},
			check: func(resp *Response) error {
				// A refused cloak is still this request's answer; an accepted
				// one names the user's segment and the profile's level count.
				if resp.Region == nil {
					if resp.OK {
						return fmt.Errorf("anonymize(%d) answered ok without a region", user)
					}
					return nil
				}
				if resp.Levels != nLevels || !resp.Region.Contains(user) {
					return fmt.Errorf("anonymize(%d, %d levels) answered levels=%d for another user",
						user, nLevels, resp.Levels)
				}
				return nil
			},
		}
	}
	var steps []step
	for i := 0; i < 24; i++ {
		id := ids[i%len(ids)]
		switch i % 4 {
		case 0:
			steps = append(steps, reduceStep(id, 0)) // hit
		case 1:
			steps = append(steps, getStep(id))
		case 2:
			steps = append(steps, reduceStep(id, 1+i/4%2)) // a miss the first time
		case 3:
			steps = append(steps, anonymizeStep(roadnet.SegmentID(10+i), 1+i/4%levels))
		}
		if i%6 == 5 {
			steps = append(steps, reduceStep(id, levels)) // nothing to peel
		}
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if _, err := conn.Write([]byte(`{"v":2,"op":"ping"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if ack, err := br.ReadBytes('\n'); err != nil || !strings.Contains(string(ack), `"ok":true`) {
		t.Fatalf("upgrade ack %q: %v", ack, err)
	}
	var burst []byte
	for i := range steps {
		steps[i].req.V = ProtocolBinaryMajor
		if burst, err = appendWireFrame(burst, func(b []byte) []byte {
			return appendRequest(b, &steps[i].req)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i, st := range steps {
		payload, err := readWireFrame(br, nil)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		var resp Response
		if err := decodeResponse(payload, &resp); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if err := st.check(&resp); err != nil {
			t.Fatalf("response %d of %d: %v", i, len(steps), err)
		}
	}
	if st, _ := srv.ReduceCacheStats(); st.RegionHits == 0 || st.RegionMisses == 0 {
		t.Fatalf("the burst did not mix hits and misses: %+v", st)
	}
}

// TestClosedConnectionsLeaveNothingBehind abandons connections in each
// state a client can leave one in: idle, mid-line, mid-header and
// mid-payload after the binary upgrade, and reset (SO_LINGER 0) with a
// pipelined burst of anonymize requests in flight. Once they are closed,
// the server's goroutines must return to their count before the
// connections opened, and the server must still answer.
func TestClosedConnectionsLeaveNothingBehind(t *testing.T) {
	_, addr, _ := startServer(t)
	before := runtime.NumGoroutine()

	prof := testProfile()
	var burst []byte
	for i := 0; i < 64; i++ {
		line, err := json.Marshal(&Request{Op: OpAnonymize, UserSegment: roadnet.SegmentID(10 + i), Profile: &prof, Algorithm: "RGE"})
		if err != nil {
			t.Fatal(err)
		}
		burst = append(append(burst, line...), '\n')
	}
	ping, err := appendWireFrame(nil, func(b []byte) []byte {
		return appendRequest(b, &Request{V: ProtocolBinaryMajor, Op: OpPing})
	})
	if err != nil {
		t.Fatal(err)
	}
	write := func(b []byte) func(net.Conn, *bufio.Reader) error {
		return func(conn net.Conn, _ *bufio.Reader) error { _, err := conn.Write(b); return err }
	}
	upgradeThen := func(b []byte) func(net.Conn, *bufio.Reader) error {
		return func(conn net.Conn, br *bufio.Reader) error {
			if _, err := conn.Write([]byte(`{"v":2,"op":"ping"}` + "\n")); err != nil {
				return err
			}
			if ack, err := br.ReadBytes('\n'); err != nil || !strings.Contains(string(ack), `"ok":true`) {
				return fmt.Errorf("upgrade ack %q: %v", ack, err)
			}
			_, err := conn.Write(b)
			return err
		}
	}
	states := []struct {
		name  string
		leave func(net.Conn, *bufio.Reader) error
	}{
		{"idle", write(nil)},
		{"json mid-line", write([]byte(`{"op":"pi`))},
		{"binary mid-header", upgradeThen(ping[:3])},
		{"binary mid-payload", upgradeThen(ping[:len(ping)-1])},
		{"pipelined burst, reset", func(conn net.Conn, br *bufio.Reader) error {
			if _, err := conn.Write(burst); err != nil {
				return err
			}
			if _, err := br.ReadBytes('\n'); err != nil { // the burst is being served
				return err
			}
			return conn.(*net.TCPConn).SetLinger(0)
		}},
	}
	var conns []net.Conn
	for round := 0; round < 8; round++ {
		for _, st := range states {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			conns = append(conns, conn)
			if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if err := st.leave(conn, bufio.NewReader(conn)); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
		}
	}
	open := runtime.NumGoroutine()
	for _, conn := range conns {
		_ = conn.Close()
	}

	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			stacks := make([]byte, 1<<20)
			stacks = stacks[:runtime.Stack(stacks, true)]
			t.Fatalf("%d goroutines 2s after closing %d connections (%d before they opened, %d while open):\n%s",
				runtime.NumGoroutine(), len(conns), before, open, stacks)
		}
	}
	if err := dial(t, addr).Ping(); err != nil {
		t.Fatalf("ping after the connections closed: %v", err)
	}
}
