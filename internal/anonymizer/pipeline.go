package anonymizer

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"runtime"
	"sync"
	"time"
)

// The connection pipeline's fixed bounds (docs/PROTOCOL.md, "Ordering and
// pipelining"): at most connWindow decoded requests are in flight on one
// connection before the reader stops decoding (backpressure), and they
// run on min(GOMAXPROCS, maxConnWorkers) workers.
const (
	connWindow     = 64
	maxConnWorkers = 8
)

// connJob is one in-flight request on a connection. done receives one
// token from the worker once resp is set; the writer consumes it to
// preserve order. major is the protocol major the response must carry,
// captured at decode time so pre-upgrade responses keep saying v=1 even
// while later jobs on the same connection already speak v=2. upgrade
// marks the request that negotiated binary framing: the writer switches
// codecs right after encoding its (JSON) response. reg, target and probe
// carry a reduce the reader probed but could not answer to the worker
// that peels it (Server.dispatchInline), probe being the time the probe
// took.
type connJob struct {
	req     Request
	resp    *Response
	done    chan struct{}
	major   int
	upgrade bool
	reg     *Registration
	target  int
	probe   time.Duration
}

// connJobPool recycles job shells across requests and connections. The
// done channel (buffered, capacity 1) survives recycling: exactly one
// token is sent per dispatched job and the writer consumes it, so the
// channel is always empty when the shell returns to the pool. req is
// cleared on recycle so pooled shells pin no request payloads.
var connJobPool = sync.Pool{New: func() any { return new(connJob) }}

func getConnJob() *connJob {
	job := connJobPool.Get().(*connJob)
	if job.done == nil {
		job.done = make(chan struct{}, 1)
	}
	return job
}

func putConnJob(job *connJob) {
	job.req = Request{}
	job.resp = nil
	job.major = 0
	job.upgrade = false
	job.reg = nil
	job.target = 0
	job.probe = 0
	connJobPool.Put(job)
}

// connWriter is the connection as the writer's buffer sees it: each
// Write is one write to the socket, counted with its bytes, so /metrics
// shows how many responses a write carries.
type connWriter struct {
	conn    net.Conn
	metrics *serverMetrics
}

func (w *connWriter) Write(p []byte) (int, error) {
	n, err := w.conn.Write(p)
	w.metrics.respWrites.Add(1)
	w.metrics.bytesOut.Add(int64(n))
	return n, err
}

// handleConn serves one connection as a pipeline of three stages:
//
//	reader  — decodes requests in arrival order and answers those that
//	          cannot block itself,
//	workers — a bounded pool executing the rest concurrently,
//	writer  — encodes responses strictly in request order.
//
// The ordered queue is bounded (connWindow), so a slow client or a burst of
// expensive requests exerts backpressure on the reader instead of growing
// memory without bound. The connection is dropped on the first decode or
// encode error, matching the old one-request-at-a-time behavior.
//
// The reader runs ping, auth, get_region and a reduce that needs no peel
// or finds its peel cached (Server.dispatchInline): a hand-off to a worker
// and back would cost more than the answer. Running auth here also means
// every request decoded after an auth, pipelined or not, observes the
// stamped principal. Anything that may block — the engine, a journal
// append or fsync wait, a wait on another request's peel, key derivation
// — goes to the workers. The tenant's rate budget is charged on the
// reader too (preflight), so an over-quota client is shed for the price
// of a decode, before a worker or the store sees the request.
//
// The writer encodes into one buffer for both codecs and flushes once per
// burst: when the queue is empty, or before it waits on a response that is
// not ready, so a ready response never waits in the buffer behind a slow
// one.
//
// Every connection starts as JSON v1. A request carrying v=2 negotiates
// binary framing (protocol v2): it is handled inline like auth — the
// reader must know whether the upgrade succeeded before decoding the next
// request — and on success the reader switches to CRC-framed binary
// decoding while the writer switches right after emitting the JSON
// acknowledgment. Frame scratch buffers come from wireBufPool, so a
// closing connection donates its warm buffers to the next one.
func (s *Server) handleConn(conn net.Conn) {
	s.metrics.connsOpen.Add(1)
	s.metrics.connsTotal.Add(1)
	defer s.metrics.connsOpen.Add(-1)
	defer func() { _ = conn.Close() }()

	cc := &connCtx{}
	work := make(chan *connJob)                // reader -> workers
	ordered := make(chan *connJob, connWindow) // reader -> writer, FIFO

	var workers sync.WaitGroup
	n := min(runtime.GOMAXPROCS(0), maxConnWorkers)
	for i := 0; i < n; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for job := range work {
				s.dispatch(cc, job)
				job.done <- struct{}{}
			}
		}()
	}

	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		bw := bufio.NewWriter(&connWriter{conn: conn, metrics: s.metrics})
		enc := json.NewEncoder(bw)
		var sendBuf *[]byte // pooled frame-encode scratch, non-nil once the connection is binary
		defer func() {
			if sendBuf != nil {
				putWireBuf(sendBuf)
			}
		}()
		broken := false
		for job := range ordered {
			var err error
			select {
			case <-job.done:
			default:
				// Not ready: send what is buffered before waiting for it.
				if !broken {
					err = bw.Flush()
				}
				<-job.done
			}
			if !broken && err == nil {
				if sendBuf == nil {
					err = enc.Encode(job.resp)
				} else {
					var framed []byte
					framed, err = appendWireFrame((*sendBuf)[:0], func(b []byte) []byte {
						return appendResponse(b, job.resp)
					})
					if err == nil {
						*sendBuf = trimWireBuf(framed)
						_, err = bw.Write(framed)
					}
				}
				if err == nil && len(ordered) == 0 {
					err = bw.Flush() // the end of a burst
				}
			}
			if err != nil {
				// Kill the connection: the reader's next decode fails and
				// shuts the pipeline down. Later jobs are drained unwritten
				// so the reader never blocks forever.
				broken = true
				_ = conn.Close()
			}
			if job.upgrade && job.resp.OK && sendBuf == nil {
				// The acknowledgment above was the connection's last JSON
				// line; every response from here on is a binary frame.
				sendBuf = getWireBuf()
			}
			putResp(job.resp)
			putConnJob(job)
		}
	}()

	dec := json.NewDecoder(conn)
	var lastOffset int64
	var br *bufio.Reader // non-nil once the connection is binary
	var recvBuf *[]byte  // pooled frame payload scratch
	defer func() {
		if recvBuf != nil {
			putWireBuf(recvBuf)
		}
	}()
	major := ProtocolMajor
	for {
		job := getConnJob()
		var reqBytes int64
		if br == nil {
			if err := dec.Decode(&job.req); err != nil {
				putConnJob(job)
				break // EOF or garbage: drop the connection
			}
			reqBytes = dec.InputOffset() - lastOffset
			lastOffset = dec.InputOffset()
		} else {
			payload, err := readWireFrame(br, (*recvBuf)[:0])
			if err != nil {
				putConnJob(job)
				break // EOF or a torn/corrupt frame: drop the connection
			}
			reqBytes = int64(wireHeaderSize + len(payload))
			err = decodeRequest(payload, &job.req)
			*recvBuf = trimWireBuf(payload)
			if err != nil {
				putConnJob(job)
				break // malformed message: drop the connection
			}
		}
		s.metrics.bytesIn.Add(reqBytes)
		isUpgrade := br == nil && job.req.V == ProtocolBinaryMajor
		if isUpgrade {
			job.upgrade = true
			major = ProtocolBinaryMajor
		}
		job.major = major
		ordered <- job // reserve the response slot first (bounded)
		if resp := s.preflight(cc, &job.req, reqBytes); resp != nil {
			resp.V = job.major
			job.resp = resp
		} else if isUpgrade {
			// Inline whatever the op: the reader cannot decode past an
			// upgrade without knowing whether it succeeded.
			s.dispatch(cc, job)
		} else if !s.dispatchInline(cc, job) {
			work <- job
			continue
		}
		upgraded := isUpgrade && job.resp.OK
		// The job must not be touched after the done send: the writer
		// recycles it.
		job.done <- struct{}{}
		if isUpgrade && !upgraded {
			// Rejected upgrade (e.g. throttled): the connection stays
			// JSON and later requests stamp major 1 again.
			major = ProtocolMajor
		}
		if upgraded {
			// The upgrade request's line is terminated by a newline;
			// binary frames begin at the byte after it. The JSON decoder
			// may have buffered those bytes already, so the frame reader
			// starts from its leftovers.
			br = bufio.NewReader(io.MultiReader(dec.Buffered(), conn))
			if err := skipUpgradeNewline(br); err != nil {
				break
			}
			recvBuf = getWireBuf()
			s.metrics.connsBinary.Add(1)
		}
	}
	close(work)
	workers.Wait()
	close(ordered)
	writer.Wait()
}
