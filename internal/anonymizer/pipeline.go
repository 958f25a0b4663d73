package anonymizer

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"runtime"
	"sync"
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
// codecs right after encoding its (JSON) response.
type connJob struct {
	req     Request
	resp    *Response
	done    chan struct{}
	major   int
	upgrade bool
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
	connJobPool.Put(job)
}

// handleConn serves one connection as a pipeline of three stages:
//
//	reader  — decodes requests in arrival order,
//	workers — a bounded pool executing requests concurrently,
//	writer  — encodes responses strictly in request order.
//
// The ordered queue is bounded (connWindow), so a slow client or a burst of
// expensive requests exerts backpressure on the reader instead of growing
// memory without bound. The connection is dropped on the first decode or
// encode error, matching the old one-request-at-a-time behavior.
//
// The reader is also the trust boundary's cheap stages. Auth requests
// execute inline here — not on the worker pool — so every request decoded
// after an auth, pipelined or not, observes the stamped principal. And the
// tenant's rate budget is charged here (preflight), so an over-quota
// client is shed for the price of a decode, before a worker or the store
// sees the request.
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
				job.resp = s.dispatch(cc, &job.req, job.major)
				job.done <- struct{}{}
			}
		}()
	}

	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		enc := json.NewEncoder(conn)
		var bw *bufio.Writer // non-nil once the connection is binary
		var sendBuf *[]byte  // pooled frame-encode scratch
		defer func() {
			if sendBuf != nil {
				putWireBuf(sendBuf)
			}
		}()
		broken := false
		for job := range ordered {
			<-job.done
			if broken {
				putResp(job.resp)
				putConnJob(job)
				continue // drain so the reader never blocks forever
			}
			var err error
			if bw == nil {
				err = enc.Encode(job.resp)
			} else {
				var framed []byte
				framed, err = appendWireFrame((*sendBuf)[:0], func(b []byte) []byte {
					return appendResponse(b, job.resp)
				})
				if err == nil {
					*sendBuf = trimWireBuf(framed)
					if _, err = bw.Write(framed); err == nil {
						err = bw.Flush()
					}
				}
			}
			if err != nil {
				// Kill the connection: the reader's next decode fails and
				// shuts the pipeline down.
				broken = true
				_ = conn.Close()
			}
			if job.upgrade && job.resp.OK && bw == nil {
				// The acknowledgment above was the connection's last JSON
				// line; every response from here on is a binary frame.
				bw = bufio.NewWriter(conn)
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
		if br == nil && job.req.V == ProtocolBinaryMajor {
			job.upgrade = true
			major = ProtocolBinaryMajor
		}
		job.major = major
		ordered <- job // reserve the response slot first (bounded)
		isUpgrade := job.upgrade
		if isUpgrade || job.req.Op == OpAuth {
			// Inline: an auth's principal must be visible to every later
			// decode, and the reader cannot decode past an upgrade without
			// knowing whether it succeeded. The job must not be touched
			// after the done send: the writer recycles it.
			if resp := s.preflight(cc, &job.req, reqBytes); resp != nil {
				resp.V = job.major
				job.resp = resp
			} else {
				job.resp = s.dispatch(cc, &job.req, job.major)
			}
			upgraded := isUpgrade && job.resp.OK
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
			continue
		}
		if resp := s.preflight(cc, &job.req, reqBytes); resp != nil {
			resp.V = job.major
			job.resp = resp
			job.done <- struct{}{}
			continue
		}
		work <- job
	}
	close(work)
	workers.Wait()
	close(ordered)
	writer.Wait()
}
