package main

import (
	"io"
	"net"
	"time"
)

// yardstick measures the machine, not the program: between a serial
// phase's requests it times a fixed task that runs no product code. See
// "Yardstick" in README.md for what it is for and what it was seen to do.
//
// One reading walks a 6 MiB pointer chain for yardHops hops, untimed, and
// then times yardTrips round trips of 32 bytes over a loopback TCP
// connection to a goroutine of this process. The walk puts the core in
// the state a request leaves the server's in — awake, its nearest caches
// full of something else — and the round trips then take the kernel's
// socket path cold, which is what was seen to slow down and speed up with
// the cloaking engine. Round trips timed straight out of an idle wait
// measured the wake-up instead and tracked nothing (correlation 0.62).
type yardstick struct {
	ln      net.Listener
	conn    net.Conn
	chain   []uint32
	at      uint32
	last    time.Time
	samples sample // microseconds per round trip, one value per reading
}

const (
	// yardEvery is the least time between two readings: a reading takes
	// 2-3ms, most of it the walk, so the yardstick costs a phase 3% of its
	// time and a phase of 5s reads it 50 times.
	yardEvery  = 100 * time.Millisecond
	yardHops   = 15000
	yardTrips  = 20
	yardChainN = 6 << 20 / 4 // uint32s: past the core's own cache, inside the shared one
	// yardNominal is the reading the reported numbers are scaled to, the
	// calibration machine's in its fast state: a serial metric reads as it
	// would on a machine whose yardstick says yardNominal.
	yardNominal = 10.0
)

func newYardstick() (*yardstick, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var b [32]byte
		for {
			if _, err := io.ReadFull(c, b[:]); err != nil {
				return
			}
			if _, err := c.Write(b[:]); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	// One cycle through every element, in a fixed random order (Sattolo).
	chain := make([]uint32, yardChainN)
	for i := range chain {
		chain[i] = uint32(i)
	}
	r := newRand(0, streamYardstick)
	for i := len(chain) - 1; i > 0; i-- {
		j := r.Intn(i)
		chain[i], chain[j] = chain[j], chain[i]
	}
	return &yardstick{ln: ln, conn: conn, chain: chain}, nil
}

func (y *yardstick) close() {
	_ = y.conn.Close()
	_ = y.ln.Close()
}

// tick takes a reading when the last one is at least yardEvery old, and
// says whether it did: the caller must not charge that time to a request.
func (y *yardstick) tick() (bool, error) {
	if time.Since(y.last) < yardEvery {
		return false, nil
	}
	for i := 0; i < yardHops; i++ {
		y.at = y.chain[y.at]
	}
	var b [32]byte
	start := time.Now()
	for i := 0; i < yardTrips; i++ {
		if _, err := y.conn.Write(b[:]); err != nil {
			return true, err
		}
		if _, err := io.ReadFull(y.conn, b[:]); err != nil {
			return true, err
		}
	}
	y.last = time.Now()
	y.samples = append(y.samples, micros(y.last.Sub(start))/yardTrips)
	return true, nil
}

// reading is the yardstick since the last call: the best quartile of the
// readings taken, like every other number of a phase an estimate of the
// undisturbed machine. n is how many there were.
func (y *yardstick) reading() (micros float64, n int) {
	micros, n = bestQuartile(y.samples, false), len(y.samples)
	y.samples = nil
	return micros, n
}

// readInBackground reads the yardstick every yardEvery from a goroutine of
// its own, for the stretches where the generator mostly waits (set-up).
// The returned function stops the goroutine and waits for it to end;
// nothing else may use the yardstick until then.
func (y *yardstick) readInBackground() (stop func() error) {
	quit, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			if _, err := y.tick(); err != nil {
				done <- err
				return
			}
			select {
			case <-quit:
				done <- nil
				return
			case <-time.After(yardEvery / 4):
			}
		}
	}()
	return func() error {
		close(quit)
		return <-done
	}
}
