package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// opRecord is one executed request, kept when a traced run needs to
// replay the phase in-process.
type opRecord struct {
	req request
	res result
}

// phaseStats is what one phase measured. Latencies are microseconds.
type phaseStats struct {
	all      sample
	byKind   [numOpKinds]sample
	late     sample // open phase: how long after its due time a request was sent
	attempt  int
	failed   int
	withinOK int // open phase: OK, correct and within the limit
	// windows are the open phase's schedule cut into openWindows equal runs
	// of slots, each counting its own requests.
	windows  [openWindows]struct{ attempt, withinOK int }
	wall     time.Duration
	childCPU float64 // child user+sys seconds over the phase
	selfCPU  float64 // generator user+sys seconds over the phase
	errs     []string
	log      []opRecord
	// A serial phase is cut into laps of equal slot count, each with its
	// own clock and CPU reading; the gated metrics are taken from them.
	// With one request in flight, period[i] is the time operation i took
	// from the end of the one before it (generator work included,
	// yardstick readings not), so a lap's periods add up to its wall time.
	laps   []lapStats
	period sample
	// repeating says every lap issued the same requests in the same order.
	repeating bool
	// yard is the phase's yardstick, microseconds, from yardReadings readings.
	yard         float64
	yardReadings int
}

// lapStats is one lap of a serial phase.
type lapStats struct {
	first, ops int // the lap's operations are all[first : first+ops]
	wall       time.Duration
	childCPU   float64
}

// Interference from the machine's other tenants only ever slows a request,
// so each gated number is a best quartile — the value a quarter of the
// repetitions reach or beat: an estimate of the undisturbed machine that
// one lucky repetition cannot set, and that a change slowing the code
// moves, because that slows every repetition.
//
// What is repeated depends on the phase. Where every lap issues the same
// requests one at a time (reduce_cold), each position of the lap has one
// time per lap and contributes the best quartile of those, so a stall
// spoils the requests it hits and not the laps they are in. Elsewhere the
// laps are the repetitions: they do like work (mixed_dense), or the same
// work with several requests in flight, where single requests cannot be
// timed (reduce_hot). A phase of one lap (register_paper, whose requests
// differ ten-thousandfold and cannot be asked twice) is taken whole.
func bestQuartile(v sample, higherIsBetter bool) float64 {
	if higherIsBetter {
		return percentile(v.sorted(), 75)
	}
	return percentile(v.sorted(), 25)
}

// positional returns, for a repeating phase, the best quartile over the
// laps of v at each position of the lap.
func (p *phaseStats) positional(v sample) sample {
	n := p.laps[0].ops
	out := make(sample, n)
	col := make(sample, len(p.laps))
	for i := range out {
		for j, l := range p.laps {
			col[j] = v[l.first+i]
		}
		out[i] = bestQuartile(col, false)
	}
	return out
}

// lapValues applies f to every lap's slice of v.
func (p *phaseStats) lapValues(v sample, f func(lap sample) float64) sample {
	out := make(sample, len(p.laps))
	for i, l := range p.laps {
		out[i] = f(v[l.first : l.first+l.ops])
	}
	return out
}

// opsPerSecond is the serial phase's rate, as measured.
func (p *phaseStats) opsPerSecond() float64 {
	if p.repeating {
		return 1e6 / p.positional(p.period).mean()
	}
	v := make(sample, len(p.laps))
	for i, l := range p.laps {
		v[i] = float64(l.ops) / l.wall.Seconds()
	}
	return bestQuartile(v, true)
}

// p50 is the serial phase's median round trip, as measured.
func (p *phaseStats) p50() float64 {
	if p.repeating {
		return p.positional(p.all).median()
	}
	return bestQuartile(p.lapValues(p.all, sample.median), false)
}

// childCPUMicrosPerOp is the best quartile of the laps' child CPU per op.
func (p *phaseStats) childCPUMicrosPerOp() float64 {
	v := make(sample, len(p.laps))
	for i, l := range p.laps {
		v[i] = l.childCPU * 1e6 / float64(l.ops)
	}
	return bestQuartile(v, false)
}

// openWindows is how many windows an open phase is judged in, and
// openWindowsKept how many of them count.
const (
	openWindows     = 12
	openWindowsKept = 9
)

// sloOKFraction is the share of the open phase's requests that came back
// OK, correct and within the limit, over the three quarters of its windows
// where that share was highest. A stall of the machine makes every request
// due during it late, and a phase of seconds cannot average that out: the
// calibration machine's stalls took 0.1 to 0.14 off the plain share in a
// quarter of the runs. A server that cannot keep up is late in every
// window after the backlog forms, so this still falls.
func (p *phaseStats) sloOKFraction() float64 {
	shares := make(sample, 0, openWindows)
	for _, w := range p.windows {
		if w.attempt > 0 {
			shares = append(shares, float64(w.withinOK)/float64(w.attempt))
		}
	}
	best := shares.sorted()
	if drop := len(best) - openWindowsKept; drop > 0 {
		best = best[drop:]
	}
	return sample(best).mean()
}

// atNominal rescales a time measured while the yardstick read p.yard to
// the time it would have been at yardNominal.
func (p *phaseStats) atNominal(micros float64) float64 {
	return atNominal(micros, p.yard)
}

func atNominal(t, yard float64) float64 { return t * yardNominal / yard }

const maxKeptErrors = 5

func (p *phaseStats) record(kind opKind, micros float64, err error) {
	p.attempt++
	p.all = append(p.all, micros)
	p.byKind[kind] = append(p.byKind[kind], micros)
	if err != nil {
		p.failed++
		if len(p.errs) < maxKeptErrors {
			p.errs = append(p.errs, fmt.Sprintf("%s: %v", kind, err))
		}
	}
}

// cpuProbe measures CPU seconds the child and this process spend between
// start and read.
type cpuProbe struct {
	c           *child
	child, self float64
}

func startCPUProbe(c *child) (*cpuProbe, error) {
	p := &cpuProbe{c: c}
	var err error
	p.child, p.self, err = p.now()
	return p, err
}

func (p *cpuProbe) now() (child, self float64, err error) {
	if child, err = p.c.cpuSeconds(); err != nil {
		return 0, 0, err
	}
	if self, err = cpuSeconds(0); err != nil {
		return 0, 0, err
	}
	return child, self, nil
}

// read returns the CPU seconds spent since start.
func (p *cpuProbe) read() (child, self float64, err error) {
	child, self, err = p.now()
	return child - p.child, self - p.self, err
}

// serialPlan is the shape of one serial phase.
type serialPlan struct {
	laps, lapSlots int
	// inFlight is how many requests are kept outstanding; 0 means one.
	inFlight int
	// keepLog records every request and answer (one in flight only).
	keepLog bool
	// yard, when not nil, is read between requests (between laps when
	// several are in flight), off every clock of the phase.
	yard *yardstick
}

// runSerial issues laps of source slots on ONE connection. A slot's
// dependent request (the set_trust after an anonymize) runs right behind
// it and counts as its own operation. Each lap is measured on its own.
func runSerial(s *server, src source, plan serialPlan) (*phaseStats, error) {
	c, prof := s.conns[0], s.w.profile
	laps, lapSlots, keepLog, yard := plan.laps, plan.lapSlots, plan.keepLog, plan.yard
	st := &phaseStats{}
	probe, err := startCPUProbe(s.child)
	if err != nil {
		return nil, err
	}
	// prev is the end of the last thing done on the phase's clocks; time
	// since then is charged to the next operation.
	var prev time.Time
	readYard := func() error {
		if yard == nil {
			return nil
		}
		if took, err := yard.tick(); err != nil {
			return fmt.Errorf("yardstick: %w", err)
		} else if took {
			prev = time.Now()
		}
		return nil
	}
	// slot issues one slot's requests, one after another.
	slot := func(req *request, record func(req *request, res result, t0, done time.Time)) {
		for req != nil {
			t0 := time.Now()
			res := execute(c, prof, req)
			done := time.Now()
			next := src.complete(req, &res, done)
			record(req, res, t0, done)
			req = next
		}
	}
	lapCPU := 0.0
	for lap := 0; lap < laps; lap++ {
		if err := readYard(); err != nil {
			return nil, err
		}
		first, lapWall := st.attempt, time.Duration(0)
		prev = time.Now()
		if plan.inFlight <= 1 {
			for i := 0; i < lapSlots; i++ {
				if err := readYard(); err != nil {
					return nil, err
				}
				slot(src.next(time.Now()), func(req *request, res result, t0, done time.Time) {
					st.record(req.kind, micros(done.Sub(t0)), res.err)
					st.period = append(st.period, micros(done.Sub(prev)))
					lapWall += done.Sub(prev)
					prev = done
					if keepLog {
						st.log = append(st.log, opRecord{req: *req, res: res})
					}
				})
			}
		} else {
			var mu sync.Mutex // guards src.next and st
			var wg sync.WaitGroup
			issued := 0
			for w := 0; w < plan.inFlight; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						mu.Lock()
						if issued == lapSlots {
							mu.Unlock()
							return
						}
						issued++
						req := src.next(time.Now())
						mu.Unlock()
						slot(req, func(req *request, res result, t0, done time.Time) {
							mu.Lock()
							st.record(req.kind, micros(done.Sub(t0)), res.err)
							mu.Unlock()
						})
					}
				}()
			}
			wg.Wait()
			lapWall = time.Since(prev)
		}
		if st.childCPU, st.selfCPU, err = probe.read(); err != nil {
			return nil, err
		}
		st.laps = append(st.laps, lapStats{first: first, ops: st.attempt - first, wall: lapWall, childCPU: st.childCPU - lapCPU})
		st.wall += lapWall
		lapCPU = st.childCPU
	}
	if yard != nil {
		st.yard, st.yardReadings = yard.reading()
	}
	return st, nil
}

// punctual prepares the calling goroutine for waitUntil: it pins it to
// its OS thread and removes that thread's timer slack (50us by default).
// The returned function undoes the pinning.
func punctual() (release func()) {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: failure only costs precision
	return runtime.UnlockOSThread
}

// waitUntil blocks the calling thread until `due` with nanosleep(2). Go's
// own timers are no use here: an idle Go program waits in epoll, whose
// timeout has millisecond granularity, so time.Sleep(100us) returns after
// 1.1ms. nanosleep on a pinned thread is ~20us late and burns no CPU.
func waitUntil(due time.Time) {
	for wait := time.Until(due); wait > 0; wait = time.Until(due) {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // interrupted early: the loop sleeps the rest
	}
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runOpen sends the source's requests on a fixed schedule, whether or not
// earlier ones have completed, spread round-robin over the connections.
// A request's latency runs from the time it was DUE, so a stalled server
// (or a late generator) is charged for the wait it imposes on everything
// scheduled behind the stall. Dependent requests are due when the request
// they depend on completes.
func runOpen(s *server, src source, schedule []time.Duration) (*phaseStats, error) {
	conns, prof, limit := s.conns, s.w.profile, s.w.limit
	st := &phaseStats{}
	probe, err := startCPUProbe(s.child)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex // guards st
	var wg sync.WaitGroup
	limitMicros := micros(limit)

	finish := func(window int, kind opKind, lat float64, err error) {
		mu.Lock()
		st.record(kind, lat, err)
		st.windows[window].attempt++
		if err == nil && lat <= limitMicros {
			st.withinOK++
			st.windows[window].withinOK++
		}
		mu.Unlock()
	}

	defer punctual()()
	start := time.Now()
	for i, offset := range schedule {
		due := start.Add(offset)
		waitUntil(due)
		now := time.Now()
		req := src.next(now)
		if req == nil {
			continue
		}
		st.late = append(st.late, micros(now.Sub(due))) // only this goroutine appends
		c, window := conns[i%len(conns)], i*openWindows/len(schedule)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req != nil {
				res := execute(c, prof, req)
				done := time.Now()
				next := src.complete(req, &res, done)
				finish(window, req.kind, micros(done.Sub(due)), res.err)
				req, due = next, done
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(start)
	st.childCPU, st.selfCPU, err = probe.read()
	return st, err
}
