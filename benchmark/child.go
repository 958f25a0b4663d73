package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one running `anonymizer serve` process.
type child struct {
	cmd   *exec.Cmd
	addr  string // client listener, from the banner
	admin string // admin listener, from the banner
	// readyAfter is the time from exec to the serving banner.
	readyAfter time.Duration

	waitOnce sync.Once
	waitErr  error
	drained  chan struct{} // closed when stdout reaches EOF
}

const (
	bannerServing = "anonymizer server on "
	bannerAdmin   = "admin http on "
	// readyTimeout bounds a start-up: the atlanta preset needs ~8s to
	// build its RPLE tables on the calibration box.
	readyTimeout = 120 * time.Second
)

// startChild executes bin with `serve` arguments on ephemeral ports and
// waits for the serving banner. Output after the banner is drained and
// discarded so the child can never block on a full pipe.
func startChild(bin string, args []string) (*child, error) {
	full := append([]string{"serve", "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stderr = os.Stderr
	// Should the harness die without cleaning up, the kernel takes the
	// server down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	c := &child{cmd: cmd, drained: make(chan struct{})}

	type banner struct {
		addr, admin string
		after       time.Duration
	}
	ready := make(chan banner, 1) // one send, so the reader never blocks on it
	go func() {
		defer close(c.drained)
		var b banner
		sent := false
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if sent {
				continue
			}
			if rest, ok := strings.CutPrefix(line, bannerAdmin); ok {
				b.admin = strings.Fields(rest)[0]
			}
			if rest, ok := strings.CutPrefix(line, bannerServing); ok {
				b.addr = strings.Fields(rest)[0]
				b.after = time.Since(start)
				ready <- b
				sent = true
			}
		}
	}()

	select {
	case b := <-ready:
		c.addr, c.admin, c.readyAfter = b.addr, b.admin, b.after
		return c, nil
	case <-c.drained:
		_ = c.wait()
		return nil, fmt.Errorf("%s serve %s: exited before serving", bin, strings.Join(args, " "))
	case <-time.After(readyTimeout):
		c.kill()
		return nil, fmt.Errorf("%s serve: not serving after %s", bin, readyTimeout)
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// wait reaps the process once; later calls return the same result.
func (c *child) wait() error {
	c.waitOnce.Do(func() {
		<-c.drained // Wait closes the pipe; let the reader finish first
		c.waitErr = c.cmd.Wait()
	})
	return c.waitErr
}

// kill is `kill -9` followed by a reap: the crash half of the recovery
// drill, and the teardown of last resort.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	_ = c.wait()
}

// stop asks for a clean shutdown and falls back to kill after a grace
// period. It returns once the process has been reaped.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = c.wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		c.kill()
		<-done
	}
}

// cpuSeconds is the child's user+system CPU time so far.
func (c *child) cpuSeconds() (float64, error) {
	s, err := cpuSeconds(c.pid())
	if err != nil {
		return 0, fmt.Errorf("child cpu: %w", err)
	}
	return s, nil
}

// children tracks every live child so a signal or a failed run can take
// them all down before the harness exits.
type children struct {
	mu   sync.Mutex
	live map[*child]bool
}

func (cs *children) start(bin string, args []string) (*child, error) {
	c, err := startChild(bin, args)
	if err != nil {
		return nil, err
	}
	cs.mu.Lock()
	if cs.live == nil {
		cs.live = map[*child]bool{}
	}
	cs.live[c] = true
	cs.mu.Unlock()
	return c, nil
}

func (cs *children) forget(c *child) {
	cs.mu.Lock()
	delete(cs.live, c)
	cs.mu.Unlock()
}

// stop shuts one child down cleanly.
func (cs *children) stop(c *child) {
	c.stop()
	cs.forget(c)
}

// kill crashes one child.
func (cs *children) kill(c *child) {
	c.kill()
	cs.forget(c)
}

// killAll is the exit path: nothing this harness started outlives it.
func (cs *children) killAll() {
	cs.mu.Lock()
	live := make([]*child, 0, len(cs.live))
	for c := range cs.live {
		live = append(live, c)
	}
	cs.live = nil
	cs.mu.Unlock()
	for _, c := range live {
		c.kill()
	}
}
