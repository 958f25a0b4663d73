// Package repl is the follower side of the anonymizer's log-shipping
// replication: it bootstraps a fresh follower from the leader's backup
// archive, subscribes once per connection (repl_subscribe, the fencing
// handshake), then polls the leader for incremental archives — `backup`
// with since = its durable watermark, which is also its ack — and lands
// each through the exact journal+apply pipeline crash recovery uses
// (DurableStore.ApplyDelta), and promotes the follower to leader when the
// operator fails over.
//
// Why replicate at all: ReverseCloak's reversibility lives entirely in
// the server-held keys, so a single anonymizer data directory is a
// single point of total, permanent privacy-and-utility loss. A follower
// holds a byte-identical copy of the mutation log, a promotion is an
// epoch bump away, and the stale leader is fenced by that epoch when it
// tries to rejoin.
package repl

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reversecloak/reversecloak/internal/anonymizer"
)

// Config configures a Follower.
type Config struct {
	// LeaderAddr is the leader server's address (required).
	LeaderAddr string
	// DataDir is the follower's durable data directory. A directory that
	// does not exist (or does not hold a durable store) is bootstrapped
	// from a hot backup of the leader before the apply loop starts.
	DataDir string
	// Advertise is the address this follower's own server is reachable
	// at: it is reported to the leader (lag accounting) and is what
	// clients are redirected to after a promotion makes this node the
	// leader. Optional.
	Advertise string
	// PollInterval is the poll period (default 100ms). Each poll fetches
	// every record the leader holds past the follower's watermark.
	PollInterval time.Duration
	// StoreOptions apply to the follower's durable store (fsync policy,
	// snapshot cadence, ...). The store is always opened as a replica;
	// its sweeps expire nothing until promotion.
	StoreOptions []anonymizer.DurabilityOption
	// Logf receives progress lines (bootstrap, reconnects, promotion).
	// Nil discards them.
	Logf func(format string, args ...any)
	// Tenant/Token authenticate every connection the follower opens to
	// the leader (bootstrap backup, subscribe, polls) when the
	// leader runs with a tenants file. The tenant needs the operator
	// capability. Empty Token leaves connections unauthenticated.
	Tenant string
	Token  string
	// Codec selects the wire codec for every connection to the leader.
	// The zero value (CodecAuto) negotiates binary framing and falls
	// back to JSON against a leader that predates protocol v2, so
	// mixed-version pairings replicate fine in either direction.
	Codec anonymizer.Codec
}

// Follower replicates a leader's mutation stream into a local durable
// store. It implements anonymizer.Replicator, so plugging it into a
// server (WithStore(f.Store()), WithReplicator(f)) yields a read replica
// that redirects writes to the leader and can be promoted in place.
type Follower struct {
	cfg   Config
	store *anonymizer.DurableStore

	epoch     atomic.Uint64 // the leader epoch we subscribed under
	promoted  atomic.Bool
	leaderEnd atomic.Uint64 // the leader's watermark at the last poll
	lastApply atomic.Int64  // unix nanos of the last applied record

	// applyErr records a terminal apply-loop failure (fencing, stream
	// gap): the loop stops and Err surfaces it.
	applyErr atomic.Pointer[error]

	// bootstrapped marks a data dir this follower created itself (from
	// the leader's backup): only such a dir subscribes with no epoch
	// claim. An existing dir WITHOUT an epoch record belonged to a
	// standalone leader — it must present the default leader claim and be
	// fenced, not sneak in as a fresh follower.
	bootstrapped bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// logf emits one progress line.
func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// Start bootstraps (if needed) and starts a follower: after it returns,
// the local store holds a consistent prefix of the leader's stream and
// the background apply loop is narrowing the gap. Fencing errors are
// returned here when the handshake itself is refused — a data directory
// that led an older epoch must be re-bootstrapped, not resumed.
func Start(cfg Config) (*Follower, error) {
	if cfg.LeaderAddr == "" || cfg.DataDir == "" {
		return nil, fmt.Errorf("repl: leader address and data dir are required")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 100 * time.Millisecond
	}
	f := &Follower{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}

	if err := f.bootstrapIfNeeded(); err != nil {
		return nil, err
	}
	st, err := anonymizer.OpenDurableStore(cfg.DataDir,
		append(append([]anonymizer.DurabilityOption{}, cfg.StoreOptions...),
			anonymizer.WithReplica())...)
	if err != nil {
		return nil, err
	}
	f.store = st

	// Handshake once before going to the background, so a fenced or
	// misconfigured follower fails its start instead of limping.
	client, info, err := f.subscribe()
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	f.leaderEnd.Store(info.Watermark)
	f.logf("repl: following %s at epoch %d, leader watermark %d, local %d",
		cfg.LeaderAddr, info.Epoch, info.Watermark, st.Watermark())

	go f.applyLoop(client)
	return f, nil
}

// bootstrapIfNeeded seeds the data directory from a hot backup of the
// leader when it does not hold a durable store yet — the backup archive
// is the follower-bootstrap format, and restoring it is the same code
// path operators use for disaster recovery.
func (f *Follower) bootstrapIfNeeded() error {
	if _, err := os.Stat(filepath.Join(f.cfg.DataDir, "META.json")); err == nil {
		return nil // an initialized store: resume from its watermark
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("repl: probing data dir: %w", err)
	}
	f.bootstrapped = true
	// RestoreArchive wants to create the directory itself; tolerate an
	// existing-but-empty one (a fresh mount point, a mkdir'd workdir).
	if entries, err := os.ReadDir(f.cfg.DataDir); err == nil {
		if len(entries) > 0 {
			return fmt.Errorf("repl: data dir %s exists with unrelated content; refusing to bootstrap over it", f.cfg.DataDir)
		}
		if err := os.Remove(f.cfg.DataDir); err != nil {
			return fmt.Errorf("repl: clearing empty data dir: %w", err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("repl: probing data dir: %w", err)
	}
	f.logf("repl: bootstrapping %s from a hot backup of %s", f.cfg.DataDir, f.cfg.LeaderAddr)
	c, err := f.dial()
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }()
	var archive bytes.Buffer
	n, err := c.Backup(&archive)
	if err != nil {
		return fmt.Errorf("repl: bootstrap backup: %w", err)
	}
	if err := anonymizer.RestoreArchive(bytes.NewReader(archive.Bytes()), f.cfg.DataDir); err != nil {
		return fmt.Errorf("repl: bootstrap restore: %w", err)
	}
	f.logf("repl: bootstrap restored %d archive bytes", n)
	return nil
}

// dial opens a connection to the leader, authenticating it when the
// follower carries operator credentials.
func (f *Follower) dial() (*anonymizer.Client, error) {
	c, err := anonymizer.Dial(f.cfg.LeaderAddr, anonymizer.WithCodec(f.cfg.Codec))
	if err != nil {
		return nil, err
	}
	if f.cfg.Token != "" {
		if err := c.Auth(f.cfg.Tenant, f.cfg.Token); err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("repl: authenticating to %s: %w", f.cfg.LeaderAddr, err)
		}
	}
	return c, nil
}

// subscribe dials the leader and performs the replication handshake,
// pinning the follower's epoch record to the leader's epoch on success.
func (f *Follower) subscribe() (*anonymizer.Client, *anonymizer.SubscribeInfo, error) {
	c, err := f.dial()
	if err != nil {
		return nil, nil, err
	}
	epoch, wasLeader, exists := f.store.EpochRecord()
	if !exists && f.bootstrapped {
		// A directory this follower just restored from the leader's own
		// backup: no epoch claim. Any OTHER dir without a record was a
		// standalone leader's — keep the default (epoch 1, leader) claim
		// so the handshake fences it into re-bootstrapping.
		epoch, wasLeader = 0, false
	}
	info, err := c.ReplSubscribe(epoch, wasLeader, f.cfg.Advertise, f.store.Watermark())
	if err != nil {
		_ = c.Close()
		return nil, nil, fmt.Errorf("repl: subscribe to %s: %w", f.cfg.LeaderAddr, err)
	}
	if err := f.store.SetEpoch(info.Epoch, false); err != nil {
		_ = c.Close()
		return nil, nil, err
	}
	f.epoch.Store(info.Epoch)
	return c, info, nil
}

// applyLoop polls the leader's stream and applies every shipped delta
// until the follower stops, promotes, or hits a terminal error (fencing,
// stream gap). Transport failures reconnect with backoff — a follower
// outliving a leader restart resumes from its own watermark, and every
// reconnect subscribes again, so it passes the fencing check again.
func (f *Follower) applyLoop(client *anonymizer.Client) {
	defer close(f.done)
	defer func() {
		if client != nil {
			_ = client.Close()
		}
	}()
	backoff := f.cfg.PollInterval
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		if client == nil {
			var (
				info *anonymizer.SubscribeInfo
				err  error
			)
			client, info, err = f.subscribe()
			if err != nil {
				if f.terminal(err) {
					return
				}
				f.logf("repl: reconnect: %v", err)
				if !f.sleep(backoff) {
					return
				}
				if backoff < 5*time.Second {
					backoff *= 2
				}
				continue
			}
			backoff = f.cfg.PollInterval
			// Lag counts against the leader's position until the delta
			// that catches up with it has landed.
			f.leaderEnd.Store(info.Watermark)
			f.logf("repl: resubscribed to %s at epoch %d", f.cfg.LeaderAddr, f.epoch.Load())
		}
		// The since of this poll is the watermark the previous poll made
		// durable: the leader records it as this follower's ack.
		var delta bytes.Buffer
		since := f.store.Watermark()
		if _, err := client.BackupSince(&delta, since, f.cfg.Advertise); err != nil {
			if f.terminal(err) {
				return
			}
			f.logf("repl: poll: %v", err)
			_ = client.Close()
			client = nil
			continue
		}
		stats, err := f.store.ApplyDelta(&delta)
		if err != nil {
			err = fmt.Errorf("repl: apply delta after LSN %d: %w", since, err)
			f.applyErr.Store(&err)
			f.logf("%v", err)
			return
		}
		f.leaderEnd.Store(stats.End)
		if stats.Frames > 0 {
			f.lastApply.Store(time.Now().UnixNano())
			// Make the delta durable before the next poll acks it: an acked
			// position must survive a follower crash, or a promotion could
			// lose it.
			if err := f.store.Sync(); err != nil {
				f.applyErr.Store(&err)
				f.logf("repl: sync: %v", err)
				return
			}
		}
		if !f.sleep(f.cfg.PollInterval) {
			return
		}
	}
}

// terminal records failures that polling cannot heal — fencing, stream
// gaps, a peer that stopped being the leader — and reports whether the
// loop should stop. Every server-side failure arrives wrapped in
// ErrRemote (sentinels do not survive the wire), so the class is told
// apart by the server's message; anything else remote (a transient WAL
// read error, a store briefly closing during the leader's restart) is
// retried with backoff exactly like a dropped connection.
func (f *Follower) terminal(err error) bool {
	if !errors.Is(err, anonymizer.ErrRemote) {
		return false
	}
	msg := err.Error()
	for _, fatal := range []string{"fenced", "compacted away", "re-bootstrap", "not the leader"} {
		if strings.Contains(msg, fatal) {
			err = fmt.Errorf("repl: leader refused the stream: %w", err)
			f.applyErr.Store(&err)
			f.logf("%v", err)
			return true
		}
	}
	f.logf("repl: transient leader error (will retry): %v", err)
	return false
}

// sleep waits d or until the follower stops.
func (f *Follower) sleep(d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-f.stop:
		return false
	}
}

// Store returns the follower's durable store, for installing into a
// server with WithStore.
func (f *Follower) Store() *anonymizer.DurableStore { return f.store }

// Err reports the apply loop's terminal error, if it stopped on one.
func (f *Follower) Err() error {
	if p := f.applyErr.Load(); p != nil {
		return *p
	}
	return nil
}

// IsLeader implements anonymizer.Replicator.
func (f *Follower) IsLeader() bool { return f.promoted.Load() }

// LeaderAddr implements anonymizer.Replicator.
func (f *Follower) LeaderAddr() string {
	if f.promoted.Load() {
		return f.cfg.Advertise
	}
	return f.cfg.LeaderAddr
}

// Lag implements anonymizer.Replicator: the record count between the
// leader's last observed position and the local store, and the last
// apply instant.
func (f *Follower) Lag() (int64, time.Time) {
	behind := int64(f.leaderEnd.Load() - f.store.Watermark())
	if behind < 0 || f.promoted.Load() {
		behind = 0
	}
	var at time.Time
	if ns := f.lastApply.Load(); ns != 0 {
		at = time.Unix(0, ns)
	}
	return behind, at
}

// Promote implements anonymizer.Replicator: it stops the apply loop,
// advances the epoch past the stale leader's, persists the leadership
// claim, and opens the store for writes (the TTL sweeper, running all
// along, journals the expire of every elapsed lease from its next pass
// on). From here on the old leader is fenced: its epoch is behind, so
// this node refuses its rejoin until it re-bootstraps.
func (f *Follower) Promote() (uint64, error) {
	if f.promoted.Load() {
		epoch, _ := f.store.Epoch()
		return epoch, nil
	}
	f.stopLoop()
	stale := f.epoch.Load()
	if cur, _ := f.store.Epoch(); cur > stale {
		stale = cur
	}
	newEpoch := stale + 1
	if err := f.store.SetEpoch(newEpoch, true); err != nil {
		return 0, err
	}
	f.store.SetReplica(false)
	f.promoted.Store(true)
	f.logf("repl: promoted to leader at epoch %d (watermark %d)", newEpoch, f.store.Watermark())
	return newEpoch, nil
}

// stopLoop stops the apply loop and waits for it to drain.
func (f *Follower) stopLoop() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
}

// Close stops the apply loop and closes the follower's store. A promoted
// follower's store is closed too — close the server first.
func (f *Follower) Close() error {
	f.stopLoop()
	return f.store.Close()
}
