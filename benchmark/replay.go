package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/reversecloak/reversecloak/internal/accessctl"
	"github.com/reversecloak/reversecloak/internal/anonymizer"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/regcache"
)

// replayer executes logged requests in-process, calling the layers in the
// order the server's handlers call them — over the same map, simulation
// seed, key file and region-ID sequence, so it does the server's work and
// must arrive at the server's answers.
type replayer struct {
	w       *workload
	kr      *keys.Keyring
	store   *anonymizer.DurableStore
	cache   *regcache.Cache // nil when the workload's server runs without one
	engines map[cloak.Algorithm]*cloak.Engine
	tr      *tracer // nil: replay without recording spans
	dir     string
}

// openStore opens a durable store the way serve does for the workload.
func openStore(w *workload, kr *keys.Keyring, dir, fsync string, extra ...anonymizer.DurabilityOption) (*anonymizer.DurableStore, error) {
	policy, err := anonymizer.ParseFsyncPolicy(fsync)
	if err != nil {
		return nil, err
	}
	opts := []anonymizer.DurabilityOption{
		anonymizer.WithFsyncPolicy(policy),
		anonymizer.WithKeyring(kr),
		anonymizer.WithTTL(w.ttl),
	}
	if w.gcInterval > 0 {
		opts = append(opts, anonymizer.WithGCInterval(w.gcInterval))
	}
	if w.snapEvery > 0 {
		opts = append(opts, anonymizer.WithSnapshotEvery(w.snapEvery))
	}
	return anonymizer.OpenDurableStore(dir, append(opts, extra...)...)
}

func newReplayer(cfg *runConfig, w *workload, engines map[cloak.Algorithm]*cloak.Engine) (*replayer, error) {
	kr, err := keys.LoadKeyring(filepath.Join(cfg.benchDir, "master-key.json"))
	if err != nil {
		return nil, err
	}
	dir, err := cfg.freshDataDir(w.name + "-replay")
	if err != nil {
		return nil, err
	}
	store, err := openStore(w, kr, dir, w.fsync)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	r := &replayer{w: w, kr: kr, store: store, engines: engines, dir: dir}
	if w.cacheBytes != 0 {
		r.cache = regcache.New(regcache.Config{MaxBytes: w.cacheBytes})
	}
	return r, nil
}

func (r *replayer) close() {
	_ = r.store.Close()
	_ = os.RemoveAll(r.dir)
}

// replayStats is what replaying one log measured.
type replayStats struct {
	wall   time.Duration
	byKind [numOpKinds]time.Duration
	count  [numOpKinds]int
}

// run replays a log in order. Every answer must equal the server's.
func (r *replayer) run(log []opRecord) (*replayStats, error) {
	st := &replayStats{}
	start := time.Now()
	for i := range log {
		rec := &log[i]
		t0 := time.Now()
		if err := r.replay(rec); err != nil {
			return nil, fmt.Errorf("replaying request %d (%s): %w", i, rec.req.kind, err)
		}
		st.byKind[rec.req.kind] += time.Since(t0)
		st.count[rec.req.kind]++
	}
	st.wall = time.Since(start)
	return st, nil
}

func (r *replayer) replay(rec *opRecord) error {
	req := &rec.req
	switch req.kind {
	case opAnonymize:
		return r.anonymize(rec)
	case opReduce:
		return r.reduce(rec)
	case opSetTrust:
		defer r.tr.begin("server.set_trust")()
		defer r.tr.span("store.SetTrust")()
		return r.store.SetTrust(req.target.id, requester, 0)
	case opTouch:
		defer r.tr.begin("server.touch")()
		defer r.tr.span("store.Touch")()
		_, err := r.store.Touch(req.target.id, 0)
		return err
	case opDeregister:
		defer r.tr.begin("server.deregister")()
		end := r.tr.span("store.Deregister")
		err := r.store.Deregister(req.target.id)
		end()
		if r.cache != nil {
			// In the server the store's apply path fires this.
			end = r.tr.span("regcache.Invalidate")
			r.cache.Invalidate(req.target.id)
			end()
		}
		return err
	case opGetRegion:
		defer r.tr.begin("server.get_region")()
		defer r.tr.span("store.Lookup")()
		reg, err := r.store.Lookup(req.target.id)
		if err != nil {
			return err
		}
		return sameAsServer(reg.Region(), rec)
	case opRequestKeys:
		defer r.tr.begin("server.request_keys")()
		end := r.tr.span("store.Lookup")
		reg, err := r.store.Lookup(req.target.id)
		end()
		if err != nil {
			return err
		}
		_, err = r.keySet(req.target.id, reg.Levels())
		return err
	}
	return fmt.Errorf("unknown op kind %d", req.kind)
}

// anonymize mirrors Server.handleAnonymize in derived-key mode.
func (r *replayer) anonymize(rec *opRecord) error {
	defer r.tr.begin("server.anonymize")()
	engine := r.engines[cloak.RGE] // see algorithm
	levels := len(r.w.profile.Levels)

	end := r.tr.span("store.AllocateID")
	id := r.store.AllocateID()
	end()
	epoch := r.kr.ActiveEpoch()
	end = r.tr.span("keys.DeriveSet")
	ks, err := r.kr.DeriveSet(epoch, id, levels)
	end()
	if err != nil {
		return err
	}
	end = r.tr.span("cloak.Anonymize")
	region, _, err := engine.Anonymize(cloak.Request{
		UserSegment: rec.req.user, Profile: r.w.profile, Keys: ks.All(),
	})
	end()
	if err != nil {
		return err
	}
	policy, err := accessctl.NewPolicy(levels, levels)
	if err != nil {
		return err
	}
	reg := anonymizer.NewDerivedRegistration(region, r.kr, epoch, id, levels, policy)
	end = r.tr.span("store.Register")
	_, err = r.store.Register(reg)
	end()
	if err != nil {
		return err
	}
	if id != rec.res.id {
		return fmt.Errorf("replay registered %s where the server registered %s", id, rec.res.id)
	}
	return sameAsServer(region, rec)
}

// keySet mirrors Server.regKeySet: the derived key set, through the cache
// when there is one.
func (r *replayer) keySet(id string, levels int) (*keys.Set, error) {
	epoch, gen := r.kr.ActiveEpoch(), r.kr.Generation()
	if r.cache != nil {
		end := r.tr.span("regcache.GetKeys")
		ks, ok := r.cache.GetKeys(id, epoch, levels, gen)
		end()
		if ok {
			return ks, nil
		}
	}
	end := r.tr.span("keys.DeriveSet")
	ks, err := r.kr.DeriveSet(epoch, id, levels)
	end()
	if err != nil {
		return nil, err
	}
	if r.cache != nil {
		end = r.tr.span("regcache.PutKeys")
		r.cache.PutKeys(id, epoch, levels, gen, ks)
		end()
	}
	return ks, nil
}

// reduce mirrors Server.handleReduce. The reader is entitled to level 0,
// so the level reached is the level asked for.
func (r *replayer) reduce(rec *opRecord) error {
	defer r.tr.begin("server.reduce")()
	id, target := rec.req.target.id, rec.req.level

	end := r.tr.span("store.Lookup")
	reg, err := r.store.Lookup(id)
	end()
	if err != nil {
		return err
	}
	published := reg.Region()
	engine, ok := r.engines[published.Algorithm]
	if !ok {
		return fmt.Errorf("no %v engine built for the replay", published.Algorithm)
	}
	peel := func(base *cloak.CloakedRegion) (*cloak.CloakedRegion, error) {
		ks, err := r.keySet(id, reg.Levels())
		if err != nil {
			return nil, err
		}
		end := r.tr.span("keys.Grant")
		grant, err := ks.Grant(target)
		end()
		if err != nil {
			return nil, err
		}
		defer r.tr.span("cloak.Deanonymize")()
		return engine.Deanonymize(base, grant, target)
	}

	if r.cache == nil {
		reduced, err := peel(published)
		if err != nil {
			return err
		}
		return sameAsServer(reduced, rec)
	}
	end = r.tr.span("regcache.GetRegion")
	cached, ok := r.cache.GetRegion(id, target)
	end()
	if ok {
		return sameAsServer(cached, rec)
	}
	end = r.tr.span("regcache.DoRegion")
	reduced, err := r.cache.DoRegion(id, target, func() (*cloak.CloakedRegion, error) {
		base := published
		end := r.tr.span("regcache.NearestRegion")
		near, lv, ok := r.cache.NearestRegion(id, target+1)
		end()
		if ok && lv < base.PrivacyLevel() {
			base = near
		}
		return peel(base)
	})
	end()
	if err != nil {
		return err
	}
	end = r.tr.span("store.Lookup")
	_, err = r.store.Lookup(id)
	end()
	if err != nil {
		return err
	}
	return sameAsServer(reduced, rec)
}

// sameAsServer holds a replayed region against the server's answer to the
// same request, segment for segment.
func sameAsServer(got *cloak.CloakedRegion, rec *opRecord) error {
	if rec.res.region == nil {
		return fmt.Errorf("the server's answer carried no region")
	}
	if !sameSegments(got, rec.res.region) || got.PrivacyLevel() != rec.res.region.PrivacyLevel() {
		return fmt.Errorf("%w: replay produced %d segments at level %d, the server answered %d at level %d",
			errWrong, len(got.Segments), got.PrivacyLevel(),
			len(rec.res.region.Segments), rec.res.region.PrivacyLevel())
	}
	return nil
}
