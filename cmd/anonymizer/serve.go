package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	rc "github.com/reversecloak/reversecloak"
)

// runServe starts the trusted anonymization server over a preset map and
// blocks until SIGINT/SIGTERM. With -data-dir the registration store is
// durable: every registration, trust update and deregistration is
// journaled to the store's write-ahead log and recovered on restart. With
// -replicate-from the server runs as a replication follower of another
// anonymizer: it bootstraps from a hot backup if its data dir is fresh,
// tails the leader's mutation stream, serves reads locally, redirects
// writes to the leader, and can be promoted with `anonymizer promote`.
func runServe(argv []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:7080", "listen address")
		preset  = fs.String("map", "small", "map preset: small, atlanta, grid, figure1")
		seedStr = fs.String("seed", "reversecloak-default-map-seed-01", "map+workload seed")
		cars    = fs.Int("cars", 2000, "workload size (live user densities)")
		rpleT   = fs.Int("rple-list", 16, "RPLE transition list length T")
		shards  = fs.Int("shards", 0, "registration store shards (0 = default)")
		workers = fs.Int("workers", 0, "per-connection worker pool size (0 = default)")

		reduceCacheBytes = fs.Int64("reduce-cache-bytes", 0,
			"read-path cache budget in bytes: memoized reductions + derived key sets (0 disables, -1 = unbounded)")

		replicateFrom = fs.String("replicate-from", "",
			"run as a replication follower of the leader at this address (requires -data-dir)")
		advertise = fs.String("advertise", "",
			"address clients and the leader should reach this node at (default: -addr)")

		tenantsFile = fs.String("tenants", "",
			"tenants file (JSON): enables authentication, capabilities and per-tenant rate limits")
		tenantsReload = fs.Duration("tenants-reload", 2*time.Second,
			"poll the tenants file for edits on this period (0 disables hot reload)")
		adminAddr = fs.String("admin-addr", "",
			"admin HTTP listener (/metrics, /healthz, /readyz, /debug/pprof); empty disables it")
		readyMaxLag = fs.Int64("ready-max-lag", rc.DefaultReadyMaxLag,
			"/readyz reports unready while a follower trails the leader by more than this many stream records")

		replTenant = fs.String("repl-tenant", "",
			"tenant name this follower authenticates to the leader as (with -repl-token)")
		replToken = fs.String("repl-token", "",
			"tenant token for -repl-tenant; needed when the leader runs with -tenants")
		replCodec = fs.String("codec", "auto",
			"wire codec for the replication connections to the leader: auto, json or binary")

		ttl = fs.Duration("ttl", rc.DefaultRegistrationTTL,
			"registration lifetime before the expiry sweeper reclaims it (0 = live until deregistered)")
		gcInterval = fs.Duration("gc-interval", rc.DefaultGCInterval,
			"expiry sweep period (0 disables the sweeper)")

		masterKeyFile = fs.String("master-key-file", "",
			"master key file (JSON): derive per-registration cloak keys from its active epoch instead of storing them")
		masterKeyReload = fs.Duration("master-key-reload", 2*time.Second,
			"poll the master key file for epoch rotations on this period (0 disables hot reload)")

		dataDir = fs.String("data-dir", "",
			"durable store directory; empty serves from memory only")
		fsyncStr = fs.String("fsync", "interval",
			"WAL fsync policy: always, interval or never")
		fsyncEvery = fs.Duration("fsync-every", 100*time.Millisecond,
			"background sync period for -fsync interval")
		snapEvery = fs.Int("snapshot-every", 4096,
			"compact a shard's WAL into a snapshot after this many records (0 = off)")
		snapInterval = fs.Duration("snapshot-interval", 0,
			"additionally compact dirty shards on this period (0 = off)")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	// The journal flags are refused without -data-dir rather than silently
	// buying no durability; their defaults stay accepted, so a bare `serve`
	// still starts.
	if *dataDir == "" {
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "fsync", "fsync-every", "snapshot-every", "snapshot-interval":
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return fmt.Errorf("%s set without -data-dir: nothing would be journaled",
				strings.Join(stray, ", "))
		}
	}

	g, err := loadMap(*preset, []byte(*seedStr))
	if err != nil {
		return err
	}
	sim, err := rc.NewSimulation(g, rc.WorkloadConfig{Cars: *cars, Seed: []byte(*seedStr)})
	if err != nil {
		return fmt.Errorf("generating workload: %w", err)
	}
	rge, err := rc.NewRGEEngine(g, sim.UsersOn)
	if err != nil {
		return fmt.Errorf("building RGE engine: %w", err)
	}
	rple, err := rc.NewRPLEEngine(g, sim.UsersOn, *rpleT)
	if err != nil {
		return fmt.Errorf("building RPLE engine: %w", err)
	}

	var opts []rc.ServerOption
	if *workers > 0 {
		opts = append(opts, rc.WithConnWorkers(*workers))
	}
	if *reduceCacheBytes != 0 {
		opts = append(opts, rc.WithReduceCacheBytes(*reduceCacheBytes))
		if *reduceCacheBytes > 0 {
			fmt.Printf("reduce cache: %d byte budget\n", *reduceCacheBytes)
		} else {
			fmt.Printf("reduce cache: unbounded\n")
		}
	}
	if *tenantsFile != "" {
		reg, err := rc.LoadTenants(*tenantsFile)
		if err != nil {
			return err
		}
		defer func() { _ = reg.Close() }()
		if *tenantsReload > 0 {
			reg.Watch(*tenantsReload, func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			})
		}
		fmt.Printf("tenants: %d loaded from %s (reload every %s)\n",
			reg.Len(), *tenantsFile, *tenantsReload)
		opts = append(opts, rc.WithTenants(reg))
	}
	// One store, one option list; without -data-dir the journal options
	// in it are inert.
	policy, err := rc.ParseFsyncPolicy(*fsyncStr)
	if err != nil {
		return err
	}
	storeOpts := []rc.DurabilityOption{
		rc.WithFsyncPolicy(policy),
		rc.WithFsyncEvery(*fsyncEvery),
		rc.WithSnapshotEvery(*snapEvery),
		rc.WithSnapshotInterval(*snapInterval),
		rc.WithDurableShards(*shards),
		rc.WithTTL(*ttl),
		rc.WithGCInterval(*gcInterval),
	}
	if *masterKeyFile != "" {
		keyring, err := rc.LoadMasterKeys(*masterKeyFile)
		if err != nil {
			return err
		}
		defer func() { _ = keyring.Close() }()
		if *masterKeyReload > 0 {
			keyring.Watch(*masterKeyReload, func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			})
		}
		fmt.Printf("master keys: %s (active epoch %d, %d epochs, reload every %s)\n",
			*masterKeyFile, keyring.ActiveEpoch(), len(keyring.Epochs()), *masterKeyReload)
		storeOpts = append(storeOpts, rc.WithKeyring(keyring))
	}
	if *advertise == "" {
		*advertise = *addr
	}
	var st *rc.DurableStore
	if *replicateFrom != "" {
		if *dataDir == "" {
			return fmt.Errorf("-replicate-from requires -data-dir")
		}
		upstreamCodec, err := rc.ParseCodec(*replCodec)
		if err != nil {
			return err
		}
		f, err := rc.StartFollower(rc.FollowerConfig{
			LeaderAddr:   *replicateFrom,
			DataDir:      *dataDir,
			Advertise:    *advertise,
			Tenant:       *replTenant,
			Token:        *replToken,
			Codec:        upstreamCodec,
			StoreOptions: storeOpts,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		st = f.Store()
		opts = append(opts, rc.WithReplicator(f))
	} else {
		// Opened here, not by the server, so what recovery found is
		// reported before any traffic is served.
		if st, err = rc.OpenDurableStore(*dataDir, storeOpts...); err != nil {
			return err
		}
		defer func() { _ = st.Close() }()
		if epoch, leader, exists := st.EpochRecord(); exists && !leader {
			// A follower data dir started without -replicate-from would
			// silently accept writes on a stale epoch — exactly the fork
			// the epoch record exists to prevent.
			return fmt.Errorf("data dir %s is a replication follower at epoch %d; "+
				"start it with -replicate-from, or promote it first (anonymizer promote)",
				*dataDir, epoch)
		}
		if *dataDir != "" {
			rec := st.Recovery()
			fmt.Printf("durable store %s (fsync=%s): recovered %d registrations, "+
				"%d trust updates, %d deregistrations, %d renewals, %d expired",
				*dataDir, policy, rec.Registrations, rec.TrustUpdates,
				rec.Deregistrations, rec.Renewals, rec.Expired)
			if rec.TruncatedBytes > 0 {
				fmt.Printf(" (dropped %d torn tail bytes)", rec.TruncatedBytes)
			}
			fmt.Println()
		}
	}
	opts = append(opts, rc.WithStore(st))
	if *ttl > 0 {
		fmt.Printf("registration ttl %s (sweep every %s)\n", *ttl, *gcInterval)
	}

	srv, err := rc.NewServer(map[rc.Algorithm]*rc.Engine{
		rc.RGE:  rge,
		rc.RPLE: rple,
	}, opts...)
	if err != nil {
		return err
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	if *adminAddr != "" {
		ln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return fmt.Errorf("admin listener: %w", err)
		}
		admin := &http.Server{
			Handler: srv.AdminHandler(rc.AdminConfig{ReadyMaxLag: *readyMaxLag}),
		}
		go func() { _ = admin.Serve(ln) }()
		defer func() { _ = admin.Close() }()
		fmt.Printf("admin http on %s (/metrics /healthz /readyz /debug/pprof)\n", ln.Addr())
	}
	role := ""
	if *replicateFrom != "" {
		role = fmt.Sprintf(" [follower of %s]", *replicateFrom)
	}
	fmt.Printf("anonymizer server on %s%s (map %s: %d junctions, %d segments, %d cars)\n",
		bound, role, *preset, g.NumJunctions(), g.NumSegments(), *cars)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return srv.Close()
}
