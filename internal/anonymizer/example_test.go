package anonymizer

import (
	"fmt"
	"os"

	"github.com/reversecloak/reversecloak/internal/accessctl"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// ExampleClient_AnonymizeBatch registers three users' cloaking requests
// in a single round-trip. Per-item failures land in the item's Err; a
// non-nil returned error means the whole batch failed.
func ExampleClient_AnonymizeBatch() {
	g, err := mapgen.Grid(10, 10, 100)
	if err != nil {
		fmt.Println(err)
		return
	}
	density := func(roadnet.SegmentID) int { return 2 }
	engine, err := cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RGE})
	if err != nil {
		fmt.Println(err)
		return
	}
	srv, err := NewServer(map[cloak.Algorithm]*cloak.Engine{cloak.RGE: engine})
	if err != nil {
		fmt.Println(err)
		return
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() { _ = srv.Close() }()

	c, err := Dial(addr.String())
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() { _ = c.Close() }()

	prof := profile.Profile{Levels: []profile.Level{{K: 6, L: 3}}}
	specs := []AnonymizeSpec{
		{User: 12, Profile: prof},
		{User: 57, Profile: prof},
		{User: 130, Profile: prof},
	}
	results, err := c.AnonymizeBatch(specs)
	if err != nil {
		fmt.Println("batch failed:", err)
		return
	}
	for i, r := range results {
		fmt.Printf("user %d: registered=%v covered=%v\n",
			specs[i].User, r.Err == nil, r.Err == nil && r.Region.Contains(specs[i].User))
	}
	// Output:
	// user 12: registered=true covered=true
	// user 57: registered=true covered=true
	// user 130: registered=true covered=true
}

// Example_durableStore walks the durable store's lifecycle: register a
// cloaked location, grant trust, "crash" (close), reopen the directory
// and find the exact same state back.
func Example_durableStore() {
	dir, err := os.MkdirTemp("", "reversecloak-durable-example-*")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() { _ = os.RemoveAll(dir) }()

	g, err := mapgen.Grid(10, 10, 100)
	if err != nil {
		fmt.Println(err)
		return
	}
	engine, err := cloak.NewEngine(g,
		func(roadnet.SegmentID) int { return 2 },
		cloak.Options{Algorithm: cloak.RGE})
	if err != nil {
		fmt.Println(err)
		return
	}

	// First process: every mutation is on disk before it is acknowledged.
	st, err := OpenDurableStore(dir, WithFsyncPolicy(FsyncAlways))
	if err != nil {
		fmt.Println(err)
		return
	}
	ks, err := keys.AutoGenerate(2)
	if err != nil {
		fmt.Println(err)
		return
	}
	region, _, err := engine.Anonymize(cloak.Request{
		UserSegment: 42,
		Profile: profile.Profile{Levels: []profile.Level{
			{K: 6, L: 3}, {K: 14, L: 6},
		}},
		Keys: ks.All(),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	policy, err := accessctl.NewPolicy(2, 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	id, err := st.Register(NewRegistration(region, ks, policy))
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := st.SetTrust(id, "doctor", 0); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("registered %s (%d keyed levels)\n", id, region.PrivacyLevel())
	_ = st.Close()

	// Second process: reopen the directory and recover everything.
	st2, err := OpenDurableStore(dir)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() { _ = st2.Close() }()
	fmt.Printf("recovered %d registration(s)\n", st2.Recovery().Registrations)
	reg, err := st2.Lookup(id)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("region covers user after restart: %v\n", reg.Region().Contains(42))
	// Output:
	// registered r1 (2 keyed levels)
	// recovered 1 registration(s)
	// region covers user after restart: true
}

// ExampleWithStore shows where a server's store comes from. The caller
// opens it — the directory (none here: the journal-less mode), TTLs, fsync
// policy and master keyring are all the store's configuration — hands it
// to the server, and closes it after the server. NewServer without
// WithStore opens and owns a journal-less store with default options.
func ExampleWithStore() {
	g, err := mapgen.Grid(10, 10, 100)
	if err != nil {
		fmt.Println(err)
		return
	}
	engine, err := cloak.NewEngine(g,
		func(roadnet.SegmentID) int { return 2 },
		cloak.Options{Algorithm: cloak.RGE})
	if err != nil {
		fmt.Println(err)
		return
	}
	kr, err := keys.NewKeyring(1, map[uint32][]byte{1: []byte("example-master-secret-0001")})
	if err != nil {
		fmt.Println(err)
		return
	}
	st, err := OpenDurableStore("", WithKeyring(kr), WithTTL(DefaultRegistrationTTL))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() { _ = st.Close() }() // runs after srv.Close below
	srv, err := NewServer(map[cloak.Algorithm]*cloak.Engine{cloak.RGE: engine}, WithStore(st))
	if err != nil {
		fmt.Println(err)
		return
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() { _ = srv.Close() }()
	c, err := Dial(addr.String())
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() { _ = c.Close() }()

	id, _, err := c.Anonymize(42, profile.Profile{Levels: []profile.Level{{K: 6, L: 3}}}, "RGE")
	if err != nil {
		fmt.Println(err)
		return
	}
	reg, err := st.Lookup(id)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s: keys derived under master epoch %d, expires: %v\n",
		id, reg.KeyEpoch(), !reg.Expiry().IsZero())
	_, err = c.Backup(os.Stdout)
	fmt.Println(err)
	// Output:
	// r1: keys derived under master epoch 1, expires: true
	// anonymizer: remote error: anonymizer: bad operation: backup requires a durable store
}
