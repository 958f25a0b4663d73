package anonymizer

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
	"github.com/reversecloak/reversecloak/internal/trace"
)

// sealedRegistrations anonymizes users through srv's anonymize, with
// both algorithms, and returns the IDs it registered, each granted to
// "reader" down to level 0.
func sealedRegistrations(t *testing.T, srv *Server, p profile.Profile, users []roadnet.SegmentID) []string {
	t.Helper()
	var ids []string
	for i, user := range users {
		algo := []string{"RGE", "RPLE"}[i%2]
		resp := srv.handleAnonymize(&Request{Op: OpAnonymize, UserSegment: user, Profile: &p, Algorithm: algo})
		if !resp.OK {
			if strings.Contains(resp.Error, cloak.ErrCloakFailed.Error()) {
				continue
			}
			t.Fatalf("anonymize %d (%s): %s", user, algo, resp.Error)
		}
		if err := srv.store.SetTrust(resp.RegionID, "reader", 0); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.RegionID)
	}
	return ids
}

// searched is reg's region reduced to level by the engine's search.
func searched(t *testing.T, srv *Server, reg *Registration, level int) *cloak.CloakedRegion {
	t.Helper()
	if level >= reg.Levels() {
		return reg.region.Clone()
	}
	grant, err := reg.grant(level)
	if err != nil {
		t.Fatal(err)
	}
	out, err := srv.engines[reg.region.Algorithm].Deanonymize(reg.region, grant, level)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireSameBytes fails unless got and want encode alike in both wire
// codecs.
func requireSameBytes(t *testing.T, label string, got, want *cloak.CloakedRegion) {
	t.Helper()
	if !sameRegion(got, want) || !bytes.Equal(appendRegion(nil, got), appendRegion(nil, want)) {
		t.Fatalf("%s: opened %+v, search %+v", label, got, want)
	}
}

// TestSealedReduceMatchesSearch: every level of every registration
// anonymize makes, RGE and RPLE, reduces by opening its sealed levels to
// the bytes the engine's search gives, in both codecs, with no search;
// level 0 publishes an empty level list, as Deanonymize does; and the
// sealed bytes are as long as the region's step counts say.
func TestSealedReduceMatchesSearch(t *testing.T) {
	srv, _, _ := startServer(t)
	users := []roadnet.SegmentID{5, 20, 27, 44, 61, 80, 97, 120, 133, 150}
	ids := sealedRegistrations(t, srv, cacheTestProfile(), users)
	if len(ids) < len(users)/2 {
		t.Fatalf("only %d of %d users cloaked", len(ids), len(users))
	}
	for _, id := range ids {
		reg, err := srv.store.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for lv, n := 1, 1; lv <= reg.Levels(); lv++ {
			n += reg.region.Levels[lv-1].Steps
			want += (n+7)/8 + sealTagLen
		}
		if !reg.Sealed() || len(reg.sealed) != want {
			t.Fatalf("%s: %d sealed bytes, want %d", id, len(reg.sealed), want)
		}
		before := srv.engines[reg.region.Algorithm].Stats()
		for lv := 0; lv <= reg.Levels(); lv++ {
			got, path, err := reg.reduce(srv.engines[reg.region.Algorithm], lv)
			if err != nil {
				t.Fatal(err)
			}
			if lv < reg.Levels() && path != peelSealed {
				t.Fatalf("%s level %d: reduced by path %d, not opened", id, lv, path)
			}
			if after := srv.engines[reg.region.Algorithm].Stats(); after != before {
				t.Fatalf("%s level %d: the engine worked: %+v -> %+v", id, lv, before, after)
			}
			requireSameBytes(t, fmt.Sprintf("%s level %d", id, lv), got, searched(t, srv, reg, lv))
			if raw, _ := json.Marshal(got); lv == 0 && !strings.Contains(string(raw), `"levels":[]`) {
				t.Fatalf("%s level 0 encodes as %s", id, raw)
			}
			verified, err := reg.VerifyReduce(srv.engines[reg.region.Algorithm], lv)
			if err != nil {
				t.Fatalf("%s level %d: %v", id, lv, err)
			}
			requireSameBytes(t, fmt.Sprintf("%s level %d verified", id, lv), verified, got)
			before = srv.engines[reg.region.Algorithm].Stats()
		}
	}
}

// TestSealFailuresFallBack tampers with the sealed levels of stored
// registrations — one bit flipped in each level's blob, the blobs of two
// registrations swapped, a blob cut short — and reduces through the
// server: every answer is the search's, the failure counter counts each
// reduce, and VerifyReduce (what dump runs) reports each as an error.
func TestSealFailuresFallBack(t *testing.T) {
	srv, _, _ := startServer(t)
	ids := sealedRegistrations(t, srv, cacheTestProfile(), []roadnet.SegmentID{20, 27, 44, 61, 80, 97, 120, 133})
	// Two registrations of one algorithm with sealed bytes of one length,
	// so a swap fails only by its keys.
	regs := map[string]*Registration{}
	var a, b *Registration
	for _, id := range ids {
		reg, err := srv.store.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		regs[id] = reg
		for _, other := range regs {
			if other != reg && b == nil && other.region.Algorithm == reg.region.Algorithm && len(other.sealed) == len(reg.sealed) {
				a, b = other, reg
			}
		}
	}
	if b == nil {
		t.Fatal("no two registrations with sealed bytes of one length")
	}
	idOf := map[*Registration]string{}
	for id, reg := range regs {
		idOf[reg] = id
	}

	type tamper struct {
		name   string
		reg    *Registration
		sealed []byte
	}
	var cases []tamper
	for lv := 1; lv <= a.Levels(); lv++ {
		_, off, end, _ := sealedSpan(a.region.Levels, lv)
		flipped := bytes.Clone(a.sealed)
		flipped[off+(end-off)/2] ^= 0x10
		cases = append(cases, tamper{fmt.Sprintf("bit flipped in level %d", lv), a, flipped})
	}
	cases = append(cases,
		tamper{"swapped in", a, bytes.Clone(b.sealed)},
		tamper{"swapped out", b, bytes.Clone(a.sealed)},
		tamper{"cut short", a, bytes.Clone(a.sealed[:len(a.sealed)-1])},
	)
	failures := func() uint64 { return scrape(t, srv)["anonymizer_reduce_seal_failures_total"] }
	for _, c := range cases {
		good := c.reg.sealed
		c.reg.sealed = c.sealed
		want := searched(t, srv, c.reg, 0)
		before := failures()
		resp := srv.handleReduce(&Request{Op: OpReduce, RegionID: idOf[c.reg], Requester: "reader"})
		if !resp.OK {
			t.Fatalf("%s: %s", c.name, resp.Error)
		}
		requireSameBytes(t, c.name, resp.Region, want)
		if got := failures() - before; got != 1 {
			t.Fatalf("%s: %d seal failures counted, want 1", c.name, got)
		}
		if _, err := c.reg.VerifyReduce(srv.engines[c.reg.region.Algorithm], 0); !errors.Is(err, errSealMismatch) {
			t.Fatalf("%s: VerifyReduce = %v, want %v", c.name, err, errSealMismatch)
		}
		c.reg.sealed = good
	}
	if n := scrape(t, srv)[`anonymizer_reduce_peels_total{path="sealed"}`]; n != 0 {
		t.Fatalf("%d tampered reduces opened", n)
	}
}

// TestOpenReduceZeroStepLevels: levels that added no segment seal an
// empty bitmap and open to the level below unchanged. Five levels over
// fakeRegistration's five segments add 4, 0, 0, 0, 0.
func TestOpenReduceZeroStepLevels(t *testing.T) {
	reg := fakeSealedRegistration(t, 5)
	grant, err := reg.grant(0)
	if err != nil {
		t.Fatal(err)
	}
	for lv := 0; lv < 5; lv++ {
		got, ok := reg.openReduce(reg.region, grant, lv)
		n, _, _, _ := sealedSpan(reg.region.Levels, lv)
		if !ok || !slices.Equal(got.Segments, reg.region.Segments[:n]) || len(got.Levels) != lv {
			t.Fatalf("level %d: opened %v (ok %v), want members %v and %d levels", lv, got, ok, reg.region.Segments[:n], lv)
		}
	}
}

// TestDecodeRegistrationRefusesSealedLength: a register record's sealed
// bytes survive the log's encoding, and a length the region's step
// counts do not give is a corrupt record.
func TestDecodeRegistrationRefusesSealedLength(t *testing.T) {
	srv, _, _ := startServer(t)
	ids := sealedRegistrations(t, srv, cacheTestProfile(), []roadnet.SegmentID{20, 27})
	reg, err := srv.store.Lookup(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	frame, err := appendRecord(nil, registerRecord(ids[0], reg))
	if err != nil {
		t.Fatal(err)
	}
	var rec *walRecord
	if _, err := readRecords(bytes.NewReader(frame), func(r *walRecord) error { rec = r; return nil }); err != nil {
		t.Fatal(err)
	}
	m, err := mutationFromRecord(rec, nil)
	if err != nil || !bytes.Equal(m.Reg.sealed, reg.sealed) {
		t.Fatalf("sealed bytes did not survive the log: %v", err)
	}
	for _, sealed := range [][]byte{reg.sealed[:len(reg.sealed)-1], append(bytes.Clone(reg.sealed), 0)} {
		rec.Sealed = sealed
		if _, err := mutationFromRecord(rec, nil); !errors.Is(err, ErrCorruptLog) {
			t.Fatalf("%d sealed bytes for %d: %v, want %v", len(sealed), len(reg.sealed), err, ErrCorruptLog)
		}
	}
}

// TestPaperSealedReduceCounts registers the 200 paper requesters (the
// atlanta map, 10 000 cars, the default profile) through a server, RGE
// and RPLE, then reduces every level of each: the engines' search nodes
// and tag PRFs do not move, no reduce takes the search path, and every
// answer is the engine's Deanonymize's, byte for byte in both codecs.
func TestPaperSealedReduceCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("paper scale: builds the atlanta RPLE tables")
	}
	const seed = "reversecloak-default-map-seed-01"
	g, err := mapgen.AtlantaNW([]byte(seed))
	if err != nil {
		t.Fatal(err)
	}
	pre, err := cloak.NewPreassignment(g, cloak.DefaultTransitionListLength)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := trace.New(g, trace.Config{Cars: 10000, Seed: []byte(seed)})
	if err != nil {
		t.Fatal(err)
	}
	engines := map[cloak.Algorithm]*cloak.Engine{}
	for _, algo := range []cloak.Algorithm{cloak.RGE, cloak.RPLE} {
		if engines[algo], err = cloak.NewEngine(g, sim.UsersOn, cloak.Options{Algorithm: algo, Pre: pre}); err != nil {
			t.Fatal(err)
		}
	}
	// Keys derived from a fixed master secret make the regions, and so
	// which requests RPLE refuses, the same on every run.
	srv, err := NewServer(engines, WithStore(openDurable(t, "", WithKeyring(testMasterKeyring(t)))))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	users := densityWeighted(sim.Counts(), 200, 1)
	// Every requester with each algorithm.
	var ids []string
	for _, algo := range []string{"RGE", "RPLE"} {
		p := profile.Default()
		for _, user := range users {
			resp := srv.handleAnonymize(&Request{Op: OpAnonymize, UserSegment: user, Profile: &p, Algorithm: algo})
			if !resp.OK {
				if strings.Contains(resp.Error, cloak.ErrCloakFailed.Error()) {
					continue // RPLE refuses a few requesters
				}
				t.Fatal(resp.Error)
			}
			if err := srv.store.SetTrust(resp.RegionID, "reader", 0); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, resp.RegionID)
		}
	}
	if len(ids) < 390 {
		t.Fatalf("%d of 400 requests cloaked", len(ids))
	}
	stats := func() (nodes, prfs uint64) {
		for _, e := range engines {
			st := e.Stats()
			nodes, prfs = nodes+uint64(st.SearchNodes), prfs+uint64(st.TagPRFs)
		}
		return nodes, prfs
	}
	nodes, prfs := stats()
	type answer struct {
		id     string
		level  int
		region *cloak.CloakedRegion
	}
	var answers []answer
	for _, id := range ids {
		for lv := 2; lv >= 0; lv-- {
			resp := srv.handleReduce(&Request{Op: OpReduce, RegionID: id, Requester: "reader", ToLevel: lv})
			if !resp.OK {
				t.Fatalf("reduce(%s, %d): %s", id, lv, resp.Error)
			}
			answers = append(answers, answer{id, lv, resp.Region})
		}
	}
	if n, p := stats(); n != nodes || p != prfs {
		t.Fatalf("%d reduces moved the engines: search nodes %d -> %d, tag PRFs %d -> %d", len(answers), nodes, n, prfs, p)
	}
	m := scrape(t, srv)
	if got := m[`anonymizer_reduce_peels_total{path="sealed"}`]; got != uint64(len(answers)) || m[`anonymizer_reduce_peels_total{path="search"}`] != 0 {
		t.Fatalf("%d reduces: %d sealed, %d search", len(answers), got, m[`anonymizer_reduce_peels_total{path="search"}`])
	}
	sealedBytes := 0
	for _, a := range answers {
		reg, err := srv.store.Lookup(a.id)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBytes(t, fmt.Sprintf("%s level %d", a.id, a.level), a.region, searched(t, srv, reg, a.level))
		if a.level == 0 {
			sealedBytes += len(reg.sealed)
		}
	}
	t.Logf("%d registrations, %d reduces opened, %.1f sealed bytes per registration",
		len(ids), len(answers), float64(sealedBytes)/float64(len(ids)))
}

// densityWeighted draws n user segments in proportion to their car
// counts: the paper's requesters.
func densityWeighted(counts []int, n int, seed int64) []roadnet.SegmentID {
	cum := make([]int, len(counts))
	total := 0
	for i, c := range counts {
		total += c
		cum[i] = total
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]roadnet.SegmentID, n)
	for i := range out {
		out[i] = roadnet.SegmentID(sort.SearchInts(cum, r.Intn(total)+1))
	}
	return out
}
