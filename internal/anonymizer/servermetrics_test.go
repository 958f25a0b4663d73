package anonymizer

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"

	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// scrape renders /metrics and returns every sample line as series -> value.
func scrape(t *testing.T, srv *Server) map[string]uint64 {
	t.Helper()
	var buf bytes.Buffer
	srv.writeMetrics(&buf)
	out := map[string]uint64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseUint(line[i+1:], 10, 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// TestEngineMetrics scrapes the cloak-engine series after a request mix
// whose outcomes are known from the answers: published levels by
// algorithm and tag mode, one refusal, and the searches behind a reduce.
func TestEngineMetrics(t *testing.T) {
	srv, addr, _ := startServer(t)
	c := dial(t, addr)
	if got := scrape(t, srv)["anonymizer_cloak_search_nodes_total"]; got != 0 {
		t.Fatalf("fresh server reports %d search nodes", got)
	}

	want := map[string]uint64{}
	var lastID string
	for i, algo := range []string{"RGE", "RGE", "RGE", "RPLE", "RPLE"} {
		id, region, err := c.Anonymize(roadnet.SegmentID(20+7*i), testProfile(), algo)
		if err != nil {
			t.Fatal(err)
		}
		for _, lm := range region.Levels {
			mode := "tagless"
			if lm.Tags != nil {
				mode = "tagged"
			}
			want[`anonymizer_cloak_levels_total{algorithm="`+algo+`",mode="`+mode+`"}`]++
		}
		lastID = id
	}
	// One metre of tolerance fits no second segment: refused after the
	// whole retry budget.
	impossible := profile.Profile{Levels: []profile.Level{{K: 50, L: 20, SigmaS: 1}}}
	if _, _, err := c.Anonymize(3, impossible, "RGE"); err == nil {
		t.Fatal("infeasible profile was cloaked")
	}
	want[`anonymizer_cloak_refused_total{algorithm="RGE"}`] = 1
	want[`anonymizer_cloak_refused_total{algorithm="RPLE"}`] = 0

	before := scrape(t, srv)
	if err := c.SetTrust(lastID, "reader", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Reduce(lastID, "reader", 0); err != nil {
		t.Fatal(err)
	}
	got := scrape(t, srv)

	for _, algo := range []string{"RGE", "RPLE"} {
		for _, mode := range []string{"tagless", "tagged"} {
			series := `anonymizer_cloak_levels_total{algorithm="` + algo + `",mode="` + mode + `"}`
			if _, ok := got[series]; !ok {
				t.Errorf("/metrics missing %s", series)
			}
		}
	}
	for series, v := range want {
		if got[series] != v {
			t.Errorf("%s = %d, want %d", series, got[series], v)
		}
	}
	if got["anonymizer_cloak_salt_retries_total"] < 32 {
		t.Errorf("salt retries = %d, want at least the refused request's 32",
			got["anonymizer_cloak_salt_retries_total"])
	}
	searches := func(m map[string]uint64) (n uint64) {
		for _, o := range []string{"ok", "ambiguous", "exhausted", "none"} {
			n += m[`anonymizer_cloak_searches_total{outcome="`+o+`"}`]
		}
		return n
	}
	if searches(got) == 0 || got["anonymizer_cloak_search_nodes_total"] < searches(got) {
		t.Errorf("implausible search counts: %d searches, %d nodes",
			searches(got), got["anonymizer_cloak_search_nodes_total"])
	}
	// Before the reduce every search was a verification, and the outcomes
	// say what became of the level: refuted ones were published tagged,
	// confirmed ones tagless (a level that added nothing is not verified).
	outcome := func(o string) uint64 { return before[`anonymizer_cloak_searches_total{outcome="`+o+`"}`] }
	var tagged, tagless uint64
	for series, v := range want {
		switch {
		case strings.Contains(series, `mode="tagged"`):
			tagged += v
		case strings.Contains(series, `mode="tagless"`):
			tagless += v
		}
	}
	if refuted := outcome("ambiguous") + outcome("exhausted"); refuted != tagged ||
		outcome("ok") > tagless || outcome("none") != 0 {
		t.Errorf("verifications: %d ok, %d ambiguous, %d exhausted, %d none for %d tagless and %d tagged levels",
			outcome("ok"), outcome("ambiguous"), outcome("exhausted"), outcome("none"), tagless, tagged)
	}
	// The reduce peeled two levels; each tagless one is a search that
	// must have found its chain.
	ok := `anonymizer_cloak_searches_total{outcome="ok"}`
	if grew := searches(got) - searches(before); grew > 2 || got[ok]-before[ok] != grew {
		t.Errorf("reduce ran %d searches, %d ok; want at most one per level, all ok",
			grew, got[ok]-before[ok])
	}
}

// TestStoreMetricsByMode pins which store series a server exports:
// registrations by master-key epoch for any store (a keyring needs no
// data directory), the journal's series — WAL, snapshots, stream
// watermark — only when there is a journal.
func TestStoreMetricsByMode(t *testing.T) {
	journalSeries := []string{
		"anonymizer_wal_records_total",
		"anonymizer_wal_fsyncs_total",
		"anonymizer_wal_group_commit_rounds_total",
		"anonymizer_wal_log_bytes",
		"anonymizer_wal_log_segments",
		"anonymizer_wal_fsync_duration_seconds_count",
		"anonymizer_snapshots_total",
		"anonymizer_stream_watermark_sum",
	}
	for _, mode := range storeModes(t) {
		t.Run(mode.name, func(t *testing.T) {
			kr := testMasterKeyring(t, 3)
			st := openDurable(t, mode.dir, WithKeyring(kr))
			g, density := testGrid(t)
			srv := newTestServer(t, g, density, WithStore(st))
			c := dial(t, startTestServer(t, srv))
			for _, user := range []roadnet.SegmentID{20, 27} {
				if _, _, err := c.Anonymize(user, testProfile(), "RGE"); err != nil {
					t.Fatal(err)
				}
			}
			stored, err := st.Register(fakeRegistration(t, 2))
			if err != nil {
				t.Fatal(err)
			}
			got := scrape(t, srv)
			if n := got[`anonymizer_registrations_by_key_epoch{epoch="3"}`]; n != 2 {
				t.Errorf("registrations under epoch 3 = %d, want 2", n)
			}
			if n := got[`anonymizer_registrations_by_key_epoch{epoch="0"}`]; n != 1 {
				t.Errorf("stored-key registrations (epoch 0) = %d, want 1 (%s)", n, stored)
			}
			for _, series := range journalSeries {
				if _, ok := got[series]; ok != (mode.dir != "") {
					t.Errorf("%s exported = %v with data dir %q", series, ok, mode.dir)
				}
			}
			if mode.dir != "" && got["anonymizer_wal_records_total"] != 3 {
				t.Errorf("wal records = %d, want 3", got["anonymizer_wal_records_total"])
			}
		})
	}
}
