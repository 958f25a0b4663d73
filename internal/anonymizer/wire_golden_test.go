package anonymizer

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/reversecloak/reversecloak/internal/anonymizer/tenant"
)

// The golden transcripts under testdata/protocol pin the v1 wire encoding
// byte by byte (modulo JSON key order): each *.ndjson file alternates a
// raw request line, sent verbatim over TCP, with the expected response as
// golden JSON. The comparison is exact on the KEY SET as well as the
// values — a field that appears on the wire but not in the golden file
// (or vice versa) fails the test — so any protocol drift, intended or
// not, shows up as a loud diff against a reviewed file.
//
// Golden values support three forms beyond literals:
//
//	"<any>"           matches any value (e.g. a freshly cloaked region)
//	"<capture:NAME>"  matches any string and binds it to NAME
//	"...${NAME}..."   substitutes a captured value (requests and golden)
//
// Lines that are empty or start with '#' are comments.

// expandVars substitutes ${NAME} occurrences in s.
func expandVars(s string, vars map[string]string) string {
	for name, val := range vars {
		s = strings.ReplaceAll(s, "${"+name+"}", val)
	}
	return s
}

// matchGolden compares a parsed golden value against the actual one,
// recording captures. path names the position for error messages.
func matchGolden(path string, want, got any, vars map[string]string) error {
	switch w := want.(type) {
	case string:
		if w == "<any>" {
			return nil
		}
		if name, ok := strings.CutPrefix(w, "<capture:"); ok {
			name = strings.TrimSuffix(name, ">")
			g, ok := got.(string)
			if !ok {
				return fmt.Errorf("%s: capture %q needs a string, got %T", path, name, got)
			}
			vars[name] = g
			return nil
		}
		w = expandVars(w, vars)
		if g, ok := got.(string); !ok || g != w {
			return fmt.Errorf("%s: got %#v, want %q", path, got, w)
		}
		return nil
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return fmt.Errorf("%s: got %T, want object", path, got)
		}
		var wantKeys, gotKeys []string
		for k := range w {
			wantKeys = append(wantKeys, k)
		}
		for k := range g {
			gotKeys = append(gotKeys, k)
		}
		sort.Strings(wantKeys)
		sort.Strings(gotKeys)
		if !reflect.DeepEqual(wantKeys, gotKeys) {
			return fmt.Errorf("%s: key set drifted: got %v, want %v", path, gotKeys, wantKeys)
		}
		for _, k := range wantKeys {
			if err := matchGolden(path+"."+k, w[k], g[k], vars); err != nil {
				return err
			}
		}
		return nil
	case []any:
		g, ok := got.([]any)
		if !ok {
			return fmt.Errorf("%s: got %T, want array", path, got)
		}
		if len(g) != len(w) {
			return fmt.Errorf("%s: got %d items, want %d", path, len(g), len(w))
		}
		for i := range w {
			if err := matchGolden(fmt.Sprintf("%s[%d]", path, i), w[i], g[i], vars); err != nil {
				return err
			}
		}
		return nil
	default:
		if !reflect.DeepEqual(want, got) {
			return fmt.Errorf("%s: got %#v, want %#v", path, got, want)
		}
		return nil
	}
}

// replayTranscript runs one golden file against a live connection.
func replayTranscript(t *testing.T, addr, file string) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	in := bufio.NewScanner(conn)
	in.Buffer(make([]byte, 0, 1<<20), 16<<20)

	vars := make(map[string]string)
	var lines []string
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines = append(lines, line)
	}
	if len(lines)%2 != 0 {
		t.Fatalf("%s: %d non-comment lines; transcripts alternate request and response", file, len(lines))
	}
	for i := 0; i < len(lines); i += 2 {
		req := expandVars(lines[i], vars)
		if _, err := fmt.Fprintln(conn, req); err != nil {
			t.Fatalf("line %d: send: %v", i+1, err)
		}
		if !in.Scan() {
			t.Fatalf("line %d: no response to %s (scan err %v)", i+1, req, in.Err())
		}
		var want, got any
		if err := json.Unmarshal([]byte(lines[i+1]), &want); err != nil {
			t.Fatalf("line %d: golden response is not JSON: %v", i+2, err)
		}
		if err := json.Unmarshal(in.Bytes(), &got); err != nil {
			t.Fatalf("line %d: wire response is not JSON: %v (%s)", i+2, err, in.Bytes())
		}
		if err := matchGolden("resp", want, got, vars); err != nil {
			t.Errorf("%s line %d: request %s\n  wire %s\n  %v",
				filepath.Base(file), i+2, req, in.Bytes(), err)
		}
	}
}

// TestWireGoldenTranscripts replays every testdata/protocol transcript
// against a live server, one fresh connection per file. Files named
// repl_*.ndjson run against a DURABLE server (no traffic),
// since the replication ops require a store with a mutation stream;
// files named auth_*.ndjson run against a TENANT-ENABLED server loaded
// from testdata/protocol/tenants.json (the auth op is a bad operation
// everywhere else); all others run against the default in-memory
// server.
func TestWireGoldenTranscripts(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "protocol", "*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no golden transcripts under testdata/protocol")
	}
	_, addr, _ := startServer(t)
	g, density := testGrid(t)
	durableSrv := newTestServer(t, g, density,
		WithStore(openDurable(t, t.TempDir())))
	durableAddr := startTestServer(t, durableSrv)
	raw, err := os.ReadFile(filepath.Join("testdata", "protocol", "tenants.json"))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.FromJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	tenantSrv := newTestServer(t, g, density, WithTenants(reg))
	tenantAddr := startTestServer(t, tenantSrv)
	for _, file := range files {
		file := file
		target := addr
		switch {
		case strings.HasPrefix(filepath.Base(file), "repl_"):
			target = durableAddr
		case strings.HasPrefix(filepath.Base(file), "auth_"):
			target = tenantAddr
		}
		t.Run(filepath.Base(file), func(t *testing.T) {
			replayTranscript(t, target, file)
		})
	}
}
