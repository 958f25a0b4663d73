package anonymizer

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/reversecloak/reversecloak/internal/anonymizer/tenant"
)

// The binary golden transcripts under testdata/protocol/binary pin the
// v2 wire encoding byte by byte, mirroring every v1 *.ndjson scenario.
// Each *.binhex file is GENERATED from its ndjson source (run
// `go test -run TestWireBinaryGoldenTranscripts -update-binhex`) and
// replayed raw over TCP: the connection upgrades with the JSON
// negotiation preamble, then every line is one binary frame. Line
// types:
//
//	# ...    comment (carried over from the source transcript)
//	>HEX     request frame, sent verbatim
//	J{...}   request JSON carrying ${NAME} captures: expanded, then
//	         encoded to a frame at replay time
//	<HEX     expected response frame; the received payload must match
//	         byte for byte
//	~{...}   response matcher for dynamic responses: the received frame
//	         is decoded, projected to JSON and compared with matchGolden
//	         (<any>, <capture:NAME> and ${NAME} work as in ndjson goldens)
//
// A fully literal exchange becomes >/< hex pairs, so any drift in the
// binary encoding itself — tag order, varint spelling, CRC — fails
// loudly against a reviewed file, exactly like the v1 transcripts pin
// the JSON encoding.

var updateBinhex = flag.Bool("update-binhex", false,
	"regenerate testdata/protocol/binary/*.binhex from the ndjson sources")

// binhexDynamic reports whether a golden JSON line needs runtime
// matching (captures, wildcards or substitutions) rather than an exact
// frame comparison.
func binhexDynamic(line string) bool {
	return strings.Contains(line, "<any>") ||
		strings.Contains(line, "<capture:") ||
		strings.Contains(line, "${")
}

// binhexStampV2 rewrites a transcript line's top-level "v" for the
// upgraded connection: absent or 1 becomes 2 (the negotiated major);
// anything else — the version-rejection probes — is preserved.
func binhexStampV2(m map[string]any) {
	if v, ok := m["v"]; !ok || v == float64(1) {
		m["v"] = 2
	}
}

// encodeBinhexRequest turns one request JSON line into a binary frame.
func encodeBinhexRequest(line string) ([]byte, error) {
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		return nil, fmt.Errorf("request %s: %w", line, err)
	}
	binhexStampV2(m)
	canon, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	var req Request
	if err := json.Unmarshal(canon, &req); err != nil {
		return nil, fmt.Errorf("request %s: %w", line, err)
	}
	return appendWireFrame(nil, func(b []byte) []byte {
		return appendRequest(b, &req)
	})
}

// generateBinhex transforms one ndjson transcript into its binhex
// mirror.
func generateBinhex(srcFile string) ([]byte, error) {
	raw, err := os.ReadFile(srcFile)
	if err != nil {
		return nil, err
	}
	var out strings.Builder
	fmt.Fprintf(&out, "# GENERATED from ../%s by `go test -run TestWireBinaryGoldenTranscripts -update-binhex`.\n",
		filepath.Base(srcFile))
	out.WriteString("# Do not edit by hand: edit the ndjson source and regenerate.\n")
	requests := 0
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "#"):
			out.WriteString(line + "\n")
		case requests%2 == 0: // request line
			requests++
			if strings.Contains(line, "${") {
				var m map[string]any
				if err := json.Unmarshal([]byte(line), &m); err != nil {
					return nil, fmt.Errorf("request %s: %w", line, err)
				}
				binhexStampV2(m)
				stamped, err := json.Marshal(m)
				if err != nil {
					return nil, err
				}
				out.WriteString("J" + string(stamped) + "\n")
				continue
			}
			frame, err := encodeBinhexRequest(line)
			if err != nil {
				return nil, err
			}
			out.WriteString(">" + hex.EncodeToString(frame) + "\n")
		default: // response line
			requests++
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				return nil, fmt.Errorf("response %s: %w", line, err)
			}
			binhexStampV2(m)
			stamped, err := json.Marshal(m)
			if err != nil {
				return nil, err
			}
			if binhexDynamic(line) {
				out.WriteString("~" + string(stamped) + "\n")
				continue
			}
			var resp Response
			if err := json.Unmarshal(stamped, &resp); err != nil {
				return nil, fmt.Errorf("response %s: %w", line, err)
			}
			frame, err := appendWireFrame(nil, func(b []byte) []byte {
				return appendResponse(b, &resp)
			})
			if err != nil {
				return nil, err
			}
			out.WriteString("<" + hex.EncodeToString(frame) + "\n")
		}
	}
	if requests%2 != 0 {
		return nil, fmt.Errorf("%s: odd number of transcript lines", srcFile)
	}
	return []byte(out.String()), nil
}

// replayBinhex runs one binhex transcript against a live server: raw
// upgrade preamble, then binary frames both ways.
func replayBinhex(t *testing.T, addr, file string) {
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
	br := bufio.NewReader(conn)

	// The negotiation preamble, sent as raw bytes: the transcripts pin
	// the upgraded connection, the upgrade itself is pinned here.
	if _, err := conn.Write([]byte(`{"v":2,"op":"ping"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	ack, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading upgrade ack: %v", err)
	}
	var ackResp Response
	if err := json.Unmarshal(ack, &ackResp); err != nil {
		t.Fatalf("upgrade ack is not JSON: %v (%s)", err, ack)
	}
	if !ackResp.OK || ackResp.V != ProtocolBinaryMajor {
		t.Fatalf("upgrade refused: %s", ack)
	}

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
	vars := make(map[string]string)
	for i := 0; i < len(lines); i += 2 {
		reqLine, respLine := lines[i], lines[i+1]
		switch reqLine[0] {
		case '>':
			frame, err := hex.DecodeString(reqLine[1:])
			if err != nil {
				t.Fatalf("line %d: bad hex: %v", i+1, err)
			}
			if _, err := conn.Write(frame); err != nil {
				t.Fatalf("line %d: send: %v", i+1, err)
			}
		case 'J':
			frame, err := encodeBinhexRequest(expandVars(reqLine[1:], vars))
			if err != nil {
				t.Fatalf("line %d: %v", i+1, err)
			}
			if _, err := conn.Write(frame); err != nil {
				t.Fatalf("line %d: send: %v", i+1, err)
			}
		default:
			t.Fatalf("line %d: request lines start with '>' or 'J': %s", i+1, reqLine)
		}
		payload, err := readWireFrame(br, nil)
		if err != nil {
			t.Fatalf("line %d: no response frame to %s: %v", i+2, reqLine, err)
		}
		switch respLine[0] {
		case '<':
			wantFrame, err := hex.DecodeString(respLine[1:])
			if err != nil {
				t.Fatalf("line %d: bad hex: %v", i+2, err)
			}
			wantPayload, err := readWireFrame(bytes.NewReader(wantFrame), nil)
			if err != nil {
				t.Fatalf("line %d: golden frame invalid: %v", i+2, err)
			}
			if !bytes.Equal(payload, wantPayload) {
				var got, want Response
				_ = decodeResponse(payload, &got)
				_ = decodeResponse(wantPayload, &want)
				t.Errorf("%s line %d: frame payload drifted:\n  got  %x (%+v)\n  want %x (%+v)",
					filepath.Base(file), i+2, payload, got, wantPayload, want)
			}
		case '~':
			var resp Response
			if err := decodeResponse(payload, &resp); err != nil {
				t.Fatalf("line %d: decoding response frame: %v", i+2, err)
			}
			// Project the decoded binary response to JSON so the ndjson
			// matcher (and its key-set check) applies unchanged: the two
			// codecs must expose the same fields.
			projected, err := json.Marshal(&resp)
			if err != nil {
				t.Fatal(err)
			}
			var want, got any
			if err := json.Unmarshal([]byte(respLine[1:]), &want); err != nil {
				t.Fatalf("line %d: golden matcher is not JSON: %v", i+2, err)
			}
			if err := json.Unmarshal(projected, &got); err != nil {
				t.Fatal(err)
			}
			if err := matchGolden("resp", want, got, vars); err != nil {
				t.Errorf("%s line %d: request %s\n  wire %s\n  %v",
					filepath.Base(file), i+2, reqLine, projected, err)
			}
		default:
			t.Fatalf("line %d: response lines start with '<' or '~': %s", i+2, respLine)
		}
	}
}

// TestWireBinaryGoldenTranscripts replays every binhex transcript
// against a live server over a negotiated binary connection, with the
// same per-file server routing as TestWireGoldenTranscripts (repl_* on
// a durable server, auth_* on a tenant-enabled one). With
// -update-binhex it first regenerates the transcripts from their
// ndjson sources, then replays the fresh files.
func TestWireBinaryGoldenTranscripts(t *testing.T) {
	srcFiles, err := filepath.Glob(filepath.Join("testdata", "protocol", "*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	binDir := filepath.Join("testdata", "protocol", "binary")
	if *updateBinhex {
		if err := os.MkdirAll(binDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, src := range srcFiles {
			data, err := generateBinhex(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			dst := filepath.Join(binDir,
				strings.TrimSuffix(filepath.Base(src), ".ndjson")+".binhex")
			if err := os.WriteFile(dst, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	files, err := filepath.Glob(filepath.Join(binDir, "*.binhex"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no binary transcripts under testdata/protocol/binary; run with -update-binhex")
	}
	if len(files) != len(srcFiles) {
		t.Fatalf("%d binhex transcripts for %d ndjson sources; run with -update-binhex",
			len(files), len(srcFiles))
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
			replayBinhex(t, target, file)
		})
	}
}
