package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"

	rc "github.com/reversecloak/reversecloak"
	"github.com/reversecloak/reversecloak/internal/anonymizer"
	"github.com/reversecloak/reversecloak/internal/keys"
)

// This file holds the data-dir lifecycle subcommands: backup (hot from a
// live server, or offline from a stopped one's directory), restore,
// reshard and dump. docs/OPERATIONS.md is the runbook that strings them
// together into backup/restore/reshard/disaster-recovery procedures.

// runBackup writes a backup archive of a durable registration store to a
// file, stdout, or an HTTP(S) sink. With -addr it takes a hot backup from
// a live server over the wire protocol's backup op; with -data-dir it
// archives a stopped server's directory offline. With -since WATERMARK
// (the watermark printed by an earlier backup) the archive is
// incremental: only the mutation-stream records after that position,
// applied onto a restored directory with `restore -apply`.
func runBackup(argv []string) error {
	fs := flag.NewFlagSet("backup", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "", "take a hot backup from the server at this address")
		dataDir = fs.String("data-dir", "", "archive this (stopped) data directory offline")
		out     = fs.String("out", "-", `destination: a file path, "-" for stdout, or an http(s):// URL to POST to`)
		since   = fs.String("since", "", `ship only stream records after this watermark (e.g. "12,0,7"), as an incremental archive`)
		tenant  = fs.String("tenant", "", "authenticate to the server as this tenant (operator capability)")
		token   = fs.String("token", "", "tenant token for -tenant")
		codec   = fs.String("codec", "auto", "wire codec for -addr: auto, json or binary")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if err := setWireCodec(*codec); err != nil {
		return err
	}
	if (*addr == "") == (*dataDir == "") {
		return fmt.Errorf("exactly one of -addr (hot) or -data-dir (offline) is required")
	}
	var sinceWM anonymizer.Watermark
	if *since != "" {
		var err error
		if sinceWM, err = anonymizer.ParseWatermark(*since); err != nil {
			return err
		}
	}

	var buf bytes.Buffer
	var n int64
	var err error
	switch {
	case *addr != "" && sinceWM != nil:
		var c *rc.Client
		if c, err = dialAuthed(*addr, *tenant, *token); err != nil {
			return err
		}
		defer func() { _ = c.Close() }()
		n, err = c.BackupSince(&buf, sinceWM)
	case *addr != "":
		var c *rc.Client
		if c, err = dialAuthed(*addr, *tenant, *token); err != nil {
			return err
		}
		defer func() { _ = c.Close() }()
		n, err = c.Backup(&buf)
	case sinceWM != nil:
		n, _, err = anonymizer.IncrementalBackupDir(&buf, *dataDir, sinceWM)
	default:
		n, err = anonymizer.BackupDir(&buf, *dataDir)
	}
	if err != nil {
		return err
	}
	// The archive's watermark is the -since for the NEXT incremental
	// backup; surface it so operators can chain cheap frequent deltas.
	wm, err := anonymizer.ArchiveWatermark(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	if err := shipArchive(*out, &buf); err != nil {
		return err
	}
	kind := "backup"
	if sinceWM != nil {
		kind = "incremental backup"
	}
	fmt.Fprintf(os.Stderr, "%s: %d bytes -> %s (watermark %s)\n", kind, n, *out, wm)
	return nil
}

// shipArchive delivers archive bytes to a file, stdout, or an HTTP sink.
func shipArchive(out string, archive *bytes.Buffer) error {
	if strings.HasPrefix(out, "http://") || strings.HasPrefix(out, "https://") {
		resp, err := http.Post(out, "application/octet-stream", archive)
		if err != nil {
			return fmt.Errorf("posting backup: %w", err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode < 200 || resp.StatusCode >= 300 {
			return fmt.Errorf("backup sink %s answered %s", out, resp.Status)
		}
		return nil
	}
	if out == "-" {
		_, err := io.Copy(os.Stdout, archive)
		return err
	}
	f, err := os.OpenFile(out, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("creating %s: %w", out, err)
	}
	_, err = io.Copy(f, archive)
	// Devices like /dev/null reject fsync with EINVAL/ENOTSUP; a backup to
	// a real file must still surface sync failures.
	if serr := f.Sync(); err == nil && serr != nil &&
		!errors.Is(serr, syscall.EINVAL) && !errors.Is(serr, syscall.ENOTSUP) {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", out, err)
	}
	return nil
}

// masterKeyOpts loads an optional master key file into durability
// options: directories holding derived-key registrations cannot open
// without the keyring. An empty path yields no options.
func masterKeyOpts(path string) ([]anonymizer.DurabilityOption, error) {
	if path == "" {
		return nil, nil
	}
	kr, err := keys.LoadKeyring(path)
	if err != nil {
		return nil, err
	}
	return []anonymizer.DurabilityOption{anonymizer.WithKeyring(kr)}, nil
}

// runRestore seeds a fresh data directory from a backup archive — or,
// with -apply, extends an existing directory with an incremental
// archive (every delta record lands through the same journal+apply
// pipeline a replication follower uses). The archive is verified
// completely; a truncated or corrupted full archive changes nothing on
// disk.
func runRestore(argv []string) error {
	fs := flag.NewFlagSet("restore", flag.ExitOnError)
	var (
		in      = fs.String("in", "-", `archive source: a file path or "-" for stdin`)
		dataDir = fs.String("data-dir", "", "data directory to create (or, with -apply, to extend)")
		apply   = fs.Bool("apply", false, "apply an incremental archive onto an existing data directory")
		keyFile = fs.String("master-key-file", "", "master key file for archives holding derived-key registrations")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *dataDir == "" {
		return fmt.Errorf("-data-dir is required")
	}
	durOpts, err := masterKeyOpts(*keyFile)
	if err != nil {
		return err
	}
	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		r = f
	}
	if *apply {
		stats, err := anonymizer.ApplyIncremental(r, *dataDir, durOpts...)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "restore -apply: %d of %d delta records applied, %s now at watermark %s\n",
			stats.Applied, stats.Frames, *dataDir, stats.End)
		return nil
	}
	if err := anonymizer.RestoreArchive(r, *dataDir); err != nil {
		return err
	}
	// Open once to report what the directory will recover to.
	st, err := anonymizer.OpenDurableStore(*dataDir, durOpts...)
	if err != nil {
		return fmt.Errorf("restored directory does not open: %w", err)
	}
	defer func() { _ = st.Close() }()
	rec := st.Recovery()
	fmt.Fprintf(os.Stderr, "restore: %s holds %d registrations (%d trust updates, %d deregistrations, %d expired replayed)\n",
		*dataDir, st.Len(), rec.TrustUpdates, rec.Deregistrations, rec.Expired)
	return nil
}

// runReshard migrates a data directory to a new shard count, offline.
func runReshard(argv []string) error {
	fs := flag.NewFlagSet("reshard", flag.ExitOnError)
	var (
		src     = fs.String("src", "", "source data directory (server must be stopped)")
		dst     = fs.String("dst", "", "destination data directory (must not exist or be empty)")
		shards  = fs.Int("shards", 0, "target shard count (rounded up to a power of two)")
		keyFile = fs.String("master-key-file", "", "master key file for directories holding derived-key registrations")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *src == "" || *dst == "" || *shards < 1 {
		return fmt.Errorf("-src, -dst and -shards are required")
	}
	durOpts, err := masterKeyOpts(*keyFile)
	if err != nil {
		return err
	}
	stats, err := anonymizer.Reshard(*src, *dst, *shards, durOpts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "reshard: %s (%d shards) -> %s (%d shards): %d records, %d live registrations, %d trust updates, %d deregistrations, %d expired dropped\n",
		*src, stats.SourceShards, *dst, stats.TargetShards,
		stats.Records, stats.Registrations, stats.TrustUpdates, stats.Deregistrations, stats.Expired)
	if stats.TruncatedBytes > 0 {
		fmt.Fprintf(os.Stderr, "reshard: skipped %d torn source WAL tail bytes\n", stats.TruncatedBytes)
	}
	return nil
}

// dumpEntry is one registration's externally visible state, with the
// region and every reduction digested so two dumps diff cleanly.
type dumpEntry struct {
	ID        string         `json:"id"`
	Levels    int            `json:"levels"`
	Default   int            `json:"default"`
	Grants    map[string]int `json:"grants,omitempty"`
	Expires   string         `json:"expires_at,omitempty"`
	Region    string         `json:"region_sha256"`
	Reduced   []string       `json:"reductions_sha256"`
	ReduceErr string         `json:"reduce_error,omitempty"`
}

// runDump prints one deterministic JSON line per live registration of a
// (stopped or restored) data directory, sorted by ID: the region digest,
// the digest of every reduction level computed with the registration's
// own keys, the trust table and the expiry. Two directories hold the same
// visible state exactly when their dumps are byte-identical — the
// verification step of the backup/restore/reshard runbook. The map flags
// must match the ones the server ran with, or reductions cannot be
// recomputed.
func runDump(argv []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	var (
		dataDir = fs.String("data-dir", "", "data directory to dump")
		preset  = fs.String("map", "small", "map preset the server ran with")
		seedStr = fs.String("seed", "reversecloak-default-map-seed-01", "map+workload seed the server ran with")
		cars    = fs.Int("cars", 2000, "workload size the server ran with")
		rpleT   = fs.Int("rple-list", 16, "RPLE transition list length T the server ran with")
		keyFile = fs.String("master-key-file", "", "master key file for directories holding derived-key registrations")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *dataDir == "" {
		return fmt.Errorf("-data-dir is required")
	}
	_, engines, err := buildEngines(*preset, *seedStr, *cars, *rpleT)
	if err != nil {
		return err
	}

	durOpts, err := masterKeyOpts(*keyFile)
	if err != nil {
		return err
	}
	st, err := anonymizer.OpenDurableStore(*dataDir, durOpts...)
	if err != nil {
		return err
	}
	defer func() { _ = st.Close() }()

	var entries []dumpEntry
	var rangeErr error
	st.Range(func(id string, reg *anonymizer.Registration) bool {
		e := dumpEntry{
			ID:      id,
			Levels:  reg.Levels(),
			Default: reg.DefaultLevel(),
			Grants:  reg.Grants(),
			Region:  digestJSON(reg.Region()),
		}
		if !reg.Expiry().IsZero() {
			e.Expires = reg.Expiry().UTC().Format(time.RFC3339Nano)
		}
		engine, ok := engines[reg.Region().Algorithm]
		if !ok {
			rangeErr = fmt.Errorf("region %s uses an unknown algorithm", id)
			return false
		}
		for lv := 0; lv <= reg.Levels(); lv++ {
			reduced, err := reg.Reduce(engine, lv)
			if err != nil {
				e.ReduceErr = fmt.Sprintf("level %d: %v", lv, err)
				break
			}
			e.Reduced = append(e.Reduced, digestJSON(reduced))
		}
		entries = append(entries, e)
		return true
	})
	if rangeErr != nil {
		return rangeErr
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	enc := json.NewEncoder(os.Stdout)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "dump: %d registrations\n", len(entries))
	return nil
}

// digestJSON returns the SHA-256 of v's canonical JSON encoding.
func digestJSON(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		return "marshal-error:" + err.Error()
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
