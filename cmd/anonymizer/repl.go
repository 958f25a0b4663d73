package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/reversecloak/reversecloak/internal/anonymizer"
)

// This file holds the replication operator subcommands: promote (fail
// over to a follower) and status (replication role, watermark and lag).
// docs/OPERATIONS.md's failover runbook strings them together.

// runPromote promotes a follower to leader. With -addr it promotes a
// RUNNING follower over the wire (the usual failover path: the follower
// keeps serving, now accepting writes). With -data-dir it promotes a
// STOPPED follower's data directory offline — the recovery path when the
// follower process is down too.
//
// Promote only after the old leader is confirmed dead: the epoch bump
// fences a stale leader out when it tries to rejoin, it does not stop a
// live one from acknowledging writes that will then be lost.
func runPromote(argv []string) error {
	fs := flag.NewFlagSet("promote", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "", "promote the running follower at this address")
		dataDir = fs.String("data-dir", "", "promote this (stopped) follower data directory offline")
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
		return fmt.Errorf("exactly one of -addr or -data-dir is required")
	}
	if *addr != "" {
		c, err := dialAuthed(*addr, *tenant, *token)
		if err != nil {
			return err
		}
		defer func() { _ = c.Close() }()
		epoch, err := c.Promote()
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "promote: %s is now the leader at epoch %d\n", *addr, epoch)
		return nil
	}
	st, err := anonymizer.OpenDurableStore(*dataDir)
	if err != nil {
		return err
	}
	defer func() { _ = st.Close() }()
	epoch, leader, exists := st.EpochRecord()
	if leader && exists {
		fmt.Fprintf(os.Stderr, "promote: %s already claims leadership of epoch %d\n", *dataDir, epoch)
		return nil
	}
	if err := st.SetEpoch(epoch+1, true); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "promote: %s promoted to leader at epoch %d (watermark %d)\n",
		*dataDir, epoch+1, st.Watermark())
	return nil
}

// runStatus prints a node's replication status: role, epoch, stream
// watermark (the last LSN), and lag (follower backlog, or per-follower
// lag on a leader).
func runStatus(argv []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7080", "server address")
	tenant := fs.String("tenant", "", "authenticate to the server as this tenant (operator capability)")
	token := fs.String("token", "", "tenant token for -tenant")
	codec := fs.String("codec", "auto", "wire codec: auto, json or binary")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if err := setWireCodec(*codec); err != nil {
		return err
	}
	c, err := dialAuthed(*addr, *tenant, *token)
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }()
	status, err := c.ReplStatus()
	if err != nil {
		return err
	}
	fmt.Printf("role:      %s\n", status.Role)
	fmt.Printf("epoch:     %d\n", status.Epoch)
	fmt.Printf("watermark: %d\n", status.Watermark)
	if status.Role == "follower" {
		fmt.Printf("leader:    %s\n", status.LeaderAddr)
		if status.LagFrames != nil {
			fmt.Printf("lag:       %d frames\n", *status.LagFrames)
		}
	}
	for _, f := range status.Followers {
		fmt.Printf("follower:  %s behind=%d last_ack_ms=%d\n", f.Addr, f.Behind, f.LastAckMillis)
	}
	return nil
}
