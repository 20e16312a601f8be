// Package fleet describes the membership of a net-backend worker fleet
// as plain serializable data, and turns that description into a live
// membership feed the dispatcher can follow while a sweep is running.
//
// Three membership sources cover the operational spectrum:
//
//   - An inline node list (Spec.Nodes) — the static fleet the net
//     backend has always taken via -nodes, now one field of a spec that
//     travels in job documents.
//   - A nodes file (Spec.NodesFile) — one address per line, reloaded on
//     SIGHUP, so an operator can grow or shrink a long-running fleet by
//     editing a file and signaling the dispatcher.
//   - A registration coordinator (Spec.Register) — the dispatcher
//     listens, and `xrperf serve -register coordinator:port` nodes dial
//     home, registering themselves for as long as their connection
//     lives. A node that disconnects is deregistered automatically.
//
// All three present the same Source interface: a generation-stamped
// snapshot plus a broadcast channel that closes when membership moves
// past a generation. NetRunner polls the snapshot at dispatch time and
// watches the channel mid-run, so joiners are admitted while a sweep is
// in flight and leavers drain cleanly. Which node measures what never
// affects output — measurements are pure functions of (request, seed) —
// so an elastic fleet produces the same bytes as a frozen one.
package fleet

import (
	"fmt"
	"net"
)

// Spec is the serializable fleet description carried by job documents
// (job.Spec.Fleet) and assembled from the CLI's fleet flags. Exactly one
// membership source — Nodes, NodesFile, or Register — describes where
// the workers come from.
type Spec struct {
	// Nodes lists serve-node addresses (host:port) inline: the static
	// fleet.
	Nodes []string `json:"nodes,omitempty"`
	// NodesFile names a file of serve-node addresses (one per line, #
	// comments), reloaded on SIGHUP.
	NodesFile string `json:"nodes_file,omitempty"`
	// Register is a listen address (host:port) for the registration
	// coordinator: `xrperf serve -register` nodes dial it to join the
	// fleet and leave it by disconnecting.
	Register string `json:"register,omitempty"`
}

// Empty reports whether the spec configures nothing at all.
func (s Spec) Empty() bool {
	return len(s.Nodes) == 0 && s.NodesFile == "" && s.Register == ""
}

// SourceCount counts the configured membership sources; a usable spec
// has exactly one.
func (s Spec) SourceCount() int {
	n := 0
	if len(s.Nodes) > 0 {
		n++
	}
	if s.NodesFile != "" {
		n++
	}
	if s.Register != "" {
		n++
	}
	return n
}

// Validate checks that the spec describes exactly one membership source.
func (s Spec) Validate() error {
	switch n := s.SourceCount(); {
	case n == 0:
		return fmt.Errorf("fleet: no membership source: set nodes, nodes_file, or register")
	case n > 1:
		return fmt.Errorf("fleet: membership sources are mutually exclusive: set one of nodes, nodes_file, or register")
	}
	return nil
}

// Open turns the spec into a live membership source. For NodesFile the
// file is loaded now and a SIGHUP handler re-reads it until cleanup; for
// Register the coordinator starts listening now and cleanup shuts it
// down. logf (optional) receives operational events — the nodes file's
// first membership, registrations, reloads — never data-path output.
func (s Spec) Open(logf func(format string, args ...any)) (src Source, cleanup func(), err error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	switch {
	case len(s.Nodes) > 0:
		return Static(s.Nodes...), func() {}, nil
	case s.NodesFile != "":
		fs, err := NewFileSource(s.NodesFile)
		if err != nil {
			return nil, nil, err
		}
		stop := WatchSIGHUP(fs, logf)
		if logf != nil {
			// Logged once the handler is installed: from this line on, a
			// SIGHUP reloads the file rather than ending the process.
			addrs, _ := fs.Snapshot()
			logf("nodes file %s: %d member(s), reloaded on SIGHUP", s.NodesFile, len(addrs))
		}
		return fs, stop, nil
	default:
		ln, err := net.Listen("tcp", s.Register)
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: coordinator listen: %w", err)
		}
		reg := NewRegistry(ln, logf)
		return reg, func() { _ = reg.Close() }, nil
	}
}
