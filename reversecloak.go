// Package reversecloak is a reversible multi-level location privacy
// protection system over road networks, reproducing Li, Palanisamy,
// Kalaivanan and Raghunathan, "ReverseCloak: A Reversible Multi-level
// Location Privacy Protection System" (ICDCS 2017) and the underlying
// algorithms of Li and Palanisamy (CIKM 2015).
//
// ReverseCloak perturbs a mobile user's exact road segment into a cloaking
// region that is location k-anonymous and segment l-diverse. Unlike
// conventional one-way cloaking, the region is built by keyed pseudo-random
// expansion: every added segment is chosen by a per-level secret key, so a
// data requester holding the keys of the upper privacy levels can peel them
// off to obtain a finer region — down to the exact segment with all keys —
// while without the keys the region reveals nothing more, even to an
// adversary that knows the algorithm.
//
// # Quick start
//
//	g, _ := reversecloak.SmallMap(seed)
//	sim, _ := reversecloak.NewSimulation(g, reversecloak.WorkloadConfig{Cars: 2000, Seed: seed})
//	engine, _ := reversecloak.NewRGEEngine(g, sim.UsersOn)
//	keys, _ := reversecloak.AutoGenerateKeys(3)
//	region, _, _ := engine.Anonymize(reversecloak.Request{
//		UserSegment: userSeg,
//		Profile:     reversecloak.DefaultProfile(),
//		Keys:        keys.All(),
//	})
//	// A requester holding keys 2 and 3 reduces the region to level 1:
//	grant, _ := keys.Grant(1)
//	finer, _ := engine.Deanonymize(region, grant, 1)
//
// NewServer puts engines, keyed by RGE or RPLE, behind the trusted
// anonymization server, and DialServer connects a data owner or requester
// to it. EnumerateReversals is the keyless adversary's view of a region.
//
// # Examples
//
// The package's Examples are complete walk-throughs with pinned output:
// Example_quickstart (the quick start above, level by level),
// Example_multilevelAccess (three requesters with different trust over a
// live server), Example_adversary (guessed keys against a published
// region), Example_fleetMonitoring (RPLE over a moving fleet) and
// Example_figureOne (the paper's Fig. 1).
//
// This package is the library's whole surface. Operating the service is
// the job of the anonymizer command (cmd/anonymizer) and is not part of it.
package reversecloak

import (
	"github.com/reversecloak/reversecloak/internal/anonymizer"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
	"github.com/reversecloak/reversecloak/internal/trace"
)

type (
	// Graph is an immutable road network of junctions and segments.
	Graph = roadnet.Graph
	// SegmentID identifies a road segment.
	SegmentID = roadnet.SegmentID
	// Simulation is a GTMobiSim-style mobile user simulation.
	Simulation = trace.Simulation
	// WorkloadConfig configures a simulation.
	WorkloadConfig = trace.Config
)

type (
	// Engine anonymizes and de-anonymizes locations.
	Engine = cloak.Engine
	// Request is one anonymization request.
	Request = cloak.Request
	// CloakedRegion is the published multi-level cloak.
	CloakedRegion = cloak.CloakedRegion
	// Algorithm selects RGE or RPLE.
	Algorithm = cloak.Algorithm
	// DensityFunc reports users per segment.
	DensityFunc = cloak.DensityFunc
	// Preassignment holds RPLE's pre-assigned transition lists.
	Preassignment = cloak.Preassignment
)

type (
	// Profile is a user-defined multi-level privacy profile.
	Profile = profile.Profile
	// Level is one level's (k, l, sigma_s) requirement.
	Level = profile.Level
	// KeySet holds per-level anonymization keys.
	KeySet = keys.Set
)

type (
	// Server is the trusted anonymization server.
	Server = anonymizer.Server
	// Client talks to a Server; it is safe for concurrent use and
	// pipelines concurrent calls over one connection.
	Client = anonymizer.Client
)

// Algorithms.
const (
	// RGE is Reversible Global Expansion.
	RGE = cloak.RGE
	// RPLE is Reversible Pre-assignment-based Local Expansion.
	RPLE = cloak.RPLE
)

// Sentinel errors for errors.Is checks at the API boundary.
var (
	// ErrCloakFailed reports an unsatisfiable privacy level.
	ErrCloakFailed = cloak.ErrCloakFailed
	// ErrMissingKey reports de-anonymization without a required key.
	ErrMissingKey = cloak.ErrMissingKey
	// ErrIrreversible reports a failed reversal (wrong key or tampering).
	ErrIrreversible = cloak.ErrIrreversible
	// ErrRemote reports a server-side error surfaced by a Client call.
	ErrRemote = anonymizer.ErrRemote
)

// SmallMap generates a ~400-junction test network with Atlanta-like
// density.
func SmallMap(seed []byte) (*Graph, error) { return mapgen.Small(seed) }

// GridMap generates an exact cols x rows grid network.
func GridMap(cols, rows int, spacing float64) (*Graph, error) {
	return mapgen.Grid(cols, rows, spacing)
}

// NewSimulation builds a GTMobiSim-style workload over the graph.
func NewSimulation(g *Graph, cfg WorkloadConfig) (*Simulation, error) {
	return trace.New(g, cfg)
}

// NewRGEEngine builds an engine using Reversible Global Expansion.
func NewRGEEngine(g *Graph, density DensityFunc) (*Engine, error) {
	return cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RGE})
}

// NewRPLEEngine builds an engine using Reversible Pre-assignment-based
// Local Expansion, computing the transition tables for the graph.
// listLength is T, the per-segment transition list length; pass 0 for the
// default.
func NewRPLEEngine(g *Graph, density DensityFunc, listLength int) (*Engine, error) {
	if listLength == 0 {
		listLength = cloak.DefaultTransitionListLength
	}
	pre, err := cloak.NewPreassignment(g, listLength)
	if err != nil {
		return nil, err
	}
	return cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RPLE, Pre: pre})
}

// AutoGenerateKeys creates fresh independent keys for the given number of
// privacy levels (the toolkit's "Auto key generation").
func AutoGenerateKeys(levels int) (*KeySet, error) { return keys.AutoGenerate(levels) }

// DefaultProfile returns the toolkit's "Default setting" profile: three
// levels with doubling anonymity.
func DefaultProfile() Profile { return profile.Default() }

// EnumerateReversals returns up to limit complete removal chains of one
// published level that are consistent with key — the keyless adversary's
// view. With the true key exactly one chain, the real one, survives; with
// a guessed key the count measures the remaining ambiguity. steps, salt and
// sigma are the level's published metadata; pre is nil for RGE. Each chain
// lists removals last-added first.
func EnumerateReversals(g *Graph, algo Algorithm, pre *Preassignment, region []SegmentID,
	steps int, key []byte, level int, salt uint32, sigma float64, limit int,
) ([][]SegmentID, error) {
	return cloak.EnumerateReversals(g, algo, pre, region, steps, key, level, salt, sigma, limit)
}

// NewServer builds a trusted anonymization server from per-algorithm
// engines, holding its registrations in memory. The server runs a
// background expiry sweep from the start, so Close it when done, even if
// it never served.
func NewServer(engines map[Algorithm]*Engine) (*Server, error) {
	return anonymizer.NewServer(engines)
}

// DialServer connects to a trusted anonymization server.
func DialServer(addr string) (*Client, error) { return anonymizer.Dial(addr) }
