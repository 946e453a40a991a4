package main

import (
	"path"
	"strings"
)

// Profile-to-layer attribution. A layer is one of the repository's
// modules:
//
//	sim, phy, mac, aodv, node, pkt, core  their internal/ packages
//	tcp                                   internal/tcp and internal/udp
//	store                                 internal/store
//	serve                                 manetsim.(*Server): the root package's server.go
//	campaign                              the root package except serve
//	runtime                               the Go runtime and GC
//
// Helper packages count toward the layer that consults them: geo,
// linkmodel and mobility toward phy, fault and stats toward core.
// A sample's self time goes to the layer of its innermost manetsim frame.
// A sample with no manetsim frame goes to runtime when every frame is the
// runtime's own (GC workers, the scheduler), and to other otherwise (the
// net/http plumbing, the benchmark's own code).

const (
	layerRuntime = "runtime"
	layerOther   = "other"
)

// layers lists every layer self time can land in, in report order.
var layers = []string{"sim", "phy", "mac", "aodv", "node", "pkt", "core", "tcp", "campaign", "serve", "store", layerRuntime, layerOther}

var internalLayer = map[string]string{
	"sim": "sim", "phy": "phy", "mac": "mac", "aodv": "aodv", "node": "node",
	"pkt": "pkt", "core": "core", "tcp": "tcp", "udp": "tcp", "store": "store",
	"geo": "phy", "linkmodel": "phy", "mobility": "phy",
	"fault": "core", "stats": "core",
}

// serveFile is the root-package source file that holds the serve layer.
const serveFile = "server.go"

// layerOf maps a profile frame to its manetsim layer, or "" for a
// function outside manetsim (or in a package no layer claims).
func layerOf(f Frame) string {
	if rest, ok := strings.CutPrefix(f.Func, "manetsim/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		return internalLayer[pkg]
	}
	if !strings.HasPrefix(f.Func, "manetsim.") {
		return ""
	}
	if path.Base(f.File) == serveFile {
		return "serve"
	}
	return "campaign"
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/")
}

// isGC reports whether a frame is garbage-collector work: marking,
// sweeping, scavenging, assists and write barriers.
func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
		"runtime.greyobject", "runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge", "runtime._GC",
		"runtime.(*gcWork)", "runtime.(*mspan).sweep", "runtime.(*sweepLocked)", "runtime.(*gcControllerState)",
		"runtime.wbBufFlush"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// Attribution is the split of a profile's CPU time.
type Attribution struct {
	Total int64
	// Self is CPU time by layer (see layers), summing to Total.
	Self map[string]int64
	// Inclusive is CPU time of samples with the entry point anywhere on
	// the stack, counted once per sample even under recursion.
	Inclusive map[string]int64
	// GC is CPU time of samples with a garbage-collector frame.
	GC int64
}

// Attribute splits stacks by layer, and inclusively under each entry
// point named in entries.
func Attribute(stacks []Stack, entries []string) Attribution {
	a := Attribution{Self: map[string]int64{}, Inclusive: map[string]int64{}}
	for _, s := range stacks {
		a.Total += s.Nanos
		a.Self[selfLayer(s.Frames)] += s.Nanos
		gc := false
		for _, f := range s.Frames {
			gc = gc || isGC(f.Func)
		}
		if gc {
			a.GC += s.Nanos
		}
		for _, e := range entries {
			for _, f := range s.Frames {
				if f.Func == e {
					a.Inclusive[e] += s.Nanos
					break
				}
			}
		}
	}
	return a
}

func selfLayer(frames []Frame) string {
	allRuntime := len(frames) > 0
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			return l
		}
		allRuntime = allRuntime && isRuntime(f.Func)
	}
	if allRuntime {
		return layerRuntime
	}
	return layerOther
}
