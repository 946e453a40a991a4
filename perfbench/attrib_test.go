package main

import "testing"

// at is a frame of fn in the source file file; in is a frame whose file
// does not matter to attribution.
func at(fn, file string) Frame { return Frame{Func: fn, File: file} }
func in(fn string) Frame       { return Frame{Func: fn, File: "/src/x.go"} }

// stack lists frames by function name, root-package ones in campaign.go.
func stack(fns ...string) []Frame {
	out := make([]Frame, len(fns))
	for i, fn := range fns {
		out[i] = at(fn, "/src/manetsim/campaign.go")
	}
	return out
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		f    Frame
		want string
	}{
		{in("manetsim/internal/sim.(*Scheduler).siftDown"), "sim"},
		{in("manetsim/internal/phy.(*Radio).Transmit"), "phy"},
		{in("manetsim/internal/phy.signalStartFn"), "phy"},
		{in("manetsim/internal/mac.(*DCF).onTimer"), "mac"},
		{in("manetsim/internal/aodv.(*Router).Send"), "aodv"},
		{in("manetsim/internal/node.(*Node).Receive"), "node"},
		{in("manetsim/internal/pkt.(*Pool).Get"), "pkt"},
		{in("manetsim/internal/core.(*scenarioState).build"), "core"},
		{in("manetsim/internal/tcp.(*Engine).onAck"), "tcp"},
		{in("manetsim/internal/udp.(*Sender).send"), "tcp"},
		{in("manetsim/internal/store.(*Store).Put"), "store"},
		{in("manetsim/internal/geo.Point.Distance"), "phy"},
		{in("manetsim/internal/stats.BatchMeans"), "core"},
		{in("manetsim/internal/core.resetSlice[go.shape.int]"), "core"},
		// The root package splits by file: server.go is serve, whatever
		// the function, and every other file is campaign.
		{at("manetsim.(*Campaign).storeGet", "/src/manetsim/campaign.go"), "campaign"},
		{at("manetsim.(*Campaign).runParallel.func1", "/src/manetsim/campaign.go"), "campaign"},
		{at("manetsim.Run", "manetsim/manetsim.go"), "campaign"},
		{at("manetsim.(*Server).ServeHTTP", "/src/manetsim/server.go"), "serve"},
		{at("manetsim.(*Server).run.func1", "/src/manetsim/server.go"), "serve"},
		{at("manetsim.(*sweepJob).append", "/src/manetsim/server.go"), "serve"},
		{at("manetsim.writeJSON", "manetsim/server.go"), "serve"},
		{at("manetsim.someNewHelper", "/src/manetsim/server.go"), "serve"},
		{in("manetsim/internal/exp.Fig6"), ""},
		{in("runtime.mallocgc"), ""},
		{in("encoding/json.Marshal"), ""},
		{in("main.(*bench).round"), ""},
		{in("manetsimvet.main"), ""},
		{at("net/http.(*Server).Serve", "/go/src/net/http/server.go"), ""},
	} {
		if got := layerOf(c.f); got != c.want {
			t.Errorf("layerOf(%+v) = %q, want %q", c.f, got, c.want)
		}
	}
}

func TestAttribute(t *testing.T) {
	stacks := []Stack{
		// Allocation under the PHY: self time is the PHY's.
		{Frames: stack("runtime.mallocgc", "manetsim/internal/phy.(*Radio).Transmit", "manetsim/internal/sim.(*Scheduler).Step", "manetsim/internal/core.(*World).RunContext", "main.(*bench).round", "runtime.goexit"), Nanos: 10},
		// The heap itself.
		{Frames: stack("manetsim/internal/sim.(*Scheduler).siftDown", "manetsim/internal/sim.(*Scheduler).Step", "runtime.goexit"), Nanos: 20},
		// JSON decoding under storeGet, itself under ServeHTTP's sweep: the
		// innermost manetsim frame is storeGet.
		{Frames: append(stack("encoding/json.(*decodeState).object", "encoding/json.Unmarshal", "manetsim.(*Campaign).storeGet", "manetsim.(*Campaign).runStored"),
			at("manetsim.(*Server).ServeHTTP", "/src/manetsim/server.go"), in("runtime.goexit")), Nanos: 5},
		// Encoding a response inside the Server: serve's self time.
		{Frames: append(stack("encoding/json.Marshal"), at("manetsim.writeJSON", "/src/manetsim/server.go"),
			at("manetsim.(*Server).ServeHTTP", "/src/manetsim/server.go"), in("runtime.goexit")), Nanos: 8},
		// Reading the file under the store, under storeGet.
		{Frames: stack("syscall.Syscall", "os.ReadFile", "manetsim/internal/store.(*Store).Get", "manetsim.(*Campaign).storeGet", "manetsim.(*Campaign).storeGet", "runtime.goexit"), Nanos: 7},
		// A GC worker: runtime only.
		{Frames: stack("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"), Nanos: 3},
		// A GC assist under the MAC: the MAC's self time, and GC time.
		{Frames: stack("runtime.gcAssistAlloc", "runtime.mallocgc", "manetsim/internal/mac.(*DCF).send"), Nanos: 2},
		// net/http plumbing and the benchmark's own code: other.
		{Frames: stack("bufio.(*Reader).Read", "net/http.(*conn).serve", "runtime.goexit"), Nanos: 4},
		{Frames: stack("main.sameCells", "main.(*bench).round", "runtime.goexit"), Nanos: 1},
		// A sample with no stack at all.
		{Nanos: 6},
	}
	a := Attribute(stacks, []string{entryStoreGet, entryServe, entryBuild})
	if a.Total != 66 {
		t.Errorf("Total = %d, want 66", a.Total)
	}
	wantSelf := map[string]int64{"phy": 10, "sim": 20, "campaign": 5, "serve": 8, "store": 7, "runtime": 3, "mac": 2, "other": 11}
	for l, want := range wantSelf {
		if got := a.Self[l]; got != want {
			t.Errorf("Self[%s] = %d, want %d", l, got, want)
		}
	}
	var sum int64
	for l, v := range a.Self {
		if _, ok := wantSelf[l]; !ok && v != 0 {
			t.Errorf("Self[%s] = %d, want 0", l, v)
		}
		sum += v
	}
	if sum != a.Total {
		t.Errorf("self times sum to %d, want Total %d", sum, a.Total)
	}
	// storeGet counts once per sample even when it recurs on the stack.
	for e, want := range map[string]int64{entryStoreGet: 12, entryServe: 13, entryBuild: 0} {
		if got := a.Inclusive[e]; got != want {
			t.Errorf("Inclusive[%s] = %d, want %d", e, got, want)
		}
	}
	if a.GC != 5 {
		t.Errorf("GC = %d, want 5", a.GC)
	}
}
