package main

import (
	"bytes"
	"context"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

//go:noinline
func burn(d time.Duration) (x uint64) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestDecodeProfile profiles a busy loop, once unlabelled and once under
// the untimed label, and finds both in the decoded stacks.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(300 * time.Millisecond)
	pprof.Do(context.Background(), pprof.Labels(untimedLabel, "1"), func(context.Context) {
		burn(300 * time.Millisecond)
	})
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var plain, labelled int64
	for _, s := range stacks {
		if s.Nanos <= 0 {
			t.Errorf("sample with %d ns", s.Nanos)
		}
		if len(s.Frames) == 0 || !strings.HasSuffix(s.Frames[0].Func, ".burn") {
			continue
		}
		if f := s.Frames[0].File; filepath.Base(f) != "pprof_test.go" {
			t.Errorf("burn's file decoded as %q, want pprof_test.go", f)
		}
		if s.Untimed {
			labelled += s.Nanos
		} else {
			plain += s.Nanos
		}
	}
	if plain < int64(100*time.Millisecond) || labelled < int64(100*time.Millisecond) {
		t.Errorf("burn: %v unlabelled and %v labelled, want at least 100ms of each",
			time.Duration(plain), time.Duration(labelled))
	}
}
