package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A minimal decoder for the gzipped profile.proto that runtime/pprof
// writes, reading only what attribution needs: each sample's CPU time and
// its stack as function and file names, inlined frames included. The module takes
// no dependencies, so github.com/google/pprof/profile is not available.

// Stack is one profile sample: its frames, innermost first, the CPU time
// it stands for, and whether it carries the untimedLabel pprof label.
type Stack struct {
	Frames  []Frame
	Nanos   int64
	Untimed bool
}

// Frame is one stack frame: the function's name and its source file.
type Frame struct{ Func, File string }

// untimedLabel is the pprof label key that marks work outside the
// benchmark's timed legs, so attribution can leave it out.
const untimedLabel = "perfbench-untimed"

// decodeProfile parses a gzipped CPU profile into stacks.
func decodeProfile(gz []byte) ([]Stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
		keys   []int64 // label keys, as string indices
	}
	var (
		samples   []sample
		strs      []string
		funcs     = map[uint64][2]int64{} // function id -> name and file string indices
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		period    int64
		valueKind = -1       // index of the cpu/nanoseconds value, -1 until seen
		types     [][2]int64 // sample_type: (type, unit) string indices
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			types = append(types, t)
		case 2: // sample
			var s sample
			if err := eachField(b, func(n, w int, v uint64, p []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, w, v, p)
				case 2:
					var vs []uint64
					if err := appendPacked(&vs, w, v, p); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				case 3: // label
					return eachField(p, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							s.keys = append(s.keys, int64(v))
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, _ int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(p, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var names [2]int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2: // name
					names[0] = int64(v)
				case 4: // filename
					names[1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = names
		case 6: // string_table
			strs = append(strs, string(b))
		case 12: // period
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for i, t := range types {
		if t[1] >= 0 && int(t[1]) < len(strs) && strs[t[1]] == "nanoseconds" {
			valueKind = i
		}
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return "?"
		}
		return strs[i]
	}
	out := make([]Stack, 0, len(samples))
	for _, s := range samples {
		var ns int64
		switch {
		case valueKind >= 0 && valueKind < len(s.values):
			ns = s.values[valueKind]
		case len(s.values) > 0:
			ns = s.values[0] * period
		}
		st := Stack{Nanos: ns}
		for _, k := range s.keys {
			st.Untimed = st.Untimed || str(k) == untimedLabel
		}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				st.Frames = append(st.Frames, Frame{Func: str(funcs[fn][0]), File: str(funcs[fn][1])})
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message, passing varints in
// v and length-delimited payloads in b.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
