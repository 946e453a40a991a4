package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// registryKind adapts one kind's registry to a common shape so a single
// table drives the transport, link-model and fault registries alike.
type registryKind struct {
	kind     string
	register func(name string, aliases ...string)
	lookup   func(name string) (canonical string, err error)
	list     func() []PluginInfo
}

func adaptRegistry[E interface{ meta() *plugin }](r *registry[E], entry func(plugin) E) registryKind {
	return registryKind{
		kind: r.kind,
		register: func(name string, aliases ...string) {
			r.register(entry(plugin{name: name, aliases: aliases}))
		},
		lookup: func(name string) (string, error) {
			e, err := r.lookup(name)
			if err != nil {
				return "", err
			}
			return e.meta().name, nil
		},
		list: r.list,
	}
}

// registryKinds returns the three kinds over fresh scratch registries
// when scratch is set, otherwise over the global ones (which must only be
// read: registrations there would leak into other tests).
func registryKinds(scratch bool) []registryKind {
	tr, lm, flt := &transportReg, &linkModelReg, &faultReg
	if scratch {
		tr = &registry[*transport]{kind: tr.kind}
		lm = &registry[*linkModelEntry]{kind: lm.kind}
		flt = &registry[*faultEntry]{kind: flt.kind}
	}
	return []registryKind{
		adaptRegistry(tr, func(p plugin) *transport { return &transport{plugin: p} }),
		adaptRegistry(lm, func(p plugin) *linkModelEntry { return &linkModelEntry{plugin: p} }),
		adaptRegistry(flt, func(p plugin) *faultEntry { return &faultEntry{plugin: p} }),
	}
}

// panicValue runs f and renders what it panicked with ("<nil>" if it
// returned normally).
func panicValue(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return
}

// TestRegistry drives the registry of every kind through the same table:
// registration panics, case-insensitive lookup, the sorted listing and
// the unknown-name error, on a scratch registry; then the listing order
// and error text of the live one.
func TestRegistry(t *testing.T) {
	live := registryKinds(false)
	for i, k := range registryKinds(true) {
		t.Run(k.kind, func(t *testing.T) {
			k.register("zeta")
			k.register("alpha", "A1")
			k.register("mu")

			for _, c := range []struct {
				name    string
				aliases []string
				want    string
			}{
				{"", nil, "core: empty " + k.kind + " name"},
				{"nu", []string{""}, "core: empty " + k.kind + " name"},
				{"ZETA", nil, fmt.Sprintf("core: %s %q registered twice", k.kind, "zeta")},
				// An alias colliding, in another case, with a canonical name.
				{"beta", []string{"Alpha"}, fmt.Sprintf("core: %s %q registered twice", k.kind, "alpha")},
				{"gamma", []string{"a1"}, fmt.Sprintf("core: %s %q registered twice", k.kind, "a1")},
			} {
				if got := panicValue(func() { k.register(c.name, c.aliases...) }); got != c.want {
					t.Errorf("register(%q, %q) panicked with %q, want %q", c.name, c.aliases, got, c.want)
				}
			}

			for _, name := range []string{"alpha", "ALPHA", "Alpha", "a1", "A1"} {
				if got, err := k.lookup(name); err != nil || got != "alpha" {
					t.Errorf("lookup(%q) = %q, %v; want alpha", name, got, err)
				}
			}

			want := []PluginInfo{
				{Name: "alpha", Aliases: []string{"A1"}},
				{Name: "mu"},
				{Name: "zeta"},
			}
			if got := k.list(); !reflect.DeepEqual(got, want) {
				t.Errorf("list = %+v, want %+v", got, want)
			}

			_, err := k.lookup("fog")
			wantErr := fmt.Sprintf("core: unknown %s %q (registered: alpha, mu, zeta)", k.kind, "fog")
			if err == nil || err.Error() != wantErr {
				t.Errorf("lookup(fog) error %v, want %q", err, wantErr)
			}

			var names []string
			for _, info := range live[i].list() {
				names = append(names, info.Name)
			}
			if !sort.StringsAreSorted(names) {
				t.Errorf("live listing not sorted by name: %q", names)
			}
			_, err = live[i].lookup("fog")
			wantErr = fmt.Sprintf("core: unknown %s %q (registered: %s)", k.kind, "fog", strings.Join(names, ", "))
			if err == nil || err.Error() != wantErr {
				t.Errorf("live lookup(fog) error %v, want %q", err, wantErr)
			}
		})
	}
}
