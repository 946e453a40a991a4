package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// plugin is the part every registry entry shares, whatever its kind.
type plugin struct {
	name    string   // canonical lower-case name
	aliases []string // additional lookup names
	label   string   // display name (transports only)
	desc    string   // one-line description for listings
}

func (p *plugin) meta() *plugin { return p }

// PluginInfo describes one registered transport, link model or fault
// injector for listings.
type PluginInfo struct {
	// Name selects the plug-in in its spec's Name field.
	Name string
	// Aliases are accepted alternative names.
	Aliases []string
	// Label is a transport's display name, used in figure series and run
	// summaries; other kinds leave it empty.
	Label string
	// Description is a one-line summary.
	Description string
}

// registry is a case-insensitive name registry for one kind of plug-in:
// transports, link models and fault injectors each keep one. The zero
// value with kind set is ready to use.
type registry[E interface{ meta() *plugin }] struct {
	kind    string // spelled out in panics and errors, e.g. "link model"
	mu      sync.RWMutex
	byName  map[string]E // every lower-cased name and alias
	entries []E          // registration order, canonical entries only
}

// register adds one entry under its canonical name and aliases. It
// panics on an empty or duplicate name: registration is a program-setup
// bug, not a runtime condition.
func (r *registry[E]) register(e E) {
	p := e.meta()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName == nil {
		r.byName = make(map[string]E)
	}
	for _, n := range append([]string{p.name}, p.aliases...) {
		n = strings.ToLower(n)
		if n == "" {
			panic("core: empty " + r.kind + " name")
		}
		if _, dup := r.byName[n]; dup {
			panic(fmt.Sprintf("core: %s %q registered twice", r.kind, n))
		}
		r.byName[n] = e
	}
	r.entries = append(r.entries, e)
}

// lookup resolves a name or alias, case-insensitively. The error for an
// unknown name lists every registered one.
func (r *registry[E]) lookup(name string) (E, error) {
	r.mu.RLock()
	e, ok := r.byName[strings.ToLower(name)]
	r.mu.RUnlock()
	if !ok {
		return e, fmt.Errorf("core: unknown %s %q (registered: %s)",
			r.kind, name, strings.Join(r.names(), ", "))
	}
	return e, nil
}

// list describes every canonical entry, sorted by name.
func (r *registry[E]) list() []PluginInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	infos := make([]PluginInfo, 0, len(r.entries))
	for _, e := range r.entries {
		p := e.meta()
		infos = append(infos, PluginInfo{
			Name:        p.name,
			Aliases:     append([]string(nil), p.aliases...),
			Label:       p.label,
			Description: p.desc,
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// names returns every canonical name, sorted.
func (r *registry[E]) names() []string {
	infos := r.list()
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = info.Name
	}
	return names
}
