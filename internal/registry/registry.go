// Package registry is the module's name → factory table: the heuristics,
// the availability models and the online admission and preemption
// policies each resolve by name through one Table, so registration rules,
// error wording and the sorted name listing are written once.
package registry

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// Table maps names to factories of function type F. It is safe for
// concurrent use: packages fill it at init, and callers may register more
// at any time.
type Table[F any] struct {
	pkg   string // error prefix, the owning package's name
	noun  string // what a factory builds, in registration errors
	kind  string // what a name denotes, in duplicate and unknown errors
	label func(F) (string, bool)

	mu sync.RWMutex
	m  map[string]F
}

// New returns an empty table whose errors read "pkg: …". Registration
// errors name the product by noun ("Register with empty model name");
// duplicate and unknown-name errors name the entry by kind ("admission
// policy \"x\" already registered"). A non-nil label builds a product from
// a factory being registered and returns its name, or false when the
// factory built nil; Register then refuses a factory whose product is nil
// or carries another name than the one it is registered under.
func New[F any](pkg, noun, kind string, label func(F) (string, bool)) *Table[F] {
	return &Table[F]{pkg: pkg, noun: noun, kind: kind, label: label, m: map[string]F{}}
}

// Named is the label of factories whose product names itself.
func Named[P interface{ Name() string }](build func() P) (string, bool) {
	p := build()
	if any(p) == nil {
		return "", false
	}
	return p.Name(), true
}

// Register makes f resolvable as name. It errors on an empty name, a nil
// factory, a product the label refuses, or a name already taken.
func (t *Table[F]) Register(name string, f F) error {
	if name == "" {
		return fmt.Errorf("%s: Register with empty %s name", t.pkg, t.noun)
	}
	if v := reflect.ValueOf(f); !v.IsValid() || v.Kind() == reflect.Func && v.IsNil() {
		return fmt.Errorf("%s: Register(%q) with nil factory", t.pkg, name)
	}
	if t.label != nil {
		got, ok := t.label(f)
		if !ok {
			return fmt.Errorf("%s: Register(%q) factory returned nil", t.pkg, name)
		}
		if got != name {
			return fmt.Errorf("%s: Register(%q) factory builds a %s named %q", t.pkg, name, t.noun, got)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.m[name]; dup {
		return fmt.Errorf("%s: %s %q already registered", t.pkg, t.kind, name)
	}
	t.m[name] = f
	return nil
}

// MustRegister is Register that panics on error, for init-time
// registration of a package's own entries.
func (t *Table[F]) MustRegister(name string, f F) {
	if err := t.Register(name, f); err != nil {
		panic(err)
	}
}

// Lookup returns the factory registered as name, or an error listing the
// registered names.
func (t *Table[F]) Lookup(name string) (F, error) {
	t.mu.RLock()
	f, ok := t.m[name]
	t.mu.RUnlock()
	if !ok {
		return f, fmt.Errorf("%s: unknown %s %q (have %v)", t.pkg, t.kind, name, t.Names())
	}
	return f, nil
}

// Names returns every registered name, sorted. The slice is a fresh
// copy: callers may mutate it freely.
func (t *Table[F]) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	names := make([]string, 0, len(t.m))
	for name := range t.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
