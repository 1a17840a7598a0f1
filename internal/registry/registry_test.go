package registry

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// namer is the products' interface, as policies and models are.
type namer interface{ Name() string }

type product struct{ name string }

func (p product) Name() string { return p.name }

type factory func() namer

func build(name string) factory { return func() namer { return product{name} } }

// TestTableRefusals: every refused registration errors with its package's
// wording and leaves the table as it was; unknown names list the
// registered ones; Names is sorted and a fresh copy every call.
func TestTableRefusals(t *testing.T) {
	tab := New("pkg", "widget", "fancy widget", Named[namer])
	tab.MustRegister("b", build("b"))
	tab.MustRegister("a", build("a"))
	for _, tc := range []struct {
		what, name string
		f          factory
		want       string
	}{
		{"empty name", "", build(""), `pkg: Register with empty widget name`},
		{"nil factory", "c", nil, `pkg: Register("c") with nil factory`},
		{"nil product", "c", func() namer { return nil }, `pkg: Register("c") factory returned nil`},
		{"misnamed product", "c", build("d"), `pkg: Register("c") factory builds a widget named "d"`},
		{"duplicate", "a", build("a"), `pkg: fancy widget "a" already registered`},
	} {
		if err := tab.Register(tc.name, tc.f); err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.what, err, tc.want)
		}
	}
	if _, err := tab.Lookup("c"); err == nil || err.Error() != `pkg: unknown fancy widget "c" (have [a b])` {
		t.Errorf("unknown name: error %v", err)
	}
	names := tab.Names()
	if !slices.Equal(names, []string{"a", "b"}) {
		t.Fatalf("Names = %v, want [a b]", names)
	}
	names[0] = "mutated"
	if again := tab.Names(); !slices.Equal(again, []string{"a", "b"}) {
		t.Fatalf("Names after mutating a returned slice = %v", again)
	}
	if f, err := tab.Lookup("b"); err != nil || f().Name() != "b" {
		t.Fatalf("Lookup(b) did not return b's factory (error %v)", err)
	}

	// Without a label, only the name, the factory and duplicates are checked.
	plain := New[factory]("pkg", "widget", "widget", nil)
	if err := plain.Register("x", func() namer { return nil }); err != nil {
		t.Fatalf("unlabeled table refused a nil-building factory: %v", err)
	}
	if err := plain.Register("y", nil); err == nil {
		t.Fatal("unlabeled table accepted a nil factory")
	}
}

// TestTableConcurrent registers, looks up and lists from several
// goroutines at once; run it under -race.
func TestTableConcurrent(t *testing.T) {
	tab := New("pkg", "widget", "widget", Named[namer])
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("w%d-%d", g, i)
				if err := tab.Register(name, build(name)); err != nil {
					t.Error(err)
					return
				}
				if _, err := tab.Lookup(name); err != nil {
					t.Error(err)
					return
				}
				tab.Names()
			}
		}()
	}
	wg.Wait()
	if n := len(tab.Names()); n != 200 {
		t.Fatalf("%d names registered, want 200", n)
	}
}
