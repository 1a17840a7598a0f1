package grid

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"tightsched/internal/avail"
	"tightsched/internal/markov"
	"tightsched/internal/platform"
	"tightsched/internal/rng"
)

// slotWalk is the per-slot oracle a History must reproduce: a fresh
// provider of the same trial walked slot by slot, every full-platform
// vector kept.
type slotWalk struct {
	prov avail.StateProvider
	p    int
	rows [][]markov.State
}

func newSlotWalk(model avail.Model, pl *platform.Platform, seed uint64) *slotWalk {
	return &slotWalk{
		prov: model.Provider(pl.Matrices(), rng.NewKeyed(seed, 0x9a1c).Uint64(), false),
		p:    pl.Size(),
	}
}

func (w *slotWalk) at(slot int64) []markov.State {
	for int64(len(w.rows)) <= slot {
		row := make([]markov.State, w.p)
		w.prov.States(int64(len(w.rows)), row)
		w.rows = append(w.rows, row)
	}
	return w.rows[slot]
}

// view is the oracle's window: a block of processors from an offset,
// read one slot at a time.
func (w *slotWalk) view(procs []int, offset int64) avail.StateProvider {
	return avail.ProviderFunc(func(slot int64, dst []markov.State) {
		row := w.at(offset + slot)
		for i, q := range procs {
			dst[i] = row[q]
		}
	})
}

// historyPlatforms are the walks the differential tests cover: a
// high-churn tiered platform under the diurnal model (short runs) and a
// sticky homogeneous one under its Markov chains (runs that span chunk
// boundaries).
func historyPlatforms() []struct {
	name  string
	model avail.Model
	pl    *platform.Platform
} {
	tiered := platform.GenerateTiered(platform.TieredConfig{
		Tiers:  []platform.SpeedTier{{Count: 4, Speed: 1}, {Count: 4, Speed: 2}, {Count: 4, Speed: 4}},
		Ncom:   6,
		StayLo: 0.90, StayHi: 0.99,
	}, rng.NewKeyed(5, 0x91a7))
	sticky := platform.Homogeneous(6, 1, platform.UnboundedCapacity, 6, markov.PerState(0.9995, 0.999, 0.99))
	return []struct {
		name  string
		model avail.Model
		pl    *platform.Platform
	}{
		{"diurnal", avail.NewDiurnal(), tiered},
		{"sticky", avail.MarkovModel{}, sticky},
	}
}

// TestWindowStatesRunMatchesSlotWalk: a window's native run-length read
// equals avail.AsRunProvider over the per-slot walk — the adapter the
// leap core used before — for random blocks, admission offsets and
// limits, including limit < 1 and runs across chunk boundaries, on
// windows that share one History.
func TestWindowStatesRunMatchesSlotWalk(t *testing.T) {
	for _, tc := range historyPlatforms() {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 77
			p := tc.pl.Size()
			hist := NewHistory(tc.model, tc.pl, seed)
			oracle := newSlotWalk(tc.model, tc.pl, seed)
			r := rand.New(rand.NewSource(1))
			crossed := 0
			for trial := 0; trial < 60; trial++ {
				k := 1 + r.Intn(p)
				procs := r.Perm(p)[:k]
				offset := r.Int63n(3 * historyChunkSlots)
				win := newWindow(hist, procs, offset)
				ref := avail.AsRunProvider(oracle.view(procs, offset))
				got := make([]markov.State, k)
				want := make([]markov.State, k)
				for from := int64(0); from < 4*historyChunkSlots; {
					var limit int64
					switch r.Intn(4) {
					case 0:
						limit = r.Int63n(2) - 1 // 0 or -1: clamped to 1
					case 1:
						limit = 1 + r.Int63n(8)
					default:
						limit = 1 + r.Int63n(3*historyChunkSlots)
					}
					n := win.StatesRun(from, got, limit)
					m := ref.StatesRun(from, want, limit)
					if n != m || !reflect.DeepEqual(got, want) {
						t.Fatalf("block %v offset %d from %d limit %d: window (%v, %d), slot walk (%v, %d)",
							procs, offset, from, limit, got, n, want, m)
					}
					if (offset+from)>>historyChunkShift != (offset+from+n-1)>>historyChunkShift {
						crossed++
					}
					// Advance like the leap core, to the run's end, or
					// skip past it (the adapter cannot re-read inside
					// a run that ended at a change).
					from += n
					if r.Intn(3) == 0 {
						from += r.Int63n(historyChunkSlots)
					}
				}
			}
			if crossed == 0 {
				t.Fatal("no run crossed a chunk boundary; the test lost its coverage")
			}
		})
	}
}

// TestWindowStatesMatchesSlotWalk: the per-slot read (the slot core's
// view) equals the oracle at every slot of a block.
func TestWindowStatesMatchesSlotWalk(t *testing.T) {
	for _, tc := range historyPlatforms() {
		t.Run(tc.name, func(t *testing.T) {
			hist := NewHistory(tc.model, tc.pl, 3)
			oracle := newSlotWalk(tc.model, tc.pl, 3)
			procs := []int{tc.pl.Size() - 1, 0, 2}
			win := newWindow(hist, procs, 500)
			ref := oracle.view(procs, 500)
			got, want := make([]markov.State, 3), make([]markov.State, 3)
			for slot := int64(0); slot < 3*historyChunkSlots; slot++ {
				win.States(slot, got)
				ref.States(slot, want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("slot %d: window %v, slot walk %v", slot, got, want)
				}
			}
		})
	}
}

// sharedHistoryScenario is a churning tiered grid with enough arrivals
// and horizon to read several history chunks on every block.
func sharedHistoryScenario(admission, preemption string) Scenario {
	sc := testScenario(nil, admission, preemption)
	sc.Platform = platform.GenerateTiered(platform.TieredConfig{
		Tiers:  []platform.SpeedTier{{Count: 4, Speed: 1}, {Count: 4, Speed: 2}, {Count: 4, Speed: 4}},
		Ncom:   6,
		StayLo: 0.90, StayHi: 0.99,
	}, rng.NewKeyed(9, 0x91a7))
	sc.Model = avail.NewDiurnal()
	sc.Shape.AppProcs = 4
	sc.Horizon = 6_000
	spec := ArrivalSpec{Kind: KindPoisson, MeanGap: 80, Apps: 14, WminLo: 1, WminHi: 3, DeadlineFactor: 15}
	sc.Arrivals = spec.Materialize(rng.NewKeyed(9, 0xa221), sc.Shape)
	return sc
}

// TestSimulateSharedHistoryConcurrent: a scenario simulated on a History
// that other goroutines are extending and reading at the same time —
// the other policy combinations of its trial, plus a goroutine extending
// it chunk by chunk — reports exactly what it reports on a private history.
func TestSimulateSharedHistoryConcurrent(t *testing.T) {
	combos := [][2]string{{"fcfs", "none"}, {"sjf", "lowest-priority"}, {"edf", "lowest-priority"}, {"edf", "none"}}
	private := make([]Report, len(combos))
	for i, c := range combos {
		rep, err := Simulate(context.Background(), sharedHistoryScenario(c[0], c[1]))
		if err != nil {
			t.Fatal(err)
		}
		private[i] = rep
	}

	ref := sharedHistoryScenario("fcfs", "none")
	hist := NewHistory(ref.Model, ref.Platform, ref.Seed)
	shared := make([]Report, len(combos))
	errs := make([]error, len(combos))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // an extender racing the simulations to the horizon
		defer wg.Done()
		for c := int64(0); c <= ref.Horizon>>historyChunkShift; c++ {
			hist.chunk(c)
			runtime.Gosched()
		}
	}()
	for i, c := range combos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := sharedHistoryScenario(c[0], c[1])
			sc.History = hist
			shared[i], errs[i] = Simulate(context.Background(), sc)
		}()
	}
	wg.Wait()
	for i, c := range combos {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(shared[i], private[i]) {
			t.Fatalf("%s/%s on a shared history:\n%+v\nprivate:\n%+v", c[0], c[1], shared[i], private[i])
		}
	}
	if n := len(hist.chunks); int64(n) <= ref.Horizon>>historyChunkShift {
		t.Fatalf("history holds %d chunks, want the whole horizon", n)
	}
}
