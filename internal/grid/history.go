package grid

import (
	"sync"

	"tightsched/internal/avail"
	"tightsched/internal/markov"
	"tightsched/internal/platform"
	"tightsched/internal/rng"
)

// historyChunkShift sizes a History chunk: 1<<historyChunkShift slots of
// every processor are materialized at a time.
const (
	historyChunkShift = 10
	historyChunkSlots = 1 << historyChunkShift
)

// History is one trial's ground-truth availability realization: the
// trial's provider walked slot by slot, once, with every state vector
// kept so that every simulation of the trial — each application run,
// admitted at any slot on any block, and each policy combination of the
// trial's campaign — reads the same world. States are one byte each;
// memory is p bytes per materialized slot.
//
// The walk is materialized lazily in chunks of historyChunkSlots slots
// under a mutex, so one History may be shared by concurrently running
// simulations. Materialized chunks are never written again, so readers
// scan them without holding the lock. A chunk may run past the slots any
// reader needs; that changes nothing it reads, because the provider is
// sequential and deterministic — slot s's vector depends only on the
// slots before it.
type History struct {
	p int

	mu     sync.Mutex
	prov   avail.StateProvider
	chunks [][]markov.State // each historyChunkSlots·p states
	buf    []markov.State   // one slot's vector, as the provider writes it
}

// NewHistory returns the lazily-materialized availability history of the
// trial seed on pl under model (pl.AvailModel() when nil). Simulate
// builds exactly this history when its scenario carries none, so a
// caller sharing one History across the scenarios of a trial gets the
// same reports as private histories.
func NewHistory(model avail.Model, pl *platform.Platform, seed uint64) *History {
	if model == nil {
		model = pl.AvailModel()
	}
	return &History{
		p:    pl.Size(),
		prov: model.Provider(pl.Matrices(), rng.NewKeyed(seed, 0x9a1c).Uint64(), false),
		buf:  make([]markov.State, pl.Size()),
	}
}

// chunk returns chunk c, materializing every chunk before it first. A
// chunk is processor-major: chunk[q<<historyChunkShift + s] is processor
// q's state at the chunk's slot s, so a run-length read scans each of a
// block's processors contiguously.
func (h *History) chunk(c int64) []markov.State {
	h.mu.Lock()
	defer h.mu.Unlock()
	for int64(len(h.chunks)) <= c {
		base := int64(len(h.chunks)) << historyChunkShift
		cols := make([]markov.State, historyChunkSlots*h.p)
		for s := range int64(historyChunkSlots) {
			h.prov.States(base+s, h.buf)
			for q, st := range h.buf {
				cols[int64(q)<<historyChunkShift+s] = st
			}
		}
		h.chunks = append(h.chunks, cols)
	}
	return h.chunks[c]
}

// window is a run's view of a trial's History: the engine's slot 0 is
// the admission slot, and only the granted block's processors are
// visible. It implements avail.RunProvider natively, so the leap core
// reads run lengths straight off the materialized chunks.
type window struct {
	hist   *History
	procs  []int
	offset int64
	// ci is the index of the chunk cached in cols (-1 before the first
	// read); each window takes the history's lock once per chunk.
	ci   int64
	cols []markov.State
}

func newWindow(h *History, procs []int, offset int64) *window {
	return &window{hist: h, procs: procs, offset: offset, ci: -1}
}

// seek caches the chunk holding the run's slot and returns the slot's
// index within it.
func (v *window) seek(slot int64) int64 {
	abs := v.offset + slot
	if c := abs >> historyChunkShift; c != v.ci {
		v.cols, v.ci = v.hist.chunk(c), c
	}
	return abs & (historyChunkSlots - 1)
}

// States implements avail.StateProvider.
func (v *window) States(slot int64, dst []markov.State) {
	s := v.seek(slot)
	for i, q := range v.procs {
		dst[i] = v.cols[int64(q)<<historyChunkShift+s]
	}
}

// StatesRun implements avail.RunProvider: the block's vector at from,
// and the number of slots (in [1, max(1, limit)]) it stays constant —
// the earliest change over the block's processors, each scanned in
// place, chunk by chunk.
func (v *window) StatesRun(from int64, dst []markov.State, limit int64) int64 {
	v.States(from, dst)
	n := int64(1)
	for n < limit {
		s := v.seek(from + n)
		end := min(historyChunkSlots, s+limit-n)
		stop := end // the first slot (chunk index) at which the block changes
		for i, q := range v.procs {
			base := int64(q) << historyChunkShift
			want := dst[i]
			for j, st := range v.cols[base+s : base+stop] {
				if st != want {
					stop = s + int64(j)
					break
				}
			}
		}
		n += stop - s
		if stop < end {
			break
		}
	}
	return n
}
