package exp

import (
	"math"
	"math/bits"
)

// indexPageLen is the number of grid positions in one page of a
// journal's done index.
const indexPageLen = 1024

// maxIndexGrid bounds the grids a journal kind places densely. A larger
// grid (which only a hand-edited header describes) keeps every key in
// the map, so a record far out on a huge grid cannot grow the page
// table past 16 MB.
const maxIndexGrid = math.MaxInt32

// doneIndex is a journal's set of recorded keys and their records. When
// the journal's kind places its keys on a grid (journalKind.grid), a
// key's record lives at the key's grid position, in pages allocated on
// first touch behind a page table grown on demand: finding a key hashes
// nothing, and the index never rehashes. Keys off the grid, and every
// key of a kind without a grid, live in a map. With R = struct{} it is
// a paged set of keys.
type doneIndex[K comparable, R any] struct {
	pos   func(K) int // nil: no grid
	size  int         // number of grid positions
	pages []*indexPage[R]
	n     int // records in pages
	other map[K]R
}

// indexPage holds the records of indexPageLen consecutive grid
// positions (fewer in the grid's last page) and which of them are set.
type indexPage[R any] struct {
	recs []R
	set  [indexPageLen / 64]uint64
}

// position returns the key's grid position, or a negative number when
// the key lives in the map. Compute it once per key and hand it to get
// and put.
func (x *doneIndex[K, R]) position(k K) int {
	if x.pos != nil {
		if p := x.pos(k); p < x.size {
			return p
		}
	}
	return -1
}

// get returns the record of key k at position p.
func (x *doneIndex[K, R]) get(p int, k K) (R, bool) {
	if p < 0 {
		r, ok := x.other[k]
		return r, ok
	}
	if page, i := x.slot(p, false); page != nil && page.has(i) {
		return page.recs[i], true
	}
	var zero R
	return zero, false
}

// put records r as the record of key k at position p, replacing any
// record there.
func (x *doneIndex[K, R]) put(p int, k K, r R) {
	if p < 0 {
		x.other[k] = r
		return
	}
	page, i := x.slot(p, true)
	if !page.has(i) {
		page.set[i/64] |= 1 << (i % 64)
		x.n++
	}
	page.recs[i] = r
}

// add records r as the record of key k at position p unless k is
// already recorded, and reports whether it did.
func (x *doneIndex[K, R]) add(p int, k K, r R) bool {
	if p < 0 {
		if _, dup := x.other[k]; dup {
			return false
		}
		x.other[k] = r
		return true
	}
	page, i := x.slot(p, true)
	if page.has(i) {
		return false
	}
	page.set[i/64] |= 1 << (i % 64)
	page.recs[i] = r
	x.n++
	return true
}

// slot returns the page holding grid position p and p's index in it.
// A page not yet touched is allocated when alloc is set, and nil
// otherwise.
func (x *doneIndex[K, R]) slot(p int, alloc bool) (*indexPage[R], uint) {
	pg, i := uint(p)/indexPageLen, uint(p)%indexPageLen
	if pg < uint(len(x.pages)) && x.pages[pg] != nil {
		return x.pages[pg], i
	}
	if !alloc {
		return nil, i
	}
	return x.newPage(int(pg)), i
}

// newPage allocates page pg, growing the page table to hold it.
func (x *doneIndex[K, R]) newPage(pg int) *indexPage[R] {
	if pg >= len(x.pages) {
		x.pages = append(x.pages, make([]*indexPage[R], pg+1-len(x.pages))...)
	}
	page := &indexPage[R]{recs: make([]R, min(indexPageLen, x.size-pg*indexPageLen))}
	x.pages[pg] = page
	return page
}

// has reports whether the page holds a record at index i.
func (page *indexPage[R]) has(i uint) bool { return page.set[i/64]&(1<<(i%64)) != 0 }

// len returns the number of recorded keys.
func (x *doneIndex[K, R]) len() int { return x.n + len(x.other) }

// appendAll appends every record to dst: grid records in position
// order, then the map's in no particular order.
func (x *doneIndex[K, R]) appendAll(dst []R) []R {
	for _, page := range x.pages {
		if page == nil {
			continue
		}
		for w, set := range page.set {
			for ; set != 0; set &= set - 1 {
				dst = append(dst, page.recs[w*64+bits.TrailingZeros64(set)])
			}
		}
	}
	for _, r := range x.other {
		dst = append(dst, r)
	}
	return dst
}

// pageLen is the number of ids in one page of a pageTable.
const pageLen = 1024

// pageTable holds pages P of pageLen consecutive non-negative ids each,
// allocated on first touch behind a table grown on demand, so that ids
// spread over a large range cost memory only where they are used. The
// done index keeps its own pages: it sizes its last page to the grid,
// and allocates records apart from their presence bits so that a page
// of 1,024 sweep records stays exactly 80 KB.
type pageTable[P any] struct {
	pages []*P
}

// at returns the page holding id i, allocating it if needed, and i's
// index in it.
func (x *pageTable[P]) at(i int) (*P, int) {
	pg := i / pageLen
	if pg >= len(x.pages) {
		x.pages = append(x.pages, make([]*P, pg+1-len(x.pages))...)
	}
	page := x.pages[pg]
	if page == nil {
		page = new(P)
		x.pages[pg] = page
	}
	return page, i % pageLen
}

// peek returns the page holding id i, or nil when it was never touched,
// and i's index in it.
func (x *pageTable[P]) peek(i int) (*P, int) {
	if pg := i / pageLen; pg < len(x.pages) {
		return x.pages[pg], i % pageLen
	}
	return nil, i % pageLen
}
