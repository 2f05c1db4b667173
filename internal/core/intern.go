package core

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/oset"
)

// Sweep-time label interning.
//
// The dominant cost of the CREST sweep used to be materializing RNN sets: one
// O(λ) clone per status element per changed interval (the cached base
// records) plus one O(λ log λ) snapshot per emitted label. But arrangements
// repeat sets massively — consecutive faces overwhelmingly differ by one
// client, and the same set reappears across slabs — so almost all of that
// work rebuilt values that already existed. A LabelInterner deduplicates the
// sets at their origin: the sweep asks it for the canonical *Interned of the
// current scratch set (an O(1) lookup keyed by the set's incrementally
// maintained content key, oset.Set.ContentKey: a 128-bit order-independent
// hash plus the count) and both the base-set cache and the emitted labels
// hold that pointer. Each distinct set is sorted and has its influence
// evaluated exactly once, no matter how many faces carry it.
//
// One interner is shared by every strip of a parallel run (and attached to
// the Result, so pointloc can keep reusing the pool instead of re-interning
// the same sets when it builds the slab index). The map is sharded by hash so
// concurrent strips contend only on writes to the same shard, and reads — the
// overwhelming majority — take an RLock.
//
// The content key is the one identity of an RNN set across the program. The
// pool pointer identifies a set only within one pool, and a map restored
// from a snapshot, or a label list assembled by a caller, carries sets from
// different pools; so summaries, the optimal ranking and its geometry join,
// and the snapshot's set pool key by oset.KeyOf over the member slice — the
// same key the interner decides every emitted label with.

// Interned is one pooled region label: an RNN set in ascending client order
// together with its influence value under the interner's measure. Instances
// are shared across labels and sweep caches, and point-location gaps store
// their ids (LabelInterner.ID); both exported fields are immutable —
// callers must never modify RNN.
type Interned struct {
	// RNN holds the client identifiers in ascending order (never nil).
	RNN []int
	// Heat is the influence of RNN, evaluated over the set assembled in
	// ascending order — the canonical evaluation order of the enclosure
	// query path, so stored heats are bit-identical to a direct query's.
	Heat float64
	// id is 1 + the record's id in its interner's id table, 0 until the
	// first ID call.
	id atomic.Uint32
}

// internShards is the shard count of the interner map; a power of two so the
// shard index is a mask of the hash.
const internShards = 64

// LabelInterner is a sharded, concurrency-safe pool of Interned labels for
// one influence measure. The zero value is not ready to use; call
// NewLabelInterner.
type LabelInterner struct {
	measure influence.Measure
	// sorted is the measure's slice fast path (see influence.SortedMeasure):
	// every built-in measure can evaluate an ascending member slice directly,
	// so a miss never has to materialize an oset.Set at all. Nil only for
	// adapter measures (influence.Func), which fall back to scratch.
	sorted influence.SortedMeasure
	empty  *Interned
	// bufs pools the temporary slices a miss collects and sorts the set
	// members into before they are copied into a shard slab.
	bufs sync.Pool
	// scratch pools the sets handed to Influence when the measure has no
	// slice fast path. The measure contract forbids retaining or mutating its
	// argument, so one pooled set per concurrent miss suffices; Reset reuses
	// its free-list nodes and index map instead of rebuilding a throwaway set
	// per distinct label (which used to be ~96% of the sweep's allocations).
	scratch sync.Pool
	shards  [internShards]internShard

	// idMu guards the id table: byID[id] is the record with that id and
	// heats[id] its heat. Both only grow by appending, so a prefix handed
	// out by Table is never written again. Ids are assigned on first use
	// (ID), so a sweep that only labels never pays for them.
	idMu  sync.Mutex
	byID  []*Interned
	heats []float64
}

type internShard struct {
	mu    sync.RWMutex
	byKey map[oset.ContentKey]*Interned
	// labels and ints are the shard's slab chunks: interned records and their
	// member slices are packed into fixed-capacity arrays, so a run with
	// millions of distinct labels costs thousands of chunk allocations rather
	// than two allocations per label. A full chunk is abandoned in place —
	// published entries keep referencing it — and a fresh one started; chunks
	// never grow, so previously returned pointers stay valid.
	labels []Interned
	ints   []int
}

const (
	labelChunk = 1024  // Interned records per slab chunk
	intChunk   = 16384 // member ints per slab chunk
)

// insert packs (rnn, heat) into the shard's slabs and publishes the record
// in the map. The caller must hold sh.mu and have checked key is absent.
func (sh *internShard) insert(key oset.ContentKey, rnn []int, heat float64) *Interned {
	if len(sh.ints)+len(rnn) > cap(sh.ints) {
		size := intChunk
		if len(rnn) > size {
			size = len(rnn)
		}
		sh.ints = make([]int, 0, size)
	}
	start := len(sh.ints)
	sh.ints = append(sh.ints, rnn...)
	stored := sh.ints[start:len(sh.ints):len(sh.ints)]
	if len(sh.labels) == cap(sh.labels) {
		sh.labels = make([]Interned, 0, labelChunk)
	}
	sh.labels = append(sh.labels, Interned{RNN: stored, Heat: heat})
	l := &sh.labels[len(sh.labels)-1]
	sh.byKey[key] = l
	return l
}

// ID returns the id of l, a record of this pool, assigning it the next id
// on first call: ids count up from 0 in the order records are first asked
// for, one per distinct set, and are never reused or reassigned, so an id
// names one set for the pool's whole life. Safe for concurrent use.
func (in *LabelInterner) ID(l *Interned) uint32 {
	if id := l.id.Load(); id != 0 {
		return id - 1
	}
	in.idMu.Lock()
	defer in.idMu.Unlock()
	if l.id.Load() == 0 {
		in.byID = append(in.byID, l)
		in.heats = append(in.heats, l.Heat)
		l.id.Store(uint32(len(in.byID)))
	}
	return l.id.Load() - 1
}

// LookupID returns the id of the pool's record of the set with members rnn
// (ascending). It never assigns one: ok is false when the pool holds no such
// set, or holds it without an id — a set no slab gap stores. Safe for
// concurrent use.
func (in *LabelInterner) LookupID(rnn []int) (id uint32, ok bool) {
	l := in.lookup(oset.KeyOf(rnn))
	if l == nil {
		return 0, false
	}
	id = l.id.Load()
	return id - 1, id != 0
}

// NewLabelInterner returns an empty pool evaluating heats under measure (nil
// means influence.Size()).
func NewLabelInterner(measure influence.Measure) *LabelInterner {
	in := newInterner(measure, 0)
	in.empty = &Interned{RNN: []int{}, Heat: in.measure.Influence(oset.New())}
	return in
}

// NewLabelInternerFrom returns a pool that already holds sets[id], with heat
// heats[id], under every id below len(sets); later sets get the ids after
// them. It continues a set table written out earlier — a snapshot's pool —
// so each set keeps the id it was stored under. sets must be in ascending
// client order; they are retained, not copied, and must never be modified.
// The empty set takes its stored id when the table has one.
func NewLabelInternerFrom(measure influence.Measure, sets [][]int, heats []float64) *LabelInterner {
	in := newInterner(measure, len(sets))
	recs := make([]Interned, len(sets))
	in.byID = make([]*Interned, len(sets))
	in.heats = slices.Clone(heats[:len(sets)])
	for id, rnn := range sets {
		l := &recs[id]
		l.RNN, l.Heat = rnn, heats[id]
		l.id.Store(uint32(id) + 1)
		in.byID[id] = l
		if len(rnn) == 0 {
			if in.empty == nil {
				in.empty = l
			}
			continue
		}
		key := oset.KeyOf(rnn)
		if sh := &in.shards[key.Hash[0]&(internShards-1)]; sh.byKey[key] == nil {
			sh.byKey[key] = l
		}
	}
	if in.empty == nil {
		in.empty = &Interned{RNN: []int{}, Heat: in.measure.Influence(oset.New())}
	}
	return in
}

// newInterner returns a pool with no records and no empty label, its shard
// maps sized for about n sets.
func newInterner(measure influence.Measure, n int) *LabelInterner {
	if measure == nil {
		measure = influence.Size()
	}
	in := &LabelInterner{measure: measure}
	in.sorted, _ = measure.(influence.SortedMeasure)
	for i := range in.shards {
		in.shards[i].byKey = make(map[oset.ContentKey]*Interned, n/internShards)
	}
	return in
}

// Measure returns the influence measure the pool evaluates heats with.
func (in *LabelInterner) Measure() influence.Measure { return in.measure }

// Empty returns the shared label of the empty set.
func (in *LabelInterner) Empty() *Interned { return in.empty }

// Table returns the id table as it stands: heats[id] and sets[id] are the
// heat and the record of every id ID has assigned so far. The slices are
// prefixes of tables that only grow by appending, so they stay valid and
// unchanged while the pool keeps interning; callers must not modify them.
func (in *LabelInterner) Table() (heats []float64, sets []*Interned) {
	in.idMu.Lock()
	defer in.idMu.Unlock()
	return in.heats[:len(in.heats):len(in.heats)], in.byID[:len(in.byID):len(in.byID)]
}

// lookup returns the label already interned under key (the empty label for
// N == 0), or nil. Callers that maintain a set's key incrementally
// (oset.ContentKey's Add and Remove) find its label without materializing
// the set; only a nil result needs the set itself.
func (in *LabelInterner) lookup(key oset.ContentKey) *Interned {
	if key.N == 0 {
		return in.empty
	}
	sh := &in.shards[key.Hash[0]&(internShards-1)]
	sh.mu.RLock()
	l := sh.byKey[key]
	sh.mu.RUnlock()
	return l
}

// Intern returns the canonical label of set, creating it on first sight. The
// set is only read; the caller keeps ownership and may keep mutating it. Safe
// for concurrent use.
func (in *LabelInterner) Intern(set *oset.Set) *Interned {
	key := set.ContentKey()
	if l := in.lookup(key); l != nil {
		return l
	}
	sh := &in.shards[key.Hash[0]&(internShards-1)]
	// Build the label outside the lock: the sort and the influence evaluation
	// are the expensive part, and a concurrent duplicate computes the exact
	// same (deterministic) value — only one wins the map slot below.
	bufp, _ := in.bufs.Get().(*[]int)
	if bufp == nil {
		bufp = new([]int)
	}
	rnn := set.AppendMembers((*bufp)[:0])
	sort.Ints(rnn)
	var heat float64
	if in.sorted != nil {
		heat = in.sorted.InfluenceSorted(rnn)
	} else {
		sc, _ := in.scratch.Get().(*oset.Set)
		if sc == nil {
			sc = oset.New()
		}
		// Reset inserts in ascending order, exactly as oset.FromSorted
		// would, so the evaluation order — and the heat, bit for bit — is
		// the canonical one of the enclosure query path.
		sc.Reset(rnn)
		heat = in.measure.Influence(sc)
		in.scratch.Put(sc)
	}
	sh.mu.Lock()
	got, ok := sh.byKey[key]
	if !ok {
		got = sh.insert(key, rnn, heat)
	}
	sh.mu.Unlock()
	*bufp = rnn
	in.bufs.Put(bufp)
	return got
}
