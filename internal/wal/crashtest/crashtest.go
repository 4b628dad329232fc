package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"

	"xrtree"
	"xrtree/internal/btree"
	"xrtree/internal/core"
	"xrtree/internal/xmldoc"
)

// Config parameterizes one crash run.
type Config struct {
	// Seed drives the workload and the document shape deterministically.
	Seed int64
	// Ops is the number of insert/delete transactions attempted.
	Ops int
	// KillAfter is the log-byte budget before the injected crash: the
	// segment header and record bytes written, not the segment fill. ≤ 0
	// runs the workload to completion and closes cleanly instead (the
	// probe run, which also measures those bytes for picking kill
	// points).
	KillAfter int64
	// KillInFill moves the crash from the byte at KillAfter to the first
	// segment fill written after it, torn halfway (see FS).
	KillInFill bool
	// PageSize, BufferPages size the store; small defaults keep splits,
	// merges, segment rotation and checkpoints all hot within a short
	// workload.
	PageSize    int
	BufferPages int
}

func (cfg *Config) defaults() {
	if cfg.Ops <= 0 {
		cfg.Ops = 200
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 512
	}
	if cfg.BufferPages <= 0 {
		cfg.BufferPages = 64
	}
}

// Result reports what one run did and what recovery found.
type Result struct {
	Crashed   bool                  // the injected crash fired
	Kill      KillKind              // what the torn write was writing, when Crashed
	Committed int                   // transactions acknowledged before the end
	LogBytes  int64                 // header and record bytes written to the log (fill excluded)
	Report    xrtree.RecoveryReport // what the reopening redo pass found
}

const setName = "crashset"

// op is one mutation of one tree.
type op struct {
	insert bool
	e      xmldoc.Element
}

// model tracks the committed contents of one tree plus the single
// operation whose acknowledgment the crash swallowed.
type model struct {
	present map[uint32]xmldoc.Element
	pending *op // in flight at the crash: atomically applied or not
}

func newModel(es []xmldoc.Element) *model {
	m := &model{present: make(map[uint32]xmldoc.Element, len(es))}
	for _, e := range es {
		m.present[e.Start] = e
	}
	return m
}

func (m *model) apply(o op) {
	if o.insert {
		m.present[o.e.Start] = o.e
	} else {
		delete(m.present, o.e.Start)
	}
}

// verify compares a reopened tree's scan against the model: the committed
// state must match exactly, except that the pending operation may or may
// not have applied (commit is atomic, so nothing in between).
func (m *model) verify(kind string, got []xmldoc.Element) error {
	if m.matches(got) {
		return nil
	}
	if m.pending != nil {
		m.apply(*m.pending)
		ok := m.matches(got)
		m.apply(op{insert: !m.pending.insert, e: m.pending.e}) // undo
		if ok {
			return nil
		}
	}
	return fmt.Errorf("crashtest: %s diverged from committed state: %d elements on disk, %d committed (pending: %+v)",
		kind, len(got), len(m.present), m.pending)
}

func (m *model) matches(got []xmldoc.Element) bool {
	if len(got) != len(m.present) {
		return false
	}
	for _, e := range got {
		w, ok := m.present[e.Start]
		if !ok || w != e {
			return false
		}
	}
	return true
}

// document generates a region-encoded document in preorder: every pair of
// regions is disjoint or properly nested, starts strictly increase, and
// levels are real tree depths — exactly what the indexes assume.
func document(rng *rand.Rand, n int) []xmldoc.Element {
	var out []xmldoc.Element
	var pos uint32 = 1
	var ref uint32
	var gen func(level uint16)
	gen = func(level uint16) {
		if len(out) >= n {
			return
		}
		e := xmldoc.Element{DocID: 1, Start: pos, Level: level, Ref: ref}
		idx := len(out)
		out = append(out, e)
		pos++
		ref++
		if level < 12 {
			for k := rng.Intn(4); k > 0 && len(out) < n; k-- {
				gen(level + 1)
			}
		}
		out[idx].End = pos
		pos++
	}
	for len(out) < n {
		gen(1)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Run executes one crash (or probe) run in dir: build a store, mutate it
// until the log dies (or the workload ends), reopen through recovery, and
// verify the committed state and every index invariant.
func Run(dir string, cfg Config) (Result, error) {
	cfg.defaults()
	var res Result
	rng := rand.New(rand.NewSource(cfg.Seed))
	universe := document(rng, 512)

	// Split the universe into the bulk-loaded base and insert candidates.
	var base, extra []xmldoc.Element
	for _, e := range universe {
		if rng.Intn(2) == 0 {
			base = append(base, e)
		} else {
			extra = append(extra, e)
		}
	}
	if len(base) == 0 {
		base, extra = extra[:1], extra[1:]
	}

	cfs := NewFS(cfg.KillAfter, cfg.KillInFill)
	opts := xrtree.StoreOptions{
		PageSize:           cfg.PageSize,
		BufferPages:        cfg.BufferPages,
		WAL:                true,
		WALFS:              cfs,
		WALSegmentBytes:    8 << 10,
		WALCheckpointBytes: 32 << 10,
	}
	path := filepath.Join(dir, "store.db")

	xrModel, btModel, err := workload(path, opts, cfg, rng, base, extra, cfs, &res)
	res.LogBytes = cfs.Written()
	res.Kill = cfs.Kill()
	if err != nil {
		return res, err
	}
	return res, reverify(path, cfg, xrModel, btModel, &res)
}

// workload builds the store, runs the mutation stream until it finishes
// or the log dies, and abandons (or cleanly closes) the store. The
// returned models are nil when the crash hit before the initial save —
// nothing was acknowledged, so there is nothing to hold recovery to.
func workload(path string, opts xrtree.StoreOptions, cfg Config, rng *rand.Rand,
	base, extra []xmldoc.Element, cfs *FS, res *Result) (*model, *model, error) {

	crashed := func(err error) bool { return cfs.Crashed() && err != nil }

	store, err := xrtree.CreateStore(path, opts)
	if err != nil {
		if crashed(err) {
			// The budget died inside the first segment's header or fill:
			// the log never started, nothing was acknowledged.
			res.Crashed = true
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("crashtest: create store: %w", err)
	}

	set, err := store.IndexElements(base, xrtree.IndexOptions{SkipList: true})
	if err == nil {
		err = store.SaveSet(setName, set)
	}
	if err != nil {
		store.Abandon()
		if crashed(err) {
			res.Crashed = true
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("crashtest: setup: %w", err)
	}

	xr, err := set.XRTree()
	if err != nil {
		store.Abandon()
		return nil, nil, err
	}
	bt, err := set.BTree()
	if err != nil {
		store.Abandon()
		return nil, nil, err
	}

	xrModel := newModel(base)
	btModel := newModel(base)

	// The mutation stream: each op is applied to both trees (two separate
	// transactions), with delete victims drawn from the committed state.
	inPool := append([]xmldoc.Element(nil), extra...)
	for i := 0; i < cfg.Ops; i++ {
		var o op
		if len(inPool) > 0 && (len(xrModel.present) < 8 || rng.Intn(2) == 0) {
			j := rng.Intn(len(inPool))
			o = op{insert: true, e: inPool[j]}
			inPool[j] = inPool[len(inPool)-1]
			inPool = inPool[:len(inPool)-1]
		} else {
			starts := make([]uint32, 0, len(xrModel.present))
			for s := range xrModel.present {
				starts = append(starts, s)
			}
			sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
			o = op{insert: false, e: xrModel.present[starts[rng.Intn(len(starts))]]}
		}

		for _, tree := range []struct {
			m  *model
			do func() error
		}{
			{xrModel, func() error {
				if o.insert {
					return xr.Insert(o.e)
				}
				return xr.Delete(o.e.Start)
			}},
			{btModel, func() error {
				if o.insert {
					return bt.Insert(o.e)
				}
				return bt.Delete(o.e.Start)
			}},
		} {
			if err := tree.do(); err != nil {
				store.Abandon()
				if crashed(err) {
					res.Crashed = true
					tree.m.pending = &o
					return xrModel, btModel, nil
				}
				return nil, nil, fmt.Errorf("crashtest: op %d: %w", i, err)
			}
			tree.m.apply(o)
			res.Committed++
		}
	}

	if cfg.KillAfter > 0 {
		// Budget never hit: crash at the end instead of closing.
		res.Crashed = cfs.Crashed()
		store.Abandon()
		return xrModel, btModel, nil
	}
	if err := store.Close(); err != nil {
		return nil, nil, fmt.Errorf("crashtest: clean close: %w", err)
	}
	return xrModel, btModel, nil
}

// reverify reopens the store, lets recovery redo the log, and checks both
// trees against their models and the XR-tree against Definition 4. It
// then closes cleanly and reopens once more, verifying that the clean
// path replays nothing.
func reverify(path string, cfg Config, xrModel, btModel *model, res *Result) error {
	opts := xrtree.StoreOptions{PageSize: cfg.PageSize, BufferPages: cfg.BufferPages, WAL: true}
	store, err := xrtree.OpenStore(path, opts)
	if err != nil {
		return fmt.Errorf("crashtest: reopen: %w", err)
	}
	if rep := store.Recovery(); rep != nil {
		res.Report = *rep
	}
	if err := checkStore(store, xrModel, btModel); err != nil {
		store.Abandon()
		return err
	}
	if err := store.Close(); err != nil {
		return fmt.Errorf("crashtest: close after recovery: %w", err)
	}

	// Second open: the previous close was clean, so recovery must trust it.
	store, err = xrtree.OpenStore(path, opts)
	if err != nil {
		return fmt.Errorf("crashtest: second reopen: %w", err)
	}
	defer store.Close()
	if rep := store.Recovery(); rep == nil || rep.Replayed() {
		return fmt.Errorf("crashtest: clean shutdown not honored: report %+v", rep)
	}
	return checkStore(store, xrModel, btModel)
}

// checkStore verifies one opened store against the models. Nil models
// mean the crash predated the save: any consistent catalog state is
// acceptable, including no catalog entry at all.
func checkStore(store *xrtree.Store, xrModel, btModel *model) error {
	set, err := store.OpenSet(setName)
	if err != nil {
		if xrModel == nil && (errors.Is(err, xrtree.ErrUnknownSet) || errors.Is(err, xrtree.ErrNoCatalog)) {
			return nil
		}
		return fmt.Errorf("crashtest: open set: %w", err)
	}

	xr, err := set.XRTree()
	if err != nil {
		return err
	}
	if err := xr.CheckInvariants(); err != nil {
		return fmt.Errorf("crashtest: Definition 4 violated after recovery: %w", err)
	}
	if xrModel != nil {
		got, err := scanXR(xr)
		if err != nil {
			return err
		}
		if err := xrModel.verify("xr-tree", got); err != nil {
			return err
		}
	}

	bt, err := set.BTree()
	if err != nil {
		return err
	}
	if btModel != nil {
		got, err := scanBT(bt)
		if err != nil {
			return err
		}
		if err := btModel.verify("b+tree", got); err != nil {
			return err
		}
	}
	return nil
}

func scanXR(t *core.Tree) ([]xmldoc.Element, error) {
	it, err := t.Scan(nil)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []xmldoc.Element
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out, it.Err()
}

func scanBT(t *btree.Tree) ([]xmldoc.Element, error) {
	it, err := t.Scan(nil)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []xmldoc.Element
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out, it.Err()
}
