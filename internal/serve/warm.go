package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"nemesis/internal/experiments"
)

// The warm-world pool is the second exploitation of core.System.Fork (the
// first is the experiments sweeps): the result cache already answers
// repeat submissions of *identical* specs, but specs that share only their
// expensive warm prefix — a fig. 7 run at 10 s and the same run at 40 s —
// still re-paid the whole ~10-minute (simulated) initialisation phase.
// The pool keeps a bounded LRU of *resident simulations*: warmed
// experiments.PagingWarm worlds keyed by the content hash of the spec with
// its measured window stripped. A poolable job forks the resident world
// and measures only its own window. Because fork-then-measure is
// byte-identical to cold-boot-then-measure (the fork-equivalence tests pin
// this), pooled answers are the same bytes experiments.RunSpec produces —
// residency is purely a latency optimisation, never part of result
// identity.

// warmWorlds bounds the LRU of resident warmed simulations that poolable
// specs fork instead of cold-booting. Residency only affects latency:
// pooled and unpooled answers are byte-identical.
const warmWorlds = 8

// warmPrefixKey content-addresses the warm prefix of a spec: the hex
// SHA-256 of the canonical JSON of the normalized spec with Measure
// cleared. ok is false for specs the pool does not hold — only untraced
// figure 7/8 specs are poolable: their warm phase is by far the most
// expensive. Traced specs run the same warm+measure harness and could
// fork a telemetry-on world too; they stay unpooled by choice, since they
// are rare and each carries its own artifacts.
func warmPrefixKey(spec experiments.Spec) (string, bool) {
	if spec.Kind != experiments.KindFigure || spec.Trace || (spec.Figure != 7 && spec.Figure != 8) {
		return "", false
	}
	spec.Measure = 0 // the measured window rides on the shared warm prefix
	b, err := CanonicalJSON(spec)
	if err != nil {
		return "", false
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), true
}

// warmEntry is one resident warmed world. Its mutex serializes
// construction and forking: forking flips the parent's disk chunks to
// copy-on-write, a parent-side mutation that must not race — the forks
// themselves then measure concurrently without coordination.
type warmEntry struct {
	key  string
	mu   sync.Mutex
	warm *experiments.PagingWarm
}

// warmPool is the bounded LRU of resident warmed worlds.
type warmPool struct {
	mu     sync.Mutex
	max    int
	order  []*warmEntry // front = most recently used
	items  map[string]*warmEntry
	hits   int64
	misses int64
}

func newWarmPool(max int) *warmPool {
	return &warmPool{max: max, items: make(map[string]*warmEntry)}
}

// fork returns a fresh fork of the resident world for key, building and
// admitting the world with build on first use. The pool lock covers only
// the LRU bookkeeping; warming and forking happen under the entry's own
// lock, so concurrent jobs on *different* prefixes never serialize.
func (p *warmPool) fork(key string, build func() (*experiments.PagingWarm, error)) (*experiments.PagingWarm, error) {
	p.mu.Lock()
	e, ok := p.items[key]
	if ok {
		p.hits++
		p.touchLocked(e)
	} else {
		p.misses++
		e = &warmEntry{key: key}
		p.items[key] = e
		p.order = append([]*warmEntry{e}, p.order...)
		for len(p.order) > p.max {
			victim := p.order[len(p.order)-1]
			p.order = p.order[:len(p.order)-1]
			delete(p.items, victim.key)
			// Shut the evicted world down off the pool lock; its entry
			// lock fences any fork still in flight. A racer that already
			// held the entry rebuilds it as an unpooled one-shot — correct,
			// just unshared.
			go func() {
				victim.mu.Lock()
				if victim.warm != nil {
					victim.warm.Sys.Shutdown()
					victim.warm = nil
				}
				victim.mu.Unlock()
			}()
		}
	}
	p.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.warm == nil {
		w, err := build()
		if err != nil {
			// Never cache failures: drop the entry so the next submission
			// retries the warm-up.
			p.mu.Lock()
			if p.items[key] == e {
				delete(p.items, key)
				for i, o := range p.order {
					if o == e {
						p.order = append(p.order[:i], p.order[i+1:]...)
						break
					}
				}
			}
			p.mu.Unlock()
			return nil, err
		}
		e.warm = w
	}
	return e.warm.Fork()
}

func (p *warmPool) touchLocked(e *warmEntry) {
	for i, o := range p.order {
		if o == e {
			copy(p.order[1:i+1], p.order[:i])
			p.order[0] = e
			return
		}
	}
}

// stats returns cumulative pool counters.
func (p *warmPool) stats() (resident int, hits, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.order), p.hits, p.misses
}

// close shuts every resident world down.
func (p *warmPool) close() {
	p.mu.Lock()
	order := p.order
	p.order, p.items = nil, make(map[string]*warmEntry)
	p.mu.Unlock()
	for _, e := range order {
		e.mu.Lock()
		if e.warm != nil {
			e.warm.Sys.Shutdown()
			e.warm = nil
		}
		e.mu.Unlock()
	}
}
