package platform

import (
	"crypto/sha256"
	"sync"

	"odrips/internal/ctxstore"
	"odrips/internal/lru"
	"odrips/internal/mee"
	"odrips/internal/sgx"
)

// Memory geometry every platform is built with: an 8 GB module whose top
// 128 MB is the processor-reserved (SGX) range holding the context
// region. Both are constants, so a seed alone fixes a template.
const (
	dramCapacityBytes = 8 << 30
	prmrrBytes        = 128 << 20
)

// templateCap bounds a Templates cache. The paper experiments and every
// fleet job build from the presets' one seed, so a larger cache only
// holds memory (DESIGN.md §12, "Platform templates").
const templateCap = 2

// template is the seed-derived construction state of a platform: the
// ~200 KB context image, its SHA-256, the SA and compute sub-images, the
// PMU vector, the MEE key and, built on first use by a platform that
// protects its context in DRAM, the formatted MEE metadata. It is
// immutable once built (the metadata once formatted): platforms read its
// bytes and copy the metadata blocks into their own memory modules, so
// any number of platforms in any number of goroutines share one template.
type template struct {
	image   []byte
	hash    [32]byte
	saImage []byte
	cpImage []byte
	pmuVec  []byte
	meeKey  [32]byte

	meeOnce sync.Once
	meeFmt  *mee.Formatted
	meeErr  error
}

// newTemplate generates, serializes and hashes the context of seed.
func newTemplate(seed int64) *template {
	ctx := ctxstore.GenerateSkylake(seed)
	t := &template{
		image:   ctx.Serialize(),
		saImage: ctx.Subset(ctxstore.SASectionNames()).Serialize(),
		cpImage: ctx.Subset(ctxstore.ComputeSectionNames()).Serialize(),
		pmuVec:  pmuVector(seed),
	}
	t.hash = sha256.Sum256(t.image)
	seedKey(&t.meeKey, seed)
	return t
}

// ctxBlocks returns the number of 64-byte MEE data blocks the context
// image occupies.
func (t *template) ctxBlocks() int {
	return (len(t.image) + mee.BlockSize - 1) / mee.BlockSize
}

// ctxRegion reserves the protected range and allocates the context region
// for a context of blocks data blocks. It depends on constants alone, so
// every platform and the template's formatted metadata agree on it.
func ctxRegion(blocks int) (sgx.Range, error) {
	rr, err := sgx.NewRangeRegisters(dramCapacityBytes, prmrrBytes)
	if err != nil {
		return sgx.Range{}, err
	}
	layout, err := mee.PlanLayout(0, blocks)
	if err != nil {
		return sgx.Range{}, err
	}
	return rr.Allocate(layout.TotalBytes())
}

// formatted returns the MEE metadata of the context region, formatting
// it on the first call.
func (t *template) formatted() (*mee.Formatted, error) {
	t.meeOnce.Do(func() {
		r, err := ctxRegion(t.ctxBlocks())
		if err != nil {
			t.meeErr = err
			return
		}
		t.meeFmt, t.meeErr = mee.Format(r.Base, t.ctxBlocks(), t.meeKey)
	})
	return t.meeFmt, t.meeErr
}

// Templates is a small bounded cache of templates keyed by seed, held by
// a runtime as a value. A template builds under the cache lock, so
// concurrent callers for one seed wait for a single build.
type Templates struct {
	mu    sync.Mutex
	cache *lru.Cache[int64, *template]
}

// NewTemplates returns an empty template cache.
func NewTemplates() *Templates {
	return &Templates{cache: lru.New[int64, *template](templateCap)}
}

// New assembles and boots a platform from the cached template of
// cfg.Seed, building the template first if the cache lacks it. The
// platform is identical to New(cfg)'s.
func (ts *Templates) New(cfg Config) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return assemble(cfg, ts.get(cfg.Seed))
}

// get returns the template of seed, building and caching it on a miss.
func (ts *Templates) get(seed int64) *template {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t, ok := ts.cache.Get(seed)
	if !ok {
		t = newTemplate(seed)
		ts.cache.Put(seed, t)
	}
	return t
}

// Stats reports the cache's counters and size. Puts count templates
// built, Hits platforms assembled from a cached one, Evictions templates
// dropped for the bound.
func (ts *Templates) Stats() TemplateStats {
	return TemplateStats{Stats: ts.cache.Stats(), Len: ts.cache.Len(), Cap: ts.cache.Cap()}
}

// TemplateStats snapshots a Templates cache.
type TemplateStats struct {
	lru.Stats
	Len int `json:"len"`
	Cap int `json:"cap"`
}
