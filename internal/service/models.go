package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/lru"
	"kgeval/internal/obs/trace"
)

// ErrUnknownModel is returned by Submit for a model_id the registry does
// not hold under the job's constructor arguments — never uploaded with that
// name, dim and seed, or evicted since. The HTTP layer maps it to 404 with
// code "unknown_model": upload the bytes again.
var ErrUnknownModel = errors.New("service: unknown model_id (not uploaded with this name, dim and seed, or evicted since: upload it again)")

// ErrModelTooLarge is returned by PutModel for bytes the registry could
// not keep resident once loaded. The HTTP layer maps it to 413.
var ErrModelTooLarge = errors.New("service: model does not fit the model cache")

// modelKey identifies a registry slot: the SHA-256 of the kgc.Save bytes
// plus the constructor arguments they are loaded under.
type modelKey struct {
	ID   string
	Name string
	Dim  int
	Seed int64
}

// registered is what a registry slot holds: the bytes as they arrived until
// the first job needs the model, the loaded model from then on.
type registered struct {
	raw   []byte
	model kgc.Model
}

// modelRef is a job's hold on one registered model. It keeps working after
// the registry evicts the slot, so a queued or running job never loses its
// model to cache pressure and the registry needs no reference counts.
type modelRef = lru.Slot[modelKey, registered]

// modelRegistry is the engine's byte-bounded, single-flight LRU of loaded,
// immutable models. Every model a job evaluates comes out of it: an uploaded
// or inline snapshot is hashed, registered under its digest and constructor
// arguments, parsed by the first worker that needs it and shared — together
// with the float32/int8 entity stores the model builds on first use — by
// every job that names the same bytes and arguments.
type modelRegistry struct {
	graph *kg.Graph
	lru   *lru.Cache[modelKey, registered]
}

func newModelRegistry(g *kg.Graph, capacityBytes int64) *modelRegistry {
	return &modelRegistry{graph: g, lru: lru.New[modelKey, registered](capacityBytes)}
}

// modelDigest is the registry id of a snapshot: hex SHA-256 of its bytes.
func modelDigest(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// put registers raw under key unless the registry holds key already, taking
// ownership of raw. A slot charges the capacity len(raw) whether it holds
// the bytes or the model loaded from them: the float64 weight tables are the
// same size to within a header, and the float64 entity store is a view of
// them. The float32 and int8 entity stores a model builds on first use are
// not charged here; every job at those precisions pays for them at
// admission instead (estimateJobBytes).
func (r *modelRegistry) put(key modelKey, raw []byte) *modelRef {
	return r.lru.Reserve(key, int64(len(raw)), registered{raw: raw})
}

// reference returns the slot for key, registering a copy of raw (the inline
// snapshot; nil when the job named a model_id only) on first sight.
func (r *modelRegistry) reference(key modelKey, raw []byte) (*modelRef, error) {
	if s, ok := r.lru.Lookup(key); ok {
		return s, nil
	}
	if raw == nil {
		return nil, ErrUnknownModel
	}
	return r.put(key, bytes.Clone(raw)), nil // the caller's buffer is theirs to reuse
}

// load returns ref's model, parsing it if this is the first job to need it.
// The bool reports whether the caller was spared the parse (a hit, or a
// join of a parse in flight); the outcome lands on ctx's span as a
// model.hit / model.miss / model.singleflight_join event.
func (r *modelRegistry) load(ctx context.Context, ref *modelRef) (kgc.Model, bool, error) {
	key := ref.Key()
	v, o, err := r.lru.Resolve(ref,
		func(o lru.Outcome) {
			trace.FromContext(ctx).Event("model."+o.String(),
				trace.String("model", key.Name), trace.String("model_id", key.ID))
		},
		func(seed registered) (registered, error) { return r.parse(key, seed.raw) })
	return v.model, o != lru.Miss, panicked("loading "+key.Name+" snapshot", err)
}

// parse is the registry's build function, the one place a snapshot becomes a
// model. Bytes of another length than the model's snapshot are refused
// before the model is allocated, so what a model costs is what its slot
// charges. A panic (a snapshot driving a constructor into an impossible
// state) becomes the slot's error, carrying the stack, so it fails the jobs
// that named the model instead of wedging everyone waiting on the slot.
func (r *modelRegistry) parse(key modelKey, raw []byte) (registered, error) {
	want, err := kgc.SnapshotBytes(key.Name, r.graph, key.Dim)
	if err == nil && int64(len(raw)) != want {
		err = fmt.Errorf("%d bytes, a %s model at dim %d saves %d", len(raw), key.Name, key.Dim, want)
	}
	if err != nil {
		return registered{}, fmt.Errorf("service: loading %s snapshot: %w", key.Name, err)
	}
	m, err := kgc.New(key.Name, r.graph, key.Dim, key.Seed)
	if err != nil {
		return registered{}, err
	}
	if err := kgc.Load(bytes.NewReader(raw), m); err != nil {
		return registered{}, fmt.Errorf("service: loading %s snapshot: %w", key.Name, err)
	}
	return registered{model: m}, nil
}

// maxUploadReserve caps what an upload, raw or inline, allocates on the
// strength of a declared length alone; past it the buffer grows as bytes
// actually arrive.
const maxUploadReserve = 16 << 20

// PutModel registers a model ahead of the jobs that will evaluate it: it
// reads kgc.Save bytes from r (size is the expected length, or ≤ 0 when
// unknown), hashing them as they arrive, and files them under the
// constructor arguments ms.Name, ms.Dim and ms.Seed. It returns the id jobs
// with those arguments name in ModelSpec.ModelID, plus the byte count. An
// inline ModelSpec.Snapshot is sugar for the same step and yields the same
// id.
func (e *Engine) PutModel(ms ModelSpec, r io.Reader, size int64) (string, int64, error) {
	if err := validateModelArgs(ms, e.graph); err != nil {
		return "", 0, fmt.Errorf("service: %w", err)
	}
	if e.Draining() {
		return "", 0, ErrDraining
	}
	limit := e.models.lru.Stats().Cap
	if size > limit {
		return "", 0, ErrModelTooLarge
	}
	var buf bytes.Buffer
	if size > 0 {
		buf.Grow(int(min(size, maxUploadReserve)) + bytes.MinRead)
	}
	h := sha256.New()
	n, err := buf.ReadFrom(io.TeeReader(r, h))
	switch {
	case err != nil:
		return "", n, fmt.Errorf("service: reading model: %w", err)
	case n == 0:
		return "", 0, errors.New("service: empty model upload")
	case n > limit:
		return "", n, ErrModelTooLarge
	}
	id := hex.EncodeToString(h.Sum(nil))
	e.models.put(modelKey{ID: id, Name: ms.Name, Dim: ms.Dim, Seed: ms.Seed}, buf.Bytes())
	return id, n, nil
}

// ModelCacheStats reports the model registry's cumulative traffic and
// current occupancy. Hits counts every load served without a parse;
// SingleFlight is the subset that waited on a parse in flight. Entries and
// Bytes include uploads no job has named yet.
type ModelCacheStats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	SingleFlight int64 `json:"singleflight"`
	Evictions    int64 `json:"evictions"`
	Entries      int   `json:"entries"`
	Bytes        int64 `json:"bytes"`
	CapBytes     int64 `json:"cap_bytes"`
}

func (r *modelRegistry) stats() ModelCacheStats {
	s := r.lru.Stats()
	return ModelCacheStats{
		Hits: s.Hits, Misses: s.Misses, SingleFlight: s.Joins, Evictions: s.Evictions,
		Entries: s.Entries, Bytes: s.Used, CapBytes: s.Cap,
	}
}
