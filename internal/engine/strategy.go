// Package engine runs distributed SGD training in-process with simulated
// stragglers, under any of the four schemes the paper compares
// (Sec. VIII): synchronous SGD, classic gradient coding (GC), ignore-
// straggler SGD (IS-SGD), and IS-GC over FR/CR/HR placements. It is the
// workhorse behind the Fig. 12 and Fig. 13 reproductions.
package engine

import (
	"fmt"

	"isgc/internal/bitset"
	"isgc/internal/gc"
	"isgc/internal/isgc"
	"isgc/internal/linalg"
	"isgc/internal/placement"
)

// Strategy abstracts one straggler-mitigation scheme: how partitions are
// placed on workers, how many workers the master waits for, and how the
// master recovers a gradient from the coded gradients it received.
//
// Recover returns the recovered gradient ĝ (the plain sum over the
// recovered partitions' mean gradients) and the number of partitions it
// covers; the engine normalizes ĝ by that count so every scheme performs
// an unbiased estimate of the global mean gradient (Assumption 2 of the
// paper), making step counts comparable across schemes.
type Strategy interface {
	// Name identifies the scheme in experiment output, e.g. "IS-GC-FR".
	Name() string
	// N returns the number of workers (== partitions).
	N() int
	// C returns the number of partitions per worker.
	C() int
	// Partitions returns the partitions stored on worker i.
	Partitions(i int) []int
	// WaitFor returns how many of the n workers the master must wait for,
	// given the experimenter's target w. Rigid schemes ignore w: Sync-SGD
	// needs all n, classic GC needs exactly n-c+1. Flexible schemes clamp
	// w into [1, n].
	WaitFor(w int) int
	// Recover decodes the coded gradients of the available workers;
	// coded[i] is nil for stragglers. It returns the recovered gradient ĝ
	// and the sorted list of partitions it covers. ĝ is freshly allocated
	// and Recover keeps no reference to coded: the cluster master reuses
	// those vectors as gather buffers once Recover returns.
	Recover(avail *bitset.Set, coded [][]float64) (ghat []float64, parts []int, err error)
	// Encode computes worker i's coded upload from the per-partition mean
	// gradients (only the worker's own partitions are read).
	Encode(worker int, grads [][]float64) ([]float64, error)
}

// syncSGD is plain synchronous SGD: c = 1, wait for everyone.
type syncSGD struct {
	n int
}

// NewSyncSGD returns the synchronous SGD baseline.
func NewSyncSGD(n int) (Strategy, error) {
	if n <= 0 {
		return nil, fmt.Errorf("engine: need n > 0, got %d", n)
	}
	return &syncSGD{n: n}, nil
}

func (s *syncSGD) Name() string           { return "Sync-SGD" }
func (s *syncSGD) N() int                 { return s.n }
func (s *syncSGD) C() int                 { return 1 }
func (s *syncSGD) Partitions(i int) []int { return []int{i} }
func (s *syncSGD) WaitFor(int) int        { return s.n }

func (s *syncSGD) Encode(worker int, grads [][]float64) ([]float64, error) {
	if worker < 0 || worker >= s.n {
		return nil, fmt.Errorf("engine: worker %d out of range", worker)
	}
	return linalg.CloneVec(grads[worker]), nil
}

func (s *syncSGD) Recover(avail *bitset.Set, coded [][]float64) ([]float64, []int, error) {
	if avail.Len() != s.n {
		return nil, nil, fmt.Errorf("engine: Sync-SGD needs all %d workers, got %d", s.n, avail.Len())
	}
	var ghat []float64
	for i := 0; i < s.n; i++ {
		if coded[i] == nil {
			return nil, nil, fmt.Errorf("engine: Sync-SGD missing gradient from worker %d", i)
		}
		if ghat == nil {
			ghat = make([]float64, len(coded[i]))
		}
		linalg.AddTo(ghat, coded[i])
	}
	return ghat, allPartitions(s.n), nil
}

// isSGD is ignore-straggler SGD (k-sync SGD): c = 1, sum whatever arrived.
type isSGD struct {
	n int
}

// NewISSGD returns the IS-SGD baseline (Sec. I, Fig. 1(c)).
func NewISSGD(n int) (Strategy, error) {
	if n <= 0 {
		return nil, fmt.Errorf("engine: need n > 0, got %d", n)
	}
	return &isSGD{n: n}, nil
}

func (s *isSGD) Name() string           { return "IS-SGD" }
func (s *isSGD) N() int                 { return s.n }
func (s *isSGD) C() int                 { return 1 }
func (s *isSGD) Partitions(i int) []int { return []int{i} }

func (s *isSGD) WaitFor(w int) int { return clampW(w, s.n) }

func (s *isSGD) Encode(worker int, grads [][]float64) ([]float64, error) {
	if worker < 0 || worker >= s.n {
		return nil, fmt.Errorf("engine: worker %d out of range", worker)
	}
	return linalg.CloneVec(grads[worker]), nil
}

func (s *isSGD) Recover(avail *bitset.Set, coded [][]float64) ([]float64, []int, error) {
	var ghat []float64
	var parts []int
	var err error
	avail.Range(func(i int) bool {
		if i >= s.n || coded[i] == nil {
			err = fmt.Errorf("engine: IS-SGD missing gradient from available worker %d", i)
			return false
		}
		if ghat == nil {
			ghat = make([]float64, len(coded[i]))
		}
		linalg.AddTo(ghat, coded[i])
		parts = append(parts, i) // worker i's sole partition is i
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	return ghat, parts, nil
}

// classicGC wraps the Tandon-style gradient code.
type classicGC struct {
	code *gc.Code
}

// NewClassicGC returns the classic GC baseline over an FR or CR placement.
func NewClassicGC(code *gc.Code) (Strategy, error) {
	if code == nil {
		return nil, fmt.Errorf("engine: nil gc code")
	}
	return &classicGC{code: code}, nil
}

func (s *classicGC) Name() string {
	return fmt.Sprintf("GC-%s", s.code.Placement().Kind())
}
func (s *classicGC) N() int                 { return s.code.Placement().N() }
func (s *classicGC) C() int                 { return s.code.Placement().C() }
func (s *classicGC) Partitions(i int) []int { return s.code.Placement().Partitions(i) }

// WaitFor ignores the target w: classic GC only works at exactly n-c+1.
func (s *classicGC) WaitFor(int) int { return s.code.MinWorkers() }

func (s *classicGC) Encode(worker int, grads [][]float64) ([]float64, error) {
	return s.code.Encode(worker, grads)
}

func (s *classicGC) Recover(avail *bitset.Set, coded [][]float64) ([]float64, []int, error) {
	ghat, err := s.code.Decode(avail, coded)
	if err != nil {
		return nil, nil, err
	}
	return ghat, allPartitions(s.N()), nil
}

// isGC wraps the paper's scheme.
type isGC struct {
	scheme *isgc.Scheme
}

// NewISGC returns the IS-GC strategy over any placement (FR, CR, or HR).
func NewISGC(scheme *isgc.Scheme) (Strategy, error) {
	if scheme == nil {
		return nil, fmt.Errorf("engine: nil isgc scheme")
	}
	return &isGC{scheme: scheme}, nil
}

func (s *isGC) Name() string {
	p := s.scheme.Placement()
	if p.Kind() == placement.KindHR {
		return fmt.Sprintf("IS-GC-HR(c1=%d,c2=%d)", p.C1(), p.C2())
	}
	return fmt.Sprintf("IS-GC-%s", p.Kind())
}
func (s *isGC) N() int                 { return s.scheme.Placement().N() }
func (s *isGC) C() int                 { return s.scheme.Placement().C() }
func (s *isGC) Partitions(i int) []int { return s.scheme.Placement().Partitions(i) }

func (s *isGC) WaitFor(w int) int { return clampW(w, s.N()) }

// isGC implements DecodeCacher by forwarding to the wrapped scheme: IS-GC
// decode depends only on the availability mask, so memoization is sound.

func (s *isGC) EnableDecodeCache(capacity int)           { s.scheme.EnableDecodeCache(capacity) }
func (s *isGC) SetDecodeCacheHooks(onHit, onMiss func()) { s.scheme.SetDecodeCacheHooks(onHit, onMiss) }
func (s *isGC) DecodeCacheStats() (hits, misses uint64)  { return s.scheme.DecodeCacheStats() }

// isGC also implements IncrementalDecoder by forwarding to the scheme's
// repair path (see isgc/incremental.go).
func (s *isGC) EnableIncrementalDecode() { s.scheme.EnableIncrementalDecode() }
func (s *isGC) SetIncrementalHooks(onRepair, onFallback func()) {
	s.scheme.SetIncrementalHooks(onRepair, onFallback)
}
func (s *isGC) IncrementalDecodeCounts() (repairs, fallbacks, fullSolves, cacheSyncs uint64) {
	st := s.scheme.IncrementalDecodeStats()
	return st.Repairs, st.Fallbacks, st.FullSolves, st.CacheSyncs
}

// isGC implements RandStateful so checkpoints capture the decoder's
// tie-break stream position and restores are bit-exact.

func (s *isGC) RandState() (seed int64, draws uint64)     { return s.scheme.RandState() }
func (s *isGC) RestoreRandState(seed int64, draws uint64) { s.scheme.RestoreRandState(seed, draws) }

func (s *isGC) Encode(worker int, grads [][]float64) ([]float64, error) {
	return s.scheme.Encode(worker, grads)
}

func (s *isGC) Recover(avail *bitset.Set, coded [][]float64) ([]float64, []int, error) {
	ghat, parts, _, err := s.scheme.DecodeAndAggregate(avail, coded)
	if err != nil {
		return nil, nil, err
	}
	if ghat == nil {
		return nil, nil, fmt.Errorf("engine: IS-GC recovered nothing (no available workers)")
	}
	return ghat, parts.Slice(), nil
}

func allPartitions(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func clampW(w, n int) int {
	if w < 1 {
		return 1
	}
	if w > n {
		return n
	}
	return w
}
