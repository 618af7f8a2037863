package isgc

import (
	"fmt"

	"isgc/internal/bitset"
	"isgc/internal/linalg"
)

// Encode computes worker i's coded gradient: the plain sum of the gradient
// vectors of its c partitions (Sec. IV — all-ones coefficients are what
// make arbitrary-subset decoding possible). grads[d] is the gradient on
// partition d; all vectors must have the same dimension. The result is a
// freshly allocated vector.
func (s *Scheme) Encode(worker int, grads [][]float64) ([]float64, error) {
	if worker < 0 || worker >= s.p.N() {
		return nil, fmt.Errorf("isgc: worker %d out of range [0,%d)", worker, s.p.N())
	}
	if len(grads) != s.p.N() {
		return nil, fmt.Errorf("isgc: got %d partition gradients, want %d", len(grads), s.p.N())
	}
	parts := s.p.Partitions(worker)
	dim := len(grads[parts[0]])
	vs := make([][]float64, len(parts))
	for j, d := range parts {
		if len(grads[d]) != dim {
			return nil, fmt.Errorf("isgc: partition %d gradient dim %d ≠ %d", d, len(grads[d]), dim)
		}
		vs[j] = grads[d]
	}
	out := make([]float64, dim)
	linalg.SumInto(out, vs)
	return out, nil
}

// EncodePartial computes worker i's coded gradient from only the gradients
// it can locally see: local[j] is the gradient of the worker's j-th
// partition (j indexes Partitions(worker)). This is the form a real worker
// uses — it never holds gradients for partitions it does not store.
func (s *Scheme) EncodePartial(worker int, local [][]float64) ([]float64, error) {
	if worker < 0 || worker >= s.p.N() {
		return nil, fmt.Errorf("isgc: worker %d out of range [0,%d)", worker, s.p.N())
	}
	if len(local) != s.p.C() {
		return nil, fmt.Errorf("isgc: worker %d got %d local gradients, want c=%d", worker, len(local), s.p.C())
	}
	dim := len(local[0])
	for j, g := range local {
		if len(g) != dim {
			return nil, fmt.Errorf("isgc: local gradient %d dim %d ≠ %d", j, len(g), dim)
		}
	}
	out := make([]float64, dim)
	linalg.SumInto(out, local)
	return out, nil
}

// Aggregate sums the coded gradients of the decoded worker set I into the
// recovered gradient ĝ = Σ_{i∈I} coded[i]. coded[i] may be nil for workers
// outside I (stragglers whose gradients never arrived). It returns ĝ,
// freshly allocated, and the set of partitions it covers. Every chosen
// vector is checked before ĝ is summed in one linalg.SumInto call.
func (s *Scheme) Aggregate(chosen *bitset.Set, coded [][]float64) ([]float64, *bitset.Set, error) {
	if chosen.Empty() {
		return nil, bitset.New(s.p.N()), nil
	}
	vs := make([][]float64, 0, chosen.Len())
	var err error
	chosen.Range(func(i int) bool {
		if i >= len(coded) || coded[i] == nil {
			err = fmt.Errorf("isgc: chosen worker %d has no coded gradient", i)
			return false
		}
		if len(vs) > 0 && len(coded[i]) != len(vs[0]) {
			err = fmt.Errorf("isgc: worker %d coded gradient dim %d ≠ %d", i, len(coded[i]), len(vs[0]))
			return false
		}
		vs = append(vs, coded[i])
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	ghat := make([]float64, len(vs[0]))
	linalg.SumInto(ghat, vs)
	return ghat, s.Recovered(chosen), nil
}

// DecodeAndAggregate runs the full master-side step: decode the available
// set, then aggregate the corresponding coded gradients. It returns the
// recovered gradient ĝ (nil when no worker is available), the partition set
// it covers, and the chosen worker set I.
func (s *Scheme) DecodeAndAggregate(available *bitset.Set, coded [][]float64) (ghat []float64, parts, chosen *bitset.Set, err error) {
	chosen = s.Decode(available)
	ghat, parts, err = s.Aggregate(chosen, coded)
	if err != nil {
		return nil, nil, nil, err
	}
	return ghat, parts, chosen, nil
}
