// Package model provides the differentiable models used as training
// workloads: linear regression, logistic regression, softmax regression,
// and a one-hidden-layer MLP (the repo's stand-in for the paper's
// ResNet-18 — see DESIGN.md for the substitution rationale). Each model
// exposes a flat parameter vector and computes loss and gradient on a batch
// of samples, which is exactly the interface the distributed engine and
// the IS-GC encoders need: gradients are plain []float64 vectors that can
// be encoded by summation.
package model

import (
	"fmt"
	"math"
	"math/rand"

	"isgc/internal/dataset"
)

// Model is a supervised model with a flat parameter vector.
//
// Grad computes the *mean* gradient of the loss over the batch with respect
// to the parameters, evaluated at params; Loss computes the mean loss.
// Implementations must not retain or mutate the inputs.
type Model interface {
	// Dim returns the length of the flat parameter vector.
	Dim() int
	// InitParams returns a fresh initial parameter vector drawn with the
	// given seed (the paper uses identical seeds across schemes so every
	// scheme starts from the same parameters).
	InitParams(seed int64) []float64
	// Loss returns the mean loss of params on the batch.
	Loss(params []float64, batch []dataset.Sample) float64
	// Grad returns the mean gradient of the loss on the batch. The result
	// is freshly allocated; hot paths should prefer GradInto.
	Grad(params []float64, batch []dataset.Sample) []float64
	// GradInto computes the mean gradient of the loss on the batch into
	// dst, which must have length Dim(); dst is zeroed first. The result
	// is bit-identical to Grad. Implementations draw any internal scratch
	// from the package buffer pool, so the steady-state path allocates
	// nothing.
	GradInto(dst, params []float64, batch []dataset.Sample)
	// String names the model for logs.
	String() string
}

// Classifier is implemented by models whose targets are class indices;
// Predict returns the argmax class for one input. The engine records
// training accuracy for Classifier models.
type Classifier interface {
	Model
	// Predict returns the predicted class index for x under params.
	Predict(params []float64, x []float64) int
}

// Accuracy returns the fraction of batch samples the classifier labels
// correctly (0 for an empty batch).
func Accuracy(c Classifier, params []float64, batch []dataset.Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	correct := 0
	for _, s := range batch {
		if c.Predict(params, s.X) == int(s.Y) {
			correct++
		}
	}
	return float64(correct) / float64(len(batch))
}

// LinearRegression is least-squares regression: loss = ½·mean (⟨θ, x⟩ − y)².
type LinearRegression struct {
	// Features is the input dimension p; Dim() == p.
	Features int
}

// Dim implements Model.
func (m LinearRegression) Dim() int { return m.Features }

// InitParams implements Model.
func (m LinearRegression) InitParams(seed int64) []float64 {
	return gaussianInit(m.Dim(), 0.01, seed)
}

// Loss implements Model.
func (m LinearRegression) Loss(params []float64, batch []dataset.Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range batch {
		r := dotFeatures(params, s.X) - s.Y
		sum += 0.5 * r * r
	}
	return sum / float64(len(batch))
}

// Grad implements Model.
func (m LinearRegression) Grad(params []float64, batch []dataset.Sample) []float64 {
	g := make([]float64, m.Dim())
	m.GradInto(g, params, batch)
	return g
}

// GradInto implements Model.
func (m LinearRegression) GradInto(g, params []float64, batch []dataset.Sample) {
	checkGradDim(len(g), m.Dim())
	zeroVec(g)
	if len(batch) == 0 {
		return
	}
	for _, s := range batch {
		r := dotFeatures(params, s.X) - s.Y
		for j, x := range s.X {
			g[j] += r * x
		}
	}
	inv := 1 / float64(len(batch))
	for j := range g {
		g[j] *= inv
	}
}

// String implements Model.
func (m LinearRegression) String() string { return fmt.Sprintf("linreg(p=%d)", m.Features) }

// LogisticRegression is binary classification with the logistic loss;
// labels must be 0 or 1.
type LogisticRegression struct {
	Features int
}

// Dim implements Model.
func (m LogisticRegression) Dim() int { return m.Features }

// InitParams implements Model.
func (m LogisticRegression) InitParams(seed int64) []float64 {
	return gaussianInit(m.Dim(), 0.01, seed)
}

// Loss implements Model.
func (m LogisticRegression) Loss(params []float64, batch []dataset.Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range batch {
		z := dotFeatures(params, s.X)
		// Numerically stable log(1 + e^{-yz}) with y ∈ {±1}.
		yz := z
		if s.Y < 0.5 {
			yz = -z
		}
		sum += math.Log1p(math.Exp(-abs(yz))) + max0(-yz)
	}
	return sum / float64(len(batch))
}

// Grad implements Model.
func (m LogisticRegression) Grad(params []float64, batch []dataset.Sample) []float64 {
	g := make([]float64, m.Dim())
	m.GradInto(g, params, batch)
	return g
}

// GradInto implements Model.
func (m LogisticRegression) GradInto(g, params []float64, batch []dataset.Sample) {
	checkGradDim(len(g), m.Dim())
	zeroVec(g)
	if len(batch) == 0 {
		return
	}
	for _, s := range batch {
		p := sigmoid(dotFeatures(params, s.X))
		diff := p - s.Y
		for j, x := range s.X {
			g[j] += diff * x
		}
	}
	inv := 1 / float64(len(batch))
	for j := range g {
		g[j] *= inv
	}
}

// Predict implements Classifier: class 1 iff the logit is non-negative.
func (m LogisticRegression) Predict(params []float64, x []float64) int {
	if dotFeatures(params, x) >= 0 {
		return 1
	}
	return 0
}

// String implements Model.
func (m LogisticRegression) String() string { return fmt.Sprintf("logreg(p=%d)", m.Features) }

// SoftmaxRegression is multinomial logistic regression over Classes
// classes with cross-entropy loss. Parameters are a row-major
// Classes×Features weight matrix. Y is the class index.
type SoftmaxRegression struct {
	Features int
	Classes  int
}

// Dim implements Model.
func (m SoftmaxRegression) Dim() int { return m.Features * m.Classes }

// InitParams implements Model.
func (m SoftmaxRegression) InitParams(seed int64) []float64 {
	return gaussianInit(m.Dim(), 0.01, seed)
}

// logitsInto fills z (length Classes) with the class logits of x — the
// scratch-reusing replacement for the old per-sample allocation.
func (m SoftmaxRegression) logitsInto(z, params []float64, x []float64) {
	for k := 0; k < m.Classes; k++ {
		z[k] = dotFeatures(params[k*m.Features:(k+1)*m.Features], x)
	}
}

// Loss implements Model.
func (m SoftmaxRegression) Loss(params []float64, batch []dataset.Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	zp := getVec(m.Classes)
	z := *zp
	defer putVec(zp)
	sum := 0.0
	for _, s := range batch {
		m.logitsInto(z, params, s.X)
		lse := logSumExp(z)
		sum += lse - z[int(s.Y)]
	}
	return sum / float64(len(batch))
}

// Grad implements Model.
func (m SoftmaxRegression) Grad(params []float64, batch []dataset.Sample) []float64 {
	g := make([]float64, m.Dim())
	m.GradInto(g, params, batch)
	return g
}

// GradInto implements Model.
func (m SoftmaxRegression) GradInto(g, params []float64, batch []dataset.Sample) {
	checkGradDim(len(g), m.Dim())
	zeroVec(g)
	if len(batch) == 0 {
		return
	}
	zp := getVec(m.Classes)
	z := *zp
	defer putVec(zp)
	for _, s := range batch {
		m.logitsInto(z, params, s.X)
		softmaxInPlace(z)
		y := int(s.Y)
		for k := 0; k < m.Classes; k++ {
			diff := z[k]
			if k == y {
				diff -= 1
			}
			row := g[k*m.Features : (k+1)*m.Features]
			for j, x := range s.X {
				row[j] += diff * x
			}
		}
	}
	inv := 1 / float64(len(batch))
	for j := range g {
		g[j] *= inv
	}
}

// Predict implements Classifier: the argmax logit.
func (m SoftmaxRegression) Predict(params []float64, x []float64) int {
	zp := getVec(m.Classes)
	z := *zp
	defer putVec(zp)
	m.logitsInto(z, params, x)
	return argmax(z)
}

// String implements Model.
func (m SoftmaxRegression) String() string {
	return fmt.Sprintf("softmax(p=%d,k=%d)", m.Features, m.Classes)
}

// MLP is a one-hidden-layer network with tanh activation and softmax
// output — the deepest workload here, standing in for ResNet-18. The
// parameter layout is [W1 (Hidden×Features) | b1 (Hidden) |
// W2 (Classes×Hidden) | b2 (Classes)].
type MLP struct {
	Features int
	Hidden   int
	Classes  int
}

// Dim implements Model.
func (m MLP) Dim() int {
	return m.Hidden*m.Features + m.Hidden + m.Classes*m.Hidden + m.Classes
}

// InitParams implements Model.
func (m MLP) InitParams(seed int64) []float64 {
	// Xavier-style scaling per layer.
	rng := rand.New(rand.NewSource(seed))
	p := make([]float64, m.Dim())
	s1 := math.Sqrt(2 / float64(m.Features+m.Hidden))
	s2 := math.Sqrt(2 / float64(m.Hidden+m.Classes))
	o := 0
	for i := 0; i < m.Hidden*m.Features; i++ {
		p[o] = s1 * rng.NormFloat64()
		o++
	}
	o += m.Hidden // b1 zero
	for i := 0; i < m.Classes*m.Hidden; i++ {
		p[o] = s2 * rng.NormFloat64()
		o++
	}
	return p
}

func (m MLP) slices(params []float64) (w1, b1, w2, b2 []float64) {
	o := 0
	w1 = params[o : o+m.Hidden*m.Features]
	o += m.Hidden * m.Features
	b1 = params[o : o+m.Hidden]
	o += m.Hidden
	w2 = params[o : o+m.Classes*m.Hidden]
	o += m.Classes * m.Hidden
	b2 = params[o : o+m.Classes]
	return w1, b1, w2, b2
}

// forwardInto fills h (length Hidden) and z (length Classes) with the
// hidden activations and output logits of x. Predict uses it; Loss and
// GradInto push samples through forwardBlock instead.
func (m MLP) forwardInto(h, z, params []float64, x []float64) {
	w1, b1, w2, b2 := m.slices(params)
	for i := 0; i < m.Hidden; i++ {
		h[i] = math.Tanh(dotFeatures(w1[i*m.Features:(i+1)*m.Features], x) + b1[i])
	}
	for k := 0; k < m.Classes; k++ {
		z[k] = dotFeatures(w2[k*m.Hidden:(k+1)*m.Hidden], h) + b2[k]
	}
}

// mlpBlock is the number of samples Loss and GradInto push through the
// layers together. Each weight load feeds mlpBlock independent
// accumulators, one per sample, so the CPU runs mlpBlock dependency
// chains instead of one. Every per-sample sum and every per-element
// gradient accumulation keeps the per-sample kernel's order, so the bits
// are the same (DESIGN.md "Compute pipeline → Kernels").
const mlpBlock = 4

// forwardBlock fills h (length mlpBlock·Hidden) and z (length
// mlpBlock·Classes) with the hidden activations and output logits of the
// 1..mlpBlock samples of blk: lane l at h[l·Hidden:] and z[l·Classes:].
// A short block repeats its last sample in the spare lanes, whose results
// the callers ignore. Each lane sums over j in dotFeatures' order and adds
// its own bias, so its values equal forwardInto's bit for bit.
func (m MLP) forwardBlock(h, z, params []float64, blk []dataset.Sample) {
	w1, b1, w2, b2 := m.slices(params)
	f, hid, c := m.Features, m.Hidden, m.Classes
	last := len(blk) - 1
	x0 := blk[0].X[:f]
	x1 := blk[min(1, last)].X[:f]
	x2 := blk[min(2, last)].X[:f]
	x3 := blk[min(3, last)].X[:f]
	h0, h1, h2, h3 := h[:hid], h[hid:2*hid], h[2*hid:3*hid], h[3*hid:4*hid]
	for i := range h0 {
		w := w1[i*f : (i+1)*f]
		var s0, s1, s2, s3 float64
		for j, wj := range w {
			s0 += wj * x0[j]
			s1 += wj * x1[j]
			s2 += wj * x2[j]
			s3 += wj * x3[j]
		}
		bi := b1[i]
		h0[i] = math.Tanh(s0 + bi)
		h1[i] = math.Tanh(s1 + bi)
		h2[i] = math.Tanh(s2 + bi)
		h3[i] = math.Tanh(s3 + bi)
	}
	for k := 0; k < c; k++ {
		w := w2[k*hid : (k+1)*hid]
		var s0, s1, s2, s3 float64
		for i, wi := range w {
			s0 += wi * h0[i]
			s1 += wi * h1[i]
			s2 += wi * h2[i]
			s3 += wi * h3[i]
		}
		bk := b2[k]
		z[k] = s0 + bk
		z[c+k] = s1 + bk
		z[2*c+k] = s2 + bk
		z[3*c+k] = s3 + bk
	}
}

// Loss implements Model.
func (m MLP) Loss(params []float64, batch []dataset.Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	hp, zp := getVec(mlpBlock*m.Hidden), getVec(mlpBlock*m.Classes)
	h, z := *hp, *zp
	defer putVec(hp)
	defer putVec(zp)
	sum := 0.0
	for b := 0; b < len(batch); b += mlpBlock {
		blk := batch[b:min(b+mlpBlock, len(batch))]
		m.forwardBlock(h, z, params, blk)
		for l, s := range blk {
			zl := z[l*m.Classes : (l+1)*m.Classes]
			sum += logSumExp(zl) - zl[int(s.Y)]
		}
	}
	return sum / float64(len(batch))
}

// Grad implements Model.
func (m MLP) Grad(params []float64, batch []dataset.Sample) []float64 {
	g := make([]float64, m.Dim())
	m.GradInto(g, params, batch)
	return g
}

// GradInto implements Model.
func (m MLP) GradInto(g, params []float64, batch []dataset.Sample) {
	checkGradDim(len(g), m.Dim())
	zeroVec(g)
	if len(batch) == 0 {
		return
	}
	hp, zp := getVec(mlpBlock*m.Hidden), getVec(mlpBlock*m.Classes)
	h, z := *hp, *zp
	defer putVec(hp)
	defer putVec(zp)
	for b := 0; b < len(batch); b += mlpBlock {
		blk := batch[b:min(b+mlpBlock, len(batch))]
		m.forwardBlock(h, z, params, blk)
		// softmaxInPlace turns each lane's logits into probabilities;
		// subtracting the one-hot target turns them into dz without
		// another buffer.
		for l, s := range blk {
			dz := z[l*m.Classes : (l+1)*m.Classes]
			softmaxInPlace(dz)
			dz[int(s.Y)] -= 1
		}
		if len(blk) == mlpBlock {
			m.backwardBlock(g, params, h, z, blk)
			continue
		}
		// A short block adds only its real lanes, one sample at a time:
		// the padding lanes hold logits, not deltas, and must never
		// reach g.
		for l, s := range blk {
			m.backwardSample(g, params, h[l*m.Hidden:(l+1)*m.Hidden], z[l*m.Classes:(l+1)*m.Classes], s.X)
		}
	}
	inv := 1 / float64(len(batch))
	for j := range g {
		g[j] *= inv
	}
}

// backwardBlock adds the gradients of the mlpBlock samples of blk, whose
// activations h and output deltas dz forwardBlock and GradInto filled,
// into g. Every element takes the samples in batch order, left to right,
// exactly as mlpBlock calls of backwardSample would.
func (m MLP) backwardBlock(g, params, h, dz []float64, blk []dataset.Sample) {
	f, hid, c := m.Features, m.Hidden, m.Classes
	gW1, gB1, gW2, gB2 := m.slices(g)
	_, _, w2, _ := m.slices(params)
	x0, x1, x2, x3 := blk[0].X[:f], blk[1].X[:f], blk[2].X[:f], blk[3].X[:f]
	h0, h1, h2, h3 := h[:hid], h[hid:2*hid], h[2*hid:3*hid], h[3*hid:4*hid]
	dz0, dz1, dz2, dz3 := dz[:c], dz[c:2*c], dz[2*c:3*c], dz[3*c:4*c]
	// Output layer.
	for k := 0; k < c; k++ {
		d0, d1, d2, d3 := dz0[k], dz1[k], dz2[k], dz3[k]
		row := gW2[k*hid : (k+1)*hid]
		for i := range row {
			row[i] = row[i] + d0*h0[i] + d1*h1[i] + d2*h2[i] + d3*h3[i]
		}
		gB2[k] = gB2[k] + d0 + d1 + d2 + d3
	}
	// Hidden layer: dh = W2ᵀ dz, through tanh'.
	for i := 0; i < hid; i++ {
		var dh0, dh1, dh2, dh3 float64
		for k := 0; k < c; k++ {
			w := w2[k*hid+i]
			dh0 += w * dz0[k]
			dh1 += w * dz1[k]
			dh2 += w * dz2[k]
			dh3 += w * dz3[k]
		}
		da0 := dh0 * (1 - h0[i]*h0[i])
		da1 := dh1 * (1 - h1[i]*h1[i])
		da2 := dh2 * (1 - h2[i]*h2[i])
		da3 := dh3 * (1 - h3[i]*h3[i])
		row := gW1[i*f : (i+1)*f]
		for j := range row {
			row[j] = row[j] + da0*x0[j] + da1*x1[j] + da2*x2[j] + da3*x3[j]
		}
		gB1[i] = gB1[i] + da0 + da1 + da2 + da3
	}
}

// backwardSample adds one sample's gradient into g, given its hidden
// activations h and output delta dz: the per-sample backward pass.
func (m MLP) backwardSample(g, params, h, dz, x []float64) {
	gW1, gB1, gW2, gB2 := m.slices(g)
	_, _, w2, _ := m.slices(params)
	// Output layer.
	for k := 0; k < m.Classes; k++ {
		row := gW2[k*m.Hidden : (k+1)*m.Hidden]
		for i, hi := range h {
			row[i] += dz[k] * hi
		}
		gB2[k] += dz[k]
	}
	// Hidden layer: dh = W2ᵀ dz, through tanh'.
	for i := 0; i < m.Hidden; i++ {
		dh := 0.0
		for k := 0; k < m.Classes; k++ {
			dh += w2[k*m.Hidden+i] * dz[k]
		}
		da := dh * (1 - h[i]*h[i])
		row := gW1[i*m.Features : (i+1)*m.Features]
		for j, xj := range x {
			row[j] += da * xj
		}
		gB1[i] += da
	}
}

// Predict implements Classifier: the argmax output logit.
func (m MLP) Predict(params []float64, x []float64) int {
	hp, zp := getVec(m.Hidden), getVec(m.Classes)
	h, z := *hp, *zp
	defer putVec(hp)
	defer putVec(zp)
	m.forwardInto(h, z, params, x)
	return argmax(z)
}

// String implements Model.
func (m MLP) String() string {
	return fmt.Sprintf("mlp(p=%d,h=%d,k=%d)", m.Features, m.Hidden, m.Classes)
}

// Helpers ----------------------------------------------------------------

// dotFeatures is Dot over the leading len(x) coordinates of w (w may be a
// row slice of a larger parameter block).
func dotFeatures(w, x []float64) float64 {
	s := 0.0
	for j, xj := range x {
		s += w[j] * xj
	}
	return s
}

func gaussianInit(n int, scale float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	p := make([]float64, n)
	for i := range p {
		p[i] = scale * rng.NormFloat64()
	}
	return p
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

func logSumExp(z []float64) float64 {
	m := z[0]
	for _, v := range z[1:] {
		if v > m {
			m = v
		}
	}
	s := 0.0
	for _, v := range z {
		s += math.Exp(v - m)
	}
	return m + math.Log(s)
}

// softmaxInPlace overwrites the logits z with their softmax
// probabilities, using the same max-shifted arithmetic as the old
// allocating softmax so results are bit-identical.
func softmaxInPlace(z []float64) {
	m := z[0]
	for _, v := range z[1:] {
		if v > m {
			m = v
		}
	}
	s := 0.0
	for i, v := range z {
		z[i] = math.Exp(v - m)
		s += z[i]
	}
	for i := range z {
		z[i] /= s
	}
}

// checkGradDim guards the GradInto contract: dst must already have the
// model's full dimension so implementations can slice it without bounds
// surprises.
func checkGradDim(got, want int) {
	if got != want {
		panic(fmt.Sprintf("model: GradInto dst has length %d, want %d", got, want))
	}
}

func argmax(z []float64) int {
	best := 0
	for i, v := range z[1:] {
		if v > z[best] {
			best = i + 1
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func max0(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}
