// Package nn implements the paper's error detector: a two-hidden-layer
// multilayer perceptron with ReLU activations and a sigmoid output, trained
// with the binary cross-entropy objective of Section III-D using Adam and
// mini-batches. It is written from scratch on float64 slices — no external
// ML dependencies — and is deterministic for a given seed and any worker
// count: TrainFlat can spread each minibatch over a gang of workers
// (Parallel), and the trained weights are bit-identical to serial training.
//
// All weight matrices live in flat row-major []float64 buffers: layer i's
// row r occupies w[r*cols : (r+1)*cols]. The training loop updates those
// buffers in place (no flatten/unflatten round-trips), and inference
// (Predict / PredictBatch / PredictInto) is allocation-free in steady
// state, drawing activation scratch from an internal pool so that many
// goroutines can score against one fitted model concurrently.
package nn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Config controls MLP shape and training.
type Config struct {
	Hidden1   int     // width of the first hidden layer
	Hidden2   int     // width of the second hidden layer
	LR        float64 // Adam learning rate
	Epochs    int
	BatchSize int
	Seed      int64
	L2        float64 // weight decay
}

// DefaultConfig mirrors the paper's "simple MLP" setup sized for the
// feature dimensions this pipeline produces.
func DefaultConfig() Config {
	return Config{Hidden1: 64, Hidden2: 32, LR: 1e-3, Epochs: 30, BatchSize: 32, Seed: 1, L2: 1e-5}
}

// MLP is a 2-hidden-layer binary classifier. Weights are flat row-major.
type MLP struct {
	cfg     Config
	in      int
	w1      []float64 // Hidden1 x in
	w2      []float64 // Hidden2 x Hidden1
	w3      []float64 // output weights (len Hidden2)
	b1, b2  []float64
	b3      float64
	trained bool

	// scratch pools forward-pass activation buffers so concurrent
	// inference against one fitted model never allocates in steady state.
	scratch sync.Pool
}

// fwdScratch is one goroutine's activation workspace.
type fwdScratch struct {
	h1, h2 []float64
}

// New creates an MLP for the given input dimension with seeded He
// initialization.
func New(in int, cfg Config) *MLP {
	if cfg.Hidden1 <= 0 || cfg.Hidden2 <= 0 {
		def := DefaultConfig()
		if cfg.Hidden1 <= 0 {
			cfg.Hidden1 = def.Hidden1
		}
		if cfg.Hidden2 <= 0 {
			cfg.Hidden2 = def.Hidden2
		}
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 30
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &MLP{cfg: cfg, in: in}
	m.w1 = heInit(rng, cfg.Hidden1, in)
	m.w2 = heInit(rng, cfg.Hidden2, cfg.Hidden1)
	m.w3 = heInit(rng, 1, cfg.Hidden2)
	m.b1 = make([]float64, cfg.Hidden1)
	m.b2 = make([]float64, cfg.Hidden2)
	m.scratch.New = func() any {
		return &fwdScratch{
			h1: make([]float64, cfg.Hidden1),
			h2: make([]float64, cfg.Hidden2),
		}
	}
	return m
}

// heInit fills a flat rows x cols matrix with seeded He-initialized
// weights, drawn in row-major order (the same draw order as the historical
// [][]float64 initialization, so seeded weights are unchanged).
func heInit(rng *rand.Rand, rows, cols int) []float64 {
	scale := math.Sqrt(2.0 / float64(max(cols, 1)))
	w := make([]float64, rows*cols)
	for i := range w {
		w[i] = rng.NormFloat64() * scale
	}
	return w
}

func sigmoid(x float64) float64 {
	// Numerically stable sigmoid.
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// dotFrom accumulates s + Σ w[i]*x[i] left to right — the same
// association as a naive loop starting at s, so results are bit-identical
// to the pre-optimization code. Reslicing x to len(w) lets the compiler
// drop per-iteration bounds checks in the innermost training loops.
func dotFrom(s float64, w, x []float64) float64 {
	x = x[:len(w)]
	for i, wi := range w {
		s += wi * x[i]
	}
	return s
}

// forward computes activations; h1 and h2 receive post-ReLU activations.
func (m *MLP) forward(x []float64, h1, h2 []float64) float64 {
	in := len(x)
	for i := range h1 {
		s := dotFrom(m.b1[i], m.w1[i*in:(i+1)*in], x)
		if s < 0 {
			s = 0
		}
		h1[i] = s
	}
	h1n := len(h1)
	for i := range h2 {
		s := dotFrom(m.b2[i], m.w2[i*h1n:(i+1)*h1n], h1)
		if s < 0 {
			s = 0
		}
		h2[i] = s
	}
	return sigmoid(dotFrom(m.b3, m.w3, h2))
}

// Gang fans one training run's per-batch work out over a fixed set of
// workers. ForN runs fn(0..n-1), in any order and on any of the gang's
// workers, and returns once every call has returned.
type Gang interface {
	ForN(n int, fn func(i int))
}

// Parallel lends a training run workers: it calls body exactly once, with
// a Gang whose workers stay assigned until body returns. A nil Parallel
// trains serially on the calling goroutine.
type Parallel func(body func(Gang))

// serialGang runs every fan-out in index order on the caller.
type serialGang struct{}

func (serialGang) ForN(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// TrainFlat fits the MLP on binary labels y (1 = error) and returns the
// final epoch's mean cross-entropy loss. X is a flat row-major feature
// tile: nRows vectors of the model's input dimension back to back, the
// layout feature.FeaturesInto and the engine's training-matrix stage
// produce.
//
// The context is checked once per epoch, and a canceled context aborts
// training with the context's error. A non-finite feature or label is
// rejected on first use inside epoch 0, before it can poison the weights,
// and a non-finite epoch loss (divergence, however caused) aborts with an
// error rather than training onward through NaNs; every caller discards
// the partially updated weights along with the error.
//
// A non-nil par spreads each minibatch over a gang of workers. The trained
// weights and the loss are bit-identical for every gang size, serial
// included (see train).
func (m *MLP) TrainFlat(ctx context.Context, X []float64, nRows int, y []float64, par Parallel) (float64, error) {
	if nRows <= 0 {
		return 0, fmt.Errorf("nn: empty training set")
	}
	if len(X) != nRows*m.in {
		return 0, fmt.Errorf("nn: flat tile has %d values, want %d rows x %d dims = %d",
			len(X), nRows, m.in, nRows*m.in)
	}
	if nRows != len(y) {
		return 0, fmt.Errorf("nn: %d samples but %d labels", nRows, len(y))
	}
	if par == nil {
		return m.train(ctx, X, nRows, y, serialGang{})
	}
	var loss float64
	var err error
	par(func(g Gang) { loss, err = m.train(ctx, X, nRows, y, g) })
	return loss, err
}

// validateSample rejects non-finite features or labels before they can
// poison the weights.
func validateSample(x []float64, label float64, i int) error {
	for k, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("nn: sample %d has non-finite feature %v at index %d", i, v, k)
		}
	}
	if math.IsNaN(label) || math.IsInf(label, 0) {
		return fmt.Errorf("nn: label %d is non-finite (%v)", i, label)
	}
	return nil
}

// Task granularity of the per-batch parameter update. Every layer-1 column
// block re-reads each sample's compacted deltas, so blocks are wide enough
// to amortize that; a layer-2 row group covers whole rows of w2.
const (
	colBlock = 40
	rowGroup = 8
)

// trainSlot is one batch position's scratch: the per-sample phase writes
// the sample's activations and deltas here, and the update phase reads
// every slot in batch order.
type trainSlot struct {
	x          []float64 // the sample's feature window of the tile
	h1, h2     []float64 // post-ReLU activations
	d1, d2     []float64 // backpropagated deltas
	nzIdx      []int32   // layer-1 units whose delta survives ReLU and is non-zero
	nzVal      []float64 // their deltas; the first nz entries are live
	nz         int
	loss, dOut float64
	err        error
}

// adam holds one parameter tensor's first and second moment estimates.
type adam struct{ m, v []float64 }

func newAdam(n int) adam { return adam{m: make([]float64, n), v: make([]float64, n)} }

// step applies one Adam update to the parameter block params, whose
// moments start at offset lo, from the block's gradient. bc1 and bc2 are
// the batch's bias corrections. Every element updates independently of
// every other, so any partition of a tensor into blocks yields the same
// bits as one whole-tensor step.
func (a adam) step(lo int, params, grads []float64, lr, bc1, bc2 float64) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	grads = grads[:len(params)]
	am := a.m[lo : lo+len(params)]
	av := a.v[lo : lo+len(params)]
	for i := range params {
		g := grads[i]
		am[i] = beta1*am[i] + (1-beta1)*g
		av[i] = beta2*av[i] + (1-beta2)*g*g
		params[i] -= lr * (am[i] / bc1) / (math.Sqrt(av[i]/bc2) + eps)
	}
}

// trainer is one training run's working set.
//
// Layer 1 lives in a column-major (transposed) tile for the whole run —
// weights, gradient and Adam moments alike — and is folded back to the
// row-major m.w1 after the last batch. The hot per-sample loops walk one
// input column at a time and update every unit's accumulator from it:
// each accumulator r still receives b[r] + w[r][0]*x[0] + w[r][1]*x[1] +
// ... in ascending column order, dotFrom's association, but the walk
// advances h1n independent dependency chains per sequential load. L2
// decay and Adam are elementwise, so the permuted parameter order leaves
// every trained value unchanged. Layer 2 keeps its canonical row-major
// layout (the backward pass reads it by row) plus a transposed copy for
// the forward pass, refreshed after each update.
type trainer struct {
	m            *MLP
	X, y         []float64
	in, h1n, h2n int

	batch    []int // sample indices of the current minibatch, in order
	bs       float64
	validate bool // epoch 0 validates each sample on first use
	slots    []trainSlot

	w1t, g1t, w2t      []float64
	gW2, gW3, gB1, gB2 []float64

	optW1, optW2, optW3, optB1, optB2, optB3 adam
	steps                                    int     // Adam steps taken: one per batch
	bc1, bc2                                 float64 // the current step's bias corrections

	colBlocks, rowGroups int
}

func newTrainer(m *MLP, X []float64, n int, y []float64) *trainer {
	in, h1n, h2n := m.in, m.cfg.Hidden1, m.cfg.Hidden2
	t := &trainer{
		m: m, X: X, y: y, in: in, h1n: h1n, h2n: h2n,
		w1t: make([]float64, in*h1n),
		g1t: make([]float64, in*h1n),
		w2t: make([]float64, h1n*h2n),
		gW2: make([]float64, h2n*h1n),
		gW3: make([]float64, h2n),
		gB1: make([]float64, h1n),
		gB2: make([]float64, h2n),

		optW1: newAdam(in * h1n),
		optW2: newAdam(h2n * h1n),
		optW3: newAdam(h2n),
		optB1: newAdam(h1n),
		optB2: newAdam(h2n),
		optB3: newAdam(1),

		colBlocks: (in + colBlock - 1) / colBlock,
		rowGroups: (h2n + rowGroup - 1) / rowGroup,
	}
	transpose(t.w1t, m.w1, h1n, in)
	transpose(t.w2t, m.w2, h2n, h1n)
	t.slots = make([]trainSlot, min(m.cfg.BatchSize, n))
	per := 3*h1n + 2*h2n
	buf := make([]float64, len(t.slots)*per)
	idx := make([]int32, len(t.slots)*h1n)
	for s := range t.slots {
		b := buf[s*per : (s+1)*per]
		t.slots[s] = trainSlot{
			h1:    b[:h1n:h1n],
			d1:    b[h1n : 2*h1n : 2*h1n],
			nzVal: b[2*h1n : 3*h1n : 3*h1n],
			h2:    b[3*h1n : 3*h1n+h2n : 3*h1n+h2n],
			d2:    b[3*h1n+h2n : per : per],
			nzIdx: idx[s*h1n : (s+1)*h1n : (s+1)*h1n],
		}
	}
	return t
}

// train is the Adam/BCE training loop. Each minibatch runs as two
// fan-outs over the gang:
//
//   - per sample (t.sample): forward pass, loss and deltas into the
//     sample's slot. It reads the weights and writes only its own slot.
//   - per parameter block (t.update): every gradient element takes its
//     samples' contributions in batch order — the serial loop's exact add
//     sequence — and then the block's L2 decay and Adam step.
//
// Between the two, the caller sums the batch loss in slot order and
// advances Adam's step count once. No value depends on which worker ran
// which sample or block, so the result is bit-identical for any gang.
func (m *MLP) train(ctx context.Context, X []float64, n int, y []float64, g Gang) (float64, error) {
	t := newTrainer(m, X, n, y)
	rng := rand.New(rand.NewSource(m.cfg.Seed + 7))
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sample, update := t.sample, t.update
	tasks := t.colBlocks + t.rowGroups + 1

	var lastLoss float64
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("nn: training canceled at epoch %d: %w", epoch, err)
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		t.validate = epoch == 0
		epochLoss := 0.0
		for start := 0; start < n; start += m.cfg.BatchSize {
			t.batch = idx[start:min(start+m.cfg.BatchSize, n)]
			t.bs = float64(len(t.batch))
			g.ForN(len(t.batch), sample)
			for s := range t.batch {
				if err := t.slots[s].err; err != nil {
					return 0, err
				}
				epochLoss += t.slots[s].loss
			}
			const beta1, beta2 = 0.9, 0.999
			t.steps++
			t.bc1 = 1 - math.Pow(beta1, float64(t.steps))
			t.bc2 = 1 - math.Pow(beta2, float64(t.steps))
			g.ForN(tasks, update)
		}
		lastLoss = epochLoss / float64(n)
		if math.IsNaN(lastLoss) || math.IsInf(lastLoss, 0) {
			return 0, fmt.Errorf("nn: non-finite training loss %v at epoch %d", lastLoss, epoch)
		}
	}
	transpose(m.w1, t.w1t, t.in, t.h1n)
	m.trained = true
	return lastLoss, nil
}

// sample runs batch position s's forward pass and backpropagation into
// its slot, reading the weights as the previous update left them.
func (t *trainer) sample(s int) {
	m := t.m
	sl := &t.slots[s]
	i := t.batch[s]
	x := t.X[i*t.in : (i+1)*t.in]
	sl.x, sl.err = x, nil
	if t.validate {
		if sl.err = validateSample(x, t.y[i], i); sl.err != nil {
			return
		}
	}
	h1, h2, d1, d2 := sl.h1, sl.h2, sl.d1, sl.d2
	// Forward, column-major: four input columns per pass, each accumulator
	// taking its products in ascending column order.
	copy(h1, m.b1)
	colMajorAccum(h1, t.w1t, x, t.in)
	relu(h1)
	copy(h2, m.b2)
	colMajorAccum(h2, t.w2t, h1, t.h1n)
	relu(h2)
	p := sigmoid(dotFrom(m.b3, m.w3, h2))

	label := t.y[i]
	sl.loss = bceLoss(label, p)
	// dL/dlogit for sigmoid + BCE.
	dOut := (p - label) / t.bs
	sl.dOut = dOut
	for j, w := range m.w3 {
		d2[j] = dOut * w
		if h2[j] <= 0 {
			d2[j] = 0
		}
	}
	zero(d1)
	h1n := t.h1n
	for r, d2r := range d2 {
		if d2r == 0 {
			continue
		}
		row := m.w2[r*h1n : (r+1)*h1n]
		dr := d1[:len(row)]
		for c, w := range row {
			dr[c] += d2r * w
		}
	}
	// Compact the surviving layer-1 deltas (ReLU kills about half); the
	// layer-1 gradient and b1 take one add per listed unit.
	k := 0
	for r, v := range d1 {
		if h1[r] <= 0 || v == 0 {
			continue
		}
		sl.nzIdx[k] = int32(r)
		sl.nzVal[k] = v
		k++
	}
	sl.nz = k
}

// update accumulates and applies one parameter block's gradient. Tasks
// [0, colBlocks) are layer-1 column blocks, the next rowGroups are layer-2
// row groups, and the last covers w3, b1 and b3.
func (t *trainer) update(task int) {
	switch {
	case task < t.colBlocks:
		c0 := task * colBlock
		t.updateW1(c0, min(c0+colBlock, t.in))
	case task < t.colBlocks+t.rowGroups:
		r0 := (task - t.colBlocks) * rowGroup
		t.updateW2(r0, min(r0+rowGroup, t.h2n))
	default:
		t.updateOut()
	}
}

// updateW1 updates layer-1 input columns [c0, c1) of the transposed tile.
// Each element receives at most one d*x add per sample, in batch order.
func (t *trainer) updateW1(c0, c1 int) {
	lo, hi := c0*t.h1n, c1*t.h1n
	g := t.g1t[lo:hi]
	zero(g)
	for s := range t.batch {
		sl := &t.slots[s]
		scatterOuter(g, sl.nzIdx[:sl.nz], sl.nzVal[:sl.nz], sl.x[c0:c1], c1-c0, t.h1n)
	}
	w := t.w1t[lo:hi]
	addL2(g, w, t.m.cfg.L2)
	t.optW1.step(lo, w, g, t.m.cfg.LR, t.bc1, t.bc2)
}

// updateW2 updates layer-2 rows [r0, r1) and their biases, then refreshes
// those rows of the transposed forward tile.
func (t *trainer) updateW2(r0, r1 int) {
	m, h1n := t.m, t.h1n
	lo, hi := r0*h1n, r1*h1n
	g, gb := t.gW2[lo:hi], t.gB2[r0:r1]
	zero(g)
	zero(gb)
	for s := range t.batch {
		sl := &t.slots[s]
		h := sl.h1[:h1n]
		for r := r0; r < r1; r++ {
			d2r := sl.d2[r]
			if d2r == 0 {
				continue
			}
			gr := t.gW2[r*h1n : r*h1n+len(h)]
			for c, v := range h {
				gr[c] += d2r * v
			}
			t.gB2[r] += d2r
		}
	}
	w := m.w2[lo:hi]
	addL2(g, w, m.cfg.L2)
	t.optW2.step(lo, w, g, m.cfg.LR, t.bc1, t.bc2)
	t.optB2.step(r0, m.b2[r0:r1], gb, m.cfg.LR, t.bc1, t.bc2)
	for r := r0; r < r1; r++ {
		for c, v := range m.w2[r*h1n : (r+1)*h1n] {
			t.w2t[c*t.h2n+r] = v
		}
	}
}

// updateOut updates the output layer (w3, b3) and the layer-1 biases.
func (t *trainer) updateOut() {
	m := t.m
	gW3, gB1 := t.gW3, t.gB1
	zero(gW3)
	zero(gB1)
	gB3 := [1]float64{}
	for s := range t.batch {
		sl := &t.slots[s]
		dOut := sl.dOut
		for j, h := range sl.h2[:len(gW3)] {
			gW3[j] += dOut * h
		}
		gB3[0] += dOut
		for k, r := range sl.nzIdx[:sl.nz] {
			gB1[r] += sl.nzVal[k]
		}
	}
	lr := m.cfg.LR
	addL2(gW3, m.w3, m.cfg.L2)
	t.optW3.step(0, m.w3, gW3, lr, t.bc1, t.bc2)
	t.optB1.step(0, m.b1, gB1, lr, t.bc1, t.bc2)
	b3 := [1]float64{m.b3}
	t.optB3.step(0, b3[:], gB3[:], lr, t.bc1, t.bc2)
	m.b3 = b3[0]
}

// relu clamps negative activations to zero in place.
func relu(h []float64) {
	for r, s := range h {
		if s < 0 {
			h[r] = 0
		}
	}
}

// colMajorAccum adds W·x into acc against the transposed weight tile wt
// (in columns of len(acc), column c at wt[c*len(acc):]). Accumulator r
// receives w[r][0]*x[0] + w[r][1]*x[1] + ... strictly in ascending column
// order — dotFrom's exact left-to-right association, so results are
// bit-identical to the row-major loops — but the columns advance len(acc)
// independent dependency chains, and processing four columns per pass
// amortizes the accumulator load/store and loop overhead across four
// multiply-adds.
func colMajorAccum(acc, wt, x []float64, in int) {
	n := len(acc)
	c := 0
	for ; c+4 <= in; c += 4 {
		x0, x1, x2, x3 := x[c], x[c+1], x[c+2], x[c+3]
		c0 := wt[(c+0)*n:][:n]
		c1 := wt[(c+1)*n:][:n]
		c2 := wt[(c+2)*n:][:n]
		c3 := wt[(c+3)*n:][:n]
		a := acc[:n]
		for r := range a {
			s := a[r] + c0[r]*x0
			s += c1[r] * x1
			s += c2[r] * x2
			s += c3[r] * x3
			a[r] = s
		}
	}
	for ; c < in; c++ {
		xc := x[c]
		col := wt[c*n:][:n]
		a := acc[:n]
		for r := range a {
			a[r] += col[r] * xc
		}
	}
}

// scatterOuter accumulates the outer product of the compacted deltas
// (nzVal at rows nzIdx) and the input x into the transposed gradient tile
// gt (in columns of width rows). Every gt element receives at most one
// d*x add per sample — the same single add the row-major loop performed —
// so batch accumulation order per element is unchanged; four input columns
// per pass amortize the index and delta loads.
func scatterOuter(gt []float64, nzIdx []int32, nzVal []float64, x []float64, in, rows int) {
	c := 0
	for ; c+4 <= in; c += 4 {
		x0, x1, x2, x3 := x[c], x[c+1], x[c+2], x[c+3]
		g0 := gt[(c+0)*rows:][:rows]
		g1 := gt[(c+1)*rows:][:rows]
		g2 := gt[(c+2)*rows:][:rows]
		g3 := gt[(c+3)*rows:][:rows]
		for j, r := range nzIdx {
			v := nzVal[j]
			g0[r] += v * x0
			g1[r] += v * x1
			g2[r] += v * x2
			g3[r] += v * x3
		}
	}
	for ; c < in; c++ {
		xc := x[c]
		col := gt[c*rows:][:rows]
		for j, r := range nzIdx {
			col[r] += nzVal[j] * xc
		}
	}
}

// transpose fills dst (a flat cols x rows matrix) with the transpose of
// src (a flat rows x cols matrix). Values are copied verbatim, so the
// column-major training tiles hold exactly the same float64 bits as the
// canonical row-major weights.
func transpose(dst, src []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		row := src[r*cols : (r+1)*cols]
		for c, v := range row {
			dst[c*rows+r] = v
		}
	}
}

func bceLoss(t, p float64) float64 {
	const eps = 1e-12
	return -(t*math.Log(p+eps) + (1-t)*math.Log(1-p+eps))
}

func zero(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}

func addL2(grads, params []float64, l2 float64) {
	if l2 == 0 {
		return
	}
	for i := range grads {
		grads[i] += l2 * params[i]
	}
}

// Predict returns the error probability for a single feature vector. It is
// allocation-free in steady state and safe for concurrent use.
func (m *MLP) Predict(x []float64) float64 {
	sc := m.getScratch()
	p := m.forward(x, sc.h1, sc.h2)
	m.scratch.Put(sc)
	return p
}

// PredictInto runs batched inference over a flat row-major feature tile:
// X holds nRows vectors of the model's input dimension back to back, and
// out (length >= nRows) receives the error probability of each row. The
// activation scratch is pooled, so steady-state calls allocate nothing,
// and many goroutines may score against one fitted model concurrently.
func (m *MLP) PredictInto(X []float64, nRows int, out []float64) {
	if nRows <= 0 {
		return
	}
	dim := m.in
	sc := m.getScratch()
	for r := 0; r < nRows; r++ {
		out[r] = m.forward(X[r*dim:(r+1)*dim], sc.h1, sc.h2)
	}
	m.scratch.Put(sc)
}

// PredictBatch returns error probabilities for many feature vectors,
// reusing scratch buffers.
func (m *MLP) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	sc := m.getScratch()
	for i, x := range X {
		out[i] = m.forward(x, sc.h1, sc.h2)
	}
	m.scratch.Put(sc)
	return out
}

func (m *MLP) getScratch() *fwdScratch { return m.scratch.Get().(*fwdScratch) }

// Config returns the MLP's configuration, with New's defaults applied.
func (m *MLP) Config() Config { return m.cfg }

// InputDim returns the model's input dimensionality.
func (m *MLP) InputDim() int { return m.in }

// Trained reports whether TrainFlat has completed successfully.
func (m *MLP) Trained() bool { return m.trained }
