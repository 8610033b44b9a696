package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// This file freezes the single-goroutine training loop that preceded the
// gang-parallel one, as the oracle gang_test.go pins the production loop
// against bit for bit. It takes a flat tile, validates each sample on first
// use in epoch 0, and shares only the column-major kernels (colMajorAccum,
// scatterOuter, transpose) and the scalar helpers with the production loop.

// refAdam is the pre-gang Adam state: one step count per tensor.
type refAdam struct {
	m, v []float64
	t    int
}

func newRefAdam(n int) *refAdam { return &refAdam{m: make([]float64, n), v: make([]float64, n)} }

func (a *refAdam) step(params, grads []float64, lr float64) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	a.t++
	bc1 := 1 - math.Pow(beta1, float64(a.t))
	bc2 := 1 - math.Pow(beta2, float64(a.t))
	grads = grads[:len(params)]
	am := a.m[:len(params)]
	av := a.v[:len(params)]
	for i := range params {
		g := grads[i]
		am[i] = beta1*am[i] + (1-beta1)*g
		av[i] = beta2*av[i] + (1-beta2)*g*g
		params[i] -= lr * (am[i] / bc1) / (math.Sqrt(av[i]/bc2) + eps)
	}
}

// trainRef is the frozen serial training loop.
func trainRef(m *MLP, X []float64, n int, y []float64) (float64, error) {
	at := func(i int) []float64 { return X[i*m.in : (i+1)*m.in] }
	h1n, h2n := m.cfg.Hidden1, m.cfg.Hidden2
	in := m.in
	rng := rand.New(rand.NewSource(m.cfg.Seed + 7))

	optW1 := newRefAdam(h1n * in)
	optW2 := newRefAdam(h2n * h1n)
	optW3 := newRefAdam(h2n)
	optB1 := newRefAdam(h1n)
	optB2 := newRefAdam(h2n)
	optB3 := newRefAdam(1)

	gradW2 := make([]float64, h2n*h1n)
	gradW3 := make([]float64, h2n)
	gradB1 := make([]float64, h1n)
	gradB2 := make([]float64, h2n)
	gradB3 := make([]float64, 1)

	h1 := make([]float64, h1n)
	h2 := make([]float64, h2n)
	d2 := make([]float64, h2n)
	d1 := make([]float64, h1n)

	// Column-major working set. The hot per-sample loops walk one input
	// column at a time and update every output unit's accumulator from it:
	// each accumulator r still receives exactly b[r] + w[r][0]*x[0] +
	// w[r][1]*x[1] + ... in ascending column order — the same left-to-right
	// association as dotFrom — so the trained weights are bit-identical to
	// the historical row-major loops. The payoff is instruction-level
	// parallelism: a single row's dot product is one latency-bound chain of
	// dependent adds, while the column walk advances h1n independent chains
	// per cache-friendly sequential load. Layer 1 lives entirely in the
	// transposed layout for the duration of training — weights, gradient,
	// and Adam moments alike. L2 decay and Adam are strictly elementwise
	// (each parameter's update depends only on its own gradient and moment
	// history, plus step-count scalars), so a consistent permutation of
	// parameter order leaves every trained value bit-identical; the tile is
	// folded back to row-major m.w1 once, after the final batch. Layer 2's
	// transposed tile is refreshed after each Adam step (it is read
	// row-major in the backward pass, so it keeps its canonical layout).
	w1t := make([]float64, in*h1n)
	w2t := make([]float64, h1n*h2n)
	g1t := make([]float64, in*h1n)
	transpose(w1t, m.w1, h1n, in)
	transpose(w2t, m.w2, h2n, h1n)
	d1nzIdx := make([]int32, h1n)
	d1nzVal := make([]float64, h1n)

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}

	var lastLoss float64
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		epochLoss := 0.0
		for start := 0; start < len(idx); start += m.cfg.BatchSize {
			end := min(start+m.cfg.BatchSize, len(idx))
			bs := float64(end - start)
			zero(g1t)
			zero(gradW2)
			zero(gradW3)
			zero(gradB1)
			zero(gradB2)
			gradB3[0] = 0

			for _, i := range idx[start:end] {
				x := at(i)
				if epoch == 0 {
					if err := validateSample(x, y[i], i); err != nil {
						return 0, err
					}
				}
				// Forward, column-major: four input columns per pass, each
				// accumulator taking its four products in ascending column
				// order — the identical add sequence to dotFrom, at roughly
				// half the instructions per multiply-add (the accumulator
				// load/store and loop overhead amortize over four columns).
				copy(h1, m.b1)
				colMajorAccum(h1, w1t, x, in)
				for r, s := range h1 {
					if s < 0 {
						h1[r] = 0
					}
				}
				copy(h2, m.b2)
				colMajorAccum(h2, w2t, h1, h1n)
				for r, s := range h2 {
					if s < 0 {
						h2[r] = 0
					}
				}
				p := sigmoid(dotFrom(m.b3, m.w3, h2))

				t := y[i]
				epochLoss += bceLoss(t, p)
				// dL/dlogit for sigmoid + BCE.
				dOut := (p - t) / bs
				for j := range m.w3 {
					gradW3[j] += dOut * h2[j]
					d2[j] = dOut * m.w3[j]
					if h2[j] <= 0 {
						d2[j] = 0
					}
				}
				gradB3[0] += dOut
				for j := range d1 {
					d1[j] = 0
				}
				for r := 0; r < h2n; r++ {
					d2r := d2[r]
					if d2r == 0 {
						continue
					}
					// Reslice scratch views to the row length so the inner
					// loop runs without bounds checks; per-element arithmetic
					// order is unchanged.
					row := m.w2[r*h1n : (r+1)*h1n]
					g := gradW2[r*h1n : r*h1n+len(row)]
					hr := h1[:len(row)]
					dr := d1[:len(row)]
					for c, w := range row {
						g[c] += d2r * hr[c]
						dr[c] += d2r * w
					}
					gradB2[r] += d2r
				}
				// Compact the surviving layer-1 deltas (ReLU kills about
				// half), then scatter the outer product into the transposed
				// gradient tile column by column. Each g1t element receives
				// the same single d1[r]*x[c] add per sample as the row-major
				// loop did — only the (r, c) visit order changes, and every
				// element is visited at most once per sample, so batch
				// accumulation order per element is preserved exactly.
				k := 0
				for r, v := range d1 {
					if h1[r] <= 0 {
						continue
					}
					if v == 0 {
						continue
					}
					d1nzIdx[k] = int32(r)
					d1nzVal[k] = v
					gradB1[r] += v
					k++
				}
				nzIdx := d1nzIdx[:k]
				nzVal := d1nzVal[:k]
				scatterOuter(g1t, nzIdx, nzVal, x, in, h1n)
			}

			// L2 decay + Adam updates. Layer 1 updates in place on the
			// transposed tile (elementwise math is layout-blind); the
			// other tensors update on their canonical flat layouts.
			addL2(g1t, w1t, m.cfg.L2)
			optW1.step(w1t, g1t, m.cfg.LR)
			addL2(gradW2, m.w2, m.cfg.L2)
			optW2.step(m.w2, gradW2, m.cfg.LR)
			addL2(gradW3, m.w3, m.cfg.L2)
			optW3.step(m.w3, gradW3, m.cfg.LR)
			optB1.step(m.b1, gradB1, m.cfg.LR)
			optB2.step(m.b2, gradB2, m.cfg.LR)
			b3 := [1]float64{m.b3}
			optB3.step(b3[:], gradB3, m.cfg.LR)
			m.b3 = b3[0]
			transpose(w2t, m.w2, h2n, h1n)
		}
		lastLoss = epochLoss / float64(len(idx))
		if math.IsNaN(lastLoss) || math.IsInf(lastLoss, 0) {
			return 0, fmt.Errorf("nn: non-finite training loss %v at epoch %d", lastLoss, epoch)
		}
	}
	// Fold the transposed layer-1 tile back to the canonical row-major
	// layout the inference path reads.
	transpose(m.w1, w1t, in, h1n)
	m.trained = true
	return lastLoss, nil
}
