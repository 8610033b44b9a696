package nn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// synthTrainingSet builds a deterministic mixed-signal training set large
// enough to exercise multiple shuffled mini-batches per epoch.
func synthTrainingSet(n, dim int, seed int64) ([][]float64, []float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	flat := make([]float64, n*dim)
	nested := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := flat[i*dim : (i+1)*dim]
		var s float64
		for j := range row {
			row[j] = rng.NormFloat64()
			s += row[j]
		}
		nested[i] = row
		if s+rng.NormFloat64()*0.3 > 0 {
			y[i] = 1
		}
	}
	return nested, y, flat
}

// trainRows trains m on a nested matrix, serially and without cancellation,
// by flattening it into the tile TrainFlat consumes. A row of the wrong
// width is an error, as it was for the nested entry point this replaces.
func trainRows(m *MLP, X [][]float64, y []float64) (float64, error) {
	flat := make([]float64, 0, len(X)*m.InputDim())
	for i, x := range X {
		if len(x) != m.InputDim() {
			return 0, fmt.Errorf("nn: sample %d has dim %d, want %d", i, len(x), m.InputDim())
		}
		flat = append(flat, x...)
	}
	return m.TrainFlat(context.Background(), flat, len(X), y, nil)
}

// TestTrainFlatMatchesTrainContext pins the flat entry point against the
// nested-matrix helper: TrainFlat on the flat tile produces bit-identical
// weights, biases, and final loss to trainRows on the equivalent nested
// matrix — including the Adam moment updates and the per-epoch shuffle
// stream, across multiple epochs and partial final batches.
func TestTrainFlatMatchesTrainContext(t *testing.T) {
	const n, dim = 203, 17 // deliberately not a multiple of the batch size
	nested, y, flat := synthTrainingSet(n, dim, 42)

	cfg := Config{Hidden1: 24, Hidden2: 12, LR: 1e-3, Epochs: 5, BatchSize: 32, Seed: 9, L2: 1e-5}
	mNested := New(dim, cfg)
	mFlat := New(dim, cfg)

	lossNested, err := trainRows(mNested, nested, y)
	if err != nil {
		t.Fatalf("trainRows: %v", err)
	}
	lossFlat, err := mFlat.TrainFlat(context.Background(), flat, n, y, nil)
	if err != nil {
		t.Fatalf("TrainFlat: %v", err)
	}
	if math.Float64bits(lossNested) != math.Float64bits(lossFlat) {
		t.Fatalf("final loss differs: nested %v flat %v", lossNested, lossFlat)
	}

	sa, sb := mNested.Snapshot(), mFlat.Snapshot()
	compareBits := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d]: %v (%x) vs %v (%x)", name, i,
					a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
			}
		}
	}
	compareBits("w1", sa.W1, sb.W1)
	compareBits("w2", sa.W2, sb.W2)
	compareBits("w3", sa.W3, sb.W3)
	compareBits("b1", sa.B1, sb.B1)
	compareBits("b2", sa.B2, sb.B2)
	if math.Float64bits(sa.B3) != math.Float64bits(sb.B3) {
		t.Fatalf("b3: %v vs %v", sa.B3, sb.B3)
	}
}

// TestTrainFlatShapeValidation pins the flat entry point's shape errors.
func TestTrainFlatShapeValidation(t *testing.T) {
	m := New(4, Config{Hidden1: 4, Hidden2: 3, Epochs: 1, Seed: 1})
	if _, err := m.TrainFlat(context.Background(), nil, 0, nil, nil); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := m.TrainFlat(context.Background(), make([]float64, 7), 2, make([]float64, 2), nil); err == nil {
		t.Fatal("misshapen tile accepted")
	}
	if _, err := m.TrainFlat(context.Background(), make([]float64, 8), 2, make([]float64, 3), nil); err == nil {
		t.Fatal("label/sample mismatch accepted")
	}
}

// TestTrainFlatFusedValidationRejectsNonFinite checks that the fused
// first-epoch validation still surfaces non-finite features and labels as
// errors.
func TestTrainFlatFusedValidationRejectsNonFinite(t *testing.T) {
	const n, dim = 40, 5
	_, y, flat := synthTrainingSet(n, dim, 7)
	flat[3*dim+2] = math.NaN()
	m := New(dim, Config{Hidden1: 8, Hidden2: 4, Epochs: 3, Seed: 2})
	if _, err := m.TrainFlat(context.Background(), flat, n, y, nil); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN feature not rejected: %v", err)
	}

	_, y2, flat2 := synthTrainingSet(n, dim, 8)
	y2[11] = math.Inf(1)
	m2 := New(dim, Config{Hidden1: 8, Hidden2: 4, Epochs: 3, Seed: 2})
	if _, err := m2.TrainFlat(context.Background(), flat2, n, y2, nil); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("Inf label not rejected: %v", err)
	}
}
