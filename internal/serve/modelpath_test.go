package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// TestModelRouteFrontHalf pins the front half every model-bound route
// shares: an unknown id is a 404 not_found and a model fitted on
// single-class data is a 409 degenerate_model, for score, repair and
// stream alike — before any body is read.
func TestModelRouteFrontHalf(t *testing.T) {
	// A constant table fitted without verification labels single-class, so
	// the fit degenerates to label replay; the server restores it from disk.
	d := table.New("const", []string{"a", "b"})
	for i := 0; i < 40; i++ {
		d.MustAppendRow([]string{"same", "thing"})
	}
	m, err := zeroed.New(zeroed.Config{Seed: 3, Workers: 1, DisableVerification: true}).Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Degenerate() {
		t.Fatal("constant table fitted a non-degenerate model")
	}
	dir := t.TempDir()
	const degenerate = "m-000001"
	if err := model.SaveFile(filepath.Join(dir, artifactFile(degenerate, 1)), m); err != nil {
		t.Fatal(err)
	}
	ts, _ := testServer(t, Config{Workers: 1, ModelDir: dir})
	csv := []byte("a,b\nsame,thing\n")
	for _, route := range []string{"score", "repair", "stream"} {
		for _, tc := range []struct {
			id     string
			status int
			code   string
		}{
			{"m-999999", http.StatusNotFound, "not_found"},
			{degenerate, http.StatusConflict, "degenerate_model"},
		} {
			t.Run(route+"/"+tc.code, func(t *testing.T) {
				resp, err := http.Post(ts.URL+"/v1/models/"+tc.id+"/"+route, "text/csv", bytes.NewReader(csv))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var env struct{ Error apiError }
				if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != tc.status || env.Error.Code != tc.code {
					t.Fatalf("got %d %+v, want %d %s", resp.StatusCode, env.Error, tc.status, tc.code)
				}
				if env.Error.RequestID == "" || env.Error.Message == "" {
					t.Fatalf("incomplete envelope %+v", env.Error)
				}
			})
		}
	}
}

// syncBuffer is a log sink safe for the server's concurrent writers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestMiddlewarePanicKeepsValueInLog: a panic that reaches the middleware's
// last-resort recover becomes the generic internal 500 — the panic value
// is an internal, kept in the log line with its stack, never sent to the
// client — and the server keeps serving.
func TestMiddlewarePanicKeepsValueInLog(t *testing.T) {
	var logs syncBuffer
	ts, svc := testServer(t, Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	svc.mux.HandleFunc("GET /test/panic", func(http.ResponseWriter, *http.Request) {
		panic("secret-panic-value")
	})
	resp, err := http.Get(ts.URL + "/test/panic")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	var env struct{ Error apiError }
	if err := json.Unmarshal(raw.Bytes(), &env); err != nil {
		t.Fatalf("bad envelope %q: %v", raw.String(), err)
	}
	if resp.StatusCode != http.StatusInternalServerError || env.Error.Code != "internal" || env.Error.Message != internalMsg {
		t.Fatalf("got %d %+v, want 500 internal %q", resp.StatusCode, env.Error, internalMsg)
	}
	if strings.Contains(raw.String(), "secret-panic-value") {
		t.Fatalf("panic value leaked to the client: %s", raw.String())
	}
	if log := logs.String(); !strings.Contains(log, "secret-panic-value") || !strings.Contains(log, "stack=") {
		t.Fatalf("panic value or stack missing from the log:\n%s", log)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("server not serving after a panic: %v", err)
	} else {
		resp.Body.Close()
	}
}

// TestRunFailureMapping pins the one error mapper fit, score, repair and
// stream share, fed by the one panic→error helper.
func TestRunFailureMapping(t *testing.T) {
	svc := New(Config{Workers: 1, RequestTimeout: time.Second, Logger: slog.New(slog.NewTextHandler(&syncBuffer{}, nil))})
	defer svc.Close()
	req := httptest.NewRequest(http.MethodPost, "/v1/models/m-1/score", nil)
	panicked := svc.contain(req, "scoring", func() error { panic("boom") })
	if !errors.Is(panicked, errInternalPanic) {
		t.Fatalf("contain returned %v, want errInternalPanic", panicked)
	}
	expired, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	gone, cancelGone := context.WithCancel(context.Background())
	cancelGone()
	for _, tc := range []struct {
		name   string
		req    *http.Request
		op     runOp
		err    error
		status int
		code   string
		msg    string
	}{
		{"panic fit", req, opFit, panicked, 500, "internal", "internal error during fit"},
		{"panic score", req, opScore, panicked, 500, "internal", "internal error during scoring"},
		{"error fit", req, opFit, errors.New("bad fit"), 400, "fit_failed", "bad fit"},
		{"error stream", req, opStream, errors.New("bad rows"), 400, "score_failed", "bad rows"},
		{"deadline score", req.WithContext(expired), opScore, panicked, 503, "deadline", "request exceeded the 1s server-side deadline"},
		{"deadline stream", req.WithContext(expired), opStream, panicked, 503, "deadline", "stream exceeded the 1s server-side deadline"},
		{"client gone", req.WithContext(gone), opScore, panicked, 0, "", ""},
	} {
		status, e := svc.runFailure(tc.req, tc.op, tc.err)
		if status != tc.status || e.Code != tc.code || e.Message != tc.msg {
			t.Errorf("%s: got %d %+v, want %d %s %q", tc.name, status, e, tc.status, tc.code, tc.msg)
		}
	}
}
