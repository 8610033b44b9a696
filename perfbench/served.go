package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// served is one zeroedd instance: serve.New(...).Handler() behind a real
// loopback listener, configured as cmd/zeroedd configures it by default.
type served struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

// startServed starts an instance persisting models under modelDir (and
// restoring any found there). serve.New turns tracing on process-wide;
// startServed turns it off again, as end-to-end metrics are untraced.
func startServed(modelDir string) (*served, error) {
	srv := serve.New(serve.Config{
		ModelDir:  modelDir,
		TraceSlow: 100 * time.Millisecond, // zeroedd's -trace-slow default
		// zeroedd logs one text line per request; discarding keeps the
		// formatting cost without flooding the benchmark's output.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	obs.SetEnabled(false)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &served{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for the serve loop to return, and
// stops the service's runners.
func (s *served) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout leaves Close below to cut connections
	_ = s.hs.Close()
	<-s.done
	s.srv.Close()
}

// newClient returns a keep-alive HTTP client for the benchmark's one
// caller, never routed through a proxy.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

const (
	mediaCSV    = "text/csv"
	mediaNDJSON = "application/x-ndjson"
)

// post sends one request and reads the whole response into buf. The
// returned duration runs from sending to the last response byte.
func post(c *http.Client, url, media string, payload []byte, buf *bytes.Buffer) (int, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", media)
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, time.Since(start), err
}

// fitModel posts a fit and returns the new model's id and the fit time.
func fitModel(c *http.Client, s *served, seed int64, csv []byte) (string, time.Duration, error) {
	var buf bytes.Buffer
	url := fmt.Sprintf("%s/v1/models?name=%s&seed=%d", s.base, datasetName, seed)
	code, dur, err := post(c, url, mediaCSV, csv, &buf)
	if err != nil {
		return "", 0, err
	}
	if code != http.StatusCreated {
		return "", 0, fmt.Errorf("fit: status %d: %s", code, clip(buf.Bytes()))
	}
	var st serve.ModelStatus
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		return "", 0, fmt.Errorf("fit: %w", err)
	}
	return st.ID, dur, nil
}

// deleteModel evicts a model so repeated fits never fill the registry.
func deleteModel(c *http.Client, s *served, id string) error {
	req, err := http.NewRequest(http.MethodDelete, s.base+"/v1/models/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("delete %s: status %d", id, resp.StatusCode)
	}
	return nil
}

// scoreBody posts one score request; the caller checks buf against the
// expected verdicts.
func scoreBody(c *http.Client, s *served, id, media string, payload []byte, buf *bytes.Buffer) (time.Duration, error) {
	code, dur, err := post(c, s.base+"/v1/models/"+id+"/score", media, payload, buf)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("score: status %d: %s", code, clip(buf.Bytes()))
	}
	return dur, err
}

// repairBody posts one repair request (CSV, full corrected table).
func repairBody(c *http.Client, s *served, id string, payload []byte, buf *bytes.Buffer) (time.Duration, error) {
	code, dur, err := post(c, s.base+"/v1/models/"+id+"/repair", mediaCSV, payload, buf)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("repair: status %d: %s", code, clip(buf.Bytes()))
	}
	return dur, err
}

// streamResult is what the client observed of one stream request.
type streamResult struct {
	rows int
	dur  time.Duration
	gaps []float64 // ms between the first lines of consecutive chunks
}

// streamBody streams an NDJSON body at the given chunk size and checks
// every verdict line against want (one marshaled pred per row). A wrong
// line is an error.
func streamBody(c *http.Client, s *served, id string, payload []byte, chunk int, want [][]byte) (streamResult, error) {
	var res streamResult
	url := fmt.Sprintf("%s/v1/models/%s/stream?chunk=%d", s.base, id, chunk)
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return res, err
	}
	req.Header.Set("Content-Type", mediaNDJSON)
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return res, fmt.Errorf("stream: status %d: %s", resp.StatusCode, clip(b))
	}
	rd := bufio.NewReaderSize(resp.Body, 1<<16)
	var last time.Time
	done := false
	for {
		line, err := rd.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			return res, fmt.Errorf("stream: line longer than %d bytes", rd.Size())
		}
		if len(line) > 0 {
			now := time.Now()
			if done {
				return res, fmt.Errorf("stream: data after the summary line")
			}
			row, ok := lineRow(line)
			switch {
			case ok:
				if row != res.rows || row >= len(want) {
					return res, fmt.Errorf("stream: row %d out of order (want %d)", row, res.rows)
				}
				if !bytes.HasPrefix(fieldAfter(line, `"pred":`), want[row]) {
					return res, fmt.Errorf("stream: row %d verdicts differ from Model.Score", row)
				}
				if row%chunk == 0 {
					if row > 0 {
						res.gaps = append(res.gaps, ms(now.Sub(last)))
					}
					last = now
				}
				res.rows++
			case bytes.HasPrefix(line, []byte(`{"done":true`)):
				done = true
				if !bytes.Contains(line, []byte(`"rows":`+strconv.Itoa(len(want))+`,`)) {
					return res, fmt.Errorf("stream: summary %s", clip(line))
				}
			default:
				return res, fmt.Errorf("stream: unexpected line %s", clip(line))
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, err
		}
	}
	res.dur = time.Since(start)
	if !done || res.rows != len(want) {
		return res, fmt.Errorf("stream: %d of %d rows before the end", res.rows, len(want))
	}
	return res, nil
}

// lineRow parses the row index of a verdict line ({"row":N,...}).
func lineRow(line []byte) (int, bool) {
	const p = `{"row":`
	if !bytes.HasPrefix(line, []byte(p)) {
		return 0, false
	}
	rest := line[len(p):]
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(string(rest[:end]))
	return n, err == nil
}

// fieldAfter returns the bytes following the first occurrence of key, or
// nil when the key is absent.
func fieldAfter(doc []byte, key string) []byte {
	i := bytes.Index(doc, []byte(key))
	if i < 0 {
		return nil
	}
	return doc[i+len(key):]
}

// clip shortens a response for an error message.
func clip(b []byte) string {
	b = bytes.TrimSpace(b)
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
