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
	"time"

	"harmony/internal/service"
)

// daemonConfig mirrors harmonyd's flag defaults with a store directory
// and fsync=commit, the configuration every workload serves under.
func daemonConfig(storeDir string) service.Config {
	return service.Config{
		Preset:           "harmony",
		Threshold:        0.4,
		Workers:          2,
		Backlog:          64,
		CacheSize:        256,
		StoreDir:         storeDir,
		Fsync:            "commit",
		SnapshotInterval: time.Minute,
		SnapshotEvery:    1024,
		CorpusCandidates: 32,
		CorpusTopK:       5,
		SparseBudget:     service.DefaultSparseBudget,
		LagThreshold:     1024,
		SlowRequest:      -1,
		Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// daemon is one in-process harmonyd: the service over a store directory,
// served over HTTP on a loopback listener.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	served chan error
}

// startDaemon boots the service over dir and returns once /healthz
// answers ok.
func startDaemon(dir string) (*daemon, error) {
	srv, err := service.New(daemonConfig(dir), nil)
	if err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	var health struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := getJSON(d.url+"/healthz", &health); err != nil || health.Status != "ok" {
		d.stop()
		return nil, fmt.Errorf("daemon health %q %q: %v", health.Status, health.Error, err)
	}
	return d, nil
}

// stop shuts the listener down, closes the service (final snapshot,
// WAL close, background workers drained) and waits for the serve
// goroutine to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := d.hs.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) && herr == nil {
		herr = err
	}
	if err := d.srv.Close(); err != nil {
		return fmt.Errorf("stop daemon: %w", err)
	}
	if herr != nil {
		return fmt.Errorf("stop daemon: %w", herr)
	}
	return nil
}

// stats reads /v1/stats.
func (d *daemon) stats() (service.Stats, error) {
	var st service.Stats
	err := getJSON(d.url+"/v1/stats", &st)
	return st, err
}

// client is the benchmark's single closed-loop HTTP client. Keep-alive
// connections are reused across requests.
var client = &http.Client{Timeout: 120 * time.Second}

func getJSON(url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

func postJSON(url string, body any, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("%s: status %d: %s", resp.Request.URL.Path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s: decode: %w", resp.Request.URL.Path, err)
	}
	return nil
}

// bulkAck and bulkSummary are the NDJSON lines of POST /v1/schemas/bulk.
type bulkAck struct {
	Added  int `json:"added"`
	Errors []struct {
		Line  int    `json:"line"`
		Error string `json:"error"`
	} `json:"errors"`
}

type bulkSummary struct {
	Done   bool   `json:"done"`
	Added  int    `json:"added"`
	Failed int    `json:"failed"`
	Error  string `json:"error"`
}

// bulkIngest streams one NDJSON body and returns the schemata its acks
// report added. A stream is ok when no ack carries a line error and the
// summary line reports done with no failures.
func (d *daemon) bulkIngest(body []byte) (acked int, err error) {
	resp, err := client.Post(d.url+"/v1/schemas/bulk", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("bulk ingest: status %d", resp.StatusCode)
	}
	var sum bulkSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	sawDone := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if bytes.Contains(line, []byte(`"done"`)) {
			if err := json.Unmarshal(line, &sum); err != nil {
				return acked, fmt.Errorf("bulk summary: %w", err)
			}
			sawDone = true
			continue
		}
		var ack bulkAck
		if err := json.Unmarshal(line, &ack); err != nil {
			return acked, fmt.Errorf("bulk ack: %w", err)
		}
		if len(ack.Errors) > 0 {
			return acked, fmt.Errorf("bulk ack: line %d: %s", ack.Errors[0].Line, ack.Errors[0].Error)
		}
		acked += ack.Added
	}
	if err := sc.Err(); err != nil {
		return acked, fmt.Errorf("bulk ingest: %w", err)
	}
	if !sawDone || !sum.Done || sum.Failed != 0 {
		return acked, fmt.Errorf("bulk ingest: summary %+v", sum)
	}
	return acked, nil
}
