package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"manetsim"
)

// loopback serves a fresh manetsim.Server per read pass on one loopback
// listener, and is that server's only client: one connection, one
// request at a time.
type loopback struct {
	cur    atomic.Pointer[manetsim.Server]
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
}

func newLoopback() (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	l := &loopback{
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String() + "/api/v1",
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}
	l.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.cur.Load().ServeHTTP(w, r)
	})}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// close stops the listener and waits for the serving goroutine to end.
func (l *loopback) close() error {
	l.client.CloseIdleConnections()
	err := l.hs.Shutdown(context.Background())
	if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// readPass is the outcome of serving one sweep from the store.
type readPass struct {
	dur      time.Duration   // POST to /results fetched
	cpu      time.Duration   // process CPU time over the same span
	runs     int             // run events streamed
	executed int64           // simulations the serving campaign ran
	cells    json.RawMessage // the "cells" of /results
}

// requestsPerServe is the requests one serve makes: submit, events,
// results.
const requestsPerServe = 3

// serve puts a fresh campaign over the store in storeDir behind a fresh
// Server, then submits sw, streams its events to the terminal one and
// fetches its results, as one client of `manetsim serve` would.
func (l *loopback) serve(sw manetsim.Sweep, storeDir string) (rp readPass, err error) {
	body, err := json.Marshal(sw)
	if err != nil {
		return rp, fmt.Errorf("encoding sweep: %w", err)
	}
	camp := manetsim.NewCampaign(manetsim.BenchScale, manetsim.WithWorkers(2), manetsim.WithStore(storeDir))
	srv := manetsim.NewServer(camp)
	l.cur.Store(srv)
	defer func() {
		// Every sweep has ended by now; Shutdown only waits for it.
		_ = srv.Shutdown(context.Background())
		rp.executed = camp.Executed()
	}()

	start, cpu0 := time.Now(), cpuTime()
	var job struct{ ID string }
	if err := l.do(http.MethodPost, "/sweeps", body, http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&job)
	}); err != nil {
		return rp, err
	}
	if err := l.do(http.MethodGet, "/sweeps/"+job.ID+"/events", nil, http.StatusOK, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			var ev struct{ Type, Error string }
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return fmt.Errorf("event: %w", err)
			}
			switch ev.Type {
			case "run":
				rp.runs++
			case "done":
				return nil
			default:
				return fmt.Errorf("sweep %s: %s event: %s", job.ID, ev.Type, ev.Error)
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		return errors.New("event stream ended without a terminal event")
	}); err != nil {
		return rp, err
	}
	var res struct{ Cells json.RawMessage }
	if err := l.do(http.MethodGet, "/sweeps/"+job.ID+"/results", nil, http.StatusOK, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&res)
	}); err != nil {
		return rp, err
	}
	rp.dur, rp.cpu = time.Since(start), cpuTime()-cpu0
	rp.cells = res.Cells
	return rp, nil
}

// do sends one request, checks its status and hands the body to read,
// draining it afterwards so the connection is reused.
func (l *loopback) do(method, path string, body []byte, want int, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, l.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	err = read(resp.Body)
	_, _ = io.Copy(io.Discard, resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}
