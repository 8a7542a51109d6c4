package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopCountsStalls stalls a fake service on its first two requests,
// which occupy both client connections. The third query is due 10ms in and
// cannot even be sent until the stall ends, so its latency, counted from
// its due time, must include the stall; a query due after the stall must
// not be charged for it.
func TestOpenLoopCountsStalls(t *testing.T) {
	const stall = 200 * time.Millisecond
	var seen atomic.Int32
	var once sync.Once
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.AfterFunc(stall, func() { close(release) }) })
		if seen.Add(1) <= 2 {
			<-release
		}
		fmt.Fprint(w, `{"job_id":"k","state":"done","result":{"key":"k","rungs":[],"definitive":true}}`)
	}))
	defer ts.Close()
	svc := &service{base: ts.URL, client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2}}}
	defer svc.client.CloseIdleConnections()

	qs := []query{{due: 0}, {due: 0}, {due: 10 * time.Millisecond}, {due: stall + 100*time.Millisecond}}
	outs := drive(nil, svc, qs)
	for i, o := range outs {
		if o.err != nil || o.refused {
			t.Fatalf("query %d: err %v refused %v", i, o.err, o.refused)
		}
	}
	if got, want := outs[2].latency, stall-10*time.Millisecond; got < want {
		t.Errorf("query queued behind the stall: latency %v, want at least %v", got, want)
	}
	if got := outs[3].latency; got > stall/2 {
		t.Errorf("query due after the stall: latency %v, want well under %v", got, stall/2)
	}
}
