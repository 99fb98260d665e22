package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"opgate"
	"opgate/client"
	"opgate/internal/store"
)

// fleetNode is one in-process ring member: a full opgated server over a
// real directory store, wired into a shared member list.
type fleetNode struct {
	ts    *httptest.Server
	srv   *server
	local *store.DirBackend
	url   string
}

// newFleetRing starts n opgated nodes whose URLs form one consistent
// ring. Unstarted httptest servers allocate their listeners first, so
// every node knows the full member list before its server is built.
func newFleetRing(t *testing.T, n int) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, n)
	urls := make([]string, n)
	for i := range nodes {
		ts := httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + ts.Listener.Addr().String()
		nodes[i] = &fleetNode{ts: ts, url: urls[i]}
	}
	for i, node := range nodes {
		fl, err := newFleet(node.url, urls)
		if err != nil {
			t.Fatal(err)
		}
		local, err := store.OpenDir(filepath.Join(t.TempDir(), "store"), 0)
		if err != nil {
			t.Fatal(err)
		}
		node.local = local
		node.srv = newServer(serverConfig{
			Quick:   true,
			Workers: 2,
			Store:   store.NewStore(store.NewTiered(local, fl.remote())),
			Objects: local,
			Fleet:   fl,
		})
		node.ts.Config.Handler = node.srv
		node.ts.Start()
		t.Cleanup(nodes[i].ts.Close)
	}
	return nodes
}

// runOn submits a request to one node and returns the done job's report
// bytes plus the terminal view.
func runOn(t *testing.T, node *fleetNode, req client.Request) ([]byte, client.Job) {
	t.Helper()
	c, err := client.New(node.url)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	j, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != client.StatusDone {
		t.Fatalf("job %s ended %s: %s", final.ID, final.Status, final.Error)
	}
	blob, err := c.ReportBytes(ctx, final.ReportKey)
	if err != nil {
		t.Fatal(err)
	}
	return blob, final
}

// TestFleetByteIdenticalAcrossNodes is the tentpole property in process:
// a report computed anywhere in a 2-node ring is served byte-identical
// from every node, with the second serve doing zero emulation work.
func TestFleetByteIdenticalAcrossNodes(t *testing.T) {
	nodes := newFleetRing(t, 2)
	req := client.Request{Experiment: "fig2", Threshold: 50}

	blobA, jobA := runOn(t, nodes[0], req)
	emusAfterFirst := nodes[0].srv.emulationsTotal() + nodes[1].srv.emulationsTotal()
	if emusAfterFirst == 0 {
		t.Fatal("cold run emulated nothing — the probe is broken")
	}

	blobB, jobB := runOn(t, nodes[1], req)
	if jobA.ReportKey != jobB.ReportKey {
		t.Fatalf("nodes derive different report keys: %s vs %s", jobA.ReportKey, jobB.ReportKey)
	}
	if !bytes.Equal(blobA, blobB) {
		t.Fatal("the two nodes served different report bytes for one key")
	}
	if emus := nodes[0].srv.emulationsTotal() + nodes[1].srv.emulationsTotal(); emus != emusAfterFirst {
		t.Fatalf("warm fleet serve re-emulated: %d emulations after first run, %d after second",
			emusAfterFirst, emus)
	}
}

// TestFleetForwardToOwner: a submission landing on the non-owner is
// satisfied via the ring owner (peer store or forwarded job), and the
// owner's object tier ends up holding the report either way.
func TestFleetForwardToOwner(t *testing.T) {
	nodes := newFleetRing(t, 2)
	req := client.Request{Experiment: "table1", Threshold: 50}

	// Derive the key the same way the server does to find the owner.
	key := store.ReportKey("table1", true, 50, nil, store.SelfIdentity())
	fleet0 := nodes[0].srv.cfg.Fleet
	owner := fleet0.owner(string(key))
	var nonOwner *fleetNode
	for _, n := range nodes {
		if n.url != owner {
			nonOwner = n
		}
	}
	if nonOwner == nil {
		t.Fatal("could not find a non-owner node")
	}

	blob, _ := runOn(t, nonOwner, req)
	if len(blob) == 0 {
		t.Fatal("empty report")
	}
	// The owner's local tier holds the object: either it computed the
	// job (forward) or received the write-back.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := ownerNode(nodes, owner).local.Get(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("report never reached the ring owner's store tier")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func ownerNode(nodes []*fleetNode, url string) *fleetNode {
	for _, n := range nodes {
		if n.url == url {
			return n
		}
	}
	return nil
}

// TestFleetPeerDownDegradesToLocalCompute: with its peer gone, a node
// answers every submission locally with no request errors — the ring
// decides placement, never availability.
func TestFleetPeerDownDegradesToLocalCompute(t *testing.T) {
	nodes := newFleetRing(t, 2)
	nodes[1].ts.Close() // SIGKILL stand-in: connections now refuse

	// Run both experiments so at least one key owns on the dead peer.
	for _, exp := range []string{"fig2", "table1"} {
		blob, job := runOn(t, nodes[0], client.Request{Experiment: exp, Threshold: 50})
		if len(blob) == 0 || job.Status != client.StatusDone {
			t.Fatalf("%s: degraded run failed: %+v", exp, job)
		}
	}

	// The healthz fleet section reports the dead peer unhealthy.
	resp, err := http.Get(nodes[0].url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte(`"healthy": false`)) {
		t.Fatalf("healthz does not report the dead peer unhealthy:\n%s", body)
	}
}

// TestFleetDirectPinsJob: a Direct submission is computed on the
// receiving node even when the key owns elsewhere — the loop guard.
func TestFleetDirectPinsJob(t *testing.T) {
	nodes := newFleetRing(t, 2)
	req := client.Request{Experiment: "fig2", Threshold: 50}
	key := store.ReportKey("fig2", true, 50, nil, store.SelfIdentity())
	fleet0 := nodes[0].srv.cfg.Fleet
	var nonOwner *fleetNode
	for _, n := range nodes {
		if n.url != fleet0.owner(string(key)) {
			nonOwner = n
		}
	}
	req.Direct = true
	blob, _ := runOn(t, nonOwner, req)
	if len(blob) == 0 {
		t.Fatal("empty report")
	}
	if forwards := nonOwner.srv.cfg.Fleet.forwards.Load(); forwards != 0 {
		t.Fatalf("direct job was forwarded %d time(s)", forwards)
	}
	if got := nonOwner.srv.srvComputed.Load(); got != 1 {
		t.Fatalf("direct job not computed locally (computed=%d)", got)
	}
}

// TestFleetSweepForwarding: sweep jobs ride the same forwarding path with
// their typed grid, and the sweep document replicates byte-identically.
func TestFleetSweepForwarding(t *testing.T) {
	nodes := newFleetRing(t, 2)
	req := client.Request{Experiment: "fig6", Thresholds: []float64{110, 50}}

	blobA, jA := runOn(t, nodes[0], req)
	blobB, jB := runOn(t, nodes[1], req)
	if jA.ReportKey != jB.ReportKey {
		t.Fatalf("sweep keys diverge: %s vs %s", jA.ReportKey, jB.ReportKey)
	}
	if !bytes.Equal(blobA, blobB) {
		t.Fatal("sweep documents diverge across nodes")
	}
	if _, err := opgate.DecodeSweep(blobA); err != nil {
		t.Fatalf("replicated sweep document does not decode: %v", err)
	}

	// And the typed client decodes it as a sweep through Run.
	c, err := client.New(nodes[1].url)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweep == nil || res.Reports != nil {
		t.Fatalf("Run misclassified a sweep result: %+v", res)
	}
	if len(res.Sweep.Cells) != 2 {
		t.Fatalf("sweep decoded %d cells, want 2", len(res.Sweep.Cells))
	}
	sw, err := c.Sweep(ctx, jA.ReportKey)
	if err != nil {
		t.Fatalf("Client.Sweep on a sweep key: %v", err)
	}
	if fmt.Sprint(sw.Thresholds) != fmt.Sprint(res.Sweep.Thresholds) {
		t.Fatalf("Sweep and Run disagree: %v vs %v", sw.Thresholds, res.Sweep.Thresholds)
	}
}
