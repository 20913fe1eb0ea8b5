package fleetnet

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// Fault-injection tests: the fleet protocol's tolerance claims — partial
// writes reassemble, mid-frame resets reset the session and the next sync
// re-pushes idempotently, stalled peers are bounded by the frame timeout —
// exercised through a net.Conn wrapper that misbehaves on demand, over the
// real hub/leaf and mesh stacks. The TestConcurrent* names put these under
// `make race`.

// faultPlan is the shared, concurrently-mutable control block for every
// faultConn a proxy hands out. All knobs are safe to flip mid-connection
// from the test goroutine.
type faultPlan struct {
	// chunk caps bytes per underlying Write (0 = unlimited): partial writes.
	chunk atomic.Int64
	// latency sleeps before every underlying op: a slow link.
	latency atomic.Int64 // nanoseconds
	// killAfter, when armed (>0), counts down bytes written through the
	// wrapper and severs the connection mid-frame when it reaches zero.
	killAfter atomic.Int64
	// stall, while true, blocks reads (without consuming data): an
	// unresponsive peer that keeps the TCP session open.
	stall atomic.Bool
	// kills counts connections severed by killAfter.
	kills atomic.Int64
}

// faultConn wraps a net.Conn and misbehaves per the shared plan.
type faultConn struct {
	net.Conn
	plan *faultPlan
	// down, when true, aborts a stalled read — proxy teardown must not
	// wait out a stall left armed by a failing test.
	down *atomic.Bool
}

func (f *faultConn) Read(p []byte) (int, error) {
	n, err := f.Conn.Read(p)
	// The gate sits after the underlying read: a pipe goroutine is usually
	// already parked inside Conn.Read when a stall is armed, so gating the
	// call entry would let one buffered delivery slip through. Holding the
	// data keeps the connection open while delivering nothing — the peer's
	// frame deadline is what must end the wait.
	for f.plan.stall.Load() {
		if f.down.Load() {
			return 0, io.ErrClosedPipe
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d := f.plan.latency.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return n, err
}

func (f *faultConn) Write(p []byte) (int, error) {
	written := 0
	for len(p) > 0 {
		if d := f.plan.latency.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		n := len(p)
		if c := int(f.plan.chunk.Load()); c > 0 && n > c {
			n = c
		}
		if armed := f.plan.killAfter.Load(); armed > 0 {
			if int64(n) >= armed {
				// Sever mid-frame: write the last allowed bytes, then cut.
				f.Conn.Write(p[:armed])
				f.plan.killAfter.Store(0)
				f.plan.kills.Add(1)
				f.Conn.Close()
				return written, io.ErrClosedPipe
			}
			f.plan.killAfter.Add(int64(-n))
		}
		n, err := f.Conn.Write(p[:n])
		written += n
		if err != nil {
			return written, err
		}
		p = p[n:]
	}
	return written, nil
}

// faultProxy accepts on a loopback port and pipes each connection to the
// upstream address through faultConn wrappers, so an unmodified leaf or
// mesh uplink dialing the proxy experiences the plan's faults in both
// directions.
type faultProxy struct {
	ln       net.Listener
	upstream string
	plan     *faultPlan
	wg       sync.WaitGroup
	closed   atomic.Bool
}

func newFaultProxy(t *testing.T, upstream string) *faultProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &faultProxy{ln: ln, upstream: upstream, plan: &faultPlan{}}
	p.wg.Add(1)
	go p.acceptLoop()
	t.Cleanup(p.Close)
	return p
}

func (p *faultProxy) Addr() string { return p.ln.Addr().String() }

func (p *faultProxy) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.ln.Close()
	p.wg.Wait()
}

func (p *faultProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.upstream)
		if err != nil {
			down.Close()
			continue
		}
		faulty := &faultConn{Conn: down, plan: p.plan, down: &p.closed}
		p.wg.Add(2)
		pipe := func(dst, src net.Conn) {
			defer p.wg.Done()
			io.Copy(dst, src)
			// Half-close propagates as full close: the frame protocol is
			// strictly request/reply, so a dead direction means a dead link.
			dst.Close()
			src.Close()
		}
		go pipe(up, faulty)
		go pipe(faulty, up)
	}
}

// TestConcurrentSyncOverDegradedLink: two leaves sync concurrently through
// one proxy that fragments every write into 3-byte chunks with injected
// latency. Frames must reassemble; the fleet must settle to the same union
// both sides.
func TestConcurrentSyncOverDegradedLink(t *testing.T) {
	const budget = 3000
	state := core.NewSyncState(0)
	hub := startNode(t, Config{State: state, Target: "conv", Models: convModels(), Logf: t.Logf})
	proxy := newFaultProxy(t, hub.Addr())
	proxy.plan.chunk.Store(3)
	proxy.plan.latency.Store(int64(100 * time.Microsecond))

	fleets := []*core.Fleet{newConvFleet(t, 41, 1, 0), newConvFleet(t, 41, 1, 1)}
	var wg sync.WaitGroup
	for i, f := range fleets {
		leaf := newLeaf(t, Config{Target: "conv", Models: convModels(), NodeID: []string{"deg-a", "deg-b"}[i], Logf: t.Logf}, f, proxy.Addr())
		wg.Add(1)
		go func(l testLeaf) {
			defer wg.Done()
			if err := driveSynced(l.cfg.Fleet, l.Sync, budget, 512); err != nil {
				t.Errorf("leaf run over degraded link: %v", err)
			}
		}(leaf)
	}
	wg.Wait()

	execs, _, _ := hub.RemoteStats()
	if want := 2 * budget; execs < want {
		t.Fatalf("hub absorbed %d remote execs over the degraded link, want ≥ %d", execs, want)
	}
}

// TestConcurrentSyncSurvivesMidFrameResets: the link is severed mid-frame
// repeatedly; each severed window errors, the session resets, and the next
// window re-pushes idempotently — no state may be lost by the time the
// last clean sync lands.
func TestConcurrentSyncSurvivesMidFrameResets(t *testing.T) {
	state := core.NewSyncState(0)
	hub := startNode(t, Config{State: state, Target: "conv", Models: convModels(), Logf: t.Logf})
	proxy := newFaultProxy(t, hub.Addr())

	fleet := newConvFleet(t, 43, 1, 0)
	leaf := newLeaf(t, Config{Target: "conv", Models: convModels(), NodeID: "reset-leaf", Logf: t.Logf}, fleet, proxy.Addr())

	syncErrs, syncOKs := 0, 0
	for window := 1; window <= 8; window++ {
		fleet.Run(window * 400)
		if window%2 == 1 {
			// Cut the link a few dozen bytes into the next push — mid-frame,
			// after the header is out.
			proxy.plan.killAfter.Store(40)
		}
		if err := leaf.Sync(); err != nil {
			syncErrs++
			if leaf.Connected() {
				t.Fatal("leaf still marked connected after a failed sync")
			}
		} else {
			syncOKs++
		}
	}
	proxy.plan.killAfter.Store(0)
	if err := leaf.Sync(); err != nil {
		t.Fatalf("final sync on a clean link: %v", err)
	}
	if syncErrs == 0 {
		t.Fatal("no sync ever failed — the mid-frame cuts never landed")
	}
	if syncOKs == 0 {
		t.Fatal("no sync between cuts succeeded")
	}
	if kills := proxy.plan.kills.Load(); kills == 0 {
		t.Fatal("proxy recorded no mid-frame kills")
	}
	execs, _, _ := hub.RemoteStats()
	if execs != fleet.Execs() {
		t.Fatalf("hub absorbed %d execs, leaf ran %d — resets lost state", execs, fleet.Execs())
	}
}

// TestConcurrentSyncStalledPeerTimesOut: a peer that keeps the TCP session
// open but stops responding must cost one frame timeout, not a wedged
// campaign; once the stall clears, the next sync recovers the session.
func TestConcurrentSyncStalledPeerTimesOut(t *testing.T) {
	state := core.NewSyncState(0)
	hub := startNode(t, Config{State: state, Target: "conv", Models: convModels(), Logf: t.Logf})
	proxy := newFaultProxy(t, hub.Addr())

	fleet := newConvFleet(t, 47, 1, 0)
	leaf := newLeaf(t, Config{Target: "conv", Models: convModels(), NodeID: "stall-leaf", Timeout: 300 * time.Millisecond, Logf: t.Logf}, fleet, proxy.Addr())

	fleet.Run(500)
	if err := leaf.Sync(); err != nil {
		t.Fatalf("baseline sync: %v", err)
	}

	proxy.plan.stall.Store(true)
	start := time.Now()
	err := leaf.Sync()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("sync against a stalled peer succeeded")
	}
	if elapsed > 3*time.Second {
		t.Fatalf("stalled sync took %v — the frame timeout did not bound it", elapsed)
	}
	proxy.plan.stall.Store(false)

	fleet.Run(1000)
	if err := leaf.Sync(); err != nil {
		t.Fatalf("sync after stall cleared: %v", err)
	}
	execs, _, _ := hub.RemoteStats()
	if execs != fleet.Execs() {
		t.Fatalf("hub absorbed %d execs, leaf ran %d after stall recovery", execs, fleet.Execs())
	}
}

// TestConcurrentMeshOverFaultyLink: a two-node mesh whose single uplink
// runs through a degraded, occasionally-severed link. The uplink's capped
// exponential backoff must keep re-establishing the session and the nodes
// must still exchange their execution totals.
func TestConcurrentMeshOverFaultyLink(t *testing.T) {
	fleetA := newConvFleet(t, 53, 1, 0)
	fleetB := newConvFleet(t, 53, 1, 1)

	// The proxy address IS node A's identity: A advertises it, and B keeps
	// its single (static) uplink to it — so the one link in this mesh runs
	// through the fault injector in both directions. A advertising the
	// proxy also keeps A from dialing itself when B's hello announces the
	// proxy address in its peer book.
	aListen, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	aAddr := aListen.Addr().String()
	aListen.Close()
	proxy := newFaultProxy(t, aAddr)
	proxy.plan.chunk.Store(5)
	proxy.plan.latency.Store(int64(50 * time.Microsecond))

	a, err := NewNode(Config{
		State:     fleetA.State(),
		Fleet:     fleetA,
		Target:    "conv",
		Models:    convModels(),
		NodeID:    "mesh-a",
		Advertise: proxy.Addr(),
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ListenAndServe(aAddr); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	b := startNode(t, Config{
		State:      fleetB.State(),
		Fleet:      fleetB,
		Target:     "conv",
		Models:     convModels(),
		NodeID:     "mesh-b",
		Peers:      []string{proxy.Addr()},
		StaticOnly: true,
		Logf:       t.Logf,
	})

	for round := 1; round <= 10; round++ {
		fleetA.Run(round * 300)
		fleetB.Run(round * 300)
		if round == 3 || round == 6 {
			proxy.plan.killAfter.Store(60) // sever B's next push mid-frame
		}
		if err := a.Sync(); err != nil {
			t.Logf("mesh-a sync round %d: %v (tolerated)", round, err)
		}
		if err := b.Sync(); err != nil {
			t.Logf("mesh-b sync round %d: %v (tolerated)", round, err)
		}
	}
	proxy.plan.killAfter.Store(0)
	settle(t, a, b)

	if kills := proxy.plan.kills.Load(); kills == 0 {
		t.Fatal("proxy recorded no mid-frame kills — the chaos never landed")
	}
	// B is the link's only dialer, so only A accumulates inbound figures;
	// B's window into A's work is the ack stream, checked through the
	// fleets' converged union maps.
	if got, _, _ := a.RemoteStats(); got < fleetB.Execs() {
		t.Fatalf("mesh-a saw %d remote execs, want ≥ %d (B's total)", got, fleetB.Execs())
	}
	ea, eb := fleetA.Stats().Edges, fleetB.Stats().Edges
	if ea == 0 || ea != eb {
		t.Fatalf("union maps did not converge over the faulty link: A %d edges, B %d edges", ea, eb)
	}
}
