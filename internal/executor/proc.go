package executor

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"repro/internal/backoff"
	"repro/internal/coverage"
	"repro/internal/mem"
	"repro/internal/sandbox"
)

// Defaults for ProcConfig's zero values.
const (
	// DefaultExecTimeout is the per-execution watchdog: how long one
	// send+receive round may take before the target is classified as
	// hung and its process group is killed.
	DefaultExecTimeout = 200 * time.Millisecond
	// DefaultSpawnTimeout bounds the liveness probe: how long a freshly
	// spawned target has to start accepting connections.
	DefaultSpawnTimeout = 10 * time.Second
	// spawnRetries is how many times one Run will respawn a target that
	// dies or never answers its liveness probe before giving the campaign
	// up as unrecoverable.
	spawnRetries = 3
	// DefaultMaxJournal caps the reproducer journal. When a target has
	// processed this many packets since its last restart, the executor
	// restarts it preventively: the journal re-anchors at a fresh process
	// state, so every captured reproducer both stays bounded and replays
	// from a clean start.
	DefaultMaxJournal = 512
)

// responseCap bounds how many response bytes feed the coverage tracer per
// execution. Edge chaining makes consecutive byte pairs distinct edges, so
// a prefix this long already separates response shapes; hashing a server's
// entire bulk reply would only slow the loop.
const responseCap = 64

// ProcConfig parameterizes a supervised target process.
type ProcConfig struct {
	// Cmd is the target's argv. The literal substring "{addr}" in any
	// argument is replaced with Addr, so one flag spells both where the
	// server listens and where the executor connects.
	Cmd []string
	// Addr is the host:port the target serves on.
	Addr string
	// Net is the transport: "tcp" (default) or "udp". UDP targets get no
	// connect-probe (datagram sockets always "connect") and one silent
	// resend before a read timeout is classified as a hang, since a lost
	// datagram is indistinguishable from a stalled server.
	Net string
	// ExecTimeout is the per-execution watchdog (0 = DefaultExecTimeout).
	ExecTimeout time.Duration
	// SpawnTimeout bounds the post-spawn liveness probe
	// (0 = DefaultSpawnTimeout).
	SpawnTimeout time.Duration
	// MaxJournal caps the reproducer journal; reaching it triggers a
	// preventive restart (0 = DefaultMaxJournal).
	MaxJournal int
	// Seed seeds the connect-retry backoff's jitter stream; campaigns
	// should split it from their seed so retry timing never perturbs the
	// fuzzing streams.
	Seed uint64
	// Stderr, when non-nil, receives the target's stderr (crash banners);
	// nil discards it.
	Stderr *os.File
	// Logf receives supervisor lifecycle messages (nil = no logging).
	Logf func(format string, args ...any)
}

// Proc is the real-target execution backend: it owns one target process
// and one connection to it, and implements the full supervision loop —
// spawn, liveness probe with capped exponential backoff, per-exec write
// and read deadlines, crash detection from connection resets and exit
// statuses, a watchdog that classifies unresponsive targets as hangs and
// kills the process group, automatic restart with campaign state
// preserved, and a packet journal that makes every crash a replayable
// reproducer.
//
// Coverage: a separate process exposes no instrumentation map, so the
// tracer is fed from the target's observable behavior — each response's
// leading bytes and length bucket light blocks whose edge chaining
// distinguishes response shapes. Coarser than in-process edge coverage,
// but it gives the engine's feedback loop real signal: inputs that elicit
// new response shapes are retained and cracked.
type Proc struct {
	cfg    ProcConfig
	tracer *coverage.Tracer
	blocks []coverage.BlockID
	bk     *backoff.Policy

	cmd       *exec.Cmd
	waitCh    chan *os.ProcessState
	procState *os.ProcessState // cached once reaped
	conn      net.Conn
	journal   [][]byte
	buf       []byte

	// Session-boundary tracking (BeginSession). starts holds the journal
	// indices where a session began; sessStart is the current session's
	// start; sessions latches once BeginSession has ever been called, and
	// gates the session-only behaviors (boundary-aligned preventive
	// restarts, prefix re-establishment after a survived drop) so
	// sequence-blind campaigns keep their exact prior semantics.
	starts    []int
	sessStart int
	sessions  bool

	restarts int // process (re)spawns after the first
	drops    int // connection drops survived without a restart
	spawned  bool
	closed   bool
	broken   error // sticky unrecoverable-backend error
}

// Block-space layout inside the "proc-response" region: 256 byte-value
// blocks, 16 response-length buckets, and two outcome markers.
const (
	blkLenBase = 256
	blkDrop    = 272
	blkEmpty   = 273
	blkCount   = 274
)

// NewProc validates the configuration and prepares a supervisor. Nothing
// is spawned until the first Run.
func NewProc(cfg ProcConfig) (*Proc, error) {
	if len(cfg.Cmd) == 0 {
		return nil, fmt.Errorf("executor: ProcConfig.Cmd is required")
	}
	if cfg.Addr == "" {
		return nil, fmt.Errorf("executor: ProcConfig.Addr is required")
	}
	switch cfg.Net {
	case "":
		cfg.Net = "tcp"
	case "tcp", "udp":
	default:
		return nil, fmt.Errorf("executor: ProcConfig.Net %q (want tcp or udp)", cfg.Net)
	}
	if cfg.ExecTimeout <= 0 {
		cfg.ExecTimeout = DefaultExecTimeout
	}
	if cfg.SpawnTimeout <= 0 {
		cfg.SpawnTimeout = DefaultSpawnTimeout
	}
	if cfg.MaxJournal <= 0 {
		cfg.MaxJournal = DefaultMaxJournal
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Proc{
		cfg:    cfg,
		tracer: coverage.NewTracer(),
		blocks: coverage.Blocks("proc-response", blkCount),
		bk:     backoff.New(cfg.Seed),
		buf:    make([]byte, 4096),
	}, nil
}

// Tracer exposes the response-coverage tracer of the most recent Run.
func (p *Proc) Tracer() *coverage.Tracer { return p.tracer }

// Restarts returns how many times the target process has been respawned
// after its initial start — crash recoveries, hang kills, and preventive
// journal-cap restarts combined.
func (p *Proc) Restarts() int { return p.restarts }

// Drops returns how many connection drops were survived by reconnecting to
// the still-live process (a server closing a connection it dislikes is not
// a crash).
func (p *Proc) Drops() int { return p.drops }

// Pid returns the live target's process ID, or 0 when no process is up —
// the hook chaos tests use to kill the target out from under the campaign.
func (p *Proc) Pid() int {
	if p.cmd == nil || p.cmd.Process == nil {
		return 0
	}
	if _, dead := p.exited(); dead {
		return 0
	}
	return p.cmd.Process.Pid
}

// Run executes one packet against the supervised process: ensure a live
// target (spawning or restarting as needed), journal the packet, send it
// under a write deadline, await the response under the watchdog deadline,
// and classify the outcome. Crash and hang results carry the journal as a
// replayable reproducer; the error return is reserved for an
// unrecoverable backend (spawn retries exhausted, executor closed).
func (p *Proc) Run(packet []byte) (sandbox.Result, error) {
	p.tracer.Reset()
	if p.closed {
		return sandbox.Result{}, fmt.Errorf("executor: Run after Close")
	}
	if p.broken != nil {
		return sandbox.Result{}, p.broken
	}
	if !p.sessions && len(p.journal) >= p.cfg.MaxJournal {
		// Preventive restart: re-anchor the journal at a fresh process so
		// reproducers stay bounded and replay from a clean start. With
		// sessions this happens in BeginSession instead, so a restart can
		// never sever an in-flight handshake prefix.
		p.stopTarget()
	}
	if err := p.ensureTarget(); err != nil {
		p.broken = err
		return sandbox.Result{}, err
	}
	p.journal = append(p.journal, append([]byte(nil), packet...))
	return p.exchange(packet), nil
}

// BeginSession marks a protocol-session boundary: the connection is
// dropped so the server's per-connection session state (activation
// flags, sequence numbers) resets, and the boundary is recorded in the
// reproducer journal. The next Run reconnects to the still-live process
// — boundaries do not cost a respawn. Preventive journal-cap restarts
// happen here, at the boundary, where they cannot sever a handshake
// prefix mid-sequence.
func (p *Proc) BeginSession() error {
	if p.closed {
		return fmt.Errorf("executor: BeginSession after Close")
	}
	if p.broken != nil {
		return p.broken
	}
	p.sessions = true
	if len(p.journal) >= p.cfg.MaxJournal {
		p.stopTarget()
	}
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	p.sessStart = len(p.journal)
	if n := len(p.starts); n == 0 || p.starts[n-1] != p.sessStart {
		p.starts = append(p.starts, p.sessStart)
	}
	return nil
}

// Close kills the target's process group and releases the connection.
func (p *Proc) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	p.stopTarget()
	return nil
}

// ensureTarget makes sure a live, connected target exists, spawning (and
// respawning, up to the retry budget) as needed. When the process is
// still alive and only the connection is down — the normal state after a
// BeginSession boundary — it reconnects instead of respawning, since a
// second spawn would race the live process for the listen address.
func (p *Proc) ensureTarget() error {
	if p.conn != nil {
		return nil
	}
	if p.cmd != nil {
		if _, dead := p.exited(); !dead {
			if err := p.connectProbeShort(); err == nil {
				return nil
			}
		}
		p.stopTarget()
	}
	var lastErr error
	for attempt := 0; attempt < spawnRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(p.bk.Delay(50*time.Millisecond, time.Second, attempt-1))
		}
		if err := p.startProcess(); err != nil {
			lastErr = err
			continue
		}
		if err := p.connectProbe(); err != nil {
			p.stopTarget()
			lastErr = err
			continue
		}
		return nil
	}
	return fmt.Errorf("executor: target unrecoverable after %d spawn attempts: %w",
		spawnRetries, lastErr)
}

// startProcess spawns the target in its own process group (so the watchdog
// can kill the whole tree) and resets the reproducer journal — every
// journal is anchored at a fresh process start.
func (p *Proc) startProcess() error {
	args := make([]string, len(p.cfg.Cmd))
	for i, a := range p.cfg.Cmd {
		args[i] = strings.ReplaceAll(a, "{addr}", p.cfg.Addr)
	}
	cmd := exec.Command(args[0], args[1:]...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if p.cfg.Stderr != nil {
		cmd.Stderr = p.cfg.Stderr
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("executor: spawn %q: %w", args[0], err)
	}
	if p.spawned {
		p.restarts++
	}
	p.spawned = true
	p.cmd = cmd
	p.procState = nil
	p.journal = p.journal[:0]
	// The journal re-anchors at the fresh process; if a session is in
	// flight its boundary re-anchors with it.
	p.starts = p.starts[:0]
	p.sessStart = 0
	if p.sessions {
		p.starts = append(p.starts, 0)
	}
	waitCh := make(chan *os.ProcessState, 1)
	go func() {
		cmd.Wait()
		waitCh <- cmd.ProcessState
	}()
	p.waitCh = waitCh
	p.cfg.Logf("executor: spawned %q (pid %d)", args[0], cmd.Process.Pid)
	return nil
}

// connectProbe establishes the connection to a freshly spawned target:
// connect-retry with capped exponential backoff and jitter until the
// server accepts, the process dies, or the spawn timeout expires.
func (p *Proc) connectProbe() error {
	deadline := time.Now().Add(p.cfg.SpawnTimeout)
	for attempt := 0; ; attempt++ {
		if st, dead := p.exited(); dead {
			return fmt.Errorf("executor: target died during liveness probe: %s", exitDesc(st))
		}
		c, err := net.DialTimeout(p.cfg.Net, p.cfg.Addr, 250*time.Millisecond)
		if err == nil {
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			p.conn = c
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("executor: liveness probe timed out after %v: %w", p.cfg.SpawnTimeout, err)
		}
		time.Sleep(p.bk.Delay(5*time.Millisecond, 250*time.Millisecond, attempt))
	}
}

// exchange performs one send+receive round and classifies the outcome.
func (p *Proc) exchange(packet []byte) sandbox.Result {
	deadline := time.Now().Add(p.cfg.ExecTimeout)
	p.conn.SetWriteDeadline(deadline)
	if _, err := p.conn.Write(packet); err != nil {
		if isTimeout(err) {
			// The target stopped draining its socket: hung.
			return p.hangResult()
		}
		return p.connFailure(err, packet)
	}
	p.conn.SetReadDeadline(deadline)
	n, err := p.conn.Read(p.buf)
	if err == nil {
		p.observe(p.buf[:n])
		return sandbox.Result{Outcome: sandbox.OK}
	}
	if isTimeout(err) {
		if p.cfg.Net == "udp" {
			// One silent resend: a lost datagram is not a hang.
			p.conn.SetWriteDeadline(time.Now().Add(p.cfg.ExecTimeout))
			p.conn.Write(packet)
			p.conn.SetReadDeadline(time.Now().Add(p.cfg.ExecTimeout))
			if n, rerr := p.conn.Read(p.buf); rerr == nil {
				p.observe(p.buf[:n])
				return sandbox.Result{Outcome: sandbox.OK}
			}
		}
		if st, dead := p.exited(); dead {
			// Silent death: the process went away without a reset.
			return p.crashResult(st)
		}
		return p.hangResult()
	}
	return p.connFailure(err, packet)
}

// connFailure handles a broken connection: if the process died, that is a
// crash; if it is still alive, the drop is survived by reconnecting (a
// server may legitimately shed a connection it dislikes), and only an
// unreachable-but-alive target is handed to the watchdog as a hang. The
// reconnect is tried before waiting out any exit grace: servers that shed
// connections on malformed input do it constantly, and the fast path must
// cost one dial, not a death-grace per drop.
func (p *Proc) connFailure(cause error, packet []byte) sandbox.Result {
	if st, dead := p.exited(); dead {
		return p.crashResult(st)
	}
	p.conn.Close()
	p.conn = nil
	if p.cfg.Net != "tcp" {
		// A UDP "dial" succeeds unconditionally, so the reconnect probe
		// can never distinguish a shed socket from a dead target — the
		// exit grace is the only discriminator. An alive target (e.g. an
		// ICMP-refused send racing the server's bind at startup) gets its
		// socket re-established and the error absorbed as a drop.
		if st, dead := p.exitedWithin(300 * time.Millisecond); dead {
			return p.crashResult(st)
		}
		if err := p.connectProbeShort(); err == nil {
			p.drops++
			p.cfg.Logf("executor: survived connection drop (%v); reconnected", cause)
			p.tracer.Hit(p.blocks[blkDrop])
			return sandbox.Result{Outcome: sandbox.OK}
		}
		return p.hangResult()
	}
	if err := p.connectProbeShort(); err == nil {
		// The reconnect can land in the teardown window where a dying
		// process's listen socket still accepts, so give the exit status a
		// short moment to surface before trusting the new connection. (If
		// the reap outruns even this, the next exchange's error finds
		// exited() true and classifies the crash one execution late.)
		if st, dead := p.exitedWithin(5 * time.Millisecond); dead {
			return p.crashResult(st)
		}
		p.drops++
		p.cfg.Logf("executor: survived connection drop (%v); reconnected", cause)
		p.tracer.Hit(p.blocks[blkDrop])
		if p.sessions {
			// The fresh connection lost the server's per-connection
			// session state; walk it back to where the sequence was.
			p.reestablish()
		}
		return sandbox.Result{Outcome: sandbox.OK}
	}
	// Unreachable: a reset usually races the supervisor's view of the
	// death by a scheduler tick, so afford the exit status a grace to
	// appear before declaring the target hung.
	if st, dead := p.exitedWithin(300 * time.Millisecond); dead {
		return p.crashResult(st)
	}
	return p.hangResult()
}

// connectProbeShort is the drop-recovery probe: a few quick attempts, not
// the full spawn budget — a healthy server re-accepts immediately.
func (p *Proc) connectProbeShort() error {
	for attempt := 0; attempt < 4; attempt++ {
		c, err := net.DialTimeout(p.cfg.Net, p.cfg.Addr, 250*time.Millisecond)
		if err == nil {
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			p.conn = c
			return nil
		}
		time.Sleep(p.bk.Delay(2*time.Millisecond, 50*time.Millisecond, attempt))
	}
	return fmt.Errorf("executor: target alive but unreachable")
}

// reestablish replays the current session's already-journaled packets
// (everything since the last BeginSession boundary, except the in-flight
// packet whose drop was just survived) down the freshly reconnected
// connection, driving a server that keeps session state per connection —
// activation flags, sequence numbers — back to the state the sequence
// believes it is in. Responses are drained but not observed: the
// execution's coverage stays the drop marker, not a replayed echo.
// Best-effort: a failure just leaves the session shallower than
// intended, which the engine's coverage feedback absorbs.
func (p *Proc) reestablish() {
	end := len(p.journal) - 1
	if end <= p.sessStart {
		return
	}
	prefix := p.journal[p.sessStart:end]
	deadline := time.Now().Add(p.cfg.ExecTimeout)
	for _, pkt := range prefix {
		p.conn.SetWriteDeadline(deadline)
		if _, err := p.conn.Write(pkt); err != nil {
			return
		}
		p.conn.SetReadDeadline(deadline)
		if _, err := p.conn.Read(p.buf); err != nil {
			return
		}
	}
	p.cfg.Logf("executor: re-established %d-packet session prefix after drop", len(prefix))
}

// crashResult classifies a dead target from its exit status and packages
// the reproducer. The next Run respawns.
func (p *Proc) crashResult(st *os.ProcessState) sandbox.Result {
	repro, starts := p.takeJournal()
	p.stopTarget()
	p.cfg.Logf("executor: target crashed (%s); %d-packet reproducer captured", exitDesc(st), len(repro))
	return sandbox.Result{
		Outcome:     sandbox.Crash,
		Fault:       classifyExit(st),
		Repro:       repro,
		ReproStarts: starts,
	}
}

// hangResult is the watchdog firing: the target is unresponsive, so its
// whole process group is killed and the hang is reported with the watchdog
// budget (in milliseconds) and the reproducer journal. The next Run
// respawns.
func (p *Proc) hangResult() sandbox.Result {
	repro, starts := p.takeJournal()
	p.stopTarget()
	p.cfg.Logf("executor: watchdog fired after %v; process group killed", p.cfg.ExecTimeout)
	return sandbox.Result{
		Outcome:     sandbox.Hang,
		HangSteps:   int(p.cfg.ExecTimeout / time.Millisecond),
		Repro:       repro,
		ReproStarts: starts,
	}
}

// takeJournal detaches the reproducer journal and its session boundaries
// (ownership moves to the result; the next spawn starts fresh ones).
func (p *Proc) takeJournal() ([][]byte, []int) {
	j, s := p.journal, p.starts
	p.journal, p.starts = nil, nil
	p.sessStart = 0
	return j, s
}

// observe feeds one response into the coverage tracer: a length bucket
// plus the leading bytes, whose edge chaining separates response shapes.
func (p *Proc) observe(resp []byte) {
	if len(resp) == 0 {
		p.tracer.Hit(p.blocks[blkEmpty])
		return
	}
	p.tracer.Hit(p.blocks[blkLenBase+lenBucket(len(resp))])
	n := len(resp)
	if n > responseCap {
		n = responseCap
	}
	for _, b := range resp[:n] {
		p.tracer.Hit(p.blocks[b])
	}
}

// lenBucket maps a response length to one of 16 buckets (0, 1, 2, 3, 4-5,
// 6-7, 8-11, ... power-of-two-ish growth).
func lenBucket(n int) int {
	b := 0
	for n > 1 && b < 15 {
		n >>= 1
		b++
	}
	return b
}

// exited non-blockingly reports whether the target process has exited,
// caching the reaped state.
func (p *Proc) exited() (*os.ProcessState, bool) {
	if p.procState != nil {
		return p.procState, true
	}
	if p.waitCh == nil {
		return nil, true // never spawned
	}
	select {
	case st := <-p.waitCh:
		p.procState = st
		return st, true
	default:
		return nil, false
	}
}

// exitedWithin waits up to grace for the target to exit — a connection
// reset usually races the supervisor's view of the death by a scheduler
// tick, so the classifier affords the exit status a moment to appear.
func (p *Proc) exitedWithin(grace time.Duration) (*os.ProcessState, bool) {
	if p.procState != nil {
		return p.procState, true
	}
	if p.waitCh == nil {
		return nil, true
	}
	select {
	case st := <-p.waitCh:
		p.procState = st
		return st, true
	case <-time.After(grace):
		return nil, false
	}
}

// stopTarget tears the target down: SIGKILL to the whole process group,
// reap the exit status, close the connection. Safe to call in any state.
func (p *Proc) stopTarget() {
	if p.cmd != nil && p.cmd.Process != nil && p.procState == nil {
		pid := p.cmd.Process.Pid
		// The spawn put the target in its own group with pgid == pid, so
		// the negative pid addresses everything it forked too.
		syscall.Kill(-pid, syscall.SIGKILL)
		p.cmd.Process.Kill()
		select {
		case st := <-p.waitCh:
			p.procState = st
		case <-time.After(2 * time.Second):
			// Unreapable (kernel limbo); abandon the wait goroutine.
		}
	}
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	p.cmd = nil
	p.waitCh = nil
	p.procState = nil
	p.journal = p.journal[:0]
	p.starts = p.starts[:0]
	p.sessStart = 0
}

// classifyExit turns an exit status into the fault identity that keys the
// crash bank: distinct induced crashes get distinct, stable signatures, so
// a reproducer replay lands on the same record.
func classifyExit(st *os.ProcessState) *mem.Fault {
	if st == nil {
		return &mem.Fault{Kind: mem.ConnReset, Site: "conn:reset-no-exit"}
	}
	if ws, ok := st.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
		sig := ws.Signal()
		kind := mem.ProcSignal
		if sig == syscall.SIGSEGV || sig == syscall.SIGBUS {
			// Signal deaths in the SEGV class keep the paper's Table I
			// fault kind, so in-process and real-process campaigns triage
			// the same way.
			kind = mem.SEGV
		}
		return &mem.Fault{Kind: kind, Site: "signal:" + sig.String()}
	}
	return &mem.Fault{Kind: mem.ProcExit, Site: fmt.Sprintf("exit:%d", st.ExitCode())}
}

// exitDesc renders an exit status for log lines.
func exitDesc(st *os.ProcessState) string {
	if st == nil {
		return "no exit status"
	}
	return st.String()
}

// isTimeout reports whether a network error is a deadline expiry.
func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// ReplaySession drives a fresh instance of the configured target through
// the packet sequence — a captured reproducer — and returns the result of
// the packet that terminated the replay (the first crash or hang), or an OK
// result if the target survived the whole sequence. The target instance
// is private to the call; the configured Addr must be free (replay after
// closing the capturing executor, or configure a different port). It
// honors recorded session boundaries (crash.Record.SeqStarts, nil for
// none): at each boundary index the replay calls
// BeginSession, re-running the session's handshake steps against fresh
// per-connection server state — activation flags and sequence numbers
// regenerate on the server exactly as they did during capture — instead
// of pushing every packet byte-blind down one long-lived connection.
func ReplaySession(cfg ProcConfig, seq [][]byte, starts []int) (sandbox.Result, error) {
	p, err := NewProc(cfg)
	if err != nil {
		return sandbox.Result{}, err
	}
	defer p.Close()
	si := 0
	for i, pkt := range seq {
		if si < len(starts) && starts[si] <= i {
			if err := p.BeginSession(); err != nil {
				return sandbox.Result{}, err
			}
			for si < len(starts) && starts[si] <= i {
				si++
			}
		}
		res, err := p.Run(pkt)
		if err != nil {
			return sandbox.Result{}, err
		}
		if res.Outcome != sandbox.OK {
			return res, nil
		}
	}
	return sandbox.Result{Outcome: sandbox.OK}, nil
}
