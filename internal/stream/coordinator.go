// Package stream implements the paper's parallel streaming data transfer
// (§3): a long-standing coordinator service that matchmakes N SQL workers
// with M = N·k ML workers, a SQL-side sender table UDF, and an ML-side
// SQLStreamInputFormat, so rows flow from SQL workers to ML workers over
// TCP sockets without touching the file system.
//
// The information and data flow follows Figure 2 of the paper:
//
//	(1) each SQL worker registers with the coordinator (worker id, address,
//	    total worker count, plus the command/arguments of the ML job)
//	(2) when all have registered, the coordinator launches the ML job
//	(3) the ML job's InputFormat asks the coordinator for its InputSplits:
//	    m = n·k splits, grouped k per SQL worker, each carrying the SQL
//	    worker's address as its (locality) location
//	(4) spawned ML workers register back with the coordinator
//	(5) the coordinator matches each SQL worker with its ML workers
//	(6) and sends the match information to both sides
//	(7) SQL workers establish TCP connections to their ML workers
//	(8) and stream rows round-robin through per-target send buffers
//
// Failure handling implements the §6 discussion: when a transfer between a
// SQL worker and one of its ML workers breaks, the SQL worker re-registers
// (restart) and all ML workers of that group re-register after their reads
// fail — the coordinator re-matches and the transfer is resent from
// scratch, with the ML side discarding partial rows via task re-execution
// (hadoopfmt.RetryableError).
package stream

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"
)

// JobSpec is what a launcher receives when all SQL workers of a job have
// registered (Figure 2, step 2).
type JobSpec struct {
	Job        string
	Command    string
	Args       []string
	NumWorkers int
	SplitsPer  int // k
	Schema     string
}

// Launcher starts the ML job. It is invoked exactly once per job, on its
// own goroutine, when registration completes.
type Launcher func(spec JobSpec)

// SplitInfo describes one stream split handed to the ML job (step 3).
type SplitInfo struct {
	ID        int      `json:"id"`
	SQLWorker int      `json:"sqlWorker"`
	Locations []string `json:"locations"`
}

// Target is one matched ML worker endpoint for a SQL worker (steps 5-6).
type Target struct {
	Split  int    `json:"split"`
	Listen string `json:"listen"` // real TCP address the ML reader accepts on
	Addr   string `json:"addr"`   // simulated node address, for cost charging

	// Epoch is the coordinator-assigned registration generation for the
	// split: bumped on every register_ml, echoed by the reader in the data
	// connection's resume handshake. A sender holding target info from an
	// older epoch detects the mismatch and refreshes via get_target instead
	// of resuming against a re-executed reader's reset offsets.
	Epoch uint32 `json:"epoch,omitempty"`
}

// maxControlMessage caps one control message. The largest legitimate one is
// a splits or matches reply — tens of bytes per split — so 1 MiB is three
// orders of magnitude of headroom, and a peer cannot make the coordinator
// (or a client awaiting a reply) buffer more than this per connection.
const maxControlMessage = 1 << 20

// errMessageTooLarge is readMessage's refusal of a line past the cap.
var errMessageTooLarge = fmt.Errorf("stream: control message exceeds %d bytes", maxControlMessage)

// readMessage reads one control message — one JSON line — off br. Every
// control-plane read on both sides of the protocol goes through it, which
// is what bounds the bytes a peer can make this process hold: a line longer
// than maxControlMessage is refused without reading the rest of it.
func readMessage(br *bufio.Reader) (message, error) {
	var line []byte
	for {
		chunk, err := br.ReadSlice('\n')
		if len(line)+len(chunk) > maxControlMessage {
			return message{}, errMessageTooLarge
		}
		if err == nil && line == nil {
			line = chunk // the common case: the whole message in one buffer
			break
		}
		line = append(line, chunk...)
		if err == nil || (err == io.EOF && len(line) > 0) {
			break
		}
		if err != bufio.ErrBufferFull {
			return message{}, err
		}
	}
	var msg message
	if err := json.Unmarshal(line, &msg); err != nil {
		return message{}, fmt.Errorf("stream: malformed control message: %w", err)
	}
	return msg, nil
}

// request runs one control exchange with the coordinator at addr: req out,
// one reply back, which must be of type want. readTimeout, when positive,
// bounds the wait for the reply; get_splits and register_ml pass 0, as the
// coordinator holds their reply until the job's SQL workers registered.
func request(addr string, dialTimeout, readTimeout time.Duration, req message, want string) (_ message, err error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return message{}, fmt.Errorf("stream: dial coordinator: %w", err)
	}
	defer func() {
		if cerr := conn.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return message{}, err
	}
	if readTimeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(readTimeout)); err != nil {
			return message{}, err
		}
	}
	reply, err := readMessage(bufio.NewReader(conn))
	if err != nil {
		return message{}, fmt.Errorf("stream: %s: %w", req.Type, err)
	}
	if reply.Type != want {
		return message{}, fmt.Errorf("stream: %s failed: %s", req.Type, reply.Error)
	}
	return reply, nil
}

// message is the coordinator wire protocol (JSON lines).
type message struct {
	Type string `json:"type"`

	// register_sql
	Job        string   `json:"job,omitempty"`
	Worker     int      `json:"worker,omitempty"`
	NumWorkers int      `json:"numWorkers,omitempty"`
	Addr       string   `json:"addr,omitempty"`
	Schema     string   `json:"schema,omitempty"`
	Command    string   `json:"command,omitempty"`
	Args       []string `json:"args,omitempty"`
	K          int      `json:"k,omitempty"`

	// register_ml / get_target
	Split  int    `json:"split,omitempty"`
	Listen string `json:"listen,omitempty"`

	// Epoch carries the coordinator-assigned registration generation in
	// register_ml replies (see Target.Epoch).
	Epoch uint32 `json:"epoch,omitempty"`

	// splits / matches replies
	Splits  []SplitInfo `json:"splits,omitempty"`
	Targets []Target    `json:"targets,omitempty"`
	Error   string      `json:"error,omitempty"`
}

// sqlWorker is the coordinator's record of one SQL worker's latest
// registration. A worker stays registered once it has registered; only its
// parked connection comes and goes, and a re-registration replaces the
// record.
type sqlWorker struct {
	addr string

	// conn is the connection the worker is parked on, nil once it closed
	// or its lease expired. enc writes to conn and is the worker's one
	// pending wait for matches: tryDispatch takes it, so each registration
	// gets at most one matches message.
	conn net.Conn
	enc  *json.Encoder

	// lastBeat is when the worker last registered or heartbeat.
	lastBeat time.Time
}

// jobState tracks one transfer session.
type jobState struct {
	spec JobSpec

	// ready is closed by the register_sql that completes the job's
	// registration; launch, restart count and registration waits read it.
	ready chan struct{}

	// sql[w] is SQL worker w's record; len(sql) counts the registered
	// workers.
	sql map[int]*sqlWorker

	// mlRegs[split] is the latest ML registration for the split
	// (last-writer-wins: stale listeners fail the sender's dial and
	// trigger another restart round). Its Epoch counts the split's
	// register_ml calls: the current value is the live epoch, older
	// values are fenced.
	mlRegs map[int]Target

	// restarts counts §6 group restarts: register_sql messages arriving
	// after the job launched. Per-connection reconnects (the sender's
	// backoff + spool-resume path) do not pass through here, which is what
	// lets tests assert a single reset was absorbed without a restart.
	restarts int

	// expired counts leases the coordinator revoked from hung workers.
	expired int
}

// Coordinator is the long-standing matchmaking service.
type Coordinator struct {
	launcher Launcher

	// LeaseDuration, when positive, arms hung-worker detection: each SQL
	// registration grants a lease renewed by heartbeat messages on the
	// parked connection, and a worker whose lease lapses has that
	// connection severed — so a sender that is hung (not merely
	// disconnected) is forced onto its failure path instead of wedging the
	// job forever. Must be set before Start. Zero disables leases.
	LeaseDuration time.Duration

	mu   sync.Mutex
	jobs map[string]*jobState

	ln     net.Listener
	wg     sync.WaitGroup
	closed bool

	// leaseStop is closed by Stop: it ends leaseLoop and every
	// registration wait.
	leaseStop chan struct{}

	// conns holds every accepted connection whose handler has not yet
	// returned; Stop severs them all.
	conns map[net.Conn]struct{}

	// Logf, when set, receives protocol trace lines (tests, CLI verbose).
	Logf func(format string, args ...any)
}

// NewCoordinator returns an unstarted coordinator. launcher may be nil when
// ML jobs are started externally (e.g. by the benchmark harness itself).
func NewCoordinator(launcher Launcher) *Coordinator {
	return &Coordinator{launcher: launcher, jobs: make(map[string]*jobState),
		conns: make(map[net.Conn]struct{}), leaseStop: make(chan struct{})}
}

// Start begins listening on addr ("127.0.0.1:0" for an ephemeral port) and
// returns the bound address.
func (c *Coordinator) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("stream: coordinator listen: %w", err)
	}
	c.ln = ln
	c.wg.Add(1)
	go c.acceptLoop()
	if c.LeaseDuration > 0 {
		c.wg.Add(1)
		go c.leaseLoop()
	}
	return ln.Addr().String(), nil
}

// Stop shuts the coordinator down: it severs every connection it has
// accepted and waits for their handlers to return.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	wasClosed := c.closed
	c.closed = true
	// A parked handler blocks reading heartbeats until its peer closes, and
	// a peer that never will (hung, replaced by a re-registration, or a
	// test driving the protocol by hand) must not wedge shutdown. Closing
	// a socket does not wait on its peer, so it happens under the lock;
	// acceptLoop closes whatever it accepts from here on.
	for conn := range c.conns {
		//lint:allow errdiscard shutdown teardown; the close is the signal and the peer may already be gone
		conn.Close()
	}
	c.mu.Unlock()
	if !wasClosed {
		close(c.leaseStop)
	}
	if c.ln != nil {
		if err := c.ln.Close(); err != nil {
			c.logf("coordinator: listener close: %v", err)
		}
	}
	c.wg.Wait()
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Restarts reports how many §6 group restarts the job has gone through:
// register_sql messages seen after launch. Per-connection reconnects
// absorbed by the sender's backoff + spool-resume path never reach this
// counter — the chaos tests assert exactly that.
func (c *Coordinator) Restarts(job string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if js, ok := c.jobs[job]; ok {
		return js.restarts
	}
	return 0
}

// TotalRestarts sums Restarts over every job the coordinator has seen.
func (c *Coordinator) TotalRestarts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, js := range c.jobs {
		n += js.restarts
	}
	return n
}

// ExpiredLeases reports how many worker leases the coordinator revoked for
// the job.
func (c *Coordinator) ExpiredLeases(job string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if js, ok := c.jobs[job]; ok {
		return js.expired
	}
	return 0
}

// leaseLoop periodically revokes leases of workers that stopped renewing.
func (c *Coordinator) leaseLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.LeaseDuration / 2)
	defer tick.Stop()
	for {
		select {
		case <-c.leaseStop:
			return
		case <-tick.C:
			c.expireLeases(time.Now())
		}
	}
}

// expireLeases severs the parked connection of every worker whose lease
// lapsed before now. Closing the connection is the fence: the hung sender's
// next coordinator interaction fails, pushing it onto its restart path, and
// a fresh register_sql re-admits it with a new lease.
func (c *Coordinator) expireLeases(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for job, js := range c.jobs {
		for w, sw := range js.sql {
			if sw.conn == nil || now.Sub(sw.lastBeat) <= c.LeaseDuration {
				continue
			}
			js.expired++
			//lint:allow errdiscard fencing a hung worker; the close itself is the signal and the peer may already be gone
			sw.conn.Close()
			sw.unpark()
			c.logf("lease expired for sql worker %d of job %s", w, job)
		}
	}
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.mu.Lock()
		c.conns[conn] = struct{}{}
		if c.closed {
			//lint:allow errdiscard a connection accepted during shutdown; its handler sees the close and returns
			conn.Close()
		}
		c.mu.Unlock()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handle(conn)
			c.mu.Lock()
			delete(c.conns, conn)
			c.mu.Unlock()
		}()
	}
}

// handle serves one connection: a single request message, with the
// register_sql case parking the connection until matches are dispatched.
func (c *Coordinator) handle(conn net.Conn) {
	//lint:allow errdiscard per-connection teardown in the accept loop; the request outcome was already sent (or the peer is gone)
	defer conn.Close()
	br := bufio.NewReader(conn)
	enc := json.NewEncoder(conn)
	msg, err := readMessage(br)
	if err != nil {
		if errors.Is(err, errMessageTooLarge) {
			c.reply(enc, message{Type: "error", Error: err.Error()})
		}
		return
	}
	switch msg.Type {
	case "register_sql":
		c.handleRegisterSQL(&msg, conn, enc, br)
	case "get_splits":
		c.handleGetSplits(&msg, enc)
	case "register_ml":
		c.handleRegisterML(&msg, enc)
	case "get_target":
		c.handleGetTarget(&msg, enc)
	default:
		c.reply(enc, message{Type: "error", Error: "unknown message " + msg.Type})
	}
}

// reply encodes one response message. A failed write is logged, not
// dropped: the peer's own read loop surfaces the broken connection, but a
// silently vanished reply would otherwise be invisible when diagnosing a
// wedged transfer.
func (c *Coordinator) reply(enc *json.Encoder, msg message) {
	if err := enc.Encode(msg); err != nil {
		log.Printf("stream: coordinator: reply %q failed: %v", msg.Type, err)
	}
}

func (c *Coordinator) job(name string) *jobState {
	js, ok := c.jobs[name]
	if !ok {
		js = &jobState{ready: make(chan struct{}), sql: make(map[int]*sqlWorker), mlRegs: make(map[int]Target)}
		c.jobs[name] = js
	}
	return js
}

// isReady reports whether the job's registration is complete.
func (js *jobState) isReady() bool {
	select {
	case <-js.ready:
		return true
	default:
		return false
	}
}

// handleRegisterSQL implements steps 1-2 and the restart path: the worker
// parks on this connection until its matches arrive. Reading on keeps the
// connection's read side alive so a dropped sender is eventually collected.
func (c *Coordinator) handleRegisterSQL(msg *message, conn net.Conn, enc *json.Encoder, br *bufio.Reader) {
	c.mu.Lock()
	// A worker id outside [0, NumWorkers), or a worker count other than the
	// job's earlier registrations gave, is refused unrecorded: so ready
	// closes only once every worker has registered, and never reopens.
	if js, ok := c.jobs[msg.Job]; msg.Worker < 0 || msg.Worker >= msg.NumWorkers ||
		ok && js.spec.NumWorkers > 0 && js.spec.NumWorkers != msg.NumWorkers {
		c.mu.Unlock()
		c.reply(enc, message{Type: "error", Error: fmt.Sprintf(
			"register_sql: worker %d of %d does not fit job %s", msg.Worker, msg.NumWorkers, msg.Job)})
		return
	}
	js := c.job(msg.Job)
	isRestart := js.isReady()
	js.spec = JobSpec{
		Job:        msg.Job,
		Command:    msg.Command,
		Args:       msg.Args,
		NumWorkers: msg.NumWorkers,
		SplitsPer:  max(1, msg.K),
		Schema:     msg.Schema,
	}
	sw := &sqlWorker{addr: msg.Addr, conn: conn, enc: enc, lastBeat: time.Now()}
	js.sql[msg.Worker] = sw
	if isRestart {
		js.restarts++
		// §6 restart: the worker re-parks for a fresh matches message. ML
		// registrations are kept — failed readers re-register on their own
		// (last-writer-wins replaces their stale listeners), while splits
		// that already completed keep their entries so the sender can skip
		// them and resume at per-split granularity.
		c.logf("restart: sql worker %d of job %s re-registered", msg.Worker, msg.Job)
	}
	launch := !isRestart && len(js.sql) >= js.spec.NumWorkers
	if launch {
		close(js.ready)
	}
	spec := js.spec
	c.mu.Unlock()

	if launch && c.launcher != nil {
		c.logf("launching ML job %s (%s)", spec.Job, spec.Command)
		//lint:allow lockhygiene launcher is a caller-supplied fire-and-forget hook; the ML job's lifecycle is tracked by its own task layer, not the coordinator
		go c.launcher(spec)
	}
	c.tryDispatch(msg.Job, msg.Worker)

	// Park until the connection drops (the sender closes it after it has
	// received its matches and finished, or on its own failure path).
	// Heartbeat messages arriving on the parked connection renew this
	// registration's lease; everything else is discarded. A registration
	// that a restart replaced has left js.sql, so renewing or unparking
	// it changes nothing the coordinator reads.
	for {
		parked, err := readMessage(br)
		if err != nil {
			break
		}
		if parked.Type != "heartbeat" {
			continue
		}
		c.mu.Lock()
		sw.lastBeat = time.Now()
		c.mu.Unlock()
	}
	c.mu.Lock()
	sw.unpark()
	c.mu.Unlock()
}

// unpark forgets the worker's parked connection and any wait for matches
// on it. The worker stays registered.
func (sw *sqlWorker) unpark() {
	sw.conn, sw.enc = nil, nil
}

// handleGetSplits implements step 3: it answers once all SQL workers have
// registered, so the split list and schema are complete.
func (c *Coordinator) handleGetSplits(msg *message, enc *json.Encoder) {
	js := c.waitForRegistration(msg.Job, enc)
	if js == nil {
		return
	}
	c.mu.Lock()
	n := js.spec.NumWorkers
	k := js.spec.SplitsPer
	splits := make([]SplitInfo, 0, n*k)
	for w := 0; w < n; w++ {
		var loc string
		if sw := js.sql[w]; sw != nil {
			loc = sw.addr
		}
		for i := 0; i < k; i++ {
			splits = append(splits, SplitInfo{
				ID:        w*k + i,
				SQLWorker: w,
				Locations: []string{loc},
			})
		}
	}
	schema := js.spec.Schema
	c.mu.Unlock()
	c.reply(enc, message{Type: "splits", Schema: schema, Splits: splits})
}

// registrationWait bounds how long get_splits and register_ml wait for the
// job's SQL workers to register.
const registrationWait = 10 * time.Second

// waitForRegistration returns the job once its ready channel is closed: at
// once when it is, and otherwise when it closes. get_splits can overtake the
// last register_sql, and after a coordinator restart the ML side may ask
// before any SQL worker is back. If Stop or registrationWait comes first,
// it answers the request with an error and returns nil.
func (c *Coordinator) waitForRegistration(job string, enc *json.Encoder) *jobState {
	c.mu.Lock()
	js := c.job(job)
	c.mu.Unlock()
	if js.isReady() {
		return js
	}
	timer := time.NewTimer(registrationWait)
	defer timer.Stop()
	select {
	case <-js.ready:
		return js
	case <-c.leaseStop:
	case <-timer.C:
	}
	c.reply(enc, message{Type: "error", Error: "job " + job + " never registered"})
	return nil
}

// handleRegisterML implements step 4; completing a group triggers steps
// 5-6 for that group's SQL worker.
func (c *Coordinator) handleRegisterML(msg *message, enc *json.Encoder) {
	js := c.waitForRegistration(msg.Job, enc)
	if js == nil {
		return
	}
	c.mu.Lock()
	epoch := js.mlRegs[msg.Split].Epoch + 1
	js.mlRegs[msg.Split] = Target{Split: msg.Split, Listen: msg.Listen, Addr: msg.Addr, Epoch: epoch}
	worker := msg.Split / js.spec.SplitsPer
	c.mu.Unlock()
	c.reply(enc, message{Type: "ok", Epoch: epoch})
	c.tryDispatch(msg.Job, worker)
}

// handleGetTarget serves a sender's mid-stream refresh: the latest
// registration (listener + epoch) for one split, so a per-connection
// reconnect can find a re-executed reader without a group restart. Unlike
// get_splits this does not wait — an unknown split is an error the sender's
// backoff loop absorbs.
func (c *Coordinator) handleGetTarget(msg *message, enc *json.Encoder) {
	c.mu.Lock()
	var t Target
	var found bool
	if js, ok := c.jobs[msg.Job]; ok {
		t, found = js.mlRegs[msg.Split]
	}
	c.mu.Unlock()
	if !found {
		c.reply(enc, message{Type: "error",
			Error: fmt.Sprintf("no ml registration for job %s split %d", msg.Job, msg.Split)})
		return
	}
	c.reply(enc, message{Type: "target", Targets: []Target{t}})
}

// tryDispatch sends the matches message (step 6) to a SQL worker when its
// entire group of ML workers is registered and the worker is waiting. It
// takes the wait before writing, so a registration gets one matches
// message at most; after a failed write the worker's next register_sql
// waits afresh and is matched at once.
func (c *Coordinator) tryDispatch(job string, worker int) {
	c.mu.Lock()
	js := c.jobs[job]
	sw := js.sql[worker]
	if sw == nil || sw.enc == nil {
		c.mu.Unlock()
		return
	}
	k := js.spec.SplitsPer
	targets := make([]Target, 0, k)
	for s := worker * k; s < (worker+1)*k; s++ {
		t, ok := js.mlRegs[s]
		if !ok {
			c.mu.Unlock()
			return
		}
		targets = append(targets, t)
	}
	enc := sw.enc
	sw.enc = nil
	c.mu.Unlock()

	if err := enc.Encode(message{Type: "matches", Targets: targets}); err != nil {
		log.Printf("stream: coordinator: dispatch to sql worker %d failed: %v", worker, err)
		return
	}
	c.logf("matched sql worker %d of job %s with %d ml workers", worker, job, len(targets))
}
