package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// controlExchange writes one raw request to the coordinator and reads the
// reply the way every client does. A coordinator that closes the
// connection without replying surfaces as the read error.
func controlExchange(t *testing.T, addr string, request []byte) (message, error) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := conn.Close(); err != nil {
			t.Errorf("close control connection: %v", err)
		}
	}()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The coordinator may stop reading (and close) before the request is
	// fully written; only the reply decides the outcome.
	_, _ = conn.Write(request)
	return readMessage(bufio.NewReader(conn))
}

// TestOversizedControlMessageRefused pins the control-plane bound: a
// register_sql whose args run past maxControlMessage is refused — the
// coordinator never buffers it, never registers the job — and the same
// coordinator still completes a normal job afterwards.
func TestOversizedControlMessageRefused(t *testing.T) {
	env := newTransferEnv(t)
	huge, err := json.Marshal(message{
		Type: "register_sql", Job: "jhuge", NumWorkers: 1, K: 1,
		Args: []string{strings.Repeat("a", 2*maxControlMessage)},
	})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := controlExchange(t, env.coordAddr, append(huge, '\n'))
	if err == nil && reply.Type != "error" {
		t.Fatalf("oversized register_sql answered %q, want a refusal", reply.Type)
	}
	env.coord.mu.Lock()
	_, registered := env.coord.jobs["jhuge"]
	env.coord.mu.Unlock()
	if registered {
		t.Fatal("oversized register_sql was registered")
	}
	select {
	case spec := <-env.launched:
		t.Fatalf("oversized register_sql launched job %q", spec.Job)
	default:
	}

	f := &InputFormat{CoordAddr: env.coordAddr, Job: "jafter"}
	d, _ := env.runTransfer(t, "jafter", 2, 2, 100, f, DefaultSenderConfig())
	checkExactlyOnce(t, d, 2, 100)
}

// countingReader counts the bytes drawn from the underlying reader.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestReadMessageBound feeds readMessage an endless line: it must give up
// at the cap, having drawn at most one bufio buffer past it.
func TestReadMessageBound(t *testing.T) {
	src := &countingReader{r: neverEnding('a')}
	br := bufio.NewReader(src)
	if _, err := readMessage(br); !errors.Is(err, errMessageTooLarge) {
		t.Fatalf("err = %v, want errMessageTooLarge", err)
	}
	if limit := maxControlMessage + br.Size(); src.n > limit {
		t.Fatalf("drew %d bytes for one message, limit %d", src.n, limit)
	}
}

type neverEnding byte

func (b neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// FuzzControlMessage hammers readMessage — the one function every
// control-plane read on both sides goes through — with arbitrary bytes,
// repeated to reach past the cap: each call returns a message or an error,
// never panics, and the reader never draws more than the cap (plus one
// bufio buffer) beyond the messages it has returned.
func FuzzControlMessage(f *testing.F) {
	for _, m := range []message{
		{Type: "register_sql", Job: "j", NumWorkers: 2, K: 2, Schema: "id BIGINT", Command: "svm", Args: []string{"a", "b"}},
		{Type: "matches", Targets: []Target{{Split: 1, Listen: "127.0.0.1:1", Epoch: 3}}},
		{Type: "heartbeat", Job: "j", Worker: 1},
	} {
		line, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(line, '\n'), uint16(1))
		f.Add(append(line, '\n'), uint16(3))
	}
	f.Add([]byte(`{"type":"register_sql","args":["`), uint16(1))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), uint16(40000))
	f.Add([]byte("\n\n{}\n[]\nnull\n"), uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, repeat uint16) {
		if len(data)*int(repeat) > 4*maxControlMessage {
			t.Skip()
		}
		src := &countingReader{r: bytes.NewReader(bytes.Repeat(data, int(repeat)))}
		br := bufio.NewReader(src)
		for {
			before := src.n
			_, err := readMessage(br)
			if limit := maxControlMessage + br.Size(); src.n-before > limit {
				t.Fatalf("one readMessage drew %d bytes, limit %d", src.n-before, limit)
			}
			if err != nil {
				return
			}
		}
	})
}

// TestRegisterSQLRejectsMalformedWorker: a register_sql whose worker id
// lies outside [0, NumWorkers), whose worker count is below one, or whose
// count disagrees with the job's earlier registrations is answered with an
// error and not recorded, so it neither launches the job nor stands in for
// a worker that has not registered.
func TestRegisterSQLRejectsMalformedWorker(t *testing.T) {
	launched := make(chan JobSpec, 2)
	coord := NewCoordinator(func(spec JobSpec) { launched <- spec })
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()

	register := func(worker, numWorkers int) *coordClient {
		c := dialCoord(t, addr)
		c.send(t, message{Type: "register_sql", Job: "jbad", Worker: worker, NumWorkers: numWorkers,
			Addr: fmt.Sprintf("node%d", worker), Command: "svm", Schema: "id BIGINT", K: 1})
		return c
	}
	refused := func(c *coordClient, what string) {
		t.Helper()
		if err := c.conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		var reply message
		if err := c.dec.Decode(&reply); err != nil || reply.Type != "error" {
			t.Fatalf("%s: reply %q (%v), want error", what, reply.Type, err)
		}
	}
	register(0, 2)
	refused(register(7, 2), "worker 7 of 2")
	refused(register(1, 0), "worker 1 of 0")
	refused(register(1, 3), "worker 1 of 3 after workers of 2")
	select {
	case <-launched:
		t.Fatal("the job launched with worker 1 missing")
	case <-time.After(200 * time.Millisecond):
	}

	register(1, 2)
	select {
	case <-launched:
	case <-time.After(5 * time.Second):
		t.Fatal("the job never launched once worker 1 registered")
	}
	gs := dialCoord(t, addr)
	gs.send(t, message{Type: "get_splits", Job: "jbad"})
	reply := gs.recv(t)
	if reply.Type != "splits" || len(reply.Splits) != 2 {
		t.Fatalf("get_splits reply %q with %d splits, want 2 splits", reply.Type, len(reply.Splits))
	}
	if s := reply.Splits[1]; s.SQLWorker != 1 || len(s.Locations) != 1 || s.Locations[0] != "node1" {
		t.Errorf("split 1 = %+v, want worker 1 at node1", s)
	}
}

// TestRegistrationWaitFollowsReady: get_splits waits for the job's
// registration, answers as soon as the last SQL worker registers, and
// gives up when the coordinator stops.
func TestRegistrationWaitFollowsReady(t *testing.T) {
	coord := NewCoordinator(nil)
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop() // a no-op once stopWithin has stopped it
	noReplyWithin := func(c *coordClient, d time.Duration, what string) {
		t.Helper()
		if err := c.conn.SetReadDeadline(time.Now().Add(d)); err != nil {
			t.Fatal(err)
		}
		var b [1]byte
		if _, err := c.conn.Read(b[:]); err == nil || !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: read %v within %v, want no reply", what, err, d)
		}
	}
	registerSQL := func(worker int) {
		dialCoord(t, addr).send(t, message{Type: "register_sql", Job: "jwait", Worker: worker,
			NumWorkers: 2, Command: "svm", Schema: "id BIGINT", K: 1})
	}

	registerSQL(0)
	gs := dialCoord(t, addr)
	gs.send(t, message{Type: "get_splits", Job: "jwait"})
	noReplyWithin(gs, 100*time.Millisecond, "get_splits with one of two workers registered")
	registerSQL(1)
	if err := gs.conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	var reply message
	if err := gs.dec.Decode(&reply); err != nil || reply.Type != "splits" {
		t.Fatalf("get_splits after the last register_sql: %q (%v), want splits within 1s", reply.Type, err)
	}

	never := dialCoord(t, addr)
	never.send(t, message{Type: "get_splits", Job: "jnever"})
	noReplyWithin(never, 100*time.Millisecond, "get_splits for a job nobody registers")
	if !stopWithin(t, coord, time.Second, never) {
		t.Fatal("a get_splits waiting on a never-registered job held Stop past 1s")
	}
}
