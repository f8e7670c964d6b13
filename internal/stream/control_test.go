package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
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
