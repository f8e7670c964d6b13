package stream

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"sqlml/internal/cluster"
)

// logEntry is one frame of a slot's log, with its row count and row-encoded
// (raw) size for resume and the stats. Its bytes are in memory at their
// exact size or, when frame is nil, at off in the slot's spill file.
type logEntry struct {
	frame []byte
	off   int64
	size  int
	rows  int64
	raw   int64
}

// frameLog is one slot's append-only log of encoded frames: the §6 replay
// spool, the send queue and the spill in one. The producer appends and
// never blocks; the channel's writer sends through the one cursor, which
// connect moves to the resume point, so frames leave in log order wherever
// they are held. A frame that would push the unsent in-memory bytes (those
// of the entries at or after the cursor) past budget is written to the
// spill file instead, so a spill frees memory.
type frameLog struct {
	budget int
	dir    string
	cost   *cluster.CostModel
	node   *cluster.Node

	mu      sync.Mutex
	entries []logEntry
	cursor  int
	unsent  int
	sealed  bool
	wake    chan struct{} // closed by the next append or seal, if a writer waits
	spill   *os.File
	spilled int64  // bytes in the spill file
	readBuf []byte // the last spilled frame read back
	err     error  // the first release failure
}

// append copies one sealed frame into the log, so the caller may reuse the
// buffer at once. A failure loses the frame, which no restart can recover.
func (l *frameLog) append(frame []byte, rows, raw int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := logEntry{size: len(frame), rows: rows, raw: raw}
	if l.unsent+len(frame) <= l.budget {
		e.frame = append([]byte(nil), frame...)
		l.unsent += len(frame)
	} else {
		if l.spill == nil {
			f, err := os.CreateTemp(l.dir, "sqlml-spill-*")
			if err != nil {
				return fmt.Errorf("stream: create spill file: %w", err)
			}
			l.spill = f
		}
		if _, err := l.spill.WriteAt(frame, l.spilled); err != nil {
			return fmt.Errorf("stream: spill write: %w", err)
		}
		e.off = l.spilled
		l.spilled += int64(len(frame))
		if l.cost != nil && l.node != nil {
			l.cost.ChargeDiskWrite(l.node, len(frame))
		}
	}
	l.entries = append(l.entries, e)
	l.signal()
	return nil
}

// seal marks the end of the input.
func (l *frameLog) seal() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sealed = true
	l.signal()
}

func (l *frameLog) signal() {
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// next returns the frame at the cursor and moves past it, waiting while the
// cursor is at the end of an unsealed log. A spilled frame is read back
// into a buffer the next call reuses. It returns io.EOF at the end of a
// sealed log, and errAborted once stop is closed.
func (l *frameLog) next(stop <-chan struct{}) ([]byte, error) {
	l.mu.Lock()
	for l.cursor == len(l.entries) && !l.sealed {
		if l.wake == nil {
			l.wake = make(chan struct{})
		}
		wake := l.wake
		l.mu.Unlock()
		select {
		case <-wake:
		case <-stop:
			return nil, errAborted
		}
		l.mu.Lock()
	}
	defer l.mu.Unlock()
	if l.cursor == len(l.entries) {
		return nil, io.EOF
	}
	e := l.entries[l.cursor]
	l.cursor++
	if e.frame != nil {
		l.unsent -= e.size
		return e.frame, nil
	}
	l.readBuf = slices.Grow(l.readBuf[:0], e.size)[:e.size]
	if _, err := l.spill.ReadAt(l.readBuf, e.off); err != nil {
		return nil, fmt.Errorf("stream: spill read: %w", err)
	}
	if l.cost != nil && l.node != nil {
		l.cost.ChargeDiskRead(l.node, e.size)
	}
	return l.readBuf, nil
}

// rewind moves the cursor to the entry holding the first row a reader that
// has consumed the given row count has not seen, and returns that entry's
// start row; false means the reader saw rows this log never held.
func (l *frameLog) rewind(consumed uint64) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx, start := resumePoint(l.entries, consumed)
	if idx < 0 {
		return 0, false
	}
	l.cursor, l.unsent = idx, 0
	for _, e := range l.entries[idx:] {
		l.unsent += len(e.frame)
	}
	return start, true
}

// resumePoint returns the index of the entry containing the first row a
// reader that has consumed the given row count has not seen, and that
// entry's start row; a count past the entries returns index -1.
func resumePoint(entries []logEntry, consumed uint64) (int, uint64) {
	var cum uint64
	for i, e := range entries {
		if cum+uint64(e.rows) > consumed {
			return i, cum
		}
		cum += uint64(e.rows)
	}
	if cum == consumed {
		return len(entries), cum
	}
	return -1, 0
}

// credit adds the whole log to stats: a resumed channel resends only a
// suffix, but the log is what the slot delivered.
func (l *frameLog) credit(stats *SenderStats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.entries {
		stats.RowsSent += e.rows
		stats.BytesSent += int64(e.size)
		stats.FramesSent++
		stats.RawBytes += e.raw
		stats.WireBytes += int64(e.size)
	}
}

// release drops the frames and closes and removes the spill file. It runs
// at the slot's ACK and again when Send returns, and every call reports
// the first failure: a spill file left behind is a leak Send's caller must
// hear about, even after delivery.
func (l *frameLog) release() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries, l.cursor, l.unsent, l.readBuf = nil, 0, 0, nil
	if l.spill != nil {
		name := l.spill.Name()
		l.err = errors.Join(l.spill.Close(), os.Remove(name))
		l.spill = nil
	}
	return l.err
}
