package host

import (
	"errors"
	"io"

	"socksdirect/internal/exec"
)

// ErrClosedPipe is returned when writing to a pipe with no readers.
var ErrClosedPipe = errors.New("host: write to closed pipe")

// pipeCap matches the Linux default pipe buffer (64 KiB).
const pipeCap = 64 * 1024

// pipeBuf is a kernel byte-stream buffer with blocking semantics: readers
// sleep when empty, writers when full, and every wake pays the kernel's
// process-wakeup latency — which is why Table 2's pipe RTT is ~8 us while
// a user-space queue is 0.25 us.
type pipeBuf struct {
	k *Kernel

	buf     []byte
	r, w    int // ring cursors
	used    int
	readyAt int64 // virtual time the newest bytes become visible
	closedW bool
	closedR bool

	readers WaitQ
	writers WaitQ
}

func newPipeBuf(k *Kernel) *pipeBuf {
	return &pipeBuf{k: k, buf: make([]byte, pipeCap)}
}

func (pb *pipeBuf) readable() bool { return pb.used > 0 || pb.closedW }

func (pb *pipeBuf) writable() bool { return pb.used < len(pb.buf) || pb.closedR }

// read blocks until at least one byte (or EOF) is available. Bytes whose
// virtual publish time lies in the reader's future are not visible yet —
// the discrete-event scheduler may have physically executed the writer
// ahead of this reader's clock, and honoring the timestamps is what makes
// a blocking reader actually pay the wakeup latency a real kernel charges.
func (pb *pipeBuf) read(ctx exec.Context, out []byte) (int, error) {
	entry := ctx.Now() // before the kernel crossing
	pb.k.Syscall(ctx)
	for {
		if pb.used > 0 && pb.readyAt > entry {
			// The bytes were published after this reader entered the
			// kernel: a real process would have gone to sleep and be
			// woken by the writer, paying the scheduler's wakeup latency.
			target := pb.readyAt + pb.k.h.Costs.ProcessWakeup
			if now := ctx.Now(); now < target {
				ctx.Sleep(target - now)
			}
		}
		if pb.used > 0 {
			n := pb.used
			if n > len(out) {
				n = len(out)
			}
			for i := 0; i < n; i++ { // ring copy
				out[i] = pb.buf[pb.r]
				pb.r = (pb.r + 1) % len(pb.buf)
			}
			pb.used -= n
			CountCopy(n)
			ctx.Charge(pb.k.h.Costs.CopyCost(n))
			pb.writers.Wake(pb.k.h.Clk, pb.k.h.Costs.ProcessWakeup)
			return n, nil
		}
		if pb.closedW {
			return 0, io.EOF
		}
		pb.readers.Wait(ctx, pb.readable)
	}
}

// write blocks until all bytes are accepted (or the read end closed).
func (pb *pipeBuf) write(ctx exec.Context, data []byte) (int, error) {
	pb.k.Syscall(ctx)
	total := 0
	for len(data) > 0 {
		if pb.closedR {
			return total, ErrClosedPipe
		}
		space := len(pb.buf) - pb.used
		if space > 0 {
			n := space
			if n > len(data) {
				n = len(data)
			}
			// Pay the copy before publishing so the visibility stamp
			// reflects when the bytes actually exist.
			CountCopy(n)
			ctx.Charge(pb.k.h.Costs.CopyCost(n))
			if pb.closedR {
				return total, ErrClosedPipe
			}
			if avail := len(pb.buf) - pb.used; n > avail {
				n = avail
			}
			for i := 0; i < n; i++ {
				pb.buf[pb.w] = data[i]
				pb.w = (pb.w + 1) % len(pb.buf)
			}
			pb.used += n
			if now := ctx.Now(); now > pb.readyAt {
				pb.readyAt = now
			}
			pb.readers.Wake(pb.k.h.Clk, pb.k.h.Costs.ProcessWakeup)
			data = data[n:]
			total += n
			continue
		}
		pb.writers.Wait(ctx, pb.writable)
	}
	return total, nil
}

func (pb *pipeBuf) closeWrite() {
	pb.closedW = true
	pb.readers.Wake(pb.k.h.Clk, 0)
}

func (pb *pipeBuf) closeRead() {
	pb.closedR = true
	pb.writers.Wake(pb.k.h.Clk, 0)
}

// refCount implements shared close semantics for forked FDs.
type refCount struct{ n int }

func (r *refCount) inc() { r.n++ }
func (r *refCount) dec() bool {
	r.n--
	return r.n == 0
}

// pipeEnd is one descriptor of a pipe.
type pipeEnd struct {
	pb    *pipeBuf
	write bool
	refs  refCount
}

// Pipe creates a unidirectional kernel pipe and returns (read end, write
// end), both installable as kernel FDs.
func (k *Kernel) Pipe() (KFile, KFile) {
	pb := newPipeBuf(k)
	r := &pipeEnd{pb: pb}
	w := &pipeEnd{pb: pb, write: true}
	r.refs.inc()
	w.refs.inc()
	return r, w
}

func (e *pipeEnd) Read(ctx exec.Context, b []byte) (int, error) {
	if e.write {
		return 0, errors.New("host: read from write end")
	}
	return e.pb.read(ctx, b)
}

func (e *pipeEnd) Write(ctx exec.Context, b []byte) (int, error) {
	if !e.write {
		return 0, errors.New("host: write to read end")
	}
	return e.pb.write(ctx, b)
}

func (e *pipeEnd) Close(ctx exec.Context) error {
	if !e.refs.dec() {
		return nil
	}
	if e.write {
		e.pb.closeWrite()
	} else {
		e.pb.closeRead()
	}
	return nil
}

func (e *pipeEnd) Readable() bool { return !e.write && e.pb.readable() }
func (e *pipeEnd) Writable() bool { return e.write && e.pb.writable() }
func (e *pipeEnd) Dup()           { e.refs.inc() }

// unixSock is one end of a Unix-domain socket pair (two crossed pipes).
type unixSock struct {
	rx, tx *pipeBuf
	refs   refCount
}

// SocketPair creates a connected Unix-domain socket pair.
func (k *Kernel) SocketPair() (KFile, KFile) {
	ab, ba := newPipeBuf(k), newPipeBuf(k)
	a := &unixSock{rx: ba, tx: ab}
	b := &unixSock{rx: ab, tx: ba}
	a.refs.inc()
	b.refs.inc()
	return a, b
}

func (u *unixSock) Read(ctx exec.Context, b []byte) (int, error)  { return u.rx.read(ctx, b) }
func (u *unixSock) Write(ctx exec.Context, b []byte) (int, error) { return u.tx.write(ctx, b) }
func (u *unixSock) Close(ctx exec.Context) error {
	if !u.refs.dec() {
		return nil
	}
	u.rx.closeRead()
	u.tx.closeWrite()
	return nil
}
func (u *unixSock) Readable() bool { return u.rx.readable() }
func (u *unixSock) Writable() bool { return u.tx.writable() }
func (u *unixSock) Dup()           { u.refs.inc() }
