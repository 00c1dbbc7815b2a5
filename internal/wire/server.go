package wire

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"
)

// Server accepts subscribers on listeners and bridges them to a Hub.
// Serve speaks the binary protocol: one SUBSCRIBE in, a RESUME verdict
// out, then encoded frames until the subscriber is evicted or the
// connection drops. ServeText streams the hub's NMEA text to every
// connection, with no handshake, the way gpsd's raw mode does. Both
// share one accept loop and one writer loop.
type Server struct {
	Hub *Hub
	// HandshakeTimeout bounds waiting for the SUBSCRIBE frame
	// (default 5 s); WriteTimeout bounds each write (default 5 s — a
	// stuck peer is evicted by queue overflow well before a write
	// blocks that long).
	HandshakeTimeout time.Duration
	WriteTimeout     time.Duration
	// OnError, when set, observes per-connection failures.
	OnError func(err error)
}

// maxBatch bounds the buffers one vectored write carries.
const maxBatch = 256

// Serve accepts binary subscribers until ctx ends or the listener
// closes. It closes ln and every connection on ctx cancellation and
// returns after every connection handler exits.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return s.serve(ctx, ln, s.handle)
}

// ServeText accepts NMEA text clients the same way Serve accepts binary
// ones. A client that disconnects is noticed on the next write.
func (s *Server) ServeText(ctx context.Context, ln net.Listener) error {
	return s.serve(ctx, ln, s.handleText)
}

// serve is the accept loop both protocols share.
func (s *Server) serve(ctx context.Context, ln net.Listener, handle func(context.Context, net.Conn) error) error {
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if ctx.Err() != nil {
			// The listener closes from its own goroutine, so a dial can
			// still land after shutdown: turn it away unserved.
			conn.Close()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Closing on cancellation also releases a write blocked on a
			// stalled peer.
			stop := context.AfterFunc(ctx, func() { conn.Close() })
			defer stop()
			defer conn.Close()
			if err := handle(ctx, conn); err != nil && s.OnError != nil {
				s.OnError(err)
			}
		}()
	}
}

func (s *Server) handle(ctx context.Context, conn net.Conn) error {
	ht := s.HandshakeTimeout
	if ht <= 0 {
		ht = 5 * time.Second
	}
	conn.SetReadDeadline(time.Now().Add(ht))
	fr := NewFrameReader(conn)
	p, err := fr.Next()
	if err != nil {
		return err
	}
	req, err := DecodeSubscribe(p)
	if err != nil {
		return err
	}
	sub := s.Hub.Subscribe(req.Session, req.Ack)
	defer sub.Close()

	conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
	if _, err := conn.Write(AppendResume(nil, sub.Resume)); err != nil {
		return err
	}

	// Drain the read side: a client write is a protocol error, a read
	// error/EOF means the client left. Either way the writer is
	// released by closing the connection.
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		conn.SetReadDeadline(time.Time{})
		buf := make([]byte, 256)
		for {
			if _, err := conn.Read(buf); err != nil {
				conn.Close()
				return
			}
		}
	}()
	// Evicted (slow) or hub shutdown ends the pump with the connection
	// dropped; the client reconnects with its resume token.
	return s.pump(ctx, conn, sub, readDone)
}

func (s *Server) handleText(ctx context.Context, conn net.Conn) error {
	sub := s.Hub.SubscribeText()
	err := s.pump(ctx, conn, sub, nil)
	if ctx.Err() != nil {
		s.Hub.text.drop(sub, DropShutdown)
		return nil
	}
	sub.Close() // a write failure; a no-op after a slow eviction
	return err
}

func (s *Server) writeTimeout() time.Duration {
	if s.WriteTimeout <= 0 {
		return 5 * time.Second
	}
	return s.WriteTimeout
}

// pump is the writer loop both protocols share. Each wake-up drains
// everything queued on sub (up to maxBatch buffers) into one vectored
// write under one deadline, reusing one slice, so a batch allocates
// nothing. It returns nil when sub's channel closes, readDone fires or
// ctx ends, and the write error otherwise.
func (s *Server) pump(ctx context.Context, conn net.Conn, sub *Subscriber, readDone <-chan struct{}) error {
	timeout := s.writeTimeout()
	batch := make([][]byte, 0, maxBatch)
	// WriteTo consumes bufs (and clears the entries it wrote); batch
	// keeps the backing array for the next wake-up.
	var bufs net.Buffers
	for {
		select {
		case b, ok := <-sub.C:
			if !ok {
				return nil
			}
			batch = append(batch[:0], b)
		drain:
			for len(batch) < cap(batch) {
				select {
				case b, ok := <-sub.C:
					if !ok {
						break drain // written below; the next receive ends the loop
					}
					batch = append(batch, b)
				default:
					break drain
				}
			}
			if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
				return err
			}
			bufs = batch
			if _, err := bufs.WriteTo(conn); err != nil {
				return err
			}
		case <-readDone:
			return nil
		case <-ctx.Done():
			return nil
		}
	}
}
