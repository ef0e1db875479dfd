package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// conn is the load generator's HTTP/1.1 client: one keep-alive TCP
// connection, requests written as pre-encoded bytes, responses read
// into one reused buffer. It exists so the numbers measure the
// program and not net/http's client, which costs more per request
// than the replica does; stubNsPerReq measures what is left.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// response is what the harness reads from a reply. body is valid
// until the next do on the same conn.
type response struct {
	status int
	epoch  uint64 // X-Reachlab-Epoch, 0 if absent
	body   []byte
}

// requestTimeout bounds one round trip; a stuck server fails the
// operation instead of hanging the run.
const requestTimeout = 20 * time.Second

// do writes one pre-encoded request and reads its response.
func (c *conn) do(req []byte) (response, error) {
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return response{}, err
	}
	if _, err := c.c.Write(req); err != nil {
		return response{}, fmt.Errorf("write request: %w", err)
	}
	return c.read()
}

func (c *conn) read() (response, error) {
	var res response
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return res, fmt.Errorf("read status line: %w", err)
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return res, fmt.Errorf("bad status line %q", line)
	}
	if res.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return res, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return res, fmt.Errorf("read header: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		if v, ok := headerValue(line, "Content-Length"); ok {
			if length, err = strconv.Atoi(string(v)); err != nil || length < 0 {
				return res, fmt.Errorf("bad Content-Length %q", v)
			}
		} else if v, ok := headerValue(line, "X-Reachlab-Epoch"); ok {
			res.epoch, _ = strconv.ParseUint(string(v), 10, 64)
		} else if v, ok := headerValue(line, "Transfer-Encoding"); ok {
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		if err := c.readChunks(); err != nil {
			return res, err
		}
	case length >= 0:
		if cap(c.body) < length {
			c.body = make([]byte, length)
		}
		c.body = c.body[:length]
		if _, err := io.ReadFull(c.br, c.body); err != nil {
			return res, fmt.Errorf("read body: %w", err)
		}
	default:
		return res, errors.New("response has neither Content-Length nor chunked encoding")
	}
	res.body = c.body
	return res, nil
}

func (c *conn) readChunks() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("read chunk size: %w", err)
		}
		size, err := strconv.ParseUint(string(bytes.TrimRight(line, "\r\n")), 16, 31)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", line)
		}
		at := len(c.body)
		c.body = append(c.body, make([]byte, size+2)...) // chunk and its CRLF
		if _, err := io.ReadFull(c.br, c.body[at:]); err != nil {
			return fmt.Errorf("read chunk: %w", err)
		}
		c.body = c.body[:at+int(size)]
		if size == 0 {
			return nil
		}
	}
}

// headerValue returns the value of header line if its name is name.
func headerValue(line []byte, name string) ([]byte, bool) {
	if len(line) <= len(name) || line[len(name)] != ':' || !bytes.EqualFold(line[:len(name)], []byte(name)) {
		return nil, false
	}
	return bytes.TrimSpace(line[len(name)+1:]), true
}

// scanResults reads the booleans of `"results":[…]` in a batch
// response body into a bit mask (bit i = answer i) without
// encoding/json. ok is false when the array is missing or malformed
// or holds more than 16 answers.
func scanResults(body []byte) (mask uint16, count int, ok bool) {
	const key = `"results":[`
	at := bytes.Index(body, []byte(key))
	if at < 0 {
		return 0, 0, false
	}
	b := body[at+len(key):]
	for {
		switch {
		case len(b) > 0 && b[0] == ']':
			return mask, count, true
		case count >= 16:
			return 0, 0, false
		case bytes.HasPrefix(b, []byte("true")):
			mask |= 1 << count
			b = b[4:]
		case bytes.HasPrefix(b, []byte("false")):
			b = b[5:]
		default:
			return 0, 0, false
		}
		count++
		if len(b) > 0 && b[0] == ',' {
			b = b[1:]
		}
	}
}

// scanUint reads the unsigned integer that follows `"name":` in a
// JSON object body (the seq and epoch of a POST /edges ack).
func scanUint(body []byte, name string) (uint64, bool) {
	key := `"` + name + `":`
	at := bytes.Index(body, []byte(key))
	if at < 0 {
		return 0, false
	}
	b := body[at+len(key):]
	end := 0
	for end < len(b) && b[end] >= '0' && b[end] <= '9' {
		end++
	}
	v, err := strconv.ParseUint(string(b[:end]), 10, 64)
	return v, err == nil
}

// stubServer answers every request on its one connection with one
// canned batch response, reading requests only far enough to find
// their end. Driving it measures the generator's own cost per
// request: connection, syscalls, parsing, checking.
type stubServer struct {
	ln   net.Listener
	done chan struct{}
}

func startStub() (*stubServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stubServer{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		s.serve(c)
	}()
	return s, nil
}

func (s *stubServer) addr() string { return s.ln.Addr().String() }

// stop closes the listener and waits for the serving goroutine, which
// ends when its one client hangs up.
func (s *stubServer) stop() {
	s.ln.Close()
	<-s.done
}

// stubReply has the size and shape of a real 16-pair batch response.
var stubReply = func() []byte {
	body := `{"count":16,"results":[` + strings.Repeat("false,", 15) + "false]}\n"
	return []byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Reachlab-Epoch: 1\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n" + body)
}()

func (s *stubServer) serve(c net.Conn) {
	br := bufio.NewReaderSize(c, 16<<10)
	for {
		length := 0
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			line = bytes.TrimRight(line, "\r\n")
			if len(line) == 0 {
				break
			}
			if v, ok := headerValue(line, "Content-Length"); ok {
				length, _ = strconv.Atoi(string(v))
			}
		}
		if _, err := br.Discard(length); err != nil {
			return
		}
		if _, err := c.Write(stubReply); err != nil {
			return
		}
	}
}
