package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clientEnv marks the load-generator child process. The generator runs in
// a process of its own so the server's garbage collector and busy
// goroutines cannot delay its schedule.
const clientEnv = "PERFBENCH_CLIENT"

// client sends requests over at most `senders` keep-alive connections.
type client struct {
	http *http.Client
	url  string
}

func newClient(url string) *client {
	return &client{url: url, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     senders,
		MaxIdleConnsPerHost: senders,
		DisableCompression:  true,
	}}}
}

// send posts one request and records status, body digest and times.
func (c *client) send(it *item) {
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(it.body))
	if err != nil {
		it.err, it.done = err, time.Now()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	it.done = time.Now()
	it.err = err
	it.status = resp.StatusCode
	it.hash = resultDigest(body)
}

// resultDigest hashes the part of a response body the cold route must
// reproduce byte for byte: tuned_factors (when present) and result. The
// envelope before them labels the request spelling that first filled the
// cache entry, which canonical keys share across spellings.
func resultDigest(body []byte) [32]byte {
	for _, field := range []string{`"tuned_factors":`, `"result":`} {
		if i := bytes.Index(body, []byte(field)); i >= 0 {
			return sha256.Sum256(body[i:])
		}
	}
	return sha256.Sum256(body)
}

// runRung releases the rung's requests on schedule into a queue two
// senders drain, each over its own connection, and waits for the last
// response. Latency counts from each request's due time.
func (c *client) runRung(rg *rung) {
	queue := make(chan *item, len(rg.items)) // sized to the number of sends
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				c.send(it)
			}
		}()
	}
	rg.start = time.Now()
	gap := float64(time.Second) / rg.rate
	for i, it := range rg.items {
		due := rg.start.Add(time.Duration(float64(i) * gap))
		if d := time.Until(due); d > 0 {
			// nanosleep wakes within tens of µs. On a 2-vCPU VM time.Sleep
			// woke 0.6 ms late at the median, as long as a cache hit takes.
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
		}
		it.due, it.released = due, time.Now()
		queue <- it
	}
	close(queue)
	wg.Wait()
	for _, it := range rg.items {
		if it.done.After(rg.end) {
			rg.end = it.done
		}
	}
}

// ladderHeader opens the generator's input: the target and each rung's
// rate and request count. The request bodies follow, one per line.
type ladderHeader struct {
	URL    string    `json:"url"`
	Rates  []float64 `json:"rates"`
	Counts []int     `json:"counts"`
}

// runLadder runs the rungs, in order, from a generator child process and
// fills in every item's status, digest and times.
func runLadder(url string, rungs []*rung) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), clientEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	if err := yieldToGenerator(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: lower server priority:", err)
	}
	fed := make(chan error, 1)
	go func() {
		w := bufio.NewWriter(stdin)
		h := ladderHeader{URL: url}
		for _, rg := range rungs {
			h.Rates = append(h.Rates, rg.rate)
			h.Counts = append(h.Counts, len(rg.items))
		}
		b, err := json.Marshal(h)
		if err == nil {
			w.Write(append(b, '\n'))
			for _, rg := range rungs {
				for _, it := range rg.items {
					w.Write(append(it.body, '\n'))
				}
			}
			err = w.Flush()
		}
		if cerr := stdin.Close(); err == nil {
			err = cerr
		}
		fed <- err
	}()
	perr := readLadder(stdout, rungs)
	if perr != nil {
		io.Copy(io.Discard, stdout) // let the child finish writing
	}
	werr := cmd.Wait()
	ferr := <-fed
	return errors.Join(perr, ferr, werr)
}

// yieldToGenerator lowers every thread of this process (the server) to
// nice 10, once the generator child has started at the default priority.
// With the server and the generator sharing a few CPUs, a busy server
// otherwise delays the generator's wake-ups by milliseconds, and the
// latency from the due time charges that lag to the server. Threads the
// runtime starts later inherit the lowered priority. Lowering a priority
// needs no privilege; the process cannot raise it again, so only the
// untimed checks run after the ladder at nice 10 as well.
func yieldToGenerator() error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, tid, 10); err != nil {
			return err
		}
	}
	return nil
}

// readLadder parses the child's report: per rung a "R start end" line,
// then per request "status digest due released done error".
func readLadder(r io.Reader, rungs []*rung) error {
	sc := bufio.NewScanner(r)
	base := time.Now()
	at := func(s string) (time.Time, error) {
		ns, err := strconv.ParseInt(s, 10, 64)
		return base.Add(time.Duration(ns)), err
	}
	next := func() ([]string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return nil, err
			}
			return nil, io.ErrUnexpectedEOF
		}
		return strings.SplitN(sc.Text(), " ", 6), nil
	}
	for _, rg := range rungs {
		f, err := next()
		if err != nil {
			return fmt.Errorf("generator report: %w", err)
		}
		if len(f) != 3 || f[0] != "R" {
			return fmt.Errorf("generator report: bad rung line %q", sc.Text())
		}
		if rg.start, err = at(f[1]); err != nil {
			return err
		}
		if rg.end, err = at(f[2]); err != nil {
			return err
		}
		for _, it := range rg.items {
			f, err := next()
			if err != nil {
				return fmt.Errorf("generator report: %w", err)
			}
			if len(f) != 6 {
				return fmt.Errorf("generator report: bad request line %q", sc.Text())
			}
			if it.status, err = strconv.Atoi(f[0]); err != nil {
				return err
			}
			if _, err := hex.Decode(it.hash[:], []byte(f[1])); err != nil {
				return err
			}
			for i, t := range []*time.Time{&it.due, &it.released, &it.done} {
				if *t, err = at(f[2+i]); err != nil {
					return err
				}
			}
			if f[5] != "-" {
				it.err = errors.New(f[5])
			}
		}
	}
	return nil
}

// clientMain is the generator child: it reads a ladder from in, runs it,
// and reports every request to out with times in ns since its start.
func clientMain(in io.Reader, out io.Writer) error {
	r := bufio.NewReader(in)
	line, err := r.ReadBytes('\n')
	if err != nil {
		return err
	}
	var h ladderHeader
	if err := json.Unmarshal(line, &h); err != nil {
		return err
	}
	var rungs []*rung
	for i, rate := range h.Rates {
		rg := &rung{rate: rate}
		for j := 0; j < h.Counts[i]; j++ {
			body, err := r.ReadBytes('\n')
			if err != nil {
				return fmt.Errorf("read request %d: %w", j, err)
			}
			rg.items = append(rg.items, &item{body: body[:len(body)-1]})
		}
		rungs = append(rungs, rg)
	}
	c := newClient(h.URL)
	defer c.http.CloseIdleConnections()
	epoch := time.Now()
	w := bufio.NewWriter(out)
	ns := func(t time.Time) int64 { return t.Sub(epoch).Nanoseconds() }
	for _, rg := range rungs {
		c.runRung(rg)
		fmt.Fprintf(w, "R %d %d\n", ns(rg.start), ns(rg.end))
		for _, it := range rg.items {
			msg := "-"
			if it.err != nil {
				msg = strings.ReplaceAll(it.err.Error(), "\n", " ")
			}
			fmt.Fprintf(w, "%d %x %d %d %d %s\n", it.status, it.hash, ns(it.due), ns(it.released), ns(it.done), msg)
		}
	}
	return w.Flush()
}
