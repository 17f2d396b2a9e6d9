package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mbrtopo/internal/server"
)

// buildTopod compiles cmd/topod from the repository root into dir and
// returns the binary's path. The harness never links the server it
// measures: topod under test is always this separate executable.
func buildTopod(root, dir string) (string, error) {
	bin := filepath.Join(dir, "topod")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/topod")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building topod: %v\n%s", err, out)
	}
	return bin, nil
}

// topod is one running server process.
type topod struct {
	cmd     *exec.Cmd
	argv    []string
	base    string // http://127.0.0.1:port
	started time.Time
	ready   time.Duration // exec → /readyz 200
	log     *syncBuffer
	waitErr chan error
}

// syncBuffer collects the child's output; it is only printed when a
// boot fails.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startServer executes the binary on an ephemeral loopback port, learns
// the port from its "<name>: listening on <addr>" line, and polls /readyz
// until 200. The binary is topod, or the reference server of null.go.
func startServer(client *http.Client, bin string, argv []string) (*topod, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, argv...)
	cmd := exec.Command(bin, args...)
	// The child must not outlive the harness, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &topod{cmd: cmd, argv: args, log: &syncBuffer{}, waitErr: make(chan error, 1)}
	cmd.Stderr = p.log
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addrc := make(chan string, 1)
	go func() {
		// Owns the pipe until EOF, then reaps the child: Wait must not
		// run before the pipe is drained.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(p.log, line)
			if _, a, ok := strings.Cut(line, ": listening on "); ok {
				addrc <- a
			}
		}
		p.waitErr <- cmd.Wait()
	}()
	select {
	case a := <-addrc:
		p.base = "http://" + a
	case err := <-p.waitErr:
		return nil, fmt.Errorf("%s %v exited before listening: %v\n%s", bin, args, err, p.log)
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s %v never listened\n%s", bin, args, p.log)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(p.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("%s %v never became ready\n%s", bin, args, p.log)
		}
		time.Sleep(time.Millisecond)
	}
	p.ready = time.Since(p.started)
	return p, nil
}

// kill sends SIGKILL (the crash of the durability check) and reaps.
func (p *topod) kill() {
	_ = p.cmd.Process.Kill()
	<-p.waitErr
}

// terminate sends SIGTERM — topod drains and checkpoints — and reaps.
func (p *topod) terminate() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-p.waitErr:
		if err != nil {
			return fmt.Errorf("topod exited uncleanly after SIGTERM: %v\n%s", err, p.log)
		}
		return nil
	case <-time.After(60 * time.Second):
		p.kill()
		return fmt.Errorf("topod ignored SIGTERM for 60s\n%s", p.log)
	}
}

// cpuSeconds reads utime+stime of the process from /proc/<pid>/stat.
func (p *topod) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised comm; utime and stime are the 14th
	// and 15th fields overall, so the 12th and 13th after ") ".
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat: %q", raw)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat: %q", raw)
	}
	const clockTicks = 100 // USER_HZ on every Linux ABI Go supports
	return (utime + stime) / clockTicks, nil
}

// peakRSSMiB reads VmHWM from /proc/<pid>/status.
func (p *topod) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// indexes fetches GET /v1/indexes.
func (p *topod) indexes(client *http.Client) ([]server.IndexInfo, error) {
	resp, err := client.Get(p.base + "/v1/indexes")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/indexes: HTTP %d", resp.StatusCode)
	}
	var infos []server.IndexInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, fmt.Errorf("/v1/indexes: %w", err)
	}
	return infos, nil
}

// scrape fetches /metrics and returns every sample as name{labels} →
// value.
func (p *topod) scrape(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(p.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: bad sample %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
