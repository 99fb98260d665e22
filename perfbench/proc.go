package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// child is one finished child process.
type child struct {
	stdout, stderr []byte
	wall           time.Duration
	cpu            time.Duration // user + system time of the process
	rssMB          float64       // peak resident set size
}

// oneCPU is the environment of every child, which runs bound to one CPU
// (see pace.go).
var oneCPU = append(os.Environ(), "GOMAXPROCS=1")

// runChild runs a binary from the bin directory to completion. A non-zero
// exit is an error carrying the tail of its standard error.
func (b *bench) runChild(ctx context.Context, name string, args ...string) (child, error) {
	cmd := exec.CommandContext(ctx, filepath.Join(b.opts.bin, name), args...)
	cmd.Env = oneCPU
	cmd.SysProcAttr = diesWithParent()
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := startPinned(cmd)
	if err == nil {
		err = cmd.Wait()
	}
	c := child{stdout: out.Bytes(), stderr: errb.Bytes(), wall: time.Since(start)}
	if ps := cmd.ProcessState; ps != nil {
		c.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return c, fmt.Errorf("%s %v: %w: %s", name, args, err, lastLine(c.stderr))
	}
	return c, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkDigest compares output bytes with the digest recorded at the
// reference commit.
func checkDigest(got []byte, want string) error {
	if d := digest(got); d != want {
		return fmt.Errorf("output digest %s, want %s", d[:16], want[:min(16, len(want))])
	}
	return nil
}

// daemon is a running opgated child.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
	log  *os.File
}

// startDaemon starts opgated on a free loopback port with a fresh store
// and waits until it reports ready.
func (b *bench) startDaemon(ctx context.Context, storeDir string, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(storeDir + ".log")
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr, "-store", storeDir}, extra...)
	cmd := exec.Command(filepath.Join(b.opts.bin, "opgated"), args...)
	cmd.Env = oneCPU
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = diesWithParent()
	if err := startPinned(cmd); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), log: logf}
	probe := &http.Client{Timeout: time.Second}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	for {
		select {
		case <-d.done:
			logf.Close()
			return nil, fmt.Errorf("opgated exited before ready: %v", d.err)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
	}
}

// stop drains the daemon with SIGTERM (killing it after 30 s) and waits
// for it to exit. It returns an error unless the daemon drained cleanly.
func (d *daemon) stop() error {
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return errors.New("opgated: drain timed out, killed")
	}
	if d.err != nil {
		return fmt.Errorf("opgated: %v", d.err)
	}
	return nil
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// cpu returns the user + system time the running daemon has used so far,
// its exited threads included.
func (d *daemon) cpu() (time.Duration, error) {
	path := fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid)
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesised command name start at the
	// state (field 3); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("%s: no command name", path)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("%s: %d fields", path, len(f)+2)
	}
	var utime, stime int64
	if _, err := fmt.Sscan(f[11]+" "+f[12], &utime, &stime); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB returns the running daemon's peak resident set size so far
// (VmHWM in /proc/<pid>/status).
func (d *daemon) peakRSSMB() (float64, error) {
	path := fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(rest, &kb); err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// diesWithParent has the kernel kill a child when the benchmark dies, so
// no ogbench or opgated outlives a killed run.
func diesWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// removeAll is os.RemoveAll for scratch data, where a failed removal only
// leaves litter in the work directory, which the run removes at exit.
func removeAll(dir string) { _ = os.RemoveAll(dir) }
