package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running minupd process on loopback ports of its own.
type server struct {
	cmd     *exec.Cmd
	args    []string
	base    string // http://127.0.0.1:port
	logPath string
	exited  chan struct{} // closed once the process has been reaped
	waitErr error         // valid after exited is closed
}

// errPortTaken reports that minupd exited because one of its ports was
// taken between freePorts and its bind; a launch with fresh ports may
// succeed.
var errPortTaken = errors.New("a listen port was taken before minupd bound it")

// freePorts asks the kernel for n distinct unused loopback ports, holding
// them all until each is known so none is handed out twice. They are free
// when this returns; should another process take one before minupd binds,
// minupd exits and startServer reports its stderr.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// launch is startServer with up to two more tries, each on fresh ports,
// when a port was taken in the moment between choosing and binding it.
func launch(ctx context.Context, bin, workDir, dataDir string, timeout time.Duration) (*server, error) {
	for try := 0; ; try++ {
		s, err := startServer(ctx, bin, workDir, dataDir, timeout)
		if err == nil || try == 2 || !errors.Is(err, errPortTaken) {
			return s, err
		}
		fmt.Fprintln(os.Stderr, "perfbench: retrying launch:", err)
	}
}

// startServer launches bin with minupd's default flags, setting only the
// listen addresses and, when dataDir is non-empty, -data-dir. It returns
// once /readyz answers 200. If the process exits first, or readiness does
// not come within timeout, the process is killed and reaped and the error
// carries the tail of its stderr.
func startServer(ctx context.Context, bin, workDir, dataDir string, timeout time.Duration) (*server, error) {
	ports, err := freePorts(2)
	if err != nil {
		return nil, err
	}
	port, dbg := ports[0], ports[1]
	args := []string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-debug-addr", "127.0.0.1:" + strconv.Itoa(dbg)}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	logPath := filepath.Join(workDir, fmt.Sprintf("minupd-%d.log", port))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = workDir // "auto" flight dumps of a memory-only server land here
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting minupd: %w", err)
	}
	s := &server{cmd: cmd, args: args, base: "http://127.0.0.1:" + strconv.Itoa(port), logPath: logPath, exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	if err := s.awaitReady(ctx, timeout); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// readyPoll is how often awaitReady retries while minupd is starting. A
// memory-only start takes about 10ms, so the step must be far finer than
// that or it dominates what set-up measures.
const readyPoll = 200 * time.Microsecond

// awaitReady waits until /readyz answers 200. minupd opens its listener
// only once the catalog is recovered, so until then a loopback dial is
// refused at once; it polls that cheap dial every readyPoll and asks
// /readyz only once a connection is accepted.
func (s *server) awaitReady(ctx context.Context, timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	addr := strings.TrimPrefix(s.base, "http://")
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-s.exited:
			tail := s.logTail(20)
			err := fmt.Errorf("minupd %s exited before /readyz (%v); stderr tail:\n%s", strings.Join(s.args, " "), s.waitErr, tail)
			if strings.Contains(tail, "address already in use") {
				err = fmt.Errorf("%w: %w", errPortTaken, err)
			}
			return err
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("minupd not ready after %s; stderr tail:\n%s", timeout, s.logTail(20))
		}
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			resp, err := hc.Get(s.base + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		select {
		case <-s.exited:
		case <-time.After(readyPoll):
		}
	}
}

// stop terminates the process gracefully (SIGTERM drains minupd), escalates
// to SIGKILL after 10s, and returns only once the process has been reaped.
// Safe to call more than once.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reaped below
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
func (s *server) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// cpuSeconds is the process's user+system CPU time so far, all threads.
// The kernel leaves hypervisor steal out of it, which is what makes CPU
// per request steadier than wall-clock figures on a shared host.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in USER_HZ (100/s on Linux).
	_, rest, ok := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, errors.New("malformed /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil
}

// logTail returns the last n lines of the server's combined output.
func (s *server) logTail(n int) string {
	data, err := os.ReadFile(s.logPath)
	if err != nil {
		return "(no log: " + err.Error() + ")"
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// cpuTicks are the guest's CPU ticks summed over every vCPU, from
// /proc/stat: busy (user, nice, system, irq, softirq) and steal, the time
// a vCPU wanted to run but the hypervisor ran something else.
type cpuTicks struct{ busy, steal float64 }

func readTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	if len(f) < 9 || f[0] != "cpu" {
		return t
	}
	for _, i := range []int{1, 2, 3, 6, 7} {
		v, _ := strconv.ParseFloat(f[i], 64)
		t.busy += v
	}
	t.steal, _ = strconv.ParseFloat(f[8], 64)
	return t
}

func (t cpuTicks) sub(u cpuTicks) cpuTicks { return cpuTicks{t.busy - u.busy, t.steal - u.steal} }

// share is the part of the CPU time the guest asked for that the
// hypervisor gave it, busy/(busy+steal); 1 without ticks.
func (t cpuTicks) share() float64 {
	if t.busy+t.steal <= 0 {
		return 1
	}
	return t.busy / (t.busy + t.steal)
}
