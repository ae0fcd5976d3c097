package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
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

// repoRoot walks up from the working directory to the checkout that holds
// the servers' sources. `go run -C bench .` starts in bench/, run.sh in the
// root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "pgserver", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no checkout with cmd/pgserver above the working directory")
		}
		dir = parent
	}
}

// buildServers compiles cmd/pgserver and cmd/hyperq from the checkout into
// .bench_build/bin. The go command relinks only what changed, so repeat runs
// pay a fraction of a second. Build time is outside every metric.
func buildServers(root string) (binDir string, err error) {
	binDir = filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/pgserver", "./cmd/hyperq")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return binDir, nil
}

// freeAddr asks the kernel for an unused loopback port. The port is closed
// again before the child binds it, so a collision is possible but needs
// another process to grab the same port within milliseconds.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// child is one spawned server.
type child struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
}

// spawn starts a server with its output in logPath. Pdeathsig makes the
// kernel kill the child if the benchmark dies without cleaning up.
func spawn(name, bin, logPath string, args ...string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{name: name, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		logf.Close()
		close(c.done)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// waitReady polls addr until it accepts a connection; a child that exits
// first is an error, not a timeout.
func (c *child) waitReady(addr string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			return nil
		}
		select {
		case <-c.done:
			// the log goes with the run's scratch directory, so quote it
			out, _ := os.ReadFile(c.log.Name())
			return fmt.Errorf("%s exited before listening on %s: %v\n%s", c.name, addr, c.err, out)
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s did not listen on %s within 30s", c.name, addr)
}

// stop sends SIGTERM and waits for the process to exit — pgserver writes its
// final checkpoint on SIGTERM and holds its ports and data directory until
// then. It returns how long the exit took.
func (c *child) stop() (time.Duration, error) {
	start := time.Now()
	select {
	case <-c.done:
		return 0, nil
	default:
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return 0, err
	}
	select {
	case <-c.done:
		return time.Since(start), nil
	case <-time.After(60 * time.Second):
		c.kill()
		return time.Since(start), fmt.Errorf("%s ignored SIGTERM for 60s; killed", c.name)
	}
}

// kill is kill -9 and a wait: no checkpoint, no WAL flush beyond what was
// already fsynced.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.done
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %v", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuMs reads the user+system CPU time the process has used, from fields 14
// and 15 of /proc/<pid>/stat, in USER_HZ ticks of 10 ms.
func cpuMs(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// the command name (field 2) may hold spaces; count fields after its ')'
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	return (utime + stime) * 10, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// debugVars fetches pgserver's -stats-addr counters.
func debugVars(addr string) (map[string]int64, error) {
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	vars := map[string]int64{}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, err
	}
	return vars, nil
}
