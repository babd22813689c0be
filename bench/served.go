package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

const (
	tenantName    = "bench"
	serverLoadOps = 2000 // mutations per BatchCommit while preloading
)

// tenantMaster is the served tenant's master key; like the library layers'
// secrets it is fixed, and the seed varies only the data.
var tenantMaster = []byte("bench-tenant-master-key-0123456789")

// buildServer compiles cmd/ekbtreed from the checkout's source into binDir.
// It runs before the clock that setup_s reads is started.
func buildServer(root, binDir string) (string, error) {
	bin := filepath.Join(binDir, "ekbtreed")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ekbtreed")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ekbtreed: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one ekbtreed child over its own data directory.
type server struct {
	cmd     *exec.Cmd
	addr    string
	dataDir string
	authKey []byte
}

// startServer provisions the tenant and starts ekbtreed with grouped
// durability and defaults otherwise, two procs like the benchmark's own.
func startServer(bin, dataDir string) (*server, error) {
	m, err := ekbtree.DeriveMaterial(tenantMaster)
	if err != nil {
		return nil, err
	}
	prov := exec.Command(bin, "-data", dataDir, "-provision", tenantName, "-master-hex", hex.EncodeToString(tenantMaster))
	if out, err := prov.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("provision tenant: %v\n%s", err, out)
	}
	addrFile := filepath.Join(dataDir, "addr")
	logFile, err := os.Create(filepath.Join(dataDir, "ekbtreed.log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, "-data", dataDir, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-durability", "grouped")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ekbtreed: %w", err)
	}
	s := &server{cmd: cmd, dataDir: dataDir, authKey: m.AuthKey}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			s.addr = string(raw)
			return s, nil
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("ekbtreed did not report its address within 10s")
		}
	}
}

// dial opens one authenticated connection with the tenant's tree attached.
func (s *server) dial() (*wire.Client, error) {
	c, err := wire.Dial(s.addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if err := c.Handshake(tenantName, s.authKey); err != nil {
		c.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	if err := c.Open(); err != nil {
		c.Close()
		return nil, fmt.Errorf("open tenant tree: %w", err)
	}
	return c, nil
}

// preload inserts indices [0, n) at version 0 over BatchCommit and Syncs.
func preload(c *wire.Client, g keygen, n int) error {
	ops := make([]wire.BatchOp, 0, serverLoadOps)
	for i := 0; i < n; i += serverLoadOps {
		ops = ops[:0]
		for j := i; j < min(i+serverLoadOps, n); j++ {
			ops = append(ops, wire.BatchOp{
				Key:   g.key(make([]byte, keyLen), uint64(j)),
				Value: fillValue(make([]byte, valueLen), g.seed, uint64(j), 0),
			})
		}
		if err := c.BatchCommit(ops); err != nil {
			return fmt.Errorf("preload batch at %d: %w", i, err)
		}
	}
	return c.Sync()
}

// stats asks the server for the tenant tree's Stats.
func serverStats(c *wire.Client) (ekbtree.Stats, error) {
	var st ekbtree.Stats
	raw, err := c.Stats()
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(raw, &st)
}

// drain sends SIGTERM and requires the clean exit a graceful drain gives.
func (s *server) drain() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("ekbtreed exited uncleanly after SIGTERM: %w", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-done
		return fmt.Errorf("ekbtreed did not drain within 20s of SIGTERM")
	}
}

// kill stops the child without ceremony, on an error path.
func (s *server) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// tenantFile is the page file the server keeps for the tenant.
func (s *server) tenantFile() string {
	return filepath.Join(s.dataDir, tenantName+".ekbt")
}
