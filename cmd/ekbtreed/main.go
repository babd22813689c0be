// Command ekbtreed is the networked multi-tenant encrypted-index server: it
// hosts one enciphered B-tree per tenant (separate page files under -data)
// and speaks the length-prefixed binary protocol of pkg/ekbtree/wire over
// TCP.
//
// The server is provisioned with DERIVED key material only (see -provision
// and the tenants file): tenants' master keys stay with their clients, which
// authenticate per connection by an HMAC challenge/response proof of the
// auth subkey. On SIGTERM/SIGINT the server drains gracefully — it stops
// accepting, lets in-flight requests and open cursors finish up to
// -drain-timeout, then closes every tenant tree (flushing deferred
// durability tails).
//
// The tree flags fill one ekbtree.Options every tenant tree opens with, and
// background work is the tree's own: each re-seals pages under fresh key
// epochs. A tenant's file is compacted when its client sends the Vacuum op.
//
// Usage:
//
//	# provision a tenant (derives subkeys; the master key is not stored)
//	ekbtreed -tenants tenants.json -provision alice -master-hex <hex>
//
//	# serve
//	ekbtreed -addr 127.0.0.1:4617 -data ./data -tenants tenants.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
)

// options is everything the command line decides.
type options struct {
	addr, addrFile       string
	dataDir, tenantsPath string
	provision, masterHex string
	tree                 ekbtree.Options
	srv                  serverConfig
}

// parseFlags turns the command line (without the program name) into options,
// reporting a bad flag or value as an error.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("ekbtreed", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:4617", "TCP listen address")
	fs.StringVar(&o.addrFile, "addr-file", "", "write the bound address to this file once listening (for :0 ports)")
	fs.StringVar(&o.dataDir, "data", "data", "directory holding per-tenant page files")
	fs.StringVar(&o.tenantsPath, "tenants", "", "tenants config file (default <data>/tenants.json)")
	durability := fs.String("durability", "grouped", "commit durability: full, grouped, or async")
	fs.IntVar(&o.tree.MaxEpochAge, "max-epoch-age", 0, "fail cursors whose snapshot fell more than N commits behind (0 = unbounded)")
	fs.Int64Var(&o.tree.SealBudget, "seal-budget", 0, "per-epoch page-seal budget before the cipher key epoch rotates (0 = library default, negative = disable rotation)")
	fs.IntVar(&o.srv.maxConns, "max-conns", 1024, "maximum concurrent connections (0 = unlimited)")
	fs.DurationVar(&o.srv.drainTimeout, "drain-timeout", 10*time.Second, "how long a drain waits for in-flight work")
	fs.StringVar(&o.provision, "provision", "", "provision tenant NAME into -tenants and exit")
	fs.StringVar(&o.masterHex, "master-hex", "", "tenant master key (hex) for -provision")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if o.tenantsPath == "" {
		o.tenantsPath = filepath.Join(o.dataDir, "tenants.json")
	}
	if o.tree.MaxEpochAge < 0 {
		return options{}, fmt.Errorf("-max-epoch-age %d must be >= 0", o.tree.MaxEpochAge)
	}
	if o.srv.maxConns < 0 {
		return options{}, fmt.Errorf("-max-conns %d must be >= 0", o.srv.maxConns)
	}
	if o.srv.drainTimeout < 0 {
		return options{}, fmt.Errorf("-drain-timeout %v must be >= 0", o.srv.drainTimeout)
	}
	switch *durability {
	case "full":
		o.tree.Durability = ekbtree.DurabilityFull
	case "grouped":
		o.tree.Durability = ekbtree.DurabilityGrouped
	case "async":
		o.tree.Durability = ekbtree.DurabilityAsync
	default:
		return options{}, fmt.Errorf("unknown -durability %q (want full, grouped, or async)", *durability)
	}
	return o, nil
}

func main() {
	log.SetPrefix("ekbtreed: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the flag set has already printed the usage
	}
	if err != nil {
		log.Fatal(err)
	}

	if o.provision != "" {
		if err := os.MkdirAll(filepath.Dir(o.tenantsPath), 0o700); err != nil {
			log.Fatal(err)
		}
		if err := provisionTenant(o.tenantsPath, o.provision, o.masterHex); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("provisioned tenant %q in %s\n", o.provision, o.tenantsPath)
		return
	}

	if err := os.MkdirAll(o.dataDir, 0o700); err != nil {
		log.Fatal(err)
	}
	reg, err := loadRegistry(o.tenantsPath, o.dataDir, o.tree)
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (%d tenant(s), durability=%s)", ln.Addr(), len(reg.tenants), o.tree.Durability)
	if o.addrFile != "" {
		if err := os.WriteFile(o.addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	o.srv.logf = log.Printf
	srv := newServer(ln, reg, o.srv)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.serve() }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-serveErr:
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
	case sig := <-sigc:
		log.Printf("received %v", sig)
		if err := srv.drain(); err != nil {
			log.Fatalf("drain: %v", err)
		}
	}
}
