// Command cmshell runs one CM-Shell process of a distributed deployment:
// it loads a Strategy Specification and the CM-RIDs for the sites it
// hosts, dials the Raw Information Sources, joins the shell mesh over
// TCP, and executes its share of the strategy rules (Figure 2's top
// layer).
//
// Usage:
//
//	cmshell -id shellA -spec strategy.spec \
//	        -rid a.rid -host A \
//	        -listen 127.0.0.1:9001 \
//	        -peer shellB=127.0.0.1:9002 -route B=shellB
//
// Every -rid names a CM-RID file; -host marks which of its sites this
// shell hosts (defaults to all RIDs given).  -peer maps peer shell IDs to
// their mesh addresses, and -route maps remote sites to the peer shells
// hosting them.
//
// Mesh links are reliable (sequencing, ack-driven retry, outage
// buffering with ordered replay), and acks flow back over the mesh: a
// shell needs a -peer entry for every shell that sends to it, or its
// acks cannot route back and the sender's outbox never drains.
//
// -metrics-addr starts the observability surface: /metrics serves the
// process-wide registry in Prometheus text format (shell, translator,
// and transport metrics), and /debug/traces dumps the rule-firing trace
// ring as JSON.  See OBSERVABILITY.md for the full catalogue.
//
// -route-table joins a sharded fleet (DESIGN.md §10): the shell loads
// the fleet route table from the given JSON file (written by `cmctl
// ring -write` or a fleet controller) and resolves constraint ownership
// through it instead of the static site map — it executes the rules
// anchored on bases the table assigns to its -id, forwards external
// triggers for other shells' bases to their owners, and re-forwards
// in-flight fires that arrive under a stale epoch.  Every member of a
// fleet must be started with the same table and list every other member
// in -peer.
//
// -state-dir makes the shell crash-recoverable: the reliable transport's
// outbox and dedup cursors and the shell's CM-private items journal into
// write-ahead logs there, so a killed process comes back up, replays its
// unacked fires in order, and keeps deduplicating retransmits it already
// processed — a crash stays the Section 5 *metric* failure instead of
// silently losing messages.  -wal-sync picks the fsync policy
// (always|interval|never).  A clean shutdown leaves a marker that lets
// the next start skip replay reporting ("warm"); after a kill the start
// is "cold" and reports what it recovered.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"cmtk/internal/cmi"
	"cmtk/internal/durable"
	"cmtk/internal/fleet"
	"cmtk/internal/obs"
	"cmtk/internal/rid"
	"cmtk/internal/rule"
	"cmtk/internal/shell"
	"cmtk/internal/translator"
	"cmtk/internal/transport"
	"cmtk/internal/wire"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	id := flag.String("id", "", "shell ID (required)")
	specPath := flag.String("spec", "", "strategy specification file (required)")
	listen := flag.String("listen", "127.0.0.1:0", "mesh listen address")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/traces on this address (empty: off)")
	stateDir := flag.String("state-dir", "", "durable state directory: journal outbox and private items for crash recovery (empty: in-memory only)")
	walSync := flag.String("wal-sync", "always", "WAL fsync policy: always|interval|never")
	routeTable := flag.String("route-table", "", "fleet route-table JSON file: shard constraint ownership across the mesh (empty: static site routing)")
	retry := flag.Duration("retry", 200*time.Millisecond, "reliable-link base retransmit interval")
	dialTimeout := flag.Duration("dial-timeout", 5*time.Second, "mesh peer dial timeout")
	reqTimeout := flag.Duration("req-timeout", 10*time.Second, "mesh frame write timeout: a frame a stalled peer has not taken by then fails")
	var ridPaths, peers, routes repeated
	flag.Var(&ridPaths, "rid", "CM-RID file for a hosted site (repeatable)")
	flag.Var(&peers, "peer", "peer shell as id=addr (repeatable)")
	flag.Var(&routes, "route", "remote site as site=shellID (repeatable)")
	flag.Parse()
	if *id == "" || *specPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	specFile, err := os.Open(*specPath)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := rule.ParseSpec(specFile)
	specFile.Close()
	if err != nil {
		log.Fatal(err)
	}

	if *metricsAddr != "" {
		srv, bound, err := obs.Serve(*metricsAddr, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("cmshell: observability on http://%s (/metrics, /debug/traces)\n", bound)
	}

	var store *durable.Store
	if *stateDir != "" {
		policy, err := durable.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Fatalf("cmshell: %v", err)
		}
		store, err = durable.Open(*stateDir, durable.Options{Sync: policy})
		if err != nil {
			log.Fatalf("cmshell: opening state dir: %v", err)
		}
		start := "cold (recovering journals)"
		if store.WasClean() {
			start = "warm (clean shutdown marker found)"
		}
		fmt.Printf("cmshell: durable state in %s, %s start, wal-sync=%s\n", *stateDir, start, policy)
	}

	var shellOpts shell.Options
	var router *fleet.Router
	if *routeTable != "" {
		tab, err := fleet.ReadFile(*routeTable)
		if err != nil {
			log.Fatalf("cmshell: %v", err)
		}
		found := false
		for _, m := range tab.Members {
			if m == *id {
				found = true
				break
			}
		}
		if !found {
			log.Fatalf("cmshell: route table %s (epoch %d) does not list member %q", *routeTable, tab.Epoch, *id)
		}
		router = fleet.NewRouter(*id, obs.Default)
		router.Install(tab)
		shellOpts.Router = router
		fmt.Printf("cmshell: fleet member %s of %d, route table epoch %d, owning %d base(s)\n",
			*id, len(tab.Members), tab.Epoch, tab.Counts()[*id])
	}
	addrs := map[string]string{}
	var linked []string // every shell this one exchanges messages with
	for _, p := range peers {
		name, addr, ok := strings.Cut(p, "=")
		if !ok {
			log.Fatalf("cmshell: bad -peer %q (want id=addr)", p)
		}
		addrs[name] = addr
		if name != *id {
			linked = append(linked, name)
		}
	}
	sh := shell.New(*id, spec, shellOpts)
	if router != nil {
		// Fleet members address each other through the ownership table, so
		// every mesh peer is a propagation peer even when it hosts no site.
		for _, name := range linked {
			sh.AddPeer(name)
		}
	}
	if store != nil {
		restored, err := sh.EnableDurable(store)
		if err != nil {
			log.Fatalf("cmshell: durable private state: %v", err)
		}
		if restored > 0 {
			fmt.Printf("cmshell: recovered %d private item(s)\n", restored)
		}
	}
	for _, p := range ridPaths {
		cfg, err := rid.ParseFile(p)
		if err != nil {
			log.Fatalf("cmshell: %s: %v", p, err)
		}
		if cfg.Local() {
			log.Fatalf("cmshell: %s: distributed shells need networked sources (addr ...)", p)
		}
		iface, err := translator.Open(cfg, nil, nil)
		if err != nil {
			log.Fatalf("cmshell: connecting to %s: %v", cfg.Site, err)
		}
		sh.AddSite(cfg.Site, iface)
		fmt.Printf("cmshell: hosting site %s via %s source at %s\n", cfg.Site, cfg.Kind, cfg.Addr)
	}
	for _, r := range routes {
		site, shellID, ok := strings.Cut(r, "=")
		if !ok {
			log.Fatalf("cmshell: bad -route %q (want site=shellID)", r)
		}
		sh.Route(site, shellID)
		if !slices.Contains(linked, shellID) && shellID != *id {
			linked = append(linked, shellID)
		}
	}

	tcp := transport.NewTCPNetworkAt(*listen, addrs,
		wire.WithDialTimeout(*dialTimeout), wire.WithRequestTimeout(*reqTimeout))
	mesh := &reliableMesh{Network: transport.NewReliable(tcp, transport.ReliableOptions{RetryInterval: *retry, Durable: store})}
	if err := sh.Attach(mesh); err != nil {
		log.Fatalf("cmshell: joining the mesh: %v", err)
	}
	// Nothing has been sent yet: every unacked message is one the journal
	// recovered.
	replayed := 0
	for _, name := range linked {
		replayed += mesh.ep.Pending(name)
	}
	if replayed > 0 {
		fmt.Printf("cmshell: replaying %d unacked message(s) from the journal\n", replayed)
	}
	listenAddr, _ := tcp.Addr(*id)
	fmt.Printf("cmshell: %s listening on %s\n", *id, listenAddr)

	sh.OnFailure(func(f cmi.Failure) { log.Printf("cmshell: %s", f) })
	if err := sh.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("cmshell: running; ^C or SIGTERM to stop")
	// Graceful shutdown: cancel subscriptions and timers, then close the
	// mesh endpoint (Stop closes it) instead of dying mid-frame.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("cmshell: %s, shutting down\n", got)
	for _, name := range linked {
		if n := mesh.ep.Pending(name); n > 0 {
			log.Printf("cmshell: %d message(s) to %s still unacked", n, name)
		}
	}
	sh.Stop()
	if store != nil {
		// Final checkpoints, flush, and the clean-shutdown marker: the next
		// start is warm instead of replaying the whole journal.
		if err := store.Close(); err != nil {
			log.Printf("cmshell: closing durable state: %v", err)
		} else {
			fmt.Println("cmshell: durable state closed cleanly")
		}
	}
}

// reliableMesh is the reliable network cmshell attaches its shell to.  It
// keeps the endpoint the shell joins through, to log its link events and
// count its unacked messages.
type reliableMesh struct {
	transport.Network
	ep *transport.ReliableEndpoint
}

// Join implements transport.Network.
func (m *reliableMesh) Join(shellID string, recv func(transport.Message)) (transport.Endpoint, error) {
	ep, err := m.Network.Join(shellID, recv)
	if err != nil {
		return nil, err
	}
	m.ep = ep.(*transport.ReliableEndpoint)
	m.ep.OnLinkEvent(func(ev transport.LinkEvent) {
		log.Printf("cmshell: link %s %s (attempts=%d messages=%d)", ev.Peer, ev.Kind, ev.Attempts, ev.Messages)
	})
	return ep, nil
}
