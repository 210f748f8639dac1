// Command risd serves a Raw Information Source over TCP in its native
// dialect, playing the role of an autonomous database in a distributed
// toolkit deployment (Figure 2's bottom layer).
//
// Usage:
//
//	risd -kind relstore -addr 127.0.0.1:7001 [-demo]
//	risd -kind kvstore  -addr 127.0.0.1:7002 [-readonly] [-notify] [-demo]
//	risd -kind filestore -addr 127.0.0.1:7003 -dir /var/data
//	risd -kind bibstore -addr 127.0.0.1:7004 [-demo]
//
// -demo preloads a small employees/whois/bibliography dataset so the
// examples can be run against live servers.  -metrics-addr starts the
// observability surface (/metrics in Prometheus text format, covering
// cmtk_ris_requests_total and cmtk_ris_pushes_total; see
// OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"cmtk/internal/obs"
	"cmtk/internal/ris/bibstore"
	"cmtk/internal/ris/filestore"
	"cmtk/internal/ris/kvstore"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/ris/server"
	"cmtk/internal/wire"
)

func main() {
	kind := flag.String("kind", "relstore", "source kind: relstore | kvstore | filestore | bibstore")
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	dir := flag.String("dir", "", "data directory (filestore)")
	name := flag.String("name", "ris", "source name")
	readonly := flag.Bool("readonly", false, "serve read-only (kvstore)")
	notify := flag.Bool("notify", true, "offer native change callbacks (kvstore)")
	demo := flag.Bool("demo", false, "preload demo data")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/traces on this address (empty: off)")
	flag.Parse()

	if *metricsAddr != "" {
		osrv, bound, err := obs.Serve(*metricsAddr, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer osrv.Close()
		fmt.Printf("risd: observability on http://%s (/metrics, /debug/traces)\n", bound)
	}

	var srv *wire.Server
	var err error
	switch *kind {
	case "relstore":
		db := relstore.New(*name)
		if *demo {
			mustExec(db, "CREATE TABLE employees (empid TEXT, salary INT, PRIMARY KEY (empid))")
			mustExec(db, "INSERT INTO employees VALUES ('e1', 100)")
			mustExec(db, "INSERT INTO employees VALUES ('e2', 200)")
		}
		srv, err = server.ServeRel(*addr, db)
	case "kvstore":
		s := kvstore.New(*name, *readonly, *notify)
		if *demo {
			s.SeedSet("ann", "phone", "555-0101")
			s.SeedSet("bob", "phone", "555-0102")
		}
		srv, err = server.ServeKV(*addr, s)
	case "filestore":
		if *dir == "" {
			log.Fatal("risd: filestore needs -dir")
		}
		s, ferr := filestore.Open(*dir, *readonly)
		if ferr != nil {
			log.Fatal(ferr)
		}
		srv, err = server.ServeFile(*addr, s)
	case "bibstore":
		s := bibstore.New()
		if *demo {
			s.Load(
				bibstore.Record{Key: "cgw96", Author: "Chawathe", Title: "A Toolkit for Constraint Management", Year: 1996, Venue: "ICDE"},
				bibstore.Record{Key: "bgm92", Author: "Barbara", Title: "The Demarcation Protocol", Year: 1992, Venue: "EDBT"},
			)
		}
		srv, err = server.ServeBib(*addr, s)
	default:
		log.Fatalf("risd: unknown kind %q", *kind)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("risd: serving %s %q on %s\n", *kind, *name, srv.Addr())
	// Shut down gracefully on SIGINT/SIGTERM: stop accepting, close the
	// listener and live sessions instead of dying mid-frame.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("risd: %s, shutting down\n", got)
	if err := srv.Close(); err != nil {
		log.Printf("risd: close: %v", err)
	}
}

func mustExec(db *relstore.DB, sql string) {
	if _, err := db.Exec(sql); err != nil {
		log.Fatal(err)
	}
}
