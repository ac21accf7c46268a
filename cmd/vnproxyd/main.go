// Command vnproxyd is the long-lived control-plane daemon: it hosts a
// persistent simulated cluster and serves the ctlplane API over a local
// unix socket (newline-delimited JSON), surviving tenant churn — the
// ncproxy-style NetworkConfigProxy surface of ROADMAP item 2.
//
// Two modes:
//
//	vnproxyd -socket /tmp/vnproxyd.sock     # serve until interrupted
//	vnproxyd -script session.ctl            # replay a scripted session to
//	                                        # stdout and exit (CI uses this
//	                                        # for byte-determinism checks)
//
// Virtual time only advances when a request asks it to ("advance" op) or a
// blocking op needs it, so the daemon is deterministic: the response stream
// is a pure function of the seed and the request sequence. Requests from
// concurrent connections are serialized in arrival order through a single
// executor goroutine that owns the simulation engine.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"virtnet/internal/ctlplane"
	"virtnet/internal/hostos"
	"virtnet/internal/obs"
	"virtnet/internal/vnet"
)

func main() {
	var (
		nodes      = flag.Int("nodes", 8, "cluster size (fixed for the daemon's lifetime)")
		seed       = flag.Int64("seed", 1, "simulation seed")
		socket     = flag.String("socket", "/tmp/vnproxyd.sock", "unix socket path to serve the control API on")
		script     = flag.String("script", "", "replay a scripted session from this file (- for stdin) to stdout and exit")
		overcommit = flag.Int("overcommit", 4, "endpoints admitted per node, as a multiple of NI frames")
		quiet      = flag.Bool("q", false, "suppress the startup banner")
	)
	flag.Parse()

	srv := newDaemon(*seed, *nodes, *overcommit)

	if *script != "" {
		in := os.Stdin
		if *script != "-" {
			f, err := os.Open(*script)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			in = f
		}
		if err := srv.RunScript(in, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	os.Remove(*socket)
	ln, err := net.Listen("unix", *socket)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.Remove(*socket)
	if !*quiet {
		fmt.Fprintf(os.Stderr, "vnproxyd: %d-node cluster (seed %d), API v%d on %s\n",
			*nodes, *seed, ctlplane.Version, *socket)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		ln.Close()
	}()
	serve(ln, srv)
}

// newDaemon builds the persistent cluster and its control server. The obs
// registry is enabled first so QueryMetrics sees every layer's counters.
func newDaemon(seed int64, nodes, overcommit int) *ctlplane.Server {
	c := hostos.NewCluster(seed, nodes, hostos.DefaultClusterConfig())
	c.EnableObs(obs.Options{})
	return ctlplane.NewServer(vnet.NewManager(c, overcommit))
}

// call is one request line awaiting execution; reply receives the response.
type call struct {
	line  []byte
	reply chan []byte
}

// serve accepts connections until the listener closes. Connection readers
// feed request lines into a single executor goroutine that owns the engine,
// so concurrent clients see a consistent, deterministically-ordered cluster.
func serve(ln net.Listener, srv *ctlplane.Server) {
	calls := make(chan call)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for c := range calls {
			c.reply <- srv.HandleLine(c.line)
		}
	}()
	var (
		wg    sync.WaitGroup
		conns []net.Conn
	)
	for {
		conn, err := ln.Accept()
		if err != nil {
			break
		}
		conns = append(conns, conn)
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
			w := bufio.NewWriter(conn)
			reply := make(chan []byte, 1)
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if line == "" || strings.HasPrefix(line, "#") {
					continue
				}
				calls <- call{line: []byte(line), reply: reply}
				w.Write(<-reply)
				w.WriteByte('\n')
				if err := w.Flush(); err != nil {
					return
				}
			}
		}(conn)
	}
	// Listener closed (shutdown): drop live connections so their readers
	// finish, then retire the executor.
	for _, c := range conns {
		c.Close()
	}
	wg.Wait()
	close(calls)
	<-done
}
