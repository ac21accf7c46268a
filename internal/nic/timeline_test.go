package nic

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"testing"

	"virtnet/internal/netsim"
	"virtnet/internal/sim"
)

// timeline records what a set of NIs did on a seeded schedule, one line per
// observable firmware action, each stamped with the virtual time and the
// number of events the engine has armed so far (its sequence counter):
// every packet that reaches an NI — the wire delivers each injection, ACK,
// NACK and retransmission at an instant fixed by when and in what order it
// was injected — every deposit and return-to-sender, every residency request
// and every completed driver command. Two firmware builds print the same
// transcript only if they armed the same events at the same points.
type timeline struct {
	*rig
	t   *testing.T
	out strings.Builder
}

func (tl *timeline) logf(format string, args ...any) {
	fmt.Fprintf(&tl.out, "%9d %7d ", tl.e.Now(), tl.e.Stats().Scheduled)
	fmt.Fprintf(&tl.out, format, args...)
	tl.out.WriteByte('\n')
}

// tlDriver logs residency requests and, with autoLoad, answers each with a
// load into the NI's lowest free frame.
type tlDriver struct {
	tl       *timeline
	host     int
	autoLoad bool
}

func (d *tlDriver) RequestResident(ep *EndpointImage) {
	d.tl.logf("n%d request ep%d", d.host, ep.ID)
	if !d.autoLoad {
		return
	}
	for f, occ := range d.tl.nics[d.host].frames {
		if occ == nil {
			d.tl.cmd(d.host, OpLoad, ep, f)
			return
		}
	}
}

func (d *tlDriver) Notify(*EndpointImage) {}

func newTimeline(t *testing.T, hosts int, seed int64, mod func(*Config), nmod func(*netsim.Config)) *timeline {
	tl := &timeline{rig: newRig(t, hosts, seed, mod, nmod), t: t}
	for h, n := range tl.nics {
		n.SetDriver(&tlDriver{tl: tl, host: h})
		tl.net.Attach(netsim.NodeID(h), func(p *netsim.Packet) {
			tl.arrival(p)
			n.fromNetwork(p)
		})
	}
	return tl
}

func (tl *timeline) arrival(p *netsim.Packet) {
	w := p.Payload.(*wirePkt)
	var what string
	switch w.Kind {
	case pktData:
		what = fmt.Sprintf("data ep%d a%d bytes=%d", w.DstEP, w.Args[0], len(w.Payload))
	case pktAck:
		what = "ack"
	default:
		what = "nack:" + w.Reason.String()
	}
	if len(w.Piggy) > 0 {
		what += fmt.Sprintf(" piggy=%d", len(w.Piggy))
	}
	if p.Corrupt {
		what += " corrupt"
	}
	tl.logf("n%d <- n%d ch%d seq%d %s", p.Dst, p.Src, w.Chan, w.Seq, what)
}

// endpoint registers endpoint id on host, logging every deposit into it, and
// loads it into frame (frame < 0 leaves it non-resident).
func (tl *timeline) endpoint(host, id int, key uint64, frame int) *EndpointImage {
	n := tl.nics[host]
	ep := NewEndpointImage(id, netsim.NodeID(host), n.cfg.RecvQDepth)
	ep.Key = key
	ep.OnDeliver = func(m *RecvMsg) {
		if m.IsReturn {
			tl.logf("n%d return ep%d a%d %s", host, id, m.Args[0], m.Reason)
			return
		}
		tl.logf("n%d deposit ep%d <- n%d/ep%d a%d bytes=%d reply=%t",
			host, id, m.SrcNI, m.SrcEP, m.Args[0], len(m.Payload), m.IsReply)
	}
	n.Register(ep)
	if frame >= 0 {
		tl.cmd(host, OpLoad, ep, frame)
	}
	return ep
}

func (tl *timeline) cmd(host int, op CmdOp, ep *EndpointImage, frame int) {
	tl.nics[host].SubmitCmd(&DriverCmd{Op: op, EP: ep, Frame: frame, Done: func() {
		tl.logf("n%d done %s ep%d", host, op, ep.ID)
	}})
}

// post queues a message with argument a and a payload of size bytes from src
// (on host) to dst, on the reply queue if reply is set.
func (tl *timeline) post(host int, src, dst *EndpointImage, a uint64, size int, reply bool) {
	d := &SendDesc{DstNI: dst.Node, DstEP: dst.ID, Key: dst.Key, Handler: 1, IsReply: reply,
		Args: [4]uint64{a}, MsgID: a + 1}
	if size > 0 {
		d.Payload = make([]byte, size)
	}
	tl.postDesc(host, src, d)
}

func (tl *timeline) postDesc(host int, src *EndpointImage, d *SendDesc) {
	d.SrcEP = src.ID
	q := src.sendQueueFor(d)
	if q.Len() >= SendQDepth {
		panic("send queue full in timeline")
	}
	q.Push(d)
	tl.nics[host].PostSend()
}

// run advances the engine by d in steps of step, draining every visible
// message from eps after each step and handing it to each (when non-nil).
func (tl *timeline) run(d, step sim.Duration, each func(ep *EndpointImage, m *RecvMsg), eps ...*EndpointImage) {
	for end := tl.e.Now().Add(d); tl.e.Now() < end; {
		tl.e.RunFor(step)
		for _, ep := range eps {
			for {
				m, ok := ep.PopRecv(tl.e.Now())
				if !ok {
					break
				}
				if each != nil {
					each(ep, m)
				}
				m.Free()
			}
		}
	}
}

// summary appends every NI's nonzero counters and the engine's totals. The
// firmware runs as timer callbacks, so no schedule switches into a proc.
func (tl *timeline) summary() string {
	for h, n := range tl.nics {
		var parts []string
		for _, name := range ctrNames {
			if v := n.C.Get(name); v != 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", name, v))
			}
		}
		fmt.Fprintf(&tl.out, "n%d counters: %s\n", h, strings.Join(parts, " "))
	}
	s := tl.e.Stats()
	if s.Handoffs != 0 {
		tl.t.Errorf("%d proc hand-offs on a NIC-only schedule", s.Handoffs)
	}
	fmt.Fprintf(&tl.out, "engine fired=%d scheduled=%d max_pending=%d\n", s.Fired, s.Scheduled, s.MaxPending)
	return tl.out.String()
}

// timelineSchedules are the seeded NIC-only schedules TestFirmwareTimeline
// records. Between them they reach every firmware charge and every path
// that wakes the dispatch loop.
var timelineSchedules = []struct {
	name string
	run  func(t *testing.T) string
}{
	{"plain", func(t *testing.T) string {
		tl := newTimeline(t, 4, 1, nil, nil)
		defer tl.shutdown()
		a := tl.endpoint(0, 100, 7, 0)
		b := tl.endpoint(1, 200, 9, 0)
		c := tl.endpoint(2, 300, 11, 0)
		d := tl.endpoint(3, 400, 13, 0)
		tl.run(sim.Millisecond, 100*sim.Microsecond, nil)
		for i := uint64(0); i < 8; i++ {
			tl.post(0, a, b, i, 0, false)
			tl.post(2, c, b, 100+i, 1024*int(i), false)
		}
		tl.post(1, b, a, 1, 0, true)
		tl.post(1, b, c, 2, 4096, true)
		tl.postDesc(3, d, &SendDesc{DstNI: 1, DstEP: 200, Key: 99, Handler: 1, Args: [4]uint64{7}})
		tl.postDesc(3, d, &SendDesc{DstNI: 2, DstEP: 999, Key: 11, Handler: 1, Args: [4]uint64{8}})
		tl.run(5*sim.Millisecond, 100*sim.Microsecond, nil, a, b, c, d)
		return tl.summary()
	}},
	{"drops-corrupt", func(t *testing.T) string {
		tl := newTimeline(t, 3, 3, func(c *Config) {
			c.RetransBase = 200 * sim.Microsecond
			c.MaxRetries = 3
			c.ReturnToSenderAfter = 20 * sim.Millisecond
		}, func(c *netsim.Config) { c.DropProb = 0.15 })
		defer tl.shutdown()
		tl.net.SetCorruptProb(0.1)
		a := tl.endpoint(0, 100, 7, 0)
		b := tl.endpoint(1, 200, 9, 0)
		c := tl.endpoint(2, 300, 11, 0)
		tl.run(sim.Millisecond, 100*sim.Microsecond, nil)
		for i := uint64(0); i < 12; i++ {
			tl.post(0, a, b, i, 0, false)
			if i < 8 {
				tl.post(2, c, b, 100+i, 512, false)
			}
			if i < 4 {
				tl.post(1, b, a, 200+i, 0, false)
			}
		}
		tl.run(60*sim.Millisecond, 100*sim.Microsecond, nil, a, b, c)
		return tl.summary()
	}},
	{"pool-overrun", func(t *testing.T) string {
		tl := newTimeline(t, 4, 5, func(c *Config) {
			c.InboundPool = 3
			c.RecvQDepth = 8
		}, nil)
		defer tl.shutdown()
		dst := tl.endpoint(0, 100, 7, 0)
		out := tl.endpoint(0, 101, 8, 1)
		peer := tl.endpoint(1, 200, 9, 1)
		srcs := []*EndpointImage{tl.endpoint(1, 201, 10, 0), tl.endpoint(2, 300, 11, 0), tl.endpoint(3, 400, 13, 0)}
		tl.run(sim.Millisecond, 100*sim.Microsecond, nil)
		for j := 0; j < 10; j++ {
			for i, s := range srcs {
				tl.post(i+1, s, dst, uint64(100*i+j), 256*(j%3), false)
			}
			if j < 5 {
				tl.post(0, out, peer, uint64(1000+j), 0, false)
			}
		}
		tl.run(20*sim.Millisecond, 200*sim.Microsecond, nil, dst, peer)
		if tl.nics[0].C.Get("rx.pool_overrun") == 0 {
			t.Fatal("the staging pool never overran")
		}
		return tl.summary()
	}},
	{"proxy-fault", func(t *testing.T) string {
		tl := newTimeline(t, 3, 7, nil, nil)
		defer tl.shutdown()
		tl.nics[1].driver.(*tlDriver).autoLoad = true
		a := tl.endpoint(0, 100, 7, 0)
		b := tl.endpoint(1, 200, 9, -1)
		c := tl.endpoint(2, 300, 11, 0)
		tl.run(sim.Millisecond, 100*sim.Microsecond, nil)
		for i := uint64(0); i < 6; i++ {
			tl.post(0, a, b, i, 0, false)
		}
		tl.run(2*sim.Millisecond, 100*sim.Microsecond, nil, b)
		// Unload the sender with messages in flight: it quiesces first.
		for i := uint64(10); i < 18; i++ {
			tl.post(0, a, b, i, 256, false)
		}
		tl.e.RunFor(5 * sim.Microsecond)
		tl.cmd(0, OpUnload, a, 0)
		tl.run(3*sim.Millisecond, 100*sim.Microsecond, nil, b)
		if tl.nics[0].C.Get("drv.quiesce") == 0 {
			t.Fatal("the unload did not quiesce")
		}
		// Evict the receiver while a third node streams at it, and bring the
		// sender back for the messages it still holds.
		tl.cmd(1, OpUnload, b, 0)
		tl.e.RunFor(200 * sim.Microsecond)
		for i := uint64(0); i < 4; i++ {
			tl.post(2, c, b, 300+i, 0, false)
		}
		tl.cmd(0, OpLoad, a, 1)
		tl.run(6*sim.Millisecond, 100*sim.Microsecond, nil, a, b, c)
		return tl.summary()
	}},
	{"piggyback-adaptive", func(t *testing.T) string {
		tl := newTimeline(t, 2, 9, func(c *Config) {
			c.PiggybackAcks = true
			c.AdaptiveTimeout = true
			c.RetransBase = 100 * sim.Microsecond
			c.MinRTO = 150 * sim.Microsecond
		}, func(c *netsim.Config) { c.DropProb = 0.05 })
		defer tl.shutdown()
		a := tl.endpoint(0, 100, 7, 0)
		b := tl.endpoint(1, 200, 9, 0)
		tl.run(sim.Millisecond, 100*sim.Microsecond, nil)
		for i := uint64(0); i < 30; i++ {
			tl.post(0, a, b, i, 2048*int(i%3), false)
		}
		// Node 1 answers every request with a reply, which carries the
		// request's ack when it leaves within ackDelay.
		echo := func(ep *EndpointImage, m *RecvMsg) {
			if ep == b {
				tl.post(1, b, a, 1000+m.Args[0], 0, true)
			}
		}
		tl.run(30*sim.Millisecond, 50*sim.Microsecond, echo, a, b)
		return tl.summary()
	}},
	{"reboot", func(t *testing.T) string {
		tl := newTimeline(t, 3, 11, func(c *Config) { c.RetransBase = sim.Millisecond }, nil)
		defer tl.shutdown()
		n0, n1 := tl.nics[0], tl.nics[1]
		a := tl.endpoint(0, 100, 7, 0)
		a2 := tl.endpoint(0, 101, 8, 1)
		tl.e.AfterFunc(driverOpCost/2, func() {
			if n0.curCmd == nil {
				t.Fatal("no driver command in progress at the first reboot")
			}
			tl.logf("n0 reboot mid-command")
			n0.Reboot(sim.Millisecond)
		})
		b := tl.endpoint(1, 200, 9, 0)
		c := tl.endpoint(2, 300, 11, 0)
		tl.run(3*sim.Millisecond, 100*sim.Microsecond, nil)
		for i := uint64(0); i < 4; i++ {
			tl.post(0, a, b, i, 8192, false)
			tl.post(0, a2, c, 10+i, 0, false)
			tl.post(1, b, a, 20+i, 0, false)
		}
		tl.e.AfterFunc(50*sim.Microsecond, func() {
			if n0.staging == nil {
				t.Fatal("no send staged at the second reboot")
			}
			tl.logf("n0 reboot mid-send")
			n0.Reboot(500 * sim.Microsecond)
		})
		tl.e.AfterFunc(1200*sim.Microsecond, func() {
			tl.logf("n1 reboot")
			n1.Reboot(300 * sim.Microsecond)
		})
		tl.run(30*sim.Millisecond, 100*sim.Microsecond, nil, a, a2, b, c)
		return tl.summary()
	}},
	{"crash-restart", func(t *testing.T) string {
		tl := newTimeline(t, 3, 13, func(c *Config) {
			c.RetransBase = 500 * sim.Microsecond
			c.MaxRetries = 3
			c.ReturnToSenderAfter = 4 * sim.Millisecond
		}, nil)
		defer tl.shutdown()
		n1, n2 := tl.nics[1], tl.nics[2]
		a := tl.endpoint(0, 100, 7, 0)
		b := tl.endpoint(1, 200, 9, 0)
		c := tl.endpoint(2, 300, 11, 0)
		tl.run(sim.Millisecond, 100*sim.Microsecond, nil)
		for i := uint64(0); i < 10; i++ {
			tl.post(0, a, b, i, 0, false)
			if i < 5 {
				tl.post(2, c, b, 100+i, 4096, false)
			}
		}
		tl.e.AfterFunc(100*sim.Microsecond, func() {
			tl.logf("n2 crash")
			n2.Crash()
		})
		tl.e.AfterFunc(30*sim.Microsecond, func() {
			tl.logf("n1 crash")
			n1.Crash()
		})
		tl.run(6*sim.Millisecond, 100*sim.Microsecond, nil, a, b)
		tl.logf("n1 restart")
		n1.Restart()
		b = tl.endpoint(1, 200, 9, 0)
		tl.run(sim.Millisecond, 100*sim.Microsecond, nil, a, b)
		for i := uint64(20); i < 25; i++ {
			tl.post(0, a, b, i, 0, false)
		}
		tl.run(10*sim.Millisecond, 100*sim.Microsecond, nil, a, b)
		return tl.summary()
	}},
	{"wrr-loiter", func(t *testing.T) string {
		tl := newTimeline(t, 3, 15, func(c *Config) {
			c.LoiterMsgs = 3
			c.LoiterTime = 40 * sim.Microsecond
		}, nil)
		defer tl.shutdown()
		s1 := tl.endpoint(0, 1, 1, 0)
		s1.Weight = 2
		s2 := tl.endpoint(0, 2, 2, 1)
		s3 := tl.endpoint(0, 3, 3, 3)
		d1 := tl.endpoint(1, 10, 4, 0)
		d2 := tl.endpoint(2, 20, 5, 0)
		tl.run(sim.Millisecond, 100*sim.Microsecond, nil)
		for i := uint64(0); i < 12; i++ {
			dst := d1
			if i%2 == 1 {
				dst = d2
			}
			tl.post(0, s1, dst, i, 0, false)
			tl.post(0, s2, dst, 100+i, 0, false)
			tl.post(0, s3, dst, 200+i, 512, false)
		}
		tl.run(5*sim.Millisecond, 100*sim.Microsecond, nil, d1, d2)
		if tl.nics[0].C.Get("wrr.loiter_expiry") == 0 {
			t.Fatal("no loiter expiry")
		}
		return tl.summary()
	}},
}

// TestFirmwareTimeline runs every schedule and compares the transcript with
// testdata/firmware_timeline.txt byte for byte. A change that restructures
// the firmware without changing what it models must leave the transcript as
// it is. To re-record it on purpose, delete the file and run the test once:
// it writes the file and fails.
func TestFirmwareTimeline(t *testing.T) {
	const path = "testdata/firmware_timeline.txt"
	var got strings.Builder
	for _, s := range timelineSchedules {
		fmt.Fprintf(&got, "== %s\n", s.name)
		got.WriteString(s.run(t))
	}
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; run again to compare against it", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), bytes.Split(want, []byte("\n"))
	for i := range g {
		if i >= len(w) || g[i] != string(w[i]) {
			wl := "<end of transcript>"
			if i < len(w) {
				wl = string(w[i])
			}
			t.Fatalf("line %d diverged (time armed what):\n got  %s\n want %s", i+1, g[i], wl)
		}
	}
	t.Fatalf("transcript ends after %d lines, recorded one has %d", len(g), len(w))
}
