// Package hostos models the operating-system half of the virtual network
// system: the endpoint segment driver that manages endpoint residency as a
// virtual-memory problem (§4 of the paper).
//
// Endpoints live in one of the four states of the paper's Fig. 2:
//
//	on-host r/o  --write fault-->  on-host r/w  --background remap-->  on-NI r/w
//	on-host r/o  --vm pageout-->   on-disk (n/a) --fault+page-in-->     on-host r/w
//
// The critical design element reproduced here is the *asynchronous* on-host
// read/write state: a write fault on a non-resident endpoint returns
// immediately after scheduling a remap with the background kernel thread, so
// application threads are never suspended for the duration of an upload.
// That thread is modelled as a stage machine on one timer per driver (run,
// onStep): each of its delays is a timer arm and each NI command's
// completion re-arms the timer, so it costs no simulated thread.
// §6.4.1 shows single-threaded servers collapse without it; the
// DisableHostRW ablation removes it.
package hostos

import (
	"fmt"
	"sort"

	"virtnet/internal/container"
	"virtnet/internal/netsim"
	"virtnet/internal/nic"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// SegState is the OS view of an endpoint segment (Fig. 2).
type SegState int

const (
	// OnHostRO: image in host memory, read-only translations.
	OnHostRO SegState = iota
	// OnHostRW: image in host memory, writable; a remap is scheduled.
	OnHostRW
	// OnNIC: image resident in an NI endpoint frame, read-write.
	OnNIC
	// OnDisk: image reclaimed to the swap area, translations invalid.
	OnDisk
)

func (s SegState) String() string {
	switch s {
	case OnHostRO:
		return "on-host r/o"
	case OnHostRW:
		return "on-host r/w"
	case OnNIC:
		return "on-nic r/w"
	}
	return "on-disk"
}

// Segment is an endpoint segment: the memory-mapped object through which an
// application owns one endpoint.
type Segment struct {
	EP    *nic.EndpointImage
	State SegState
	// Cond is broadcast on residency transitions and communication events;
	// threads blocked on the endpoint (event masks, §3.3) wait here.
	Cond *sim.Cond
	// OnEvent, when set, also runs on communication events (after the
	// kernel notify cost); the core library points it at the bundle's
	// event condition so one thread can wait on many endpoints.
	OnEvent func()
	// OnResidency, when set, runs whenever Resident() changes (a load
	// completed or the endpoint was evicted). Polling an endpoint costs
	// PollResident or PollHost depending on where it lives, so a thread that
	// has worked out its poll schedule in advance re-derives it here. Runs in
	// event context, from the remap machine's timer callbacks; it must not
	// block.
	OnResidency func()

	remapQueued bool
	// remapping is set while the remap machine is actively working on this
	// segment; Free must synchronize with it.
	remapping bool
	freed     bool
	// migrating is set while the endpoint is being moved to another node:
	// the remap machinery must not re-bind it and NI residency requests for
	// it are discarded (arrivals keep getting transient NACKs until the
	// forwarding entry takes over).
	migrating bool
	// notified is what Driver.Notify schedules, built once per segment so a
	// communication event allocates nothing.
	notified func()
}

func (d *Driver) newSegment(ep *nic.EndpointImage, st SegState) *Segment {
	seg := &Segment{EP: ep, State: st, Cond: new(sim.Cond)}
	seg.notified = func() {
		seg.Cond.Broadcast()
		if seg.OnEvent != nil {
			seg.OnEvent()
		}
	}
	return seg
}

// Resident reports whether the segment is bound to an NI frame.
func (s *Segment) Resident() bool { return s.State == OnNIC }

// setState moves the segment to st, reporting a residency change.
func (s *Segment) setState(st SegState) {
	was := s.Resident()
	s.State = st
	if s.OnResidency != nil && s.Resident() != was {
		s.OnResidency()
	}
}

// Driver is the per-node endpoint segment driver plus the stage machine that
// models its background remap kernel thread.
type Driver struct {
	e    *sim.Engine
	node netsim.NodeID
	nic  *nic.NIC
	cfg  Config

	segs   map[int]*Segment
	nextID int

	remapQ container.Deque[*Segment]
	// The remap machine. step is its one timer: a delay arms it, and so does
	// the completion of cmd, the one NI command it reuses for every load and
	// unload; its callback (onStep) runs the rest of the remap in hand from
	// stage, then the loop (run). seg is the segment in hand, victim the
	// segment it evicts for it and frame the frame it loads into. busy is
	// false while the machine is parked with its queue empty, waiting for
	// queueRemap to kick it. gen names the incarnation whose arms step obeys:
	// Crash moves it on.
	step   sim.Timer
	gen    uint32
	stage  remapStage
	busy   bool
	seg    *Segment
	victim *Segment
	frame  int
	cmd    nic.DriverCmd
	// victims is pickVictim's scratch list of eviction candidates; only the
	// remap machine evicts, so one list serves every eviction.
	victims []*Segment

	// C counts faults, remaps, victim evictions, notifies.
	C obs.Counters

	crashed bool
}

// NewDriver creates the segment driver for node id and wires it to n.
func NewDriver(e *sim.Engine, id netsim.NodeID, n *nic.NIC, cfg Config) *Driver {
	d := &Driver{
		e:    e,
		node: id,
		nic:  n,
		cfg:  cfg,
		segs: make(map[int]*Segment),
	}
	// Endpoint IDs are globally unique across the cluster so a wire packet's
	// DstEP is unambiguous; partition the space by node.
	d.nextID = int(id) * 1_000_000
	n.SetDriver(d)
	d.initStep()
	// The NI runs Done in its own context once the command completes; the
	// machine goes on in a zero-delay event, the slot a thread parked on the
	// command would wake in. A crash drops the NI's command queue with the
	// driver's machine, so no Done outlives the incarnation that submitted it.
	d.cmd.Done = func() { d.step.ResetAt(d.e.Now()) }
	return d
}

// initStep gives the remap machine a fresh step timer. The timer it replaces
// may still hold an arm of the machine Crash just dropped: that arm fires
// when it was due, finds the incarnation moved on, and does nothing.
func (d *Driver) initStep() {
	gen := d.gen
	d.e.InitTimer(&d.step, func() {
		if d.gen == gen {
			d.onStep()
		}
	})
}

// Crash drops the driver's entire state with its host. Every segment is
// marked dead and its condition broadcast, so threads on *other* nodes
// blocked against this driver (a migration source waiting out a remap, for
// example) wake up, observe the death, and error out instead of hanging.
func (d *Driver) Crash() {
	if d.crashed {
		return
	}
	d.crashed = true
	d.gen++
	d.initStep()
	d.stage, d.busy, d.seg, d.victim = remapNone, false, nil, nil
	ids := make([]int, 0, len(d.segs))
	for id := range d.segs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		seg := d.segs[id]
		seg.freed = true
		seg.remapping = false
		seg.remapQueued = false
		seg.Cond.Broadcast()
	}
	d.segs = make(map[int]*Segment)
	d.remapQ.Reset()
	d.C.Inc("node.crash")
}

// Restart brings the driver back with no segments and its remap machine
// parked, as Crash left it.
func (d *Driver) Restart() {
	if !d.crashed {
		return
	}
	d.crashed = false
	d.C.Inc("node.restart")
}

// CreateEndpoint allocates an endpoint segment (segment creation = endpoint
// allocation + queue initialization, §4.2). The endpoint starts on-host r/o
// and non-resident.
func (d *Driver) CreateEndpoint(key uint64) *Segment {
	d.nextID++
	cfg := d.nic.Config()
	ep := nic.NewEndpointImage(d.nextID, d.node, cfg.RecvQDepth)
	ep.Key = key
	d.nic.Register(ep)
	seg := d.newSegment(ep, OnHostRO)
	d.segs[ep.ID] = seg
	d.C.Inc("ep.create")
	return seg
}

// Free releases an endpoint segment, synchronizing de-allocation with the
// network interface (process termination invokes this via segment methods).
// It blocks the calling thread until the endpoint is quiesced and unloaded.
func (d *Driver) Free(p *sim.Proc, seg *Segment) {
	seg.freed = true
	// Synchronize with an in-flight remap: the remap machine may have
	// already committed to loading this endpoint.
	for seg.remapping {
		seg.Cond.Wait(p)
	}
	if seg.EP.State != nic.EPHost {
		d.submitAndWait(p, &nic.DriverCmd{Op: nic.OpUnload, EP: seg.EP})
	}
	d.nic.Deregister(seg.EP.ID)
	delete(d.segs, seg.EP.ID)
	seg.Cond.Broadcast()
	d.C.Inc("ep.free")
}

// BeginMigration quiesces an endpoint for live migration: it drains queued
// send descriptors (making the endpoint resident if the NI needs it to
// drain), then marks the segment migrating — which detaches it from the
// remap machinery — and unloads it from its NI frame, letting the NI's
// quiesce protocol account for every unacknowledged packet in flight (§5.3).
// On return the image is on-host with empty send queues and zero in-flight
// packets; receive-side state (pending messages, duplicate-suppression
// windows) stays in the image and travels with it. The caller must have
// stopped new sends into the endpoint first.
func (d *Driver) BeginMigration(p *sim.Proc, seg *Segment) error {
	if d.crashed {
		return ErrCrashed
	}
	if seg.freed {
		return fmt.Errorf("hostos: migrate of freed endpoint %d", seg.EP.ID)
	}
	if seg.migrating {
		return fmt.Errorf("hostos: endpoint %d already migrating", seg.EP.ID)
	}
	// Drain: the NI only services resident endpoints, so nudge the segment
	// resident while work remains (the same path §4.2's background thread
	// uses for evicted endpoints with queued messages).
	for seg.EP.PendingSends() > 0 || seg.EP.Inflight() > 0 {
		if !seg.Resident() && !seg.remapQueued && seg.EP.PendingSends() > 0 {
			if seg.State == OnHostRO || seg.State == OnDisk {
				seg.State = OnHostRW
			}
			d.queueRemap(seg)
		}
		p.Sleep(20 * sim.Microsecond)
		if d.crashed {
			return ErrCrashed
		}
		if seg.freed {
			return fmt.Errorf("hostos: endpoint %d freed during migration drain", seg.EP.ID)
		}
	}
	seg.migrating = true
	for seg.remapping {
		seg.Cond.Wait(p)
	}
	if d.crashed {
		return ErrCrashed
	}
	if seg.EP.State != nic.EPHost {
		d.submitAndWait(p, &nic.DriverCmd{Op: nic.OpUnload, EP: seg.EP})
	}
	d.C.Inc("migrate.quiesce")
	return nil
}

// CompleteMigration finishes the source side of a move after the destination
// has installed and published the endpoint: it removes the image from this
// node's demux table and installs the NI forwarding entry so stale arrivals
// are NACKed NackMoved (bounced back toward the sender, which refreshes its
// translation from the name service).
func (d *Driver) CompleteMigration(seg *Segment) {
	if !seg.migrating {
		panic(fmt.Sprintf("hostos: CompleteMigration of non-migrating endpoint %d", seg.EP.ID))
	}
	d.nic.Deregister(seg.EP.ID)
	delete(d.segs, seg.EP.ID)
	d.nic.SetMoved(seg.EP.ID)
	seg.freed = true // stray operations on the stale segment become no-ops
	seg.Cond.Broadcast()
	d.C.Inc("migrate.out")
}

// AbortMigration abandons the source side of a move whose destination
// became unreachable: the quiesced image is withdrawn from this node's
// tables so it can be reinstalled (locally or elsewhere) under the same id.
// No forwarding entry is written — the endpoint is not moving after all.
func (d *Driver) AbortMigration(seg *Segment) {
	if !seg.migrating {
		panic(fmt.Sprintf("hostos: AbortMigration of non-migrating endpoint %d", seg.EP.ID))
	}
	d.nic.Deregister(seg.EP.ID)
	delete(d.segs, seg.EP.ID)
	seg.freed = true // stray operations on the stale segment become no-ops
	seg.Cond.Broadcast()
	d.C.Inc("migrate.abort")
}

// InstallSegment adopts a migrated-in endpoint image: it rebinds the image
// to this node, registers it with the local NI, and schedules a background
// remap so the endpoint becomes resident and serviceable. The image keeps
// its globally-unique ID and protection key, so peers' cached translations
// and duplicate-suppression state remain valid across the move.
func (d *Driver) InstallSegment(img *nic.EndpointImage) *Segment {
	if _, ok := d.segs[img.ID]; ok {
		panic(fmt.Sprintf("hostos: install of already-present endpoint %d", img.ID))
	}
	img.Node = d.node
	img.State = nic.EPHost
	img.Frame = -1
	seg := d.newSegment(img, OnHostRW)
	d.segs[img.ID] = seg
	d.nic.Register(img)
	d.queueRemap(seg)
	d.C.Inc("migrate.in")
	return seg
}

// WriteFault is invoked when an application thread writes into a
// non-resident endpoint. On the paper's design it marks the segment
// writable, schedules an asynchronous remap, and returns immediately. With
// DisableHostRW (the original design) it blocks until the endpoint is
// resident.
func (d *Driver) WriteFault(p *sim.Proc, seg *Segment) {
	if seg.Resident() || seg.freed {
		return
	}
	p.Sleep(faultCost)
	// Re-validate after the trap: the remap machine may have completed
	// the binding while this fault was being handled (the handler finds the
	// translation already valid and simply returns).
	if seg.Resident() || seg.freed {
		return
	}
	d.C.Inc("fault.write")
	if seg.State == OnDisk {
		p.Sleep(pageInCost)
		d.C.Inc("fault.pagein")
	}
	seg.State = OnHostRW
	d.queueRemap(seg)
	if d.cfg.DisableHostRW {
		for !seg.Resident() && !seg.freed {
			seg.Cond.Wait(p)
		}
	}
}

// PageOut simulates VM pressure reclaiming a non-resident endpoint's pages
// to the swap area ("vm pageout" transition in Fig. 2).
func (d *Driver) PageOut(seg *Segment) error {
	if seg.Resident() {
		return fmt.Errorf("hostos: cannot page out resident endpoint %d", seg.EP.ID)
	}
	if seg.freed {
		return fmt.Errorf("hostos: endpoint %d already freed", seg.EP.ID)
	}
	seg.State = OnDisk
	d.C.Inc("vm.pageout")
	return nil
}

// queueRemap schedules seg for residency with the remap machine.
func (d *Driver) queueRemap(seg *Segment) {
	if d.crashed {
		return
	}
	if seg.remapQueued {
		d.C.Inc("remap.skip_queued")
		return
	}
	if seg.Resident() {
		d.C.Inc("remap.skip_resident")
		return
	}
	if seg.freed || seg.migrating {
		d.C.Inc("remap.skip_freed")
		return
	}
	seg.remapQueued = true
	d.remapQ.Push(seg)
	if !d.busy {
		// Kick the parked machine in a zero-delay event: the slot a thread
		// waiting on a Cond takes when it is signalled. A busy machine takes
		// the segment when the remap in hand ends.
		d.busy = true
		d.step.Reset(0)
	}
}

// RequestResident implements nic.DriverPort: a message arrived for a
// non-resident endpoint, so the NI asks for it to be made resident. The
// paper's segment driver spawns a kernel thread to perform a proxy
// operation — a software-initiated page fault — which funnels into the same
// remap mechanism. Runs in NI context; it must only enqueue.
func (d *Driver) RequestResident(ep *nic.EndpointImage) {
	seg, ok := d.segs[ep.ID]
	if !ok || seg.freed || seg.migrating {
		// The free "happened before" this request resolved (or raced it),
		// and the freed and migrating flags discard it (§4.3). The driver
		// and the NI fire on one engine in one total order, so the flags
		// and the NI's FIFO command queue order the two sides without a
		// logical clock.
		d.C.Inc("remap.stale_request")
		return
	}
	d.C.Inc("remap.ni_request")
	if seg.State == OnDisk {
		// The proxy fault must also page the image back in; the remap
		// machine charges the cost.
		d.C.Inc("fault.proxy_pagein")
	}
	if seg.State == OnHostRO {
		seg.State = OnHostRW
	}
	d.queueRemap(seg)
}

// Notify implements nic.DriverPort: a communication event arrived for an
// endpoint with an armed event mask. The kernel path costs notifyCost
// before the blocked thread actually wakes.
func (d *Driver) Notify(ep *nic.EndpointImage) {
	seg, ok := d.segs[ep.ID]
	if !ok {
		return
	}
	d.C.Inc("event.notify")
	d.e.AfterFunc(notifyCost, seg.notified)
}

// submitAndWait issues a driver/NI command and parks the proc until the NI
// completes it: the command's Done arms the proc's own wakeup.
func (d *Driver) submitAndWait(p *sim.Proc, cmd *nic.DriverCmd) {
	if d.crashed {
		// The NI is dark and will never complete the command; callers
		// re-check crashed/freed after every blocking step.
		return
	}
	done := false
	cmd.Done = func() {
		done = true
		// A waiter killed meanwhile (glunix aborting its job, say) is
		// not woken.
		if !p.Done() {
			p.WakeAt(d.e.Now())
		}
	}
	d.nic.SubmitCmd(cmd)
	for !done {
		p.Park()
	}
}

// freeFrame returns the index of a free NI frame, or -1.
func (d *Driver) freeFrame() int {
	cfg := d.nic.Config()
	for i := 0; i < cfg.Frames; i++ {
		if d.nic.FrameOccupant(i) == nil {
			return i
		}
	}
	return -1
}

// pickVictim selects a resident endpoint to evict according to the policy.
// Quiescing endpoints (mid-unload) are skipped.
func (d *Driver) pickVictim() *Segment {
	cfg := d.nic.Config()
	candidates := d.victims[:0]
	for i := 0; i < cfg.Frames; i++ {
		ep := d.nic.FrameOccupant(i)
		if ep == nil || ep.State != nic.EPResident {
			continue
		}
		if seg, ok := d.segs[ep.ID]; ok && !seg.freed {
			candidates = append(candidates, seg)
		}
	}
	d.victims = candidates
	if len(candidates) == 0 {
		return nil
	}
	switch d.cfg.Policy {
	case ReplaceLRU:
		best := candidates[0]
		for _, s := range candidates[1:] {
			if s.EP.LastActive < best.EP.LastActive {
				best = s
			}
		}
		return best
	case ReplaceFIFO:
		best := candidates[0]
		for _, s := range candidates[1:] {
			if s.EP.LoadedAt < best.EP.LoadedAt {
				best = s
			}
		}
		return best
	default:
		return candidates[d.e.Rand().Intn(len(candidates))]
	}
}

// remapStage names what is left of the remap in hand once the delay or the
// NI command it waits on is over: the continuation onStep runs.
type remapStage int8

const (
	remapNone    remapStage = iota // no remap in hand: take the next queued segment
	remapScanned                   // remapScanDelay paid: page in, or find a frame
	remapPagedIn                   // pageInCost paid: find a frame
	remapUnload                    // unloadCost paid: unload the victim
	remapEvicted                   // the victim's unload is done
	remapLoad                      // loadCost paid: load the segment
	remapLoaded                    // the load is done
)

// wait parks the machine for dur, after which onStep runs s.
func (d *Driver) wait(dur sim.Duration, s remapStage) {
	d.stage = s
	d.step.Reset(dur)
}

// submit hands the NI the machine's command; its Done runs s.
func (d *Driver) submit(op nic.CmdOp, ep *nic.EndpointImage, s remapStage) {
	d.cmd.Op, d.cmd.EP, d.cmd.Frame = op, ep, d.frame
	d.stage = s
	d.nic.SubmitCmd(&d.cmd)
}

// onStep runs when a delay is paid or a command is done, or when queueRemap
// kicks the parked machine: the rest of the remap in hand, then the loop,
// which returns at once if the remap waits again.
func (d *Driver) onStep() {
	s := d.stage
	d.stage = remapNone
	switch s {
	case remapScanned:
		d.scanned()
	case remapPagedIn:
		d.seg.State = OnHostRW
		d.place()
	case remapUnload:
		d.submit(nic.OpUnload, d.victim.EP, remapEvicted)
	case remapEvicted:
		d.evicted()
	case remapLoad:
		if d.seg.freed || d.seg.migrating {
			d.finish()
		} else {
			d.submit(nic.OpLoad, d.seg.EP, remapLoaded)
		}
	case remapLoaded:
		d.seg.setState(OnNIC)
		d.C.Inc("remap.load")
		d.finish()
	}
	d.run()
}

// run is the background kernel thread's loop that services re-mapping
// requests (§4.2): it takes queued segments until one starts a remap, which
// waits on its first delay, or the queue runs dry and the machine parks
// until queueRemap kicks it.
func (d *Driver) run() {
	for d.stage == remapNone {
		seg, ok := d.remapQ.Pop()
		if !ok {
			d.busy = false
			return
		}
		if seg.freed || seg.migrating || seg.Resident() {
			seg.remapQueued = false
			continue
		}
		seg.remapping = true
		d.seg = seg
		d.wait(remapScanDelay, remapScanned)
	}
}

// scanned starts the remap in hand once the scan delay is paid. A remap
// performs one residency transition: page-in if needed, victim eviction if
// all frames are occupied, then the upload. It re-checks freed after every
// delay and command (the free/remap race of §4.3).
func (d *Driver) scanned() {
	seg := d.seg
	if seg.freed || seg.migrating {
		d.finish()
		return
	}
	if seg.State == OnDisk {
		d.wait(pageInCost, remapPagedIn)
		return
	}
	d.place()
}

// place finds the remap a frame, evicting a victim if every frame is taken.
func (d *Driver) place() {
	if d.frame = d.freeFrame(); d.frame >= 0 {
		d.load()
		return
	}
	if d.victim = d.pickVictim(); d.victim == nil {
		// All frames quiescing; retry shortly.
		d.queueRemapLater(d.seg)
		d.finish()
		return
	}
	d.wait(unloadCost, remapUnload)
}

// evicted finishes the victim's eviction and loads into the frame it freed.
func (d *Driver) evicted() {
	victim := d.victim
	d.victim = nil
	victim.setState(OnHostRO)
	victim.Cond.Broadcast()
	d.C.Inc("remap.evict")
	// §4.2: the background thread activates non-empty endpoints. An evicted
	// endpoint with queued work goes back on the remap queue so its
	// communication is not stranded.
	if victim.EP.PendingSends() > 0 || victim.EP.PendingRecvs() > 0 {
		victim.State = OnHostRW
		d.queueRemap(victim)
	}
	if d.frame = d.freeFrame(); d.frame < 0 {
		d.queueRemapLater(d.seg)
		d.finish()
		return
	}
	d.load()
}

// load charges the load's driver cost, unless the segment went meanwhile.
func (d *Driver) load() {
	if d.seg.freed || d.seg.migrating {
		d.finish()
		return
	}
	d.wait(loadCost, remapLoad)
}

// finish ends the remap in hand and wakes threads synchronizing with it.
func (d *Driver) finish() {
	seg := d.seg
	d.seg = nil
	seg.remapping = false
	seg.remapQueued = false
	seg.Cond.Broadcast()
}

// queueRemapLater re-queues a remap after a short delay (frames were all
// quiescing).
func (d *Driver) queueRemapLater(seg *Segment) {
	d.e.AfterFunc(200*sim.Microsecond, func() { d.queueRemap(seg) })
}

// Remaps reports completed endpoint loads (the §6.4.1 "re-mappings per
// second" metric counts loads).
func (d *Driver) Remaps() int64 { return d.C.Get("remap.load") }
