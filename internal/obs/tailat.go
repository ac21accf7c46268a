package obs

import (
	"fmt"
	"sort"
	"strings"

	"virtnet/internal/sim"
)

// Tail-latency attribution: a critical-path analyzer over finished request
// trace trees. A tree is one KindReq root flight plus every KindOp child
// sharing its trace id (retries, backoff waits, server queueing/service,
// fast-fail stubs). The analyzer folds each tree into a per-stage cost
// vector, names the dominant stage, and aggregates per SLO class — which is
// what turns "p999 missed the deadline" into "because fan-in queueing" or
// "because retry backoff".

// SLO class notes recorded on request roots by the serving harness.
const (
	ClassGood   = "good"
	ClassMissed = "missed"
	ClassShed   = "shed"
	classOther  = "other"
)

// classNote is the note prefix carrying a root's SLO class.
const classNote = "class:"

// TraceCost is one folded request tree.
type TraceCost struct {
	Root     *Flight
	Class    string
	Stage    [NumStages]sim.Duration
	Dominant Stage
	Total    sim.Duration
}

// ClassAttr aggregates folded trees of one SLO class.
type ClassAttr struct {
	Class    string
	N        int
	Dominant [NumStages]int // trees whose dominant stage is the index
	Stage    [NumStages]sim.Duration
	Total    sim.Duration
	Worst    []*TraceCost // top-k by Total, descending
}

// Attribution is the full per-class analysis of one flight set.
type Attribution struct {
	Classes []ClassAttr // fixed order: good, missed, shed, other (if any)
	Roots   int
}

// foldTree computes a request tree's per-stage cost vector on a
// critical-path basis. The root's own stages partition its end-to-end time
// exactly (rpc-wait until the first response, fan-in until the last, …).
// Children then *explain* part of the generic rpc-wait window: op spans
// contribute server queueing/service/backoff, and transport retransmission
// recovery on the tree's message spans contributes backoff. The explained
// time displaces rpc-wait only up to the rpc-wait window itself — children
// of a fan-out run concurrently, so their summed time can exceed the wall
// clock many times over, and summing it in would let 8× parallel server
// queueing swamp the fan-in convergence that actually gates the request.
// When the children over-explain the window, their contribution is scaled
// proportionally to fit, so the folded vector always sums to the root's
// end-to-end time (up to integer rounding left in rpc-wait).
func foldTree(root *Flight, ops []*Flight, retrans []sim.Duration) *TraceCost {
	tc := &TraceCost{Root: root, Class: classOther, Total: root.Total()}
	tc.Stage = root.StageTotals()
	for _, n := range root.Notes {
		if strings.HasPrefix(n.What, classNote) {
			tc.Class = n.What[len(classNote):]
		}
	}
	var child [NumStages]sim.Duration
	var childSum sim.Duration
	for _, op := range ops {
		ot := op.StageTotals()
		for i := range ot {
			child[i] += ot[i]
			childSum += ot[i]
		}
	}
	for _, d := range retrans {
		child[StageBackoff] += d
		childSum += d
	}
	if budget := tc.Stage[StageRPCWait]; childSum > 0 && budget > 0 {
		if childSum <= budget {
			for i := range child {
				tc.Stage[i] += child[i]
			}
			tc.Stage[StageRPCWait] -= childSum
		} else {
			var alloc sim.Duration
			for i := range child {
				a := sim.Duration(int64(child[i]) * int64(budget) / int64(childSum))
				tc.Stage[i] += a
				alloc += a
			}
			tc.Stage[StageRPCWait] -= alloc
		}
	}
	best := Stage(0)
	for st := Stage(1); st < NumStages; st++ {
		if tc.Stage[st] > tc.Stage[best] {
			best = st
		}
	}
	tc.Dominant = best
	return tc
}

// Attribute folds finished request trees out of flights (typically the
// merged output of per-shard tracers) and aggregates them per SLO class,
// keeping the worstK highest-latency trees of each class as exemplars.
// Unfinished roots and roots that were swept as dropped are excluded — only
// requests that ran to classification are attributable. Deterministic for a
// deterministic flight set.
func Attribute(flights []*Flight, worstK int) *Attribution {
	if worstK < 1 {
		worstK = 3
	}
	var roots []*Flight
	opsByTrace := make(map[uint64][]*Flight)
	retransByTrace := make(map[uint64][]sim.Duration)
	for _, f := range flights {
		if !f.Done() {
			continue
		}
		switch f.Kind {
		case KindReq:
			if f.DropReason == "" {
				roots = append(roots, f)
			}
		case KindOp:
			opsByTrace[f.TraceID] = append(opsByTrace[f.TraceID], f)
		default:
			// A message span of the tree that the NIC had to retransmit:
			// the stretch from its first send to the last retransmission is
			// transport recovery time, folded into the tree as backoff.
			if f.TraceID == 0 {
				continue
			}
			for i := len(f.Notes) - 1; i >= 0; i-- {
				if f.Notes[i].What == "retransmit" {
					retransByTrace[f.TraceID] = append(retransByTrace[f.TraceID],
						f.Notes[i].At.Sub(f.Begin))
					break
				}
			}
		}
	}

	byClass := map[string]*ClassAttr{}
	order := []string{ClassGood, ClassMissed, ClassShed, classOther}
	for _, c := range order {
		byClass[c] = &ClassAttr{Class: c}
	}
	for _, rt := range roots {
		tc := foldTree(rt, opsByTrace[rt.TraceID], retransByTrace[rt.TraceID])
		ca := byClass[tc.Class]
		if ca == nil {
			ca = byClass[classOther]
			tc.Class = classOther
		}
		ca.N++
		ca.Dominant[tc.Dominant]++
		ca.Total += tc.Total
		for i := range tc.Stage {
			ca.Stage[i] += tc.Stage[i]
		}
		ca.Worst = append(ca.Worst, tc)
	}

	a := &Attribution{Roots: len(roots)}
	for _, c := range order {
		ca := byClass[c]
		if ca.N == 0 && c == classOther {
			continue
		}
		sort.SliceStable(ca.Worst, func(i, j int) bool {
			if ca.Worst[i].Total != ca.Worst[j].Total {
				return ca.Worst[i].Total > ca.Worst[j].Total
			}
			return ca.Worst[i].Root.Span < ca.Worst[j].Root.Span
		})
		if len(ca.Worst) > worstK {
			ca.Worst = ca.Worst[:worstK]
		}
		a.Classes = append(a.Classes, *ca)
	}
	return a
}

// DominantStage reports the class's most common dominant stage (ties break
// toward the lower stage index) and the fraction of trees it dominates.
func (ca *ClassAttr) DominantStage() (Stage, float64) {
	best := Stage(0)
	for st := Stage(1); st < NumStages; st++ {
		if ca.Dominant[st] > ca.Dominant[best] {
			best = st
		}
	}
	if ca.N == 0 {
		return best, 0
	}
	return best, float64(ca.Dominant[best]) / float64(ca.N)
}

func ms(d sim.Duration) float64 { return float64(d) / 1e6 }

// Render formats the attribution as a fixed-order per-class report:
// dominant-stage distribution (descending, stage index breaking ties) and
// the worst exemplar trees with their three costliest stages.
func (a *Attribution) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  attributable requests: %d\n", a.Roots)
	for ci := range a.Classes {
		ca := &a.Classes[ci]
		fmt.Fprintf(&b, "  class %-6s n=%6d", ca.Class, ca.N)
		if ca.N == 0 {
			b.WriteString("\n")
			continue
		}
		fmt.Fprintf(&b, "  mean e2e %8.3f ms\n", ms(ca.Total)/float64(ca.N))

		type dom struct {
			st Stage
			n  int
		}
		var doms []dom
		for st := Stage(0); st < NumStages; st++ {
			if ca.Dominant[st] > 0 {
				doms = append(doms, dom{st, ca.Dominant[st]})
			}
		}
		sort.SliceStable(doms, func(i, j int) bool { return doms[i].n > doms[j].n })
		b.WriteString("    dominant:")
		for _, d := range doms {
			fmt.Fprintf(&b, "  %s %.1f%% (%d)", d.st, 100*float64(d.n)/float64(ca.N), d.n)
		}
		b.WriteString("\n")
		for _, tc := range ca.Worst {
			type sc struct {
				st Stage
				d  sim.Duration
			}
			var tops []sc
			for st := Stage(0); st < NumStages; st++ {
				if tc.Stage[st] > 0 {
					tops = append(tops, sc{st, tc.Stage[st]})
				}
			}
			sort.SliceStable(tops, func(i, j int) bool { return tops[i].d > tops[j].d })
			if len(tops) > 3 {
				tops = tops[:3]
			}
			fmt.Fprintf(&b, "    worst: e2e %8.3f ms  trace %#016x  dom %-12s  [",
				ms(tc.Total), tc.Root.TraceID, tc.Dominant.String())
			for i, s := range tops {
				if i > 0 {
					b.WriteString(" | ")
				}
				fmt.Fprintf(&b, "%s %.3f", s.st, ms(s.d))
			}
			b.WriteString(" ms]\n")
		}
	}
	return b.String()
}
