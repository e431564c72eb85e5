package netsim

import (
	"fmt"
	"math/bits"
)

// ArbStats tallies the input-queued arbitrations cross-checked by
// CheckArbitration.
type ArbStats struct {
	Checks    int   // nextFromInputs calls checked
	Found     int   // ... that picked an input
	Escalated int   // ... that picked an input at a priority above 0
	Wide      int   // ... that picked an input numbered 64 or higher
	Err       error // the first disagreement, if any
}

// CheckArbitration makes every input-queued arbitration of n check the
// bitset's pick against scanInputs, the linear scan the bitset replaced, and
// the egress's whole bitset against the ingress FIFO heads it summarises.
func CheckArbitration(n *Network) *ArbStats {
	st := &ArbStats{}
	n.arbCheck = func(p *port, prio, got int) {
		st.Checks++
		if st.Err != nil {
			return
		}
		if want := n.scanInputs(p, prio); got != want {
			st.Err = fmt.Errorf("t=%v node %d egress %d prio %d: bitset picked input %d, scan picks %d",
				n.Now(), p.owner.id, p.local, prio, got, want)
			return
		}
		set := n.arbSet(p, prio)
		marked := 0
		for _, w := range set {
			marked += bits.OnesCount64(w)
		}
		eligible := 0
		for _, in := range p.owner.ports {
			q := &n.inq[in.cb+prio]
			want := !q.empty() && q.front().Path[q.front().hop].Port == p.local
			has := set[in.local>>6]&(1<<(in.local&63)) != 0
			if want != has {
				st.Err = fmt.Errorf("t=%v node %d egress %d prio %d: input %d marked %v, FIFO head says %v",
					n.Now(), p.owner.id, p.local, prio, in.local, has, want)
				return
			}
			if want {
				eligible++
			}
		}
		if marked != eligible {
			st.Err = fmt.Errorf("t=%v node %d egress %d prio %d: %d bits set for %d eligible inputs",
				n.Now(), p.owner.id, p.local, prio, marked, eligible)
			return
		}
		if got >= 0 {
			st.Found++
			if prio > 0 {
				st.Escalated++
			}
			if got >= 64 {
				st.Wide++
			}
		}
	}
	return st
}

// scanInputs is the reference arbitration: scan the owner's ingress FIFOs
// round-robin from the egress cursor for the first whose head packet is
// bound for p at prio. It returns that input's port number, or -1.
func (n *Network) scanInputs(p *port, prio int) int {
	ports := p.owner.ports
	for j := range ports {
		in := ports[(int(n.rrVoq[p.cb+prio])+j)%len(ports)]
		q := &n.inq[in.cb+prio]
		if q.empty() {
			continue
		}
		if head := q.front(); head.Path[head.hop].Port == p.local {
			return in.local
		}
	}
	return -1
}
