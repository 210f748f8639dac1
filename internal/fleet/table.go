package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Defaults for Params.
const (
	// DefaultVNodes is the virtual-node count per member.  More vnodes
	// smooth the balance at the cost of a bigger ring; 64 keeps the
	// per-member spread within a few percent for fleets of 2–16 shells.
	DefaultVNodes = 64
	// DefaultLoadFactor is the bounded-load cap multiplier: no member
	// owns more than ceil(bases/members × factor) bases.
	DefaultLoadFactor = 1.25
)

// Params configures an assignment.
type Params struct {
	// VNodes is the virtual-node count per member (0 = DefaultVNodes).
	VNodes int
	// LoadFactor bounds per-member load at ceil(bases/members × factor)
	// (0 = DefaultLoadFactor).  Groups that fit nowhere under the bound
	// fall back to the least-loaded member, so assignment is total.
	LoadFactor float64
	// Affinity co-locates bases: Affinity[b] = a places b wherever a's
	// group lands.  The fleet assembler derives this from the rule graph
	// (condition reads live with the trigger base, every effect of one
	// rule lives together) so a rule firing never needs remote reads.
	Affinity map[string]string
}

func (p Params) withDefaults() Params {
	if p.VNodes <= 0 {
		p.VNodes = DefaultVNodes
	}
	if p.LoadFactor <= 0 {
		p.LoadFactor = DefaultLoadFactor
	}
	return p
}

// Table is one epoch's complete ownership map: which member owns every
// item base.  It is the unit of distribution (installed into each
// shell's Router, dumped to route files) and of change — a rebalance
// produces a new Table with Epoch+1 and installs it everywhere at the
// cutover point.
type Table struct {
	Epoch      uint64            `json:"epoch"`
	Members    []string          `json:"members"`
	VNodes     int               `json:"vnodes"`
	LoadFactor float64           `json:"load_factor"`
	Owners     map[string]string `json:"owners"` // item base → member
}

// Assign computes the epoch's ownership table: affinity groups are
// placed on the first ring successor of their anchor base with room
// under the bounded-load cap.  The result
// is a pure function of (epoch, members, bases, params) — two processes
// with the same inputs compute byte-identical tables, which is what lets
// translators route without asking the shells.
func Assign(epoch uint64, members, bases []string, p Params) (Table, error) {
	p = p.withDefaults()
	members = dedupSorted(members)
	bases = dedupSorted(bases)
	if len(members) == 0 {
		return Table{}, fmt.Errorf("fleet: assignment needs at least one member")
	}

	// Resolve every base to its group anchor, following affinity chains
	// (cycles terminate at the smallest name seen, so a malformed map
	// still yields a deterministic grouping).
	anchorOf := func(b string) string {
		seen := map[string]bool{b: true}
		a := b
		for {
			next, ok := p.Affinity[a]
			if !ok || next == a {
				return a
			}
			if seen[next] {
				min := a
				for s := range seen {
					if s < min {
						min = s
					}
				}
				return min
			}
			seen[next] = true
			a = next
		}
	}
	groups := map[string][]string{}
	for _, b := range bases {
		a := anchorOf(b)
		groups[a] = append(groups[a], b)
	}
	anchors := make([]string, 0, len(groups))
	for a := range groups {
		anchors = append(anchors, a)
	}
	sort.Strings(anchors)

	bound := int(math.Ceil(float64(len(bases)) * p.LoadFactor / float64(len(members))))
	if bound < 1 {
		bound = 1
	}
	ring := buildRing(members, p.VNodes)
	load := map[string]int{}
	owners := make(map[string]string, len(bases))
	place := func(a string, member string) {
		for _, b := range groups[a] {
			owners[b] = member
		}
		load[member] += len(groups[a])
	}
	// Groups place in two passes so membership changes move little.
	// Pass 1 gives every group its natural owner — the first ring
	// successor of its anchor, load-blind; that choice depends only on
	// the hash geometry, so a group's natural owner never changes unless
	// its successor arc does.  Pass 2 evicts overflow: members above the
	// bound shed their highest-hashed natural groups, which walk on to
	// the next member with room.  Under a stable bound the evicted set is
	// a stable suffix of each member's hash-ordered groups, so growing or
	// shrinking the fleet only moves (a) groups whose successor arc now
	// lands elsewhere and (b) the overflow delta — not the whole ring.
	natural := map[string][]string{}
	for _, a := range anchors {
		var owner string
		ring.walk(a, func(m string) bool { owner = m; return true })
		natural[owner] = append(natural[owner], a)
	}
	var evicted []string
	for _, m := range members {
		as := natural[m]
		sort.Slice(as, func(i, j int) bool {
			hi, hj := hash64(as[i]), hash64(as[j])
			if hi != hj {
				return hi < hj
			}
			return as[i] < as[j]
		})
		for _, a := range as {
			if load[m]+len(groups[a]) <= bound {
				place(a, m)
			} else {
				evicted = append(evicted, a)
			}
		}
	}
	sort.Strings(evicted)
	for _, a := range evicted {
		size := len(groups[a])
		chosen := ""
		ring.walk(a, func(m string) bool {
			if load[m]+size <= bound {
				chosen = m
				return true
			}
			return false
		})
		if chosen == "" {
			// The group fits nowhere under the bound (it is larger than any
			// member's slack); take the least-loaded member so assignment
			// stays total.  Ties break by name for determinism.
			for _, m := range members {
				if chosen == "" || load[m] < load[chosen] {
					chosen = m
				}
			}
		}
		place(a, chosen)
	}
	return Table{
		Epoch:      epoch,
		Members:    members,
		VNodes:     p.VNodes,
		LoadFactor: p.LoadFactor,
		Owners:     owners,
	}, nil
}

// Owner resolves the member owning an item base.
func (t Table) Owner(base string) (string, bool) {
	m, ok := t.Owners[base]
	return m, ok
}

// Counts returns the per-member owned-base counts, including zero rows
// for members that own nothing.
func (t Table) Counts() map[string]int {
	out := make(map[string]int, len(t.Members))
	for _, m := range t.Members {
		out[m] = 0
	}
	for _, m := range t.Owners {
		out[m]++
	}
	return out
}

// Bases returns the owned bases in sorted order.
func (t Table) Bases() []string {
	out := make([]string, 0, len(t.Owners))
	for b := range t.Owners {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Checksum digests the ownership map (bases, owners, epoch excluded) so
// two processes can assert they computed the same placement.
func (t Table) Checksum() uint64 {
	h := uint64(fnvOffset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime64
		}
		h = (h ^ 0xff) * fnvPrime64
	}
	for _, b := range t.Bases() {
		mix(b)
		mix(t.Owners[b])
	}
	return h
}

// Move is one base changing owner between two tables.
type Move struct {
	Base string `json:"base"`
	From string `json:"from"`
	To   string `json:"to"`
}

// Moves lists the bases whose owner differs between two tables, sorted
// by base.  Bases present in only one table are not moves (the universe
// is expected to be stable across epochs).
func Moves(old, next Table) []Move {
	var out []Move
	for b, from := range old.Owners {
		if to, ok := next.Owners[b]; ok && to != from {
			out = append(out, Move{Base: b, From: from, To: to})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}

// WriteFile dumps the table as JSON — the route file cmshell and cmctl
// consume.
func (t Table) WriteFile(path string) error {
	buf, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ReadFile loads a route file written by WriteFile (or by hand).
func ReadFile(path string) (Table, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Table{}, err
	}
	return decodeTable(buf)
}

// decodeTable decodes a route table as WriteFile writes it (or an
// operator edits it), and rejects one without an owners map.
func decodeTable(buf []byte) (Table, error) {
	var t Table
	if err := json.Unmarshal(buf, &t); err != nil {
		return Table{}, fmt.Errorf("fleet: decoding route table: %w", err)
	}
	if t.Owners == nil {
		return Table{}, fmt.Errorf("fleet: route table has no owners map")
	}
	return t, nil
}

func dedupSorted(in []string) []string {
	out := append([]string{}, in...)
	sort.Strings(out)
	j := 0
	for i, s := range out {
		if i == 0 || s != out[i-1] {
			out[j] = s
			j++
		}
	}
	return out[:j]
}
