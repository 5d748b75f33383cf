package automata

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// DFA is a complete deterministic finite automaton over an alphabet of edge
// tags (Definition 11). Completeness: every state has a transition on every
// alphabet symbol (a non-accepting sink serves as the dead state), which the
// safety machinery relies on.
type DFA struct {
	Alphabet []string
	Start    int
	Accept   []bool
	// Delta[q*len(Alphabet)+s] is the successor of state q on symbol s.
	Delta []int

	symIdx map[string]int
}

// NumStates returns |Q|.
func (d *DFA) NumStates() int { return len(d.Accept) }

// SymIndex returns the alphabet index of tag, or -1 if the tag is not in
// the alphabet (such tags can never occur in a run of the specification the
// DFA was built against).
func (d *DFA) SymIndex(tag string) int {
	if i, ok := d.symIdx[tag]; ok {
		return i
	}
	return -1
}

// Step returns δ(q, tag); a tag outside the alphabet moves to the dead
// state if one exists, identified as a non-accepting state with only
// self-transitions, else returns -1.
func (d *DFA) Step(q int, tag string) int {
	s := d.SymIndex(tag)
	if s < 0 {
		if dead := d.DeadState(); dead >= 0 {
			return dead
		}
		return -1
	}
	return d.Delta[q*len(d.Alphabet)+s]
}

// DeadState returns the index of a non-accepting all-self-loop state, or -1.
func (d *DFA) DeadState() int {
	n := len(d.Alphabet)
	for q := 0; q < d.NumStates(); q++ {
		if d.Accept[q] {
			continue
		}
		dead := true
		for s := 0; s < n; s++ {
			if d.Delta[q*n+s] != q {
				dead = false
				break
			}
		}
		if dead {
			return q
		}
	}
	return -1
}

// Requires reports whether every word of the DFA's language contains sym:
// removing all sym-transitions must disconnect the start state from every
// accepting state. A sym outside the alphabet is never required (no word
// contains it). Required symbols are what seed-driven evaluation (the G2
// baseline's rare-label decomposition, internal/plan's seeded strategy)
// anchors on: any matching run path must traverse a sym-tagged edge.
func (d *DFA) Requires(sym string) bool {
	s := d.SymIndex(sym)
	if s < 0 {
		return false
	}
	nsym := len(d.Alphabet)
	seen := make([]bool, d.NumStates())
	stack := []int{d.Start}
	seen[d.Start] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.Accept[q] {
			return false // an accepting path avoiding sym exists
		}
		for s2 := 0; s2 < nsym; s2++ {
			if s2 == s {
				continue
			}
			t := d.Delta[q*nsym+s2]
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	return true
}

// Accepts runs the DFA on a sequence of edge tags.
func (d *DFA) Accepts(tags []string) bool {
	q := d.Start
	for _, t := range tags {
		q = d.Step(q, t)
		if q < 0 {
			return false
		}
	}
	return d.Accept[q]
}

// String renders a compact human-readable transition table for debugging.
func (d *DFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DFA states=%d start=%d alphabet=%v\n", d.NumStates(), d.Start, d.Alphabet)
	for q := 0; q < d.NumStates(); q++ {
		acc := " "
		if d.Accept[q] {
			acc = "*"
		}
		fmt.Fprintf(&b, "%s q%d:", acc, q)
		for s, tag := range d.Alphabet {
			fmt.Fprintf(&b, " %s->q%d", tag, d.Delta[q*len(d.Alphabet)+s])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CompileDFA parses nothing: it builds the minimal complete DFA of the
// expression over the given alphabet (spec tags; expression tags are added).
// This is steps 1-2 of the safety-check pipeline in Section III-C.
func CompileDFA(n *Node, alphabet []string) *DFA {
	nfa := BuildNFA(n, alphabet)
	d := determinize(nfa)
	return Minimize(d)
}

// determinize applies the subset construction, producing a complete DFA
// (the empty subset is the dead state).
func determinize(m *NFA) *DFA {
	nsym := len(m.alphabet)
	d := &DFA{Alphabet: m.alphabet, symIdx: map[string]int{}}
	for i, t := range m.alphabet {
		d.symIdx[t] = i
	}

	// buf holds the key of the last subset asked for: its states, each
	// followed by a comma. A lookup by string(buf) does not allocate.
	var buf []byte
	key := func(set []int) []byte {
		buf = buf[:0]
		for _, v := range set {
			buf = append(strconv.AppendInt(buf, int64(v), 10), ',')
		}
		return buf
	}
	isAccept := func(set []int) bool {
		for _, v := range set {
			if v == m.accept {
				return true
			}
		}
		return false
	}

	start := m.closure([]int{m.start})
	ids := map[string]int{string(key(start)): 0}
	sets := [][]int{start}
	d.Accept = append(d.Accept, isAccept(start))
	d.Start = 0

	for at := 0; at < len(sets); at++ {
		row := make([]int, nsym)
		for s := 0; s < nsym; s++ {
			next := m.closure(m.step(sets[at], s))
			k := key(next)
			id, ok := ids[string(k)]
			if !ok {
				id = len(sets)
				ids[string(k)] = id
				sets = append(sets, next)
				d.Accept = append(d.Accept, isAccept(next))
			}
			row[s] = id
		}
		d.Delta = append(d.Delta, row...)
	}
	return d
}

// Minimize returns the minimal complete DFA equivalent to d, using Moore's
// partition-refinement algorithm (adequate for the small query DFAs the
// paper's workloads produce).
func Minimize(d *DFA) *DFA {
	n := d.NumStates()
	nsym := len(d.Alphabet)

	// Restrict to states reachable from the start.
	reach := make([]bool, n)
	stack := []int{d.Start}
	reach[d.Start] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for s := 0; s < nsym; s++ {
			t := d.Delta[q*nsym+s]
			if !reach[t] {
				reach[t] = true
				stack = append(stack, t)
			}
		}
	}

	class := make([]int, n)
	numClasses := 1
	for q := 0; q < n; q++ {
		if d.Accept[q] {
			class[q] = 1
			numClasses = 2
		}
	}
	// A state's signature is written into buf, one buffer for all of them:
	// its class, "|", then the class of each successor followed by a comma.
	var buf []byte
	// Each round refines the partition (the signature starts with the old
	// class), so the class count is non-decreasing and the loop terminates
	// exactly when the partition is stable.
	for {
		sig := map[string]int{} // signature -> index into members
		var order []string
		var members [][]int
		for q := 0; q < n; q++ {
			if !reach[q] {
				continue
			}
			buf = append(strconv.AppendInt(buf[:0], int64(class[q]), 10), '|')
			for s := 0; s < nsym; s++ {
				buf = append(strconv.AppendInt(buf, int64(class[d.Delta[q*nsym+s]]), 10), ',')
			}
			i, ok := sig[string(buf)]
			if !ok {
				k := string(buf)
				i = len(members)
				sig[k] = i
				order = append(order, k)
				members = append(members, nil)
			}
			members[i] = append(members[i], q)
		}
		sort.Strings(order)
		if len(order) == numClasses {
			break
		}
		numClasses = len(order)
		newClass := make([]int, n)
		for i, k := range order {
			for _, q := range members[sig[k]] {
				newClass[q] = i
			}
		}
		class = newClass
	}

	// Build quotient automaton with stable state numbering: order classes by
	// the smallest reachable member.
	repr := map[int]int{}
	for q := 0; q < n; q++ {
		if !reach[q] {
			continue
		}
		if r, ok := repr[class[q]]; !ok || q < r {
			repr[class[q]] = q
		}
	}
	classes := make([]int, 0, len(repr))
	for c := range repr {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return repr[classes[i]] < repr[classes[j]] })
	remap := map[int]int{}
	for i, c := range classes {
		remap[c] = i
	}

	out := &DFA{Alphabet: d.Alphabet, symIdx: map[string]int{}}
	for i, t := range d.Alphabet {
		out.symIdx[t] = i
	}
	out.Accept = make([]bool, len(classes))
	out.Delta = make([]int, len(classes)*nsym)
	for _, c := range classes {
		q := repr[c]
		i := remap[c]
		out.Accept[i] = d.Accept[q]
		for s := 0; s < nsym; s++ {
			out.Delta[i*nsym+s] = remap[class[d.Delta[q*nsym+s]]]
		}
	}
	out.Start = remap[class[d.Start]]
	return out
}
