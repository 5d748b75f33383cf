package core

import "provrpq/internal/label"

// artifacts holds the decode structures derived from the query-intersected
// specification G_R (Section III-B): per-production port-transition matrices
// and per-cycle chain step matrices. They are valid only for safe queries,
// because composite body nodes are summarized by their λ matrices. Once
// built the tables are never written again, so any number of decoders can
// read them concurrently.
type artifacts struct {
	// in[k][c]: from the input port of production k's body to the input
	// port of body node c (identity at the source).
	in [][]Mat
	// out[k][c]: from the output port of body node c to the output port of
	// production k's body (identity at the sink).
	out [][]Mat
	// mid[k][c1*n+c2]: from the output port of body node c1 to the input
	// port of body node c2 within production k; nil when it moves no live
	// state to a live one (c1 cannot reach c2, or only into the dead state),
	// which no matching path crosses.
	mid [][]Mat
	// midLive[k][c1*w : (c1+1)*w], w = ⌈n/64⌉, has bit c2 set where
	// mid[k][c1*n+c2] is not nil: the divergences out of c1 a walk tests.
	midLive [][]uint64

	// stepIn[s][p]: cycle s, cycle position p — from the input port of an
	// iteration whose module sits at position p to the input port of the
	// next iteration (InMat of the recursive production at its
	// cycle-successor position). stepOut is the dual for output ports.
	stepIn  [][]Mat
	stepOut [][]Mat
}

// artifacts returns the decode structures, building them exactly once;
// callers must have verified Safe.
//
//provrpq:mutator
func (e *Env) artifacts() *artifacts {
	if !e.Safe() {
		panic("core: decode artifacts requested for an unsafe query")
	}
	e.artOnce.Do(func() { e.art = e.buildArtifacts(e.lambda) })
	return e.art
}

// buildArtifacts materializes the port-transition tables against one λ
// table.
func (e *Env) buildArtifacts(lam []Mat) *artifacts {
	a := &artifacts{}
	s := e.Spec
	a.in = make([][]Mat, len(s.Prods))
	a.out = make([][]Mat, len(s.Prods))
	a.mid = make([][]Mat, len(s.Prods))
	a.midLive = make([][]uint64, len(s.Prods))
	live := e.liveMask()
	for k, p := range s.Prods {
		a.in[k] = e.bodyInMats(lam, k)
		a.out[k] = e.bodyOutMats(lam, k)
		a.mid[k] = e.bodyMidMats(lam, k)
		n := len(p.Body.Nodes)
		w := (n + 63) / 64
		a.midLive[k] = make([]uint64, n*w)
		for c, m := range a.mid[k] {
			if applyRow(live, m)&live == 0 {
				a.mid[k][c] = nil
				continue
			}
			c1, c2 := c/n, c%n
			a.midLive[k][c1*w+c2/64] |= 1 << uint(c2%64)
		}
	}
	a.stepIn = make([][]Mat, len(s.Cycles()))
	a.stepOut = make([][]Mat, len(s.Cycles()))
	for _, c := range s.Cycles() {
		L := c.Len()
		a.stepIn[c.ID] = make([]Mat, L)
		a.stepOut[c.ID] = make([]Mat, L)
		for p := 0; p < L; p++ {
			m := c.ModuleAt(p)
			k, cyclePos := s.RecursiveProd(m)
			a.stepIn[c.ID][p] = a.in[k][cyclePos]
			a.stepOut[c.ID][p] = a.out[k][cyclePos]
		}
	}
	return a
}

// bodyMidMats computes, for every ordered body-node pair (c1, c2) of
// production k, the matrix from the output port of c1 to the input port of
// c2. Backward DP per target: W[x] = ∪ over edges (x,y,tag) of
// T_tag · (y == c2 ? I : λ(y) · W[y]).
func (e *Env) bodyMidMats(lam []Mat, k int) []Mat {
	p := &e.Spec.Prods[k]
	n := len(p.Body.Nodes)
	topo := e.bodyTopo(k)
	id := Identity(e.NQ)
	mid := make([]Mat, n*n)
	for c2 := 0; c2 < n; c2++ {
		w := make([]Mat, n)
		for i := len(topo) - 1; i >= 0; i-- {
			x := topo[i]
			w[x] = NewMat(e.NQ)
			for _, be := range p.Body.Edges {
				if be.From != x {
					continue
				}
				var tail Mat
				if be.To == c2 {
					tail = id
				} else {
					if w[be.To].IsZero() {
						continue
					}
					tail = lam[p.Body.Nodes[be.To]].Mul(w[be.To])
				}
				w[x].OrInPlace(e.tagMat(be.Tag).Mul(tail))
			}
		}
		for c1 := 0; c1 < n; c1++ {
			mid[c1*n+c2] = w[c1]
		}
	}
	return mid
}

// Decoder answers pairwise decodes and runs walks against one compiled
// environment. It owns the mutable memo tables of the decode hot path (the
// chain range products and loop powers) and the scratch of a walk's chain
// sweeps, so a Decoder is NOT safe for concurrent use — concurrent requests
// each borrow their own. The underlying artifacts and λ tables are shared
// and immutable.
type Decoder struct {
	e   *Env
	art *artifacts

	// id is the identity every empty chain range answers with; live masks
	// the dead state out of a state vector (see Env.liveMask).
	id   Mat
	live uint64

	// chains[f][s][p][n] memoizes the product of n consecutive step factors
	// of cycle s starting at cycle position p: flavorIn multiplies stepIn
	// over ascending iterations, flavorOut stepOut over descending ones. A
	// range product depends on nothing else, so the label-derived
	// (s, t, from, to) arguments — which repeat heavily across a scan —
	// resolve with two slice indexes. Rows grow on demand; nil is "not
	// computed yet". loops[f][s][p] holds the powers of the full-loop
	// product starting at p, which long ranges fold into.
	chains [2][][][]Mat
	loops  [2][][]*powSeq

	// sa/sb are reusable scratch for PairwiseBytesUnchecked's suffix
	// decode, so byte-path pairwise answers stop allocating once the
	// scratch has grown to the label depth.
	sa, sb label.Label

	// parts and groups are the scratch of a walk's Case 2 sweeps (walk.go),
	// reused from sweep to sweep and, through the pool, from scan to scan;
	// slots and present are Case 1's, one frame per node on the walk's path.
	parts   []sweepPart
	groups  []sweepGroup
	slots   []int32
	present []uint64
}

// The two chain flavors, indexing Decoder.chains and Decoder.loops.
const (
	flavorIn = iota
	flavorOut
)

// NewDecoder returns a fresh decoder with empty memo tables. It panics when
// the query is not safe.
func (e *Env) NewDecoder() *Decoder {
	d := &Decoder{e: e, art: e.artifacts(), id: Identity(e.NQ), live: e.liveMask()}
	for f, steps := range [2][][]Mat{d.art.stepIn, d.art.stepOut} {
		d.chains[f] = make([][][]Mat, len(steps))
		d.loops[f] = make([][]*powSeq, len(steps))
		for s, step := range steps {
			d.chains[f][s] = make([][]Mat, len(step))
			d.loops[f][s] = make([]*powSeq, len(step))
		}
	}
	return d
}

// decoder borrows a pooled decoder, nil when the query is unsafe; release
// returns it. The pool keeps memo tables warm across the convenience entry
// points without sharing them between goroutines.
func (e *Env) decoder() *Decoder {
	if !e.Safe() {
		return nil
	}
	return e.decPool.Get().(*Decoder)
}

func (e *Env) release(d *Decoder) { e.decPool.Put(d) }

// powSeq caches successive powers of a loop-product matrix until the
// sequence becomes periodic, giving O(1) lookups of arbitrary powers. A
// single boolean matrix generates a finite (and in practice tiny) monoid.
type powSeq struct {
	base  Mat
	seq   []Mat
	index map[string]int // matrix key -> position in seq
	pre   int            // preperiod (index where the cycle starts)
	per   int            // period; 0 until detected
}

func newPowSeq(base Mat) *powSeq {
	return &powSeq{base: base, index: map[string]int{}}
}

// power returns base^e for e >= 1.
func (p *powSeq) power(e int) Mat {
	if e < 1 {
		panic("core: power exponent must be >= 1")
	}
	for p.per == 0 && len(p.seq) < e {
		var next Mat
		if len(p.seq) == 0 {
			next = p.base
		} else {
			next = p.seq[len(p.seq)-1].Mul(p.base)
		}
		k := next.key()
		if at, seen := p.index[k]; seen {
			p.pre = at
			p.per = len(p.seq) - at
			break
		}
		p.index[k] = len(p.seq)
		p.seq = append(p.seq, next)
	}
	if e <= len(p.seq) {
		return p.seq[e-1]
	}
	// e beyond the detected cycle: fold into [pre, pre+per).
	return p.seq[p.pre+((e-1-p.pre)%p.per)]
}

// chainIn returns the matrix from the input port of iteration fromIter to
// the input port of iteration toIter+1 of a recursion chain on cycle s
// entered at cycle position t — the product of stepIn factors for
// iterations fromIter..toIter ascending. fromIter > toIter yields the
// identity. Callers must not mutate the result.
func (d *Decoder) chainIn(s, t, fromIter, toIter int) Mat {
	return d.chain(flavorIn, s, t+fromIter-1, toIter-fromIter+1)
}

// chainOut returns the matrix from the output port of iteration fromIter+1
// to the output port of iteration toIter of the chain — the product of
// stepOut factors for iterations fromIter..toIter descending. fromIter <
// toIter yields the identity. Callers must not mutate the result.
func (d *Decoder) chainOut(s, t, fromIter, toIter int) Mat {
	return d.chain(flavorOut, s, t+fromIter-1, fromIter-toIter+1)
}

// chain looks up the product of count step factors of flavor f on cycle s,
// the first taken at cycle position at mod L, computing it on first use.
func (d *Decoder) chain(f, s, at, count int) Mat {
	if count <= 0 {
		return d.id
	}
	L := len(d.chains[f][s])
	pos := (at%L + L) % L
	row := d.chains[f][s][pos]
	if count >= len(row) {
		row = append(row, make([]Mat, max(count+1, 2*len(row))-len(row))...)
		d.chains[f][s][pos] = row
	}
	if row[count] == nil {
		row[count] = d.chainProd(f, s, pos, count)
	}
	return row[count]
}

// chainProd multiplies count step factors of flavor f on cycle s starting
// at cycle position pos, stepping forward for flavorIn and backward for
// flavorOut. Long runs are folded into powers of the full-loop product,
// cached per starting position.
func (d *Decoder) chainProd(f, s, pos, count int) Mat {
	step, dir := d.art.stepIn[s], 1
	if f == flavorOut {
		step, dir = d.art.stepOut[s], -1
	}
	L := len(step)
	next := func(p int) int { return (p + dir + L) % L }

	// Short chains and the partial prefix: multiply directly.
	prod := d.id
	direct := count % L
	if count < 2*L {
		direct = count
	}
	for i := 0; i < direct; i++ {
		prod = prod.Mul(step[pos])
		pos = next(pos)
	}
	if count == direct {
		return prod
	}
	// What remains is a positive multiple of L: fold into loop powers.
	ps := d.loops[f][s][pos]
	if ps == nil {
		loop, p := d.id, pos
		for i := 0; i < L; i++ {
			loop = loop.Mul(step[p])
			p = next(p)
		}
		ps = newPowSeq(loop)
		d.loops[f][s][pos] = ps
	}
	return prod.Mul(ps.power((count - direct) / L))
}
