package crashmc

import "fmt"

// verdictMemo remembers one crash point's check verdicts by the pending
// lines each check read. Every image of a point is the point's base with
// each pending line holding either its base bytes or one pending write's,
// and the line table's value class names which (0 for the base bytes). A
// check that keeps the contract of Config.CheckRecord reads the lines it
// reads in an order that only the values already read decide, and returns
// a verdict that only the values read decide. So the checks of a point
// form a decision tree: a node is the next pending line the check reads,
// an edge that line's class, and a leaf the verdict. Two images that agree
// on every line of one root-to-leaf path get the leaf's verdict, without a
// check. This is the read-set pruning of Jaaru (Gorjiara, Xu and Demsky,
// ASPLOS 2021), over the per-line persist order of the resolver.
//
// The tree lies in flat slices reused from point to point, with child and
// sibling links as indices, so a warmed-up point allocates nothing.
type verdictMemo struct {
	nodes []memoNode
	// t and hits are the image being judged, as a resolver's hits over t:
	// its class on line l is the class of the hit on l, or 0.
	t    *lineTable
	hits []int32
	// path is the internal nodes the last lookup passed, root first.
	path []int32
	// reads are the pending lines the running check has read, in first-read
	// order; read marks them.
	reads []int32
	read  []bool
	// onRead is noteRead bound once, for memory.Memory.Watch.
	onRead func(i int)
}

// memoNode is one node of the tree; the root is nodes[0].
type memoNode struct {
	line  int32 // the pending line this node tests; -1 for a leaf
	class int32 // the class of the parent's line on the edge into this node
	child int32 // first child, -1 for none
	next  int32 // next sibling, -1 for none
	err   error // a leaf's verdict
}

// reset empties the memo for the point whose line table is t.
func (m *verdictMemo) reset(t *lineTable) {
	clear(m.nodes) // drop the old verdicts
	m.nodes = m.nodes[:0]
	m.t = t
	m.read = resize(m.read, len(t.addrs))
	clear(m.read)
	m.reads = m.reads[:0]
	if m.onRead == nil {
		m.onRead = m.noteRead
	}
}

// noteRead records that the running check read pending line i.
func (m *verdictMemo) noteRead(i int) {
	if !m.read[i] {
		m.read[i] = true
		m.reads = append(m.reads, int32(i))
	}
}

// class returns the judged image's value class on line l.
func (m *verdictMemo) class(l int32) int32 {
	hits, line := m.hits, m.t.line
	i, j := 0, len(hits) // hits are in line order
	for i < j {
		h := int(uint(i+j) >> 1)
		if line[hits[h]] < l {
			i = h + 1
		} else {
			j = h
		}
	}
	if i < len(hits) && line[hits[i]] == l {
		return m.t.class[hits[i]]
	}
	return 0
}

// lookup makes the image of hits the one being judged and returns its
// verdict, if a path of the tree covers it.
func (m *verdictMemo) lookup(hits []int32) (err error, ok bool) {
	m.hits = hits
	m.path = m.path[:0]
	if len(m.nodes) == 0 {
		return nil, false
	}
	n := int32(0)
	for m.nodes[n].line >= 0 {
		m.path = append(m.path, n)
		c := m.class(m.nodes[n].line)
		ch := m.nodes[n].child
		for ch >= 0 && m.nodes[ch].class != c {
			ch = m.nodes[ch].next
		}
		if ch < 0 {
			return nil, false
		}
		n = ch
	}
	return m.nodes[n].err, true
}

// learn records err as the verdict of the check that just judged the image
// of the last lookup, which missed, and clears the check's reads. It
// reports false, recording nothing, when that was the point's first check
// and it read every pending line: only its own image could then take its
// verdict, so no other image of the point would hit.
func (m *verdictMemo) learn(err error) bool {
	if len(m.nodes) == 0 && len(m.reads) == len(m.read) {
		return false
	}
	m.insert(err)
	for _, l := range m.reads {
		m.read[l] = false
	}
	m.reads = m.reads[:0]
	return true
}

// insert adds the path of the check that just judged the image — its
// reads, ending in verdict err — below the node where the last lookup
// missed. It panics when the reads disagree with the path the lookup
// took: the check read another line, or stopped reading, where an earlier
// check of an image with the same values on every line read so far went on
// to the path's next line.
func (m *verdictMemo) insert(err error) {
	for k, n := range m.path {
		if k >= len(m.reads) || m.reads[k] != m.nodes[n].line {
			m.contractBroken(k)
		}
	}
	link := int32(-1) // the new subtree's parent, -1 for the root
	if len(m.path) > 0 {
		link = m.path[len(m.path)-1]
	}
	for _, l := range m.reads[len(m.path):] {
		link = m.add(link, l, nil)
	}
	m.add(link, -1, err)
}

// add appends a node testing line l (a leaf with verdict err for -1) as a
// child of parent on the edge of the judged image's class on the parent's
// line, and returns its index.
func (m *verdictMemo) add(parent, l int32, err error) int32 {
	n := int32(len(m.nodes))
	node := memoNode{line: l, child: -1, next: -1, err: err}
	if parent >= 0 {
		p := &m.nodes[parent]
		node.class = m.class(p.line)
		node.next, p.child = p.child, n
	}
	m.nodes = append(m.nodes, node)
	return n
}

// contractBroken panics for a check whose k-th distinct pending-line read
// departs from the tree.
func (m *verdictMemo) contractBroken(k int) {
	want := m.t.addrs[m.nodes[m.path[k]].line]
	got := "no further pending line"
	if k < len(m.reads) {
		got = fmt.Sprintf("pending line %#x", m.t.addrs[m.reads[k]])
	}
	panic(fmt.Sprintf("crashmc: check broke the CheckRecord contract: its pending-line read %d was %s, where a check of an image with the same values on every line read before read line %#x — the check's reads depend on more than the image's bytes",
		k+1, got, want))
}
