package buddy

import "math/bits"

// freeMap records the free blocks of one order as a bitmap over block
// index: bit i set means the block at relative frame i<<order is free at
// exactly this order. Only blocks that lie wholly inside the span have a
// bit, so a set bit is always an in-span, aligned block.
//
// summary has one bit per word of words, set while that word is nonzero,
// and low is a word index below which every word is zero. Together they
// make finding the lowest free block a few word reads however sparse the
// map is, and none of the operations allocate.
type freeMap struct {
	words   []uint64
	summary []uint64
	nblocks uint64
	count   uint64 // set bits
	low     int
}

// mapWords returns the word and summary-word lengths of a map over
// nblocks blocks.
func mapWords(nblocks uint64) (words, summary int) {
	words = int((nblocks + 63) / 64)
	return words, (words + 63) / 64
}

func (m *freeMap) test(i uint64) bool {
	return i < m.nblocks && m.words[i>>6]&(1<<(i&63)) != 0
}

func (m *freeMap) set(i uint64) {
	w := int(i >> 6)
	if m.words[w] == 0 {
		m.summary[w>>6] |= 1 << (w & 63)
		if w < m.low {
			m.low = w
		}
	}
	m.words[w] |= 1 << (i & 63)
	m.count++
}

func (m *freeMap) clear(i uint64) {
	w := int(i >> 6)
	m.words[w] &^= 1 << (i & 63)
	if m.words[w] == 0 {
		m.summary[w>>6] &^= 1 << (w & 63)
	}
	m.count--
}

// first returns the lowest set block index and advances the low-water
// cursor to its word.
func (m *freeMap) first() (uint64, bool) {
	if m.count == 0 {
		m.low = len(m.words)
		return 0, false
	}
	s := m.low >> 6
	word := m.summary[s] &^ (1<<(m.low&63) - 1)
	for word == 0 {
		s++
		word = m.summary[s]
	}
	w := s<<6 | bits.TrailingZeros64(word)
	m.low = w
	return uint64(w)<<6 | uint64(bits.TrailingZeros64(m.words[w])), true
}

// next returns the lowest set block index at or above i, scanning words
// directly (for the snapshot and invariant walks, not the allocation
// path).
func (m *freeMap) next(i uint64) (uint64, bool) {
	if i >= m.nblocks {
		return 0, false
	}
	w := int(i >> 6)
	word := m.words[w] &^ (1<<(i&63) - 1)
	for word == 0 {
		w++
		if w == len(m.words) {
			return 0, false
		}
		word = m.words[w]
	}
	return uint64(w)<<6 | uint64(bits.TrailingZeros64(word)), true
}

// reset clears every bit.
func (m *freeMap) reset() {
	clear(m.words)
	clear(m.summary)
	m.count = 0
	m.low = len(m.words)
}
