package bwt

// sais sorts the suffixes of text into sa (of the same length) by induced
// sorting — the SA-IS algorithm of Nong, Zhang and Chan, linear in
// len(text). Symbols lie in [0, k); a suffix that is a prefix of another
// sorts first, as if a sentinel below every symbol ended the text. work
// needs 2k + len(text)/2 entries here and as much again at each recursion
// level, where the texts at least halve: 2k + 3·len(text) covers them all.
//
// Suffix i is S-type when it sorts before suffix i+1 and L-type otherwise;
// an S-type suffix whose left neighbour is L-type is an LMS suffix. Within
// the run of suffixes that share a first symbol (a bucket) the L-type ones
// come first. Knowing the order of the LMS suffixes, one left-to-right scan
// places every L-type suffix (suffix j-1 goes to the front of its bucket
// when suffix j is reached) and one right-to-left scan places every S-type
// one. The order of the LMS suffixes comes from the same two scans run on
// unsorted LMS suffixes, which sorts the stretches between them; each
// stretch becomes one symbol of a text at most half as long, sorted by
// recursion unless all its symbols already differ.
//
// No type array is kept: the scans read types off the symbols and, between
// equal symbols, off which part of the bucket a suffix sits in.
func sais[E byte | int32](text []E, sa []int32, k int, work []int32) {
	n := len(text)
	if n < 2 {
		clear(sa)
		return
	}
	count, bucket, lms, work := work[:k], work[k:2*k], work[2*k:2*k+n/2], work[2*k+n/2:]
	clear(count)
	for _, c := range text {
		count[c]++
	}
	// The LMS positions, found right to left: the last suffix is L-type,
	// and between equal symbols the type carries over.
	m := len(lms)
	for i, sType := n-2, false; i >= 0; i-- {
		switch {
		case text[i] < text[i+1]:
			sType = true
		case text[i] > text[i+1]:
			if sType { // i is L-type and i+1 S-type
				m--
				lms[m] = int32(i + 1)
			}
			sType = false
		}
	}
	lms = lms[m:]
	n1 := len(lms)

	// Stage 1: drop the LMS suffixes at the ends of their buckets, unsorted;
	// inducing from them sorts the LMS stretches.
	for i := range sa {
		sa[i] = -1
	}
	bucketEnds(bucket, count)
	for _, pos := range lms {
		c := text[pos]
		sa[bucket[c]] = pos
		bucket[c]--
	}
	induce(text, sa, count, bucket)
	if n1 == 0 {
		return // every suffix is L-type and the first scan placed them all
	}

	// Gather the LMS suffixes, now ordered by stretch, at the front of sa.
	// After the S scan bucket[c] is the slot below bucket c's S-type part.
	m = 0
	for i, j := range sa {
		if j > 0 && text[j-1] > text[j] && int32(i) > bucket[text[j]] {
			sa[m] = j
			m++
		}
	}

	// Name the stretches: equal stretches share a name, names ascend in
	// sorted order. A stretch runs from its LMS position to the next one
	// inclusive. sa[n1+pos/2] (LMS positions are at least two apart) first
	// says which LMS position pos is, then holds its stretch's name. The
	// last stretch ends at the sentinel and equals no other.
	names := sa[n1:]
	for i := range names {
		names[i] = -1
	}
	for i, pos := range lms {
		names[pos/2] = int32(i)
	}
	name, prev, prevLen := int32(0), int32(-1), int32(0)
	for _, pos := range sa[:n1] {
		i := int(names[pos/2])
		same, length := false, int32(0)
		if i+1 < n1 {
			length = lms[i+1] - pos + 1
			same = prev >= 0 && length == prevLen
			for d := int32(0); same && d < length; d++ {
				same = text[pos+d] == text[prev+d]
			}
		}
		if !same {
			name++
			prev, prevLen = pos, length
		}
		names[pos/2] = name - 1
	}

	// The reduced text, in text order, at the tail of sa.
	text1 := sa[n-n1:]
	for i, j := len(names)-1, n1-1; j >= 0; i-- {
		if names[i] >= 0 {
			text1[j] = names[i]
			j--
		}
	}
	sa1 := sa[:n1]
	if int(name) < n1 {
		sais(text1, sa1, int(name), work)
	} else {
		for i, c := range text1 {
			sa1[c] = int32(i)
		}
	}

	// Stage 2: turn sa1 back into LMS positions, drop those at the ends of
	// their buckets in sorted order, and induce the rest. Going from the
	// greatest down, a suffix never lands on one that has yet to move.
	for i, r := range sa1 {
		sa1[i] = lms[r]
	}
	for i := n1; i < n; i++ {
		sa[i] = -1
	}
	bucketEnds(bucket, count)
	for i := n1 - 1; i >= 0; i-- {
		j := sa[i]
		sa[i] = -1
		c := text[j]
		sa[bucket[c]] = j
		bucket[c]--
	}
	induce(text, sa, count, bucket)
}

// induce places every L-type and then every S-type suffix, given the LMS
// suffixes at the ends of their buckets and -1 everywhere else.
func induce[E byte | int32](text []E, sa, count, bucket []int32) {
	n := len(text)
	// L-type suffixes, left to right. bucket[c] is the next free slot at
	// the front of bucket c. The sentinel induces the last suffix, which is
	// L-type. A suffix met here is L-type or LMS, and its left neighbour is
	// L-type exactly when that one's symbol is no smaller: between equal
	// symbols the types agree, and an LMS suffix has an L-type neighbour.
	sum := int32(0)
	for c, cnt := range count {
		bucket[c] = sum
		sum += cnt
	}
	c := text[n-1]
	sa[bucket[c]] = int32(n - 1)
	bucket[c]++
	for _, j := range sa {
		if j <= 0 {
			continue
		}
		if c0, c1 := text[j-1], text[j]; c0 >= c1 {
			sa[bucket[c0]] = j - 1
			bucket[c0]++
		}
	}
	// S-type suffixes, right to left. bucket[c] is the next free slot at the
	// back of bucket c, so a slot above it holds an S-type suffix: that
	// tells the type of suffix j when its left neighbour's symbol is equal.
	// The LMS seeds are overwritten before the scan reaches them.
	bucketEnds(bucket, count)
	for i := n - 1; i >= 0; i-- {
		j := sa[i]
		if j <= 0 {
			continue
		}
		if c0, c1 := text[j-1], text[j]; c0 < c1 || c0 == c1 && int32(i) > bucket[c1] {
			sa[bucket[c0]] = j - 1
			bucket[c0]--
		}
	}
}

// bucketEnds sets bucket[c] to the last slot of symbol c's bucket.
func bucketEnds(bucket, count []int32) {
	sum := int32(0)
	for c, cnt := range count {
		sum += cnt
		bucket[c] = sum - 1
	}
}
