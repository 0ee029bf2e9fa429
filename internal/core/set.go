package core

import (
	"encoding/binary"

	"repro/internal/model"
)

// Sorted object-ID set helpers. Candidate bookkeeping in CMC and the CuTS
// filter manipulates many small sets; representing them as sorted slices
// keeps intersections linear and hash keys cheap.

// intersectSorted returns the intersection of two ascending slices as a new
// ascending slice (nil when empty).
func intersectSorted(a, b []model.ObjectID) []model.ObjectID {
	return appendCommon(nil, a, b)
}

// appendCommon appends the intersection of two ascending slices to dst.
func appendCommon(dst, a, b []model.ObjectID) []model.ObjectID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// unionSorted returns the union of two ascending slices as a new ascending
// slice.
func unionSorted(a, b []model.ObjectID) []model.ObjectID {
	out := make([]model.ObjectID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// equalSorted reports whether two ascending slices hold the same members.
func equalSorted(a, b []model.ObjectID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subsetSorted reports whether every member of a is in b (both ascending).
func subsetSorted(a, b []model.ObjectID) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// containsSorted reports whether x is a member of the ascending slice a.
func containsSorted(a []model.ObjectID, x model.ObjectID) bool {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(a) && a[lo] == x
}

// hashIDs hashes an ID list (FNV-1a over the IDs as 64-bit words). Equal
// lists hash equal; users compare the lists themselves on a match.
func hashIDs(a []model.ObjectID) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range a {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return h
}

// setKey encodes an ascending slice as a compact string usable as a map key.
func setKey(a []model.ObjectID) string {
	buf := make([]byte, 0, len(a)*3)
	var tmp [binary.MaxVarintLen64]byte
	prev := 0
	for _, x := range a {
		n := binary.PutUvarint(tmp[:], uint64(x-prev)) // delta encoding
		buf = append(buf, tmp[:n]...)
		prev = x
	}
	return string(buf)
}
