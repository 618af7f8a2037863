package cluster

import (
	"encoding/binary"
	"unsafe"
)

// nativeLE reports whether this host lays float64s out in memory in the
// wire's byte order. When it does, a payload's wire bytes are exactly its
// memory, and the codec moves them with copy or a single read instead of
// a per-element loop; big-endian hosts run the portable loops.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// float64Bytes views v's backing array as its 8·len(v) bytes, without a
// copy. This is the module's only use of unsafe: the view aliases v, so
// writes through either are visible through both.
func float64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}
