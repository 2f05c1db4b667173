package snapshot

import (
	"encoding/binary"
	"math"
	"unsafe"

	"rnnheatmap/internal/geom"
)

// The section payloads are little-endian fixed-width arrays, 8-byte aligned
// within the file. On little-endian hosts (every platform this repo targets)
// a section is usable as a typed Go slice without copying a byte — that is
// the whole point of the format. The helpers below alias when the host byte order
// and the actual pointer alignment allow it and fall back to a boring
// decode-copy otherwise, so the format stays readable on exotic platforms.
// Writing is the inverse: byteView hands the encoder a typed array as its
// own bytes, and the encoder converts value by value where the host's byte
// order is not the file's.

// hostLittleEndian is computed once at startup.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func aligned(b []byte, n uintptr) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%n == 0
}

// asF64 views b as []float64, zero-copy when possible.
func asF64(b []byte) []float64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if hostLittleEndian && aligned(b, 8) {
		return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// asU32 views b as []uint32, zero-copy when possible.
func asU32(b []byte) []uint32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if hostLittleEndian && aligned(b, 4) {
		return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

// asI32 views b as []int32, zero-copy when possible.
func asI32(b []byte) []int32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if hostLittleEndian && aligned(b, 4) {
		return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// asPoints views b as []geom.Point (two f64 fields, so the struct layout is
// exactly the on-disk x,y pair layout), zero-copy when possible.
func asPoints(b []byte) []geom.Point {
	n := len(b) / 16
	if n == 0 {
		return nil
	}
	if hostLittleEndian && aligned(b, 8) && unsafe.Sizeof(geom.Point{}) == 16 {
		return unsafe.Slice((*geom.Point)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]geom.Point, n)
	for i := range out {
		out[i].X = math.Float64frombits(binary.LittleEndian.Uint64(b[i*16:]))
		out[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(b[i*16+8:]))
	}
	return out
}

// byteView views vs as its bytes in host order, without copying: on a
// little-endian host exactly the bytes the format stores for the array.
func byteView[T float64 | uint32 | int32 | geom.Point](vs []T) []byte {
	if len(vs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs)*int(unsafe.Sizeof(vs[0])))
}
