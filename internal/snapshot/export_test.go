package snapshot

import "io"

// EncodeOracle returns the bytes the retained encoder (oracle_test.go)
// writes for s and tables.
var EncodeOracle = encodeOracle

// EncodeConverted is Encode with the array views off: every value is
// converted through the staging buffer, as on a big-endian host.
func EncodeConverted(s *Snapshot, w io.Writer, tables *SlabTables) error {
	return s.encode(w, tables, false)
}
