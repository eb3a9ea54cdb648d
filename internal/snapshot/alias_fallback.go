//go:build !amd64 && !arm64

package snapshot

// aliasFixed on architectures without the little-endian 64-bit layout
// guarantee declines, and Map falls back to the strict heap decoder —
// correct everywhere, zero-copy where it matters.
func aliasFixed(data []byte, lay *layout) (*Snapshot, bool) { return nil, false }
