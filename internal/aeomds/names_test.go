package aeomds

import (
	"fmt"
	"testing"
)

// TestNamesMatchFormat pins the hot-path name builders to the formats they
// replaced: endpoint and object names are wire-visible and appear in
// goldens, so they must stay byte-identical.
func TestNamesMatchFormat(t *testing.T) {
	for i := -3; i < 200; i++ {
		if got, want := ShardEndpoint(i), fmt.Sprintf("mds%d", i); got != want {
			t.Fatalf("ShardEndpoint(%d) = %q, want %q", i, got, want)
		}
	}
	for _, ino := range []uint64{0, 1, 15, 16, 255, 0xdeadbeef, 1 << 40, ^uint64(0)} {
		if got, want := objPath(ino), fmt.Sprintf("/o%x", ino); got != want {
			t.Fatalf("objPath(%#x) = %q, want %q", ino, got, want)
		}
	}
}
