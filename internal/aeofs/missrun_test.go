package aeofs_test

import (
	"bytes"
	"fmt"
	"testing"

	"aeolia/internal/aeofs"
	"aeolia/internal/sim"
)

// TestReadMissHitMissReturnsEachPage reads three pages whose middle one is
// already cached: the two misses around it must not be fetched as one run,
// or the third page comes back holding the second page's bytes.
func TestReadMissHitMissReturnsEachPage(t *testing.T) {
	fx := newFixture(t, 1)
	const pages = 3
	data := make([]byte, pages*aeofs.BlockSize)
	for p := 0; p < pages; p++ {
		copy(data[p*aeofs.BlockSize:], bytes.Repeat([]byte{byte('a' + p)}, aeofs.BlockSize))
	}
	fx.run(t, "io", func(env *sim.Env) error {
		if err := writeFile(env, fx.fs, "/f", data); err != nil {
			return err
		}
		if err := fx.fs.DropCaches(env); err != nil {
			return err
		}
		fd, err := fx.fs.Open(env, "/f", aeofs.O_RDONLY)
		if err != nil {
			return err
		}
		// Make page 1 resident and filled; pages 0 and 2 stay misses.
		mid := make([]byte, aeofs.BlockSize)
		if _, err := fx.fs.ReadAt(env, fd, mid, aeofs.BlockSize); err != nil {
			return err
		}
		got := make([]byte, len(data))
		if n, err := fx.fs.ReadAt(env, fd, got, 0); err != nil || n != len(data) {
			return fmt.Errorf("ReadAt = %d, %v; want %d bytes", n, err, len(data))
		}
		for p := 0; p < pages; p++ {
			span := got[p*aeofs.BlockSize : (p+1)*aeofs.BlockSize]
			if want := data[p*aeofs.BlockSize : (p+1)*aeofs.BlockSize]; !bytes.Equal(span, want) {
				return fmt.Errorf("page %d holds %q..., want %q...", p, span[:1], want[:1])
			}
		}
		return fx.fs.Close(env, fd)
	})
}
