package diskstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// FuzzEnvelope writes arbitrary bytes into an entry file and reads it back.
// Get may serve a hit only when the header names the SHA-256 of exactly the
// bytes after it; anything else is a miss counted as Corrupt, and the file is
// removed so the slot re-warms.  Run with:
//
//	go test -run=NONE -fuzz=FuzzEnvelope -fuzztime=30s ./internal/diskstore
func FuzzEnvelope(f *testing.F) {
	seedDir := f.TempDir()
	s, err := Open(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	s.Put(ctx(), "key", []byte(`{"format":1,"spec":".model m\n"}`))
	valid, err := os.ReadFile(s.path("key"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(magic), []byte("puntstor3"), 1))
	f.Add([]byte(magic + " 1 00 0\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		path := s.path("key")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		body, ok := s.Get(ctx(), "key")
		st := s.Stats()
		if ok {
			nl := bytes.IndexByte(raw, '\n')
			sum := sha256.Sum256(raw[nl+1:])
			if nl < 0 || !bytes.Equal(body, raw[nl+1:]) || !bytes.Contains(raw[:nl], []byte(hex.EncodeToString(sum[:]))) {
				t.Fatalf("hit on an envelope whose header does not vouch for its body: %q", raw)
			}
			if st.Hits != 1 || st.Corrupt != 0 {
				t.Fatalf("hit counted as %+v", st)
			}
			return
		}
		if st.Misses != 1 || st.Corrupt != 1 || st.Hits != 0 {
			t.Fatalf("unreadable entry counted as %+v, want one corrupt miss", st)
		}
		if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("corrupt entry left in place: %v", err)
		}
	})
}
