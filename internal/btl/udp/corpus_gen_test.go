package udp

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestRegenCorpus rewrites the committed FuzzDecodeFrame seed corpus when
// run with UDP_REGEN_CORPUS=1; otherwise it only verifies that every seed
// the corpus should contain is present. Keeping generation in code means the
// seeds track the frame layout instead of rotting when it changes.
func TestRegenCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")
	seeds := corpusSeeds()

	if os.Getenv("UDP_REGEN_CORPUS") != "1" {
		for name := range seeds {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Errorf("seed %s missing (regenerate with UDP_REGEN_CORPUS=1): %v", name, err)
			}
		}
		return
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// corpusSeeds enumerates the seed datagrams: valid frames of every shape the
// sender emits plus near-miss mutations, one per validation branch, so the
// fuzzer starts adjacent to every rejection path.
func corpusSeeds() map[string][]byte {
	const nonce = 0x676f6d7069 // "gompi"
	mut := func(base []byte, off int, b byte) []byte {
		out := append([]byte(nil), base...)
		out[off] = b
		return out
	}
	single := EncodeFrame(Frame{
		SrcRank: 3, MsgID: 17, FragCount: 1,
		TotalLen: 5, Nonce: nonce,
	}, []byte("hello"))
	frag := EncodeFrame(Frame{
		SrcRank: 1, MsgID: 9, FragIndex: 1, FragCount: 3,
		FragOff: 160, TotalLen: 410, Nonce: nonce,
	}, make([]byte, 160))
	empty := EncodeFrame(Frame{FragCount: 1, Nonce: nonce}, nil)
	badTotal := append([]byte(nil), single...)
	binary.LittleEndian.PutUint32(badTotal[24:], MaxPacketSize+1)

	return map[string][]byte{
		"valid-single":     single,
		"valid-fragment":   frag,
		"valid-empty":      empty,
		"short":            []byte("gUDP"),
		"zeros":            make([]byte, HeaderSize),
		"bad-magic":        mut(single, 0, 'X'),
		"bad-version":      mut(single, 4, 9),
		"version-1":        mut(single, 4, 1), // the retired FNV-1a format
		"bad-flags":        mut(single, 5, 0x80),
		"bad-fraglen":      mut(single, 10, 99),
		"bad-fragindex":    mut(single, 6, 7),
		"bad-totallen":     badTotal,
		"corrupt-payload":  mut(single, HeaderSize+1, 0xee),
		"corrupt-hash":     mut(single, 36, 0xee),
		"truncated-header": single[:HeaderSize-2],
	}
}
