package bench

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"straight/internal/program"
	"straight/internal/workloads"
)

// imageDigest hashes everything an image carries: entry, both bases,
// the text words, the data bytes and the symbol table (sorted by name).
func imageDigest(im *program.Image) string {
	h := sha256.New()
	word := func(v uint32) { binary.Write(h, binary.LittleEndian, v) }
	word(im.Entry)
	word(im.TextBase)
	word(uint32(len(im.Text)))
	for _, w := range im.Text {
		word(w)
	}
	word(im.DataBase)
	word(uint32(len(im.Data)))
	h.Write(im.Data)
	names := make([]string, 0, len(im.Symbols))
	for name := range im.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%d\n", name, im.Symbols[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestImagesPinned rebuilds every build key cmd/experiments builds, at
// -quick and at default scale, and compares each image's digest with
// testdata/images.txt. Each line there is
// "workload iters target maxdist mode digest" (mode "-" for RISC-V).
// The list was recorded from both cmd/experiments runs, so any change
// to the front end, either backend or either assembler that moves one
// byte of a figure's image fails here. A deliberate code-generation
// change replaces the digests with the ones the failures print.
func TestImagesPinned(t *testing.T) {
	f, err := os.Open("testdata/images.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewSession()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 6 {
			t.Fatalf("bad line %q", line)
		}
		w := workloads.Workload(fs[0])
		iters, err1 := strconv.Atoi(fs[1])
		maxDist, err2 := strconv.Atoi(fs[3])
		if err1 != nil || err2 != nil {
			t.Fatalf("bad line %q", line)
		}
		var im *program.Image
		var err error
		switch fs[2] {
		case "straight":
			im, err = s.BuildSTRAIGHT(w, iters, maxDist, CompilerMode(fs[4]))
		case "riscv":
			im, err = s.BuildRISCV(w, iters)
		default:
			t.Fatalf("bad target in %q", line)
		}
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if got := imageDigest(im); got != fs[5] {
			t.Errorf("%s %d %s d=%d %s: image digest %s, want %s", w, iters, fs[2], maxDist, fs[4], got, fs[5])
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 19 {
		t.Errorf("checked %d images, want the 19 cmd/experiments builds", n)
	}
}
