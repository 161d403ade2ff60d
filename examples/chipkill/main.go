// Chipkill: the paper's future-work extension in action. A whole ×8 DRAM
// chip dies — eight bytes of every block — and COP-CK reconstructs every
// compressible block from its compression-funded chip parity, with zero
// storage overhead and no ECC DIMM.
package main

import (
	"bytes"
	"fmt"
	"log"

	"cop"
	"cop/internal/workload"
)

const blocks = 1024

func main() {
	ck := cop.NewChipkillCodec()

	// Coverage depends on how far data compresses: the 10-byte chipkill
	// budget (parity + CRC) is easy for pointers and integers, hard for
	// floats whose words share only their exponents.
	fmt.Println("COP-CK (inline only):")
	for _, name := range []string{"mcf", "gcc", "lbm"} {
		demo(ck, workload.MustGet(name))
	}
	fmt.Println("\ncoverage tracks compressibility at the steeper 15.6% target: the")
	fmt.Println("trade-off §3.1 describes (more ECC ⇒ fewer protectable blocks),")
	fmt.Println("pushed to chipkill strength. For comparison, conventional (72,64)")
	fmt.Println("SECDED — even on an ECC DIMM — cannot correct a chip failure at all.")

	// COP-CK-ER closes the gap: incompressible blocks get dual region
	// pointers + externally stored parity, so everything survives.
	fmt.Println("\nCOP-CK-ER (region-backed, full coverage):")
	for _, name := range []string{"mcf", "lbm"} {
		demoER(workload.MustGet(name))
	}
}

func demoER(p *workload.Profile) {
	er := cop.NewChipkillERCodec()
	type stored struct{ plain, image []byte }
	var set []stored
	inline := 0
	for i := 0; i < blocks/4; i++ {
		b := p.Block(uint64(i)*cop.BlockBytes, 0)
		img, _, isInline, err := er.Write(b, cop.NoPointer)
		if err != nil {
			log.Fatal(err)
		}
		if isInline {
			inline++
		}
		set = append(set, stored{b, img})
	}
	recovered, trials := 0, 0
	for chip := 0; chip < 8; chip++ {
		for _, s := range set {
			img := append([]byte(nil), s.image...)
			cop.FailChip(img, chip, 0xA5)
			got, _, err := er.Read(img)
			trials++
			if err == nil && bytes.Equal(got, s.plain) {
				recovered++
			}
		}
	}
	fmt.Printf("%-6s %4d blocks (%d inline, %d via region)  chip-failure recovery: %d/%d\n",
		p.Name, len(set), inline, len(set)-inline, recovered, trials)
}

func demo(ck *cop.ChipkillCodec, p *workload.Profile) {
	type stored struct {
		plain []byte
		image []byte
	}
	var protectedSet []stored
	for i := 0; i < blocks; i++ {
		b := p.Block(uint64(i)*cop.BlockBytes, 0)
		if img, status := ck.Encode(b); status == cop.StoredCompressed {
			protectedSet = append(protectedSet, stored{b, img})
		}
	}
	fmt.Printf("%-6s %4d/%d blocks protected (%.1f%%)  ", p.Name,
		len(protectedSet), blocks, 100*float64(len(protectedSet))/blocks)

	// Kill every chip in turn across the protected set.
	recovered, trials := 0, 0
	for chip := 0; chip < 8; chip++ {
		for _, s := range protectedSet {
			img := append([]byte(nil), s.image...)
			cop.FailChip(img, chip, 0xA5)
			got, info, err := ck.Decode(img)
			if err != nil {
				log.Fatalf("chip %d: %v", chip, err)
			}
			if info.FailedChip != chip {
				log.Fatalf("chip %d misidentified as %d", chip, info.FailedChip)
			}
			trials++
			if bytes.Equal(got, s.plain) {
				recovered++
			}
		}
	}
	fmt.Printf("chip-failure recovery: %d/%d\n", recovered, trials)
}
