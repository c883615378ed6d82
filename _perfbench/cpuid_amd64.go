package main

import "encoding/binary"

// cpuid executes the CPUID instruction (cpuid_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// cpuModel returns the processor brand string from CPUID leaves
// 0x80000002-0x80000004, so the fingerprint needs no file outside the
// checkout.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000, 0); max < 0x80000004 {
		return "unknown amd64"
	}
	var b []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, bx, c, d := cpuid(leaf, 0)
		for _, r := range [4]uint32{a, bx, c, d} {
			b = binary.LittleEndian.AppendUint32(b, r)
		}
	}
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	return string(b)
}
