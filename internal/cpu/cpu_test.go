package cpu

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestAVX2MatchesKernelFlags: every packed-kernel test skips itself where
// the verdict is false, so a verdict that is wrongly false would silently
// drop that coverage. Where the kernel lists the CPU flags, the verdict
// must agree with them.
func TestAVX2MatchesKernelFlags(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if AVX2 {
			t.Fatal("AVX2 reported off amd64")
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo on this host")
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			want := false
			for _, f := range strings.Fields(flags) {
				want = want || f == "avx2"
			}
			if AVX2 != want {
				t.Fatalf("AVX2 = %v, /proc/cpuinfo lists avx2: %v", AVX2, want)
			}
			return
		}
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
