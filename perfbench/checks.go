package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// checkTrajectory checks the training loss trajectories of one run: every
// loss is finite, and every trajectory agrees bit for bit, over their
// common length, with the trajectory recorded beside the inputs by earlier
// runs of the same build and seed (or, on the first run, with this run's
// first trajectory). The longest trajectory seen is recorded for later runs. A
// falling-loss check is left out on purpose: PinSage's loss rises over its
// first epochs.
func checkTrajectory(dir string, samples []*sample) []string {
	path := filepath.Join(dir, lossFile)
	ref, err := readBits(path)
	if err != nil {
		return []string{fmt.Sprintf("read %s: %v", path, err)}
	}
	if ref == nil {
		ref = samples[0].LossBits
	}
	var problems []string
	longest := ref
	for _, s := range samples {
		for i, b := range s.LossBits {
			if f := float64(math.Float32frombits(b)); math.IsNaN(f) || math.IsInf(f, 0) {
				problems = append(problems, fmt.Sprintf("traced=%v: loss %d is %v", s.Traced, i, f))
				break
			}
		}
		for i := 0; i < min(len(ref), len(s.LossBits)); i++ {
			if ref[i] != s.LossBits[i] {
				problems = append(problems, fmt.Sprintf("traced=%v: loss %d is %v, the same seed gave %v before",
					s.Traced, i, math.Float32frombits(s.LossBits[i]), math.Float32frombits(ref[i])))
				break
			}
		}
		if len(s.LossBits) > len(longest) {
			longest = s.LossBits
		}
	}
	if len(problems) == 0 && len(longest) > 0 {
		if err := writeBits(path, longest); err != nil {
			problems = append(problems, fmt.Sprintf("record %s: %v", path, err))
		}
	}
	return problems
}

// readBits reads a recorded trajectory (nil when none is recorded yet).
func readBits(path string) ([]uint32, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var bits []uint32
	for _, f := range strings.Fields(string(b)) {
		v, err := strconv.ParseUint(f, 16, 32)
		if err != nil {
			return nil, err
		}
		bits = append(bits, uint32(v))
	}
	return bits, nil
}

func writeBits(path string, bits []uint32) error {
	var sb strings.Builder
	for _, b := range bits {
		fmt.Fprintf(&sb, "%08x\n", b)
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
