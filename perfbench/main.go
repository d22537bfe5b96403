// Command perfbench is the repository's end-to-end benchmark. It runs one of
// four workloads against the FlexGraph packages, checks the outputs, and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 27, "failed": 0, "metrics": {"setup_s": {"value": 1.2, "unit": "s"}, ...}}
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload single-gcn-reddit --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With --trace 1 the metrics are the per-layer vector of a separate
// traced run, plus the tracing overhead against an untraced run of the same
// inputs. Inputs are generated from --seed before and outside every timer
// and cached by build and seed under .bench_build/inputs; each measurement
// runs in a fresh child process. README.md in this directory documents the
// workloads, the metrics and how the layers map onto the end-to-end numbers.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"
)

// workDir holds everything the benchmark writes: the build, cached inputs
// and Chrome traces. It is relative to the directory the benchmark runs in.
const workDir = ".bench_build"

// runBudget bounds a whole run from the start of drive, so a wedged child
// is killed and the run still exits inside the caller's 180-second budget.
const runBudget = 165 * time.Second

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	child    bool
	inputs   string
	traced   bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "steady-state measurement window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0 prints end-to-end metrics; 1 prints the traced per-layer vector")
	fs.BoolVar(&o.child, "child", false, "internal: run as a measuring child")
	fs.StringVar(&o.inputs, "inputs", "", "internal: generated input directory")
	fs.BoolVar(&o.traced, "traced", false, "internal: measure with the tracer and metrics registry on")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if lookupWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	return o, nil
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	w := lookupWorkload(o.workload)
	if !o.child {
		return drive(w, o, stdout)
	}
	s, err := measure(w, o.inputs, o.seed, o.seconds, o.traced)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(s)
}

// drive is the parent process: it generates (or reuses) the inputs, runs the
// measuring children, checks their outputs and prints the result line.
func drive(w *workload, o options, stdout io.Writer) error {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	env := stampEnv()
	fmt.Fprintf(stdout, "# env cpu=%q nproc=%d gomaxprocs=%d go=%s\n", env.CPU, env.NumCPU, env.GOMAXPROCS, env.GoVersion)

	in, err := inputDir(w, o.seed)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(in, digestFile)); err != nil {
		if err := pruneInputs(in); err != nil {
			return err
		}
		if _, err := generate(w, in, o.seed, 1); err != nil {
			return fmt.Errorf("generate inputs: %w", err)
		}
		// The generator's memory is garbage now; hand it back so this
		// idle process holds none while the children measure.
		debug.FreeOSMemory()
	}
	digest, err := os.ReadFile(filepath.Join(in, digestFile))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d inputs=%s\n", w.name, o.seed, strings.TrimSpace(string(digest)))

	plain, err := measureChild(ctx, o, in, false)
	if err != nil {
		return err
	}
	report(stdout, "untraced", plain)
	samples := []*sample{plain}
	var traced *sample
	if o.trace == 1 {
		if traced, err = measureChild(ctx, o, in, true); err != nil {
			return err
		}
		report(stdout, "traced", traced)
		samples = append(samples, traced)
	}

	var problems []string
	for _, s := range samples {
		problems = append(problems, s.Problems...)
	}
	problems = append(problems, checkTrajectory(in, samples)...)
	for _, p := range problems {
		fmt.Fprintln(stdout, "# check failed:", p)
	}

	res := result{Correct: len(problems) == 0, Metrics: map[string]metric{}}
	for _, s := range samples {
		res.Attempted += s.Attempted
		res.Failed += s.Failed
	}
	if o.trace == 0 {
		res.Metrics = endToEnd(plain)
	} else {
		res.Metrics = perLayer(plain, traced)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// report prints a child's loss trajectory and sample counts as comment lines.
func report(stdout io.Writer, label string, s *sample) {
	fmt.Fprintf(stdout, "# %s: %d setups, %d operations (%d failed)\n", label, len(s.SetupS), s.Attempted, s.Failed)
	if len(s.LossBits) > 0 {
		fmt.Fprintf(stdout, "# %s loss trajectory: %s\n", label, formatLosses(s.LossBits))
	}
}

// measureChild runs one measurement in a fresh process, this binary again
// with the parent's workload flags, and decodes its sample from the last
// line of the child's standard output.
func measureChild(ctx context.Context, o options, in string, traced bool) (*sample, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--workload", o.workload,
		"--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds),
		"--child", "--inputs", in,
	}
	if traced {
		args = append(args, "--traced")
	}
	var out strings.Builder
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err = cmd.Run()
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return nil, fmt.Errorf("measure (traced=%v): run exceeded %v", traced, runBudget)
	}
	if err != nil {
		return nil, fmt.Errorf("measure (traced=%v): %w", traced, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s sample
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		return nil, fmt.Errorf("measure (traced=%v): decode sample: %w", traced, err)
	}
	return &s, nil
}
