package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Files of one generated input set.
const (
	graphFile  = "graph.fgds"
	snapAFile  = "weights-a.fgck"
	snapBFile  = "weights-b.fgck"
	digestFile = "DIGEST"
	lossFile   = "losses.txt"
)

// snapshotEpochs is how many training epochs separate the serving
// workload's two weight snapshots (and precede the first).
const snapshotEpochs = 2

// buildID names the running binary by a hash of its contents. Generated
// inputs and recorded loss trajectories are cached under it, so a rebuilt
// program (a changed generator, checkpoint format or floating-point order)
// never meets files an earlier build wrote.
var buildID = sync.OnceValues(func() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
})

// inputDir is where the inputs of workload w for seed are cached.
func inputDir(w *workload, seed uint64) (string, error) {
	id, err := buildID()
	if err != nil {
		return "", fmt.Errorf("identify build: %w", err)
	}
	return filepath.Join(workDir, "inputs", id, fmt.Sprintf("%s-seed%d", w.name, seed)), nil
}

// pruneInputs removes the inputs other builds cached beside dir's build;
// they are never read again.
func pruneInputs(dir string) error {
	build := filepath.Dir(dir)
	ents, err := os.ReadDir(filepath.Dir(build))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Name() != filepath.Base(build) {
			if err := os.RemoveAll(filepath.Join(filepath.Dir(build), e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// generate writes the workload's inputs for seed into dir and returns their
// digest; scale multiplies the workload's dataset scale (tests shrink it).
// It runs before and outside every timer; the measuring child only ever
// sees the files.
func generate(w *workload, dir string, seed uint64, scale float64) (string, error) {
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	d := w.data(dataset.Config{Scale: w.scale * scale, Seed: seed})
	if err := d.Save(filepath.Join(tmp, graphFile)); err != nil {
		return "", err
	}
	if w.snapshots {
		if err := writeSnapshots(d, seed, tmp); err != nil {
			return "", err
		}
	}
	digest, err := digestDir(tmp)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(tmp, digestFile), []byte(digest+"\n"), 0o644); err != nil {
		return "", err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return digest, os.Rename(tmp, dir)
}

// writeSnapshots trains the served GCN and saves two weight versions, which
// the serving workload alternates between on every model update.
func writeSnapshots(d *dataset.Dataset, seed uint64, dir string) error {
	m := models.NewGCN(d.FeatureDim(), serveHidden, d.NumClasses, tensor.NewRNG(seed))
	tr := nau.NewTrainerWith(m, nau.TrainerOptions{
		Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask, Seed: seed,
	})
	for _, name := range []string{snapAFile, snapBFile} {
		for e := 0; e < snapshotEpochs; e++ {
			if _, err := tr.Epoch(); err != nil {
				return fmt.Errorf("train snapshot %s: %w", name, err)
			}
		}
		if err := nn.SaveCheckpoint(filepath.Join(dir, name), m.Parameters()); err != nil {
			return err
		}
	}
	return nil
}

// digestDir hashes every file's name and contents in name order.
func digestDir(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var names []string
	for _, e := range ents {
		if n := e.Name(); n != digestFile && n != lossFile {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		f, err := os.Open(filepath.Join(dir, n))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", n)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
