package peachstar

// This file is the public surface of durable campaign checkpoints: the
// blocking Campaign.Checkpoint / Campaign.RestoreCheckpoint pair for
// quiescent campaigns, and the periodic in-session checkpointing that
// RunConfig.CheckpointPath switches on (driven from the session loop at
// merge-window boundaries, written by one background writer per session
// and reported as CheckpointEvents).
//
// A checkpoint file is one atomic snapshot of the whole campaign — fleet
// counters, union coverage, corpus with its sync journal, crash bank with
// reproducers, adaptive-scheduler tables, session state, and every
// worker's RNG position — sealed under the campaign's model digest. A
// warm restart builds the same campaign (same target, models, workers)
// and restores the file; restoring under different data models is
// refused. Writes are crash-safe (temp file + rename), so a kill -9 at
// any instant leaves either the previous checkpoint or the new one,
// never a torn file.

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// DefaultCheckpointEvery is the default number of fleet executions between
// durable checkpoints of a session with RunConfig.CheckpointPath set:
// sixteen merge windows' worth.
const DefaultCheckpointEvery = 16 * core.DefaultMergeEvery

// Checkpoint writes the campaign's full state to path, crash-safely
// (atomic temp-file-and-rename replace). The campaign must be quiescent:
// checkpointing while a session is in flight is an error. For periodic
// checkpoints during a run, set RunConfig.CheckpointPath instead.
func (c *Campaign) Checkpoint(path string) error {
	if !atomic.CompareAndSwapInt32(&c.running, 0, 1) {
		return fmt.Errorf("peachstar: cannot checkpoint: campaign has a session in flight")
	}
	defer atomic.StoreInt32(&c.running, 0)
	return checkpoint.WriteFileAtomic(path, c.fleet.Checkpoint(c.digest))
}

// RestoreCheckpoint overwrites the campaign's state with a checkpoint file
// written by Checkpoint or a CheckpointPath session — the warm-restart
// entry point. The campaign must have been built with the same target,
// models and worker count as the one that wrote the checkpoint (the file
// carries the model digest and worker count, and restore refuses a
// mismatch), and must be quiescent. A failed restore may leave the
// campaign partially overwritten; discard it and build a fresh one.
//
// A restored campaign continues exactly where the checkpoint was taken:
// counters, coverage, corpus, crashes, scheduler state and RNG streams
// all resume, so Start with the original absolute exec budget finishes
// the remaining work. A restored node that was part of a hub or mesh
// fleet rejoins it through the normal sync path — peers whose journal
// cursors aged out of the restored horizon fall back to a full replay
// exchange and heal.
func (c *Campaign) RestoreCheckpoint(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !atomic.CompareAndSwapInt32(&c.running, 0, 1) {
		return fmt.Errorf("peachstar: cannot restore: campaign has a session in flight")
	}
	defer atomic.StoreInt32(&c.running, 0)
	return c.fleet.RestoreCheckpoint(data, c.digest)
}

// ckptImage is one sealed checkpoint image on its way from the session
// loop to the session's checkpoint writer.
type ckptImage struct {
	data  []byte
	execs int           // fleet execution count the image captures
	snap  time.Duration // how long the snapshot took
}

// checkpointNow takes one checkpoint image from the session loop and hands
// it to the session's writer (see writeCheckpoints). Called only between
// Drive windows (or from a relay's tick), when the fleet's workers are
// quiescent, so the image is a consistent cut. The hand-off is unbuffered:
// while the previous image is still being written the loop waits here, so
// at most one write is in flight and none is ever skipped.
func (r *Run) checkpointNow() {
	began := time.Now()
	data := r.c.fleet.Checkpoint(r.c.digest)
	r.ckpts <- ckptImage{data: data, execs: r.c.fleet.Execs(), snap: time.Since(began)}
}

// writeCheckpoints is the session's checkpoint writer, on its own
// goroutine: it writes each image atomically (temp file, fsync, rename)
// and reports it as a CheckpointEvent while the loop fuzzes the next
// window. It returns when the loop closes the channel. A write failure is
// an event, not a session error — the campaign keeps fuzzing and the next
// checkpoint retries.
func (r *Run) writeCheckpoints() {
	defer close(r.ckptsDone)
	for img := range r.ckpts {
		began := time.Now()
		err := checkpoint.WriteFileAtomic(r.cfg.CheckpointPath, img.data)
		r.emit(CheckpointEvent{
			Path:    r.cfg.CheckpointPath,
			Execs:   img.execs,
			Bytes:   len(img.data),
			Elapsed: img.snap + time.Since(began),
			Err:     err,
		})
	}
}
