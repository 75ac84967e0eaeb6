package core

import (
	"context"
	"time"

	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// CompactionStats reports what CompactContext removed.
type CompactionStats struct {
	ChunksBefore int
	ChunksAfter  int
	StepsBefore  int
	StepsAfter   int
	// Detected is the number of faults in the union of the kept chunks'
	// isolated campaigns. The compacted test itself is never simulated, and
	// because separators do not return membranes exactly to rest this
	// union can differ from the assembled test's own count in either
	// direction (on IBM at seed 7: 1,099 against 1,113).
	Detected int
}

// CompactContext implements the paper's future-work direction of
// reducing test duration further: it fault-simulates each generated chunk
// in isolation, then greedily drops chunks whose detected-fault sets are
// covered by the union of the chunks that remain, and reassembles the
// test. Isolation assumes the zero separators of Eq. 7 return every
// membrane to rest between chunks; with a leak below 1 they only decay
// toward it, so the union of isolated detections approximates, and does
// not bound, the coverage of the assembled tests before and after (see
// CompactionStats.Detected).
//
// ctx parents the compaction's obs span (and the per-chunk fault
// campaigns beneath it) so traces nest under the caller's tree;
// compaction itself is not cancellable.
func CompactContext(ctx context.Context, net *snn.Network, res *Result, faults []fault.Fault, workers int) (*Result, CompactionStats, error) {
	ctx, sp := obs.Start(ctx, "compact")
	defer sp.End()
	sp.SetAttr("chunks_before", len(res.Chunks))
	campaign := func(stim *tensor.Tensor) (*fault.SimResult, error) {
		return fault.SimulateWith(net, faults, stim, fault.CampaignOptions{Workers: workers, Context: ctx})
	}
	stats := CompactionStats{
		ChunksBefore: len(res.Chunks),
		StepsBefore:  res.TotalSteps(),
	}
	if len(res.Chunks) <= 1 {
		stats.ChunksAfter = len(res.Chunks)
		stats.StepsAfter = res.TotalSteps()
		sim, err := campaign(res.Stimulus)
		if err != nil {
			return nil, stats, err
		}
		stats.Detected = sim.NumDetected()
		return res, stats, nil
	}

	// Per-chunk detection sets.
	detects := make([][]bool, len(res.Chunks))
	for i, c := range res.Chunks {
		sim, err := campaign(c)
		if err != nil {
			return nil, stats, err
		}
		detects[i] = sim.Detected
	}

	keep := make([]bool, len(res.Chunks))
	for i := range keep {
		keep[i] = true
	}
	// Try dropping chunks from the cheapest contribution upward: order by
	// the number of faults only that chunk detects among the kept set.
	for {
		dropped := false
		bestIdx, bestUnique := -1, 1<<62
		for i := range res.Chunks {
			if !keep[i] {
				continue
			}
			unique := 0
			for fi, d := range detects[i] {
				if !d {
					continue
				}
				covered := false
				for j := range res.Chunks {
					if j != i && keep[j] && detects[j][fi] {
						covered = true
						break
					}
				}
				if !covered {
					unique++
				}
			}
			if unique == 0 && len(res.Chunks[i].Data()) < bestUnique {
				bestIdx, bestUnique = i, len(res.Chunks[i].Data())
			}
		}
		if bestIdx >= 0 {
			keep[bestIdx] = false
			dropped = true
		}
		if !dropped {
			break
		}
	}

	var kept []*tensor.Tensor
	union := make([]bool, len(faults))
	for i, c := range res.Chunks {
		if keep[i] {
			kept = append(kept, c)
			for fi, d := range detects[i] {
				if d {
					union[fi] = true
				}
			}
		}
	}
	detected := 0
	for _, d := range union {
		if d {
			detected++
		}
	}

	out := &Result{
		Stimulus:          Assemble(net, kept),
		Chunks:            kept,
		TInMin:            res.TInMin,
		Activated:         res.Activated,
		ActivatedFraction: res.ActivatedFraction,
		Trace:             res.Trace,
		Runtime:           res.Runtime + time.Duration(0),
	}
	stats.ChunksAfter = len(kept)
	stats.StepsAfter = out.TotalSteps()
	stats.Detected = detected
	sp.SetAttr("chunks_after", len(kept))
	return out, stats, nil
}
