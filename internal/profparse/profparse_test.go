package profparse

import (
	"bytes"
	"compress/gzip"
	"context"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

// --- a minimal pprof protobuf encoder, test-only, so the parser is
// --- exercised against wire bytes we fully control.

type enc struct{ b []byte }

func (e *enc) varint(v uint64) {
	for v >= 0x80 {
		e.b = append(e.b, byte(v)|0x80)
		v >>= 7
	}
	e.b = append(e.b, byte(v))
}

func (e *enc) tag(field, wire int) { e.varint(uint64(field<<3 | wire)) }

func (e *enc) bytesField(field int, b []byte) {
	e.tag(field, wireBytes)
	e.varint(uint64(len(b)))
	e.b = append(e.b, b...)
}

func (e *enc) varintField(field int, v uint64) {
	e.tag(field, wireVarint)
	e.varint(v)
}

func encValueType(typ, unit int) []byte {
	var e enc
	e.varintField(1, uint64(typ))
	e.varintField(2, uint64(unit))
	return e.b
}

func encLabel(key, str int, num int64) []byte {
	var e enc
	e.varintField(1, uint64(key))
	if str != 0 {
		e.varintField(2, uint64(str))
	}
	if num != 0 {
		e.varintField(3, uint64(num))
	}
	return e.b
}

// encSample encodes values packed (the runtime's encoding) and each
// label as a submessage.
func encSample(values []int64, labels ...[]byte) []byte {
	var vals enc
	for _, v := range values {
		vals.varint(uint64(v))
	}
	var e enc
	e.bytesField(2, vals.b)
	for _, l := range labels {
		e.bytesField(3, l)
	}
	return e.b
}

// testProfile builds a two-dimension CPU profile with phase labels:
//
//	strtab: 0:"" 1:samples 2:count 3:cpu 4:nanoseconds 5:phase
//	        6:generate 7:generate/restart 8:run 9:run-1
func testProfile(gzipped bool) []byte {
	var e enc
	e.bytesField(1, encValueType(1, 2)) // samples/count
	e.bytesField(1, encValueType(3, 4)) // cpu/nanoseconds
	// 3 samples in generate/restart, labelled with a run id too.
	e.bytesField(2, encSample([]int64{3, 30_000_000}, encLabel(5, 7, 0), encLabel(8, 9, 0)))
	// 1 sample in generate (unpacked value encoding for coverage).
	{
		var s enc
		s.varintField(2, 1)
		s.varintField(2, 10_000_000)
		s.bytesField(3, encLabel(5, 6, 0))
		e.bytesField(2, s.b)
	}
	// 1 unlabelled sample (GC worker), with a numeric label to decode.
	e.bytesField(2, encSample([]int64{1, 10_000_000}, encLabel(5, 0, 42)))
	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds", "phase", "generate", "generate/restart", "run", "run-1"} {
		e.bytesField(6, []byte(s))
	}
	e.varintField(10, 50_000_000)        // duration_nanos
	e.bytesField(11, encValueType(3, 4)) // period_type
	e.varintField(12, 10_000_000)        // period
	if !gzipped {
		return e.b
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(e.b); err != nil {
		panic(err)
	}
	if err := zw.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func TestParseSyntheticProfile(t *testing.T) {
	for _, gz := range []bool{false, true} {
		p, err := Parse(testProfile(gz))
		if err != nil {
			t.Fatalf("gzip=%v: %v", gz, err)
		}
		if len(p.SampleTypes) != 2 || p.SampleTypes[1] != (ValueType{"cpu", "nanoseconds"}) {
			t.Fatalf("gzip=%v: sample types = %+v", gz, p.SampleTypes)
		}
		if p.ValueIndex("cpu") != 1 || p.ValueIndex("nope") != -1 {
			t.Errorf("gzip=%v: ValueIndex misresolved", gz)
		}
		if len(p.Samples) != 3 {
			t.Fatalf("gzip=%v: %d samples, want 3", gz, len(p.Samples))
		}
		s0 := p.Samples[0]
		if s0.Values[1] != 30_000_000 || s0.Labels["phase"] != "generate/restart" || s0.Labels["run"] != "run-1" {
			t.Errorf("gzip=%v: sample 0 = %+v", gz, s0)
		}
		if p.Samples[1].Labels["phase"] != "generate" || p.Samples[1].Values[1] != 10_000_000 {
			t.Errorf("gzip=%v: sample 1 = %+v", gz, p.Samples[1])
		}
		if p.Samples[2].Labels != nil || p.Samples[2].NumLabels["phase"] != 42 {
			t.Errorf("gzip=%v: sample 2 = %+v", gz, p.Samples[2])
		}
		if p.Period != 10_000_000 || p.PeriodType != (ValueType{"cpu", "nanoseconds"}) || p.DurationNanos != 50_000_000 {
			t.Errorf("gzip=%v: period/duration mis-decoded: %+v", gz, p)
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte{0x0a}); err == nil { // truncated len-delim
		t.Error("want error for truncated message")
	}
	var e enc
	e.bytesField(1, encValueType(99, 0)) // string index out of range
	if _, err := Parse(e.b); err == nil {
		t.Error("want error for out-of-range string index")
	}
}

// FuzzParse feeds arbitrary bytes to the decoder: it must return either
// a profile or an error, and never panic. Seeded with the synthetic
// profile, raw and gzipped, truncations of both, and a sample_type field
// whose length varint claims 2⁶⁰ bytes.
func FuzzParse(f *testing.F) {
	for _, gz := range []bool{false, true} {
		data := testProfile(gz)
		f.Add(data)
		for _, n := range []int{1, 2, len(data) / 3, len(data) / 2, len(data) - 1} {
			f.Add(data[:n])
		}
	}
	f.Add([]byte{0x0a, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err == nil && p == nil {
			t.Fatal("Parse returned neither a profile nor an error")
		}
	})
}

func TestFoldByPhase(t *testing.T) {
	p, err := Parse(testProfile(true))
	if err != nil {
		t.Fatal(err)
	}
	r := FoldByPhase(p, "cpu")
	if r.SampleType != "cpu" || r.SampleUnit != "nanoseconds" {
		t.Fatalf("folded on %s/%s", r.SampleType, r.SampleUnit)
	}
	// Tick counts come from the "samples" dimension (3+1+1), not the
	// record count — the encoder merges identical stack+label samples.
	if r.TotalSamples != 5 || r.TotalValue != 50_000_000 {
		t.Fatalf("total = %d samples / %d, want 5 / 50000000", r.TotalSamples, r.TotalValue)
	}
	if r.LabeledSamples != 4 || r.LabeledValue != 40_000_000 {
		t.Fatalf("labeled = %d samples / %d, want 4 / 40000000", r.LabeledSamples, r.LabeledValue)
	}
	if r.Phases[0].Samples != 3 {
		t.Errorf("restart tick count = %d, want 3", r.Phases[0].Samples)
	}
	if got, want := r.LabeledFraction, 0.8; got != want {
		t.Errorf("labeled fraction = %g, want %g", got, want)
	}
	// Sorted by flat desc: generate/restart (30M) then generate (10M).
	if len(r.Phases) != 2 || r.Phases[0].Phase != "generate/restart" || r.Phases[1].Phase != "generate" {
		t.Fatalf("phases = %+v", r.Phases)
	}
	if r.Phases[0].Cum != 30_000_000 {
		t.Errorf("restart cum = %d", r.Phases[0].Cum)
	}
	// generate's cum folds its descendant in.
	if got := r.CumValue("generate"); got != 40_000_000 {
		t.Errorf("generate cum = %d, want 40000000", got)
	}
	if got := r.CumValue("absent"); got != 0 {
		t.Errorf("absent phase cum = %d", got)
	}
}

// TestFoldMaterializesAncestors checks an interior phase with no flat
// samples of its own still answers cumulative queries.
func TestFoldMaterializesAncestors(t *testing.T) {
	p := &Profile{
		SampleTypes: []ValueType{{"cpu", "nanoseconds"}},
		Samples: []Sample{
			{Values: []int64{7}, Labels: map[string]string{"phase": "generate/calibrate/candidate"}},
			{Values: []int64{3}, Labels: map[string]string{"phase": "generate/restart"}},
		},
	}
	r := FoldByPhase(p, "cpu")
	if got := r.CumValue("generate"); got != 10 {
		t.Errorf("generate cum = %d, want 10", got)
	}
	if got := r.CumValue("generate/calibrate"); got != 7 {
		t.Errorf("generate/calibrate cum = %d, want 7", got)
	}
}

// TestParseLiveProfile is the integration check against the real
// runtime encoder: profile a labelled busy loop and assert the samples
// decode with the phase label attached.
func TestParseLiveProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("live CPU profile capture in -short mode")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("phase", "profparse/burn"))
	pprof.SetGoroutineLabels(ctx)
	sink := 0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1_000_000; i++ {
			sink += i * i
		}
	}
	pprof.SetGoroutineLabels(context.Background())
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_ = sink

	p, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) == 0 {
		t.Skip("no CPU samples collected (profiling timer unavailable)")
	}
	r := FoldByPhase(p, "cpu")
	if r.CumValue("profparse/burn") == 0 {
		t.Fatalf("live profile lost the phase label; report: %+v", r)
	}
	if r.LabeledFraction < 0.5 {
		t.Errorf("labeled fraction = %.2f, want most of a single-goroutine burn", r.LabeledFraction)
	}
}
