package snn

// Fused, event-driven LIF step kernels: one pass per (layer, time step)
// that computes the synaptic currents and the leak→threshold→reset→
// refractory update, writing spikes straight into the record row. Spike
// rows are mostly zeros, so each kernel receives the ascending list of
// its input row's non-zero entries and accumulates only those: dense and
// recurrent kernels gather the active columns of each weight row, conv
// and pool kernels scatter each active input into the outputs it
// reaches. The lists are never rescanned from the rows: each layer's LIF
// sweep writes the list of the neurons it fired, which feeds the next
// layer (and a recurrent layer's own next step), and a replay's start
// layer reads the golden record's list of its input (Record.replayList).
// No intermediate tensor is materialized — the per-layer scratch
// (membrane state, spike list, current row, conv/pool tap tables) is
// preallocated in NewScratch — so a full Run/RunFrom pass performs zero
// heap allocations.
//
// Every kernel reproduces the reference path (Projection.Forward +
// stepLayer) bit for bit, given finite weights:
//
//   - Skipping zeros. The reference accumulators start at +0.0 and are
//     never -0.0 mid-sum (x + y rounds to -0.0 only when both are -0.0),
//     so each skipped term w·0 = ±0 leaves them unchanged whenever w is
//     finite. An Inf or NaN weight would turn w·0 into NaN; LoadWeights
//     and fault.Validate reject such networks.
//   - Order. Every non-zero term is added in the reference order: dense
//     and recurrent gathers walk the active columns ascending, as MatVec
//     does. A conv or pool scatter visits active inputs in raster
//     (channel, row, column) order, and for any single output that is
//     exactly the (ic, ky, kx) order of Conv2D's and SumPool2D's loops;
//     each input reaches each output through at most one tap. Pooling
//     multiplies by its weight after the sum, as PoolProj.Forward does.
//
// The LIF update is the very same code on both paths: the fused
// sparseStepLayer runs the reference path's healthy sweep, and its
// lifUpdate on the neurons with fault overrides, so the two paths cannot
// drift. Each spike list is exactly tensor.NonZeroIndices of the 0/1
// row it indexes — the sweep visits neurons in ascending order and lists
// exactly those with spike 1 — so the kernels see the same active
// entries as if they had scanned. The equivalence suite and fuzz targets
// in this package pin the contract.

// fusedKind selects a layer's kernel without interface dispatch in the
// hot loop.
type fusedKind uint8

const (
	fusedDense fusedKind = iota
	fusedConv
	fusedPool
	fusedRecurrent
)

// layerKernel is the preallocated fused forward kernel of one layer.
type layerKernel struct {
	kind fusedKind
	nn   int // neuron count
	fan  int // flattened fan-in (dense/recurrent)

	// cur is the preallocated synaptic-current scratch row. The current
	// loops write it with no function calls in flight, so the compiler
	// keeps the dot-product state in registers (calling lifUpdate from
	// inside the accumulation loop forces a spill/reload per neuron —
	// measurably slower than the reference MatVec on small layers).
	cur []float64

	// special lists, ascending, the neurons whose fault overrides are not
	// the unset sentinel, re-listed at every pass entry by bind; its
	// capacity is the neuron count.
	special []int32

	// Weight data views, re-captured from the network at every pass
	// entry: a pass must see the network as it is when the pass starts,
	// and fault injection lends and reclaims override slices between
	// passes, so nothing weight- or fault-shaped is cached across passes.
	w, r []float64

	// Window geometry (conv and pool): input [C, inH, inW], output
	// [C', oh, ow] with np = oh·ow positions per channel, a patch of
	// C·kh·kw weights per conv output channel, and per-axis tap tables.
	inH, inW   int
	kh, kw     int
	oh, ow, np int
	patch      int
	rows, cols axisTaps

	// Pooling weight.
	weight float64
}

// axisTaps lists, for every input coordinate i along one spatial axis,
// the window taps that read it: tap t in [start[i], start[i+1]) puts
// input i under kernel coordinate k[t] of the window at output
// coordinate o[t]. Built once per kernel, the tables replace the
// per-spike division and modulo arithmetic of the scatter loops.
type axisTaps struct {
	start []int32
	k, o  []int32
}

// newAxisTaps builds the tap table of an axis of n inputs under a window
// of size kn with the given stride and padding and on outputs: input i
// is read by kernel coordinate kk of output oo exactly when
// oo·stride − pad + kk = i. Padding coordinates have no input and so no
// taps, as in Conv2D's clamped loops.
func newAxisTaps(n, kn, stride, pad, on int) axisTaps {
	maxTaps := n * ((kn + stride - 1) / stride)
	a := axisTaps{start: make([]int32, n+1), k: make([]int32, 0, maxTaps), o: make([]int32, 0, maxTaps)}
	for i := 0; i < n; i++ {
		a.start[i] = int32(len(a.k))
		for kk := 0; kk < kn; kk++ {
			d := i + pad - kk
			if d >= 0 && d%stride == 0 && d/stride < on {
				a.k = append(a.k, int32(kk))
				a.o = append(a.o, int32(d/stride))
			}
		}
	}
	a.start[n] = int32(len(a.k))
	return a
}

// rasterCursor follows ascending flat indices into a [C, h, w] row,
// tracking the channel c, the row y and the flat index of that row's
// first column, so the scatter loops locate each active input without
// dividing. The zero value points at the first row.
type rasterCursor struct {
	c, y, row int
}

// seek advances the cursor to the row holding flat index j (j must not
// decrease between calls) and returns j's column.
//
//snn:hotpath
func (r *rasterCursor) seek(j, h, w int) int {
	for j >= r.row+w {
		r.row += w
		if r.y++; r.y == h {
			r.y = 0
			r.c++
		}
	}
	return j - r.row
}

// newLayerKernel sizes the fused kernel and its scratch for one layer.
func newLayerKernel(l *Layer) *layerKernel {
	k := &layerKernel{nn: l.NumNeurons()}
	k.cur = make([]float64, k.nn)
	k.special = make([]int32, 0, k.nn)
	switch p := l.Proj.(type) {
	case *DenseProj:
		k.kind = fusedDense
		k.fan = p.W.Dim(1)
	case *RecurrentProj:
		k.kind = fusedRecurrent
		k.fan = p.W.Dim(1)
	case *ConvProj:
		k.kind = fusedConv
		in := p.InShape()
		k.inH, k.inW = in[1], in[2]
		k.kh, k.kw = p.K.Dim(2), p.K.Dim(3)
		out := p.OutShape()
		k.oh, k.ow = out[1], out[2]
		k.np = k.oh * k.ow
		k.patch = in[0] * k.kh * k.kw
		k.rows = newAxisTaps(k.inH, k.kh, p.Spec.Stride, p.Spec.Pad, k.oh)
		k.cols = newAxisTaps(k.inW, k.kw, p.Spec.Stride, p.Spec.Pad, k.ow)
	case *PoolProj:
		k.kind = fusedPool
		in := p.InShape()
		k.inH, k.inW = in[1], in[2]
		out := p.OutShape()
		k.oh, k.ow = out[1], out[2]
		// Non-overlapping windows: every input coordinate has exactly
		// one tap, so start[i] == i and o[i] is its output coordinate.
		k.rows = newAxisTaps(k.inH, p.KSize, p.KSize, 0, k.oh)
		k.cols = newAxisTaps(k.inW, p.KSize, p.KSize, 0, k.ow)
	default:
		failf("snn: no fused kernel for projection kind %q", l.Proj.Kind())
	}
	return k
}

// bind re-captures the layer's weight storage and lists its overridden
// neurons for one pass.
//
//snn:hotpath
func (k *layerKernel) bind(l *Layer) {
	k.special = k.special[:0]
	if l.HasFaultOverrides() {
		sp := k.special[:k.nn]
		n := 0
		for i := range sp {
			if l.overridden(i) {
				sp[n] = int32(i)
				n++
			}
		}
		k.special = sp[:n]
	}
	switch p := l.Proj.(type) {
	case *DenseProj:
		k.w = p.W.Data()
	case *RecurrentProj:
		k.w = p.W.Data()
		k.r = p.R.Data()
	case *ConvProj:
		k.w = p.K.Data()
	case *PoolProj:
		k.weight = p.Weight
	}
}

// step advances the layer by one time step: the synaptic currents of the
// active inputs act (the ascending non-zero indices of in) are
// accumulated into the preallocated k.cur scratch row by call-free
// loops, then sparseStepLayer applies the LIF update, writes the spikes
// to out and lists them in st. The recurrent kernel reads st.lastSpike
// and its list of the previous step's spikes while computing currents,
// and sparseStepLayer only overwrites them after every current is
// already in k.cur — the same ordering the reference path gets by
// materializing the current tensor before its stepLayer call.
//
//snn:hotpath
func (k *layerKernel) step(l *Layer, st *fastLayerState, in []float64, act []int32, out []float64) {
	cur := k.cur
	switch k.kind {
	case fusedDense:
		for i := 0; i < k.nn; i++ {
			o := i * k.fan
			wrow := k.w[o : o+len(in)]
			c := 0.0
			for _, j := range act {
				c += wrow[j] * in[j]
			}
			cur[i] = c
		}
	case fusedRecurrent:
		last := st.lastSpike
		actR := st.spikes()
		for i := 0; i < k.nn; i++ {
			o := i * k.fan
			wrow := k.w[o : o+len(in)]
			cW := 0.0
			for _, j := range act {
				cW += wrow[j] * in[j]
			}
			o = i * k.nn
			rrow := k.r[o : o+len(last)]
			cR := 0.0
			for _, j := range actR {
				cR += rrow[j] * last[j]
			}
			cur[i] = cW + cR
		}
	case fusedConv:
		k.convScatter(in, act)
	case fusedPool:
		clear(cur)
		var rc rasterCursor
		for _, a := range act {
			ix := rc.seek(int(a), k.inH, k.inW)
			cur[(rc.c*k.oh+int(k.rows.o[rc.y]))*k.ow+int(k.cols.o[ix])] += in[a]
		}
		for i := range cur {
			cur[i] *= k.weight
		}
	}
	sparseStepLayer(l, st, cur, out, k.special)
}

// convScatter accumulates the convolution currents of the active inputs
// into k.cur: each active input (ic, iy, ix) adds its weighted value to
// every output (oc, oy, ox) whose window covers it, visiting the row and
// column taps from the precomputed axis tables.
//
//snn:hotpath
func (k *layerKernel) convScatter(in []float64, act []int32) {
	cur := k.cur
	clear(cur)
	rows, cols := &k.rows, &k.cols
	var rc rasterCursor
	for _, a := range act {
		ix := rc.seek(int(a), k.inH, k.inW)
		x := in[a]
		for ty := rows.start[rc.y]; ty < rows.start[rc.y+1]; ty++ {
			wrow := (rc.c*k.kh + int(rows.k[ty])) * k.kw
			orow := int(rows.o[ty]) * k.ow
			for tx := cols.start[ix]; tx < cols.start[ix+1]; tx++ {
				wo := wrow + int(cols.k[tx])
				for o := orow + int(cols.o[tx]); o < len(cur); o += k.np {
					cur[o] += k.w[wo] * x
					wo += k.patch
				}
			}
		}
	}
}
