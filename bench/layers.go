package main

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	mrand "math/rand"
	"os"
	"strings"
	"time"

	"chiaroscuro"
	"chiaroscuro/internal/core"
	"chiaroscuro/internal/costmodel"
	"chiaroscuro/internal/crypto/damgardjurik"
	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/fixedpoint"
	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/kmeans"
	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/timeseries"
	"chiaroscuro/internal/transport/conformance"
	"chiaroscuro/internal/vecpool"
	"chiaroscuro/internal/wire"
)

// perLayerSpec is every per-layer metric, in the order the table prints.
// A layer is a package; each metric is measured from this directory,
// around calls into the package's public functions. The probe rows are
// the same whatever the workload (a traced run times every layer, also
// the ones its workload never enters, so that "no change" is a number);
// the rows marked "workload" come from the workload's own runs.
var perLayerSpec = []spec{
	{name: "calib.modexp2048_us", unit: "us", better: "lower"},

	{name: "damgardjurik.encrypt_us", unit: "us", better: "lower"},
	{name: "damgardjurik.scalarmul_us", unit: "us", better: "lower"},
	{name: "damgardjurik.rerandomize_us", unit: "us", better: "lower"},
	{name: "damgardjurik.add_us", unit: "us", better: "lower"},
	{name: "damgardjurik.partial_decrypt_us", unit: "us", better: "lower"},
	{name: "damgardjurik.combine_us", unit: "us", better: "lower"},
	{name: "dkg.ceremony_ms", unit: "ms", better: "lower"},

	{name: "core.suite_plain_encrypt_ns", unit: "ns", better: "lower"},
	{name: "core.suite_plain_add_ns", unit: "ns", better: "lower"},
	{name: "core.suite_plain_halve_ns", unit: "ns", better: "lower"},
	{name: "core.suite_plain_partial_ns", unit: "ns", better: "lower"},
	{name: "core.suite_plain_combine_ns", unit: "ns", better: "lower"},
	{name: "core.suite_dj_halve_us", unit: "us", better: "lower"},
	{name: "core.suite_dj_combine_columns_us", unit: "us", better: "lower"},

	// The node driver on the mesh-plain shape…
	{name: "core.step_gossip_us", unit: "us", better: "lower"},
	{name: "core.step_decrypt_ask_us", unit: "us", better: "lower"},
	{name: "core.step_decrypt_serve_us", unit: "us", better: "lower"},
	{name: "core.step_other_us", unit: "us", better: "lower"},
	{name: "core.encode_payload_us", unit: "us", better: "lower"},
	{name: "core.decode_payload_us", unit: "us", better: "lower"},
	{name: "core.payload_bytes_gossip", unit: "B", better: "lower"},
	// …and on the mesh-dj shape (one iteration).
	{name: "core.dj_step_gossip_us", unit: "us", better: "lower"},
	{name: "core.dj_step_decrypt_ask_us", unit: "us", better: "lower"},
	{name: "core.dj_step_decrypt_serve_us", unit: "us", better: "lower"},
	{name: "core.dj_step_other_us", unit: "us", better: "lower"},
	{name: "core.dj_encode_payload_us", unit: "us", better: "lower"},
	{name: "core.dj_decode_payload_us", unit: "us", better: "lower"},
	{name: "core.dj_payload_bytes_gossip", unit: "B", better: "lower"},
	{name: "core.decrypt_allocs_per_cycle", unit: "count", better: "lower"},

	{name: "p2p.cycle_ns_per_node", unit: "ns", better: "lower"},
	{name: "p2p.sampler_draw_ns", unit: "ns", better: "lower"},
	{name: "gossip.pushsum_ns_per_exchange", unit: "ns", better: "lower"},
	{name: "gossip.cycles_to_1e-6", unit: "count", better: "lower"},
	{name: "fixedpoint.pack_ns_per_slot", unit: "ns", better: "lower"},
	{name: "fixedpoint.unpack_ns_per_slot", unit: "ns", better: "lower"},
	{name: "fixedpoint.encode_ns", unit: "ns", better: "lower"},
	{name: "dp.noise_share_ns", unit: "ns", better: "lower"},
	{name: "kmeans.assign_ns_per_point", unit: "ns", better: "lower"},
	{name: "timeseries.smooth_ns", unit: "ns", better: "lower"},
	{name: "vecpool.slide_row_ns_per_row", unit: "ns", better: "lower"},
	{name: "datasets.cer_gen_ms_per_10k", unit: "ms", better: "lower"},

	{name: "wire.marshal_cipher_vector_us", unit: "us", better: "lower"},
	{name: "wire.unmarshal_cipher_vector_us", unit: "us", better: "lower"},
	{name: "wire.residue_vector_marshal_ns", unit: "ns", better: "lower"},
	{name: "wire.frame_write_ns", unit: "ns", better: "lower"},
	{name: "wire.frame_read_ns", unit: "ns", better: "lower"},

	{name: "transport.mesh_form_ms", unit: "ms", better: "lower"},
	{name: "transport.ceremony_ms", unit: "ms", better: "lower"},
	{name: "transport.epoch_nockpt_ms", unit: "ms", better: "lower"},
	{name: "transport.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "transport.checkpoint_bytes", unit: "B", better: "lower"},
	{name: "transport.socket_writes_per_node_epoch", unit: "count", better: "lower"},
	{name: "transport.socket_bytes_per_node_epoch", unit: "B", better: "lower"},
	{name: "transport.conn_write_us", unit: "us", better: "lower"},
	{name: "transport.overhead_ratio", unit: "ratio", better: "lower"},

	// Workload rows.
	{name: "core.encrypts_per_participant_iter", unit: "count", better: "lower"},
	{name: "core.adds_per_participant_iter", unit: "count", better: "lower"},
	{name: "core.halvings_per_participant_iter", unit: "count", better: "lower"},
	{name: "core.partial_decrypts_per_participant_iter", unit: "count", better: "lower"},
	{name: "core.combines_per_participant_iter", unit: "count", better: "lower"},
	{name: "core.decrypt_requests_per_participant_iter", unit: "count", better: "lower"},
	{name: "core.decrypt_wall_share", unit: "share", better: "lower"},
	{name: "core.allocs_per_participant_cycle", unit: "count", better: "lower"},
	{name: "core.window_iterations", unit: "count", better: "lower"},
	{name: "costmodel.cpu_projection_ratio", unit: "ratio", better: "lower"},
	{name: "costmodel.bytes_projection_ratio", unit: "ratio", better: "lower"},
	{name: "quality.inertia_ratio", unit: "ratio", better: "lower"},
	{name: "bench.explained_share", unit: "share", better: "higher"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower"},
}

// probeScale sizes the layer probes. Only the smoke tests use anything
// but fullProbes.
type probeScale struct {
	djBits      int // Damgård–Jurik modulus of every crypto probe
	p2pNodes    int // population of the scheduler probe
	gossipNodes int // population of the push-sum probe
	meshNodes   int // plain mesh probe (the mesh-plain shape)
	djMeshNodes int // Damgård–Jurik mesh probe and node driver (the mesh-dj shape)
	meshIters   int // iterations of the plain mesh probe
}

var fullProbes = probeScale{djBits: 1024, p2pNodes: 50000, gossipNodes: 1024, meshNodes: 16, djMeshNodes: 8, meshIters: 8}

// opTimes are the per-operation layer times the explained share is built
// from, in nanoseconds.
type opTimes struct {
	plain, dj  [5]float64 // encrypt, add, halve, partial decrypt, combine
	p2pCycle   float64    // per node per cycle
	assign     float64    // per point at K=5, dim=24
	noiseShare float64
	encode     float64
	connWrite  float64 // per socket Write
}

// set stores one probe result.
func set(m map[string]metric, name string, v float64) {
	for _, s := range perLayerSpec {
		if s.name == name {
			m[name] = metric{Value: v, Unit: s.unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in perLayerSpec")
}

// detRand is a deterministic stream for probe inputs: the program sees
// only generated inputs, and the same seed generates the same ones.
func detRand(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }

// cryptoProbes times the calibration unit, the Damgård–Jurik fast paths
// the suite calls, the suites themselves, the key ceremony and the wire
// codec, all at ps.djBits, s=1, 5-of-8, and returns the cost model's
// profile of the same key.
func cryptoProbes(m map[string]metric, ot *opTimes, ps probeScale, seed int64) (*costmodel.CryptoProfile, error) {
	rng := detRand(seed)
	set(m, "calib.modexp2048_us", modexpNS()/1e3)

	// The Damgård–Jurik rows are the cost model's own profile, so that the
	// projection below and the table above it are one measurement.
	const parties, threshold = 8, 5
	prof, err := costmodel.MeasureProfile(ps.djBits, 1, parties, threshold, 8)
	if err != nil {
		return nil, err
	}
	ns := func(d time.Duration) float64 { return float64(d) }
	ot.dj = [5]float64{ns(prof.FastEncrypt), ns(prof.Add), ns(prof.ScalarMul + prof.FastRerandomize),
		ns(prof.FastPartialDecrypt), ns(prof.FastCombine)}
	set(m, "damgardjurik.encrypt_us", ns(prof.FastEncrypt)/1e3)
	set(m, "damgardjurik.add_us", ns(prof.Add)/1e3)
	set(m, "damgardjurik.scalarmul_us", ns(prof.ScalarMul)/1e3)
	set(m, "damgardjurik.rerandomize_us", ns(prof.FastRerandomize)/1e3)
	set(m, "damgardjurik.partial_decrypt_us", ns(prof.FastPartialDecrypt)/1e3)
	set(m, "damgardjurik.combine_us", ns(prof.FastCombine)/1e3)

	var opErr error
	keep := func(v any, err error) {
		sink = v
		if err != nil {
			opErr = err
		}
	}
	msg := big.NewInt(123456789)

	t0 := time.Now()
	if _, err := core.RunDJKeyCeremony(ps.djBits, 1, ps.djMeshNodes, min(4, ps.djMeshNodes-1), seed, nil); err != nil {
		return nil, err
	}
	set(m, "dkg.ceremony_ms", float64(time.Since(t0))/1e6)

	// The suites, through the CipherSuite interface the protocol uses.
	plain, err := core.NewPlainSuite(1024, 1, parties, threshold)
	if err != nil {
		return nil, err
	}
	pc, err := plain.Encrypt(msg)
	if err != nil {
		return nil, err
	}
	pparts := make([]core.Partial, threshold)
	for i := range pparts {
		if pparts[i], err = plain.PartialDecrypt(i+1, pc); err != nil {
			return nil, err
		}
	}
	ot.plain[0] = timeOp(func() { keep(plain.Encrypt(msg)) })
	ot.plain[1] = timeOp(func() { keep(plain.Add(pc, pc)) })
	ot.plain[2] = timeOp(func() { keep(plain.Halve(pc)) })
	ot.plain[3] = timeOp(func() { keep(plain.PartialDecrypt(1, pc)) })
	ot.plain[4] = timeOp(func() { keep(plain.Combine(pparts)) })
	for i, op := range []string{"encrypt", "add", "halve", "partial", "combine"} {
		set(m, "core.suite_plain_"+op+"_ns", ot.plain[i])
	}

	dj, err := core.NewDamgardJurikSuite(ps.djBits, 1, parties, threshold)
	if err != nil {
		return nil, err
	}
	defer dj.(interface{ Close() }).Close()
	dc, err := dj.Encrypt(msg)
	if err != nil {
		return nil, err
	}
	set(m, "core.suite_dj_halve_us", timeOp(func() { keep(dj.Halve(dc)) })/1e3)
	column := make([]core.Cipher, 22)
	for i := range column {
		if column[i], err = dj.Encrypt(msg); err != nil {
			return nil, err
		}
	}
	sets := make([][]core.Partial, threshold)
	for j := range sets {
		sets[j] = make([]core.Partial, len(column))
		for i, c := range column {
			if sets[j][i], err = dj.PartialDecrypt(j+1, c); err != nil {
				return nil, err
			}
		}
	}
	combiner, ok := dj.(interface {
		CombineColumns(sets [][]core.Partial, count int) ([]*big.Int, error)
	})
	if !ok {
		return nil, errors.New("bench: the Damgård–Jurik suite lost CombineColumns")
	}
	set(m, "core.suite_dj_combine_columns_us", timeOp(func() { keep(combiner.CombineColumns(sets, len(column))) })/1e3)

	// The wire codec on a 22-ciphertext vector (one side of the mesh
	// shapes' fused vector, K·(dim+1)), and framing at 4 KB.
	tk, _, err := damgardjurik.FixtureThresholdKey(ps.djBits, 1, parties, threshold)
	if err != nil {
		return nil, err
	}
	cts := make([]*big.Int, 22)
	for i := range cts {
		if cts[i], err = tk.Encrypt(rand.Reader, msg); err != nil {
			return nil, err
		}
	}
	enc, err := wire.MarshalCiphertextVector(&tk.PublicKey, cts)
	if err != nil {
		return nil, err
	}
	set(m, "wire.marshal_cipher_vector_us", timeOp(func() { keep(wire.MarshalCiphertextVector(&tk.PublicKey, cts)) })/1e3)
	set(m, "wire.unmarshal_cipher_vector_us", timeOp(func() { keep(wire.UnmarshalCiphertextVector(&tk.PublicKey, enc)) })/1e3)
	ring := plain.PlainModulus()
	residues := make([]*big.Int, len(cts))
	for i := range residues {
		residues[i] = new(big.Int).Mod(randBits(rng, 400), ring)
	}
	set(m, "wire.residue_vector_marshal_ns", timeOp(func() { keep(wire.MarshalResidueVector(ring, residues)) }))
	payload := make([]byte, 4096)
	var buf bytes.Buffer
	set(m, "wire.frame_write_ns", timeOp(func() {
		buf.Reset()
		keep(nil, wire.WriteFrame(&buf, payload))
	}))
	framed := append([]byte(nil), buf.Bytes()...)
	rd := bytes.NewReader(framed)
	set(m, "wire.frame_read_ns", timeOp(func() {
		rd.Reset(framed)
		keep(wire.ReadFrame(rd))
	}))
	if opErr != nil {
		return nil, fmt.Errorf("bench: crypto probe: %w", opErr)
	}
	return prof, nil
}

// pingProtocol is the trivial one-message protocol of the scheduler
// probe: drain the inbox, send one small message to a random peer.
type pingProtocol struct{ got int }

func (p *pingProtocol) NextCycle(ctx *p2p.Context) {
	p.got += len(ctx.Inbox())
	if to, ok := ctx.RandomPeer(); ok {
		ctx.Send(to, p, 8) //nolint:errcheck // a dropped ping is not the probe's concern
	}
}

// simProbes times the simulator-side layers: scheduler, sampler, push-sum,
// fixed-point codec, noise shares, assignment, smoothing, the sliding
// arena and the dataset generator.
func simProbes(m map[string]metric, ot *opTimes, ps probeScale, seed int64) error {
	rng := detRand(seed)

	nw, err := p2p.New(ps.p2pNodes, func(p2p.NodeID) p2p.Protocol { return &pingProtocol{} },
		p2p.Options{Seed: seed, Workers: workers})
	if err != nil {
		return err
	}
	nw.Run(3) // queues reach their working capacity
	cycles := make([]float64, 7)
	for i := range cycles {
		t0 := time.Now()
		nw.RunCycle()
		cycles[i] = float64(time.Since(t0)) / float64(ps.p2pNodes)
	}
	ot.p2pCycle = median(cycles)
	set(m, "p2p.cycle_ns_per_node", ot.p2pCycle)
	sampler := p2p.NewSampler(seed, 0, ps.p2pNodes)
	set(m, "p2p.sampler_draw_ns", timeOp(func() { sink, _ = sampler.RandomPeer() }))

	values := make([][]float64, ps.gossipNodes)
	for i := range values {
		values[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	const rounds = 60
	t0 := time.Now()
	sim, err := gossip.SimulatePushSum(values, rounds, 0, detRand(seed))
	if err != nil {
		return err
	}
	set(m, "gossip.pushsum_ns_per_exchange", float64(time.Since(t0))/float64(sim.Messages))
	reached := rounds + 1 // not reached within the probe's rounds
	for r, e := range sim.MaxRelErr {
		if e < 1e-6 {
			reached = r + 1
			break
		}
	}
	set(m, "gossip.cycles_to_1e-6", float64(reached))

	// The slot layout of a packed accounted run: 319 usable bits, slots
	// of 64 magnitude bits + sign + 12 bits of aggregation headroom.
	layout, err := fixedpoint.NewSlotLayout(319, 64, 12)
	if err != nil {
		return err
	}
	const coords = 125 // sim-deep's K·(dim+1)
	vs := make([]*big.Int, coords)
	for i := range vs {
		vs[i] = new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 60))
	}
	packed, err := layout.Pack(vs)
	if err != nil {
		return err
	}
	set(m, "fixedpoint.pack_ns_per_slot", timeOp(func() { sink, _ = layout.Pack(vs) })/coords)
	set(m, "fixedpoint.unpack_ns_per_slot", timeOp(func() { sink, _ = layout.Unpack(packed, coords) })/coords)
	codec := fixedpoint.MustNew(30)
	ot.encode = timeOp(func() { sink, _ = codec.Encode(0.62831853) })
	set(m, "fixedpoint.encode_ns", ot.encode)

	ot.noiseShare = timeOp(func() { sink = dp.NoiseShare(rng, 400, 25) })
	set(m, "dp.noise_share_ns", ot.noiseShare)

	const points, k, dim = 1000, 5, 24
	data := make([][]float64, points)
	for i := range data {
		data[i] = make([]float64, dim)
		for t := range data[i] {
			data[i][t] = rng.Float64()
		}
	}
	centroids := chiaroscuro.LevelInit(k, dim)
	assign := make([]int, points)
	ot.assign = timeOp(func() { sink = kmeans.AssignAll(data, centroids, assign) }) / points
	set(m, "kmeans.assign_ns_per_point", ot.assign)
	series := timeseries.Series(data[0])
	set(m, "timeseries.smooth_ns", timeOp(func() { sink = timeseries.MovingAverage(series, 3) }))

	mat, err := vecpool.NewMatrix(points, 8)
	if err != nil {
		return err
	}
	slide := []float64{0.25, 0.75}
	set(m, "vecpool.slide_row_ns_per_row", timeOp(func() {
		for i := 0; i < points; i++ {
			mat.SlideRow(i, slide) //nolint:errcheck // in range by construction
		}
	})/points)

	gen := make([]float64, 3)
	for i := range gen {
		t0 := time.Now()
		if _, _, _, err := chiaroscuro.SyntheticCERErr(10000, 24, seed+int64(i)); err != nil {
			return err
		}
		gen[i] = float64(time.Since(t0)) / 1e6
	}
	set(m, "datasets.cer_gen_ms_per_10k", median(gen))

	return nil
}

// allocProbes measures the allocations of a network cycle at n=512:
// decrypt-classified cycles of the scale workload's quorum shape, and
// steady-state gossip cycles on the in-place hot path. The second is
// expected to be exactly 0, so it is returned to be printed and is not a
// metric (the driver is promised metrics that are never 0).
func allocProbes(m map[string]metric, seed int64) (gossipAllocs float64, err error) {
	hot, _, _, err := chiaroscuro.SyntheticCERErr(512, 4, seed)
	if err != nil {
		return 0, err
	}
	if _, _, err := chiaroscuro.Normalize01(hot); err != nil {
		return 0, err
	}
	drep, err := core.MeasureDecryptAllocs(hot, core.Params{K: 2, Epsilon: 50, Iterations: 2, Seed: seed,
		GossipRounds: 12, DecryptThreshold: 8})
	if err != nil {
		return 0, err
	}
	set(m, "core.decrypt_allocs_per_cycle", drep.AllocsPerCycle)
	const warm, measured = 25, 25
	grep, err := core.MeasureGossipAllocs(hot, core.Params{K: 2, Epsilon: 50, Iterations: 1, Seed: seed,
		GossipRounds: warm + measured + 8, DecryptThreshold: 3}, warm, measured)
	if err != nil {
		return 0, err
	}
	return grep.AllocsPerCycle, nil
}

// shapeInputs generates the inputs of a mesh shape at probe size.
func shapeInputs(name string, nodes, iterations, bits int, seed int64) (*inputs, error) {
	w, _ := workloadByName(name)
	w.n, w.modulusBits = nodes, bits
	w.cfg.Iterations = iterations
	return w.generate(seed, nil, 0)
}

// driverProbe replays one mesh shape on the node driver under the tracer
// and rejects the trace unless the driver's histories equal the
// sequential reference bit for bit.
func driverProbe(in *inputs, tr *tracer, parent int) (*driverStats, error) {
	params := in.params()
	if params.Backend == core.BackendDamgardJurik {
		// One ceremony keys both the reference and the driven nodes.
		p := params.Defaulted(in.w.n)
		mat, err := core.RunDJKeyCeremony(p.ModulusBits, p.Degree, in.w.n, p.DecryptThreshold, p.Seed, nil)
		if err != nil {
			return nil, err
		}
		params.DJMaterial = mat
	}
	_, want, err := core.RunSequentialHistories(in.series, params)
	if err != nil {
		return nil, err
	}
	tr.setWorkload(in.w.name)
	sp := tr.begin("bench:node-driver", parent)
	d, err := newNodeDriver(in.series, params, tr)
	if err != nil {
		return nil, err
	}
	defer d.close()
	got, epochs, err := d.run(sp)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	for id := range want {
		if err := conformance.EqualHistories(got[id], want[id]); err != nil {
			return nil, fmt.Errorf("bench: node driver (%s shape) node %d differs from the sequential reference, trace rejected: %w", in.w.name, id, err)
		}
	}
	return d.stats(epochs), nil
}

func setDriver(m map[string]metric, prefix string, st *driverStats) {
	for c, n := range stepClassNames {
		set(m, prefix+"step_"+strings.ReplaceAll(n, "-", "_")+"_us", median(st.stepSelfUS[c]))
	}
	set(m, prefix+"encode_payload_us", median(st.encodeUS))
	set(m, prefix+"decode_payload_us", median(st.decodeUS))
	set(m, prefix+"payload_bytes_gossip", median(st.gossipBytes))
}

// meshProbes runs the node driver on both mesh shapes and the transport
// probes: the mesh-plain shape at ps.meshIters iterations with and
// without checkpoints, and the mesh-dj shape at one iteration for the
// ceremony over the wire.
func meshProbes(m map[string]metric, ot *opTimes, ps probeScale, seed int64, dir string, tr *tracer, parent int) error {
	defer tr.setWorkload(tr.workload)
	plainIn, err := shapeInputs("mesh-plain", ps.meshNodes, ps.meshIters, 0, seed)
	if err != nil {
		return err
	}
	djIn, err := shapeInputs("mesh-dj", ps.djMeshNodes, 1, ps.djBits, seed)
	if err != nil {
		return err
	}
	st, err := driverProbe(plainIn, tr, parent)
	if err != nil {
		return err
	}
	setDriver(m, "core.", st)
	if st, err = driverProbe(djIn, tr, parent); err != nil {
		return err
	}
	setDriver(m, "core.dj_", st)

	run, err := os.MkdirTemp(dir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(run)
	mesh := func(in *inputs, every int, tr *tracer) (*meshResult, error) {
		d, err := os.MkdirTemp(run, "mesh-")
		if err != nil {
			return nil, err
		}
		return runMesh(d, in.series, in.params(), every, tr, parent)
	}
	ref, err := plainIn.reference()
	if err != nil {
		return err
	}
	// Alternate the two configurations so that drift hits both alike.
	var with, without []float64
	var bare, ckpt *meshResult
	for i := 0; i < 3; i++ {
		if bare, err = mesh(plainIn, 0, nil); err != nil {
			return err
		}
		if ckpt, err = mesh(plainIn, plainIn.w.checkpointEvery, nil); err != nil {
			return err
		}
		without = append(without, median(bare.epochMS())*float64(bare.epochs()))
		with = append(with, median(ckpt.epochMS())*float64(ckpt.epochs()))
	}
	var form []float64
	for i := range bare.marks {
		form = append(form, float64(bare.marks[i].meshComplete.Sub(bare.marks[i].start))/1e6)
	}
	epochs, nodes := float64(bare.epochs()), float64(len(bare.marks))
	written := float64(len(ckpt.marks[0].checkpoints))
	set(m, "transport.mesh_form_ms", median(form))
	set(m, "transport.epoch_nockpt_ms", median(without)/epochs)
	set(m, "transport.checkpoint_ms", (median(with)-median(without))/written)
	set(m, "transport.checkpoint_bytes", float64(ckpt.ckptBytes))
	set(m, "transport.socket_writes_per_node_epoch", float64(bare.writes)/nodes/epochs)
	set(m, "transport.socket_bytes_per_node_epoch", float64(bare.bytes)/nodes/epochs)
	set(m, "transport.overhead_ratio", bare.wall.Seconds()/ref.wall.Seconds())

	tr.setWorkload("mesh-plain")
	first := len(tr.spans)
	if _, err := mesh(plainIn, 0, tr); err != nil {
		return err
	}
	ot.connWrite = median(tr.durationsUS(spanConnWrite, first)) * 1e3
	set(m, "transport.conn_write_us", ot.connWrite/1e3)

	tr.setWorkload("mesh-dj")
	dj, err := mesh(djIn, 0, tr)
	if err != nil {
		return err
	}
	var ceremony []float64
	for i := range dj.marks {
		ceremony = append(ceremony, float64(dj.marks[i].keyShare.Sub(dj.marks[i].meshComplete))/1e6)
	}
	set(m, "transport.ceremony_ms", median(ceremony))
	return nil
}

// traced is the -trace 1 body: untraced and traced repetitions of the
// workload in alternation, then every layer probe, then the workload's
// own rows, the span file and the self-time table.
func (iv *invocation) traced(m map[string]metric) error {
	in, cold, ref, tr, opt := iv.seeds[0].in, iv.seeds[0].first, iv.ref, iv.tr, iv.opt
	var plainWall, tracedWall []float64
	var plain *outcome
	deadline := time.Now().Add(time.Duration(opt.seconds / 2 * float64(time.Second)))
	for i := 0; iv.more(i, 1, 1, deadline); i++ {
		// Both on the cold run's inputs (derived seed 0): a pair differs by
		// the tracer only.
		o, err := iv.rep(nil, "bench:rep-untraced", 0)
		if err != nil {
			return err
		}
		plain = o
		plainWall = append(plainWall, o.wall.Seconds())
		if o, err = iv.rep(tr, "bench:rep-traced", 0); err != nil {
			return err
		}
		tracedWall = append(tracedWall, o.wall.Seconds())
	}

	var ot opTimes
	sp := tr.begin("bench:layer-probes", iv.root)
	prof, err := cryptoProbes(m, &ot, opt.probes, in.seed)
	if err == nil {
		err = simProbes(m, &ot, opt.probes, in.seed)
	}
	if err == nil {
		err = meshProbes(m, &ot, opt.probes, in.seed, opt.outDir, tr, sp)
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	allocs, err := allocProbes(m, in.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.log, "\ncore.gossip_allocs_per_cycle %g count (expected 0; printed, not reported: metrics are never 0)\n", allocs)

	// The workload's own rows, from its last untraced repetition.
	w, o := in.w, plain
	n := float64(w.n)
	perPI := n * float64(o.iterations)
	set(m, "core.encrypts_per_participant_iter", float64(o.ops.Encrypts)/perPI)
	set(m, "core.adds_per_participant_iter", float64(o.ops.Adds)/perPI)
	set(m, "core.halvings_per_participant_iter", float64(o.ops.Halvings)/perPI)
	set(m, "core.partial_decrypts_per_participant_iter", float64(o.ops.PartialDecrypts)/perPI)
	set(m, "core.combines_per_participant_iter", float64(o.ops.Combines)/perPI)
	set(m, "core.decrypt_requests_per_participant_iter", float64(o.decryptRequests)/perPI)
	if ref != nil {
		set(m, "core.decrypt_wall_share", ref.trace.Phases.DecryptTime.Seconds()/ref.wall.Seconds())
	} else {
		set(m, "core.decrypt_wall_share", o.decryptWall.Seconds()/o.wall.Seconds())
	}
	set(m, "core.allocs_per_participant_cycle", float64(o.mallocs)/n/float64(o.cycles))
	var iters float64
	for _, it := range o.windowIters {
		iters += float64(it)
	}
	set(m, "core.window_iterations", iters/float64(len(o.windowIters)))
	set(m, "quality.inertia_ratio", cold.quality(in))
	set(m, "bench.trace_overhead_ratio", median(tracedWall)/median(plainWall))

	// Claim 3 measured against its projection: what the cost model says
	// this workload costs a participant on real Damgård–Jurik, against
	// what a participant here spent (on the accounted backend the CPU
	// ratio is the simulator's discount, not a check of the model).
	cw := costmodel.Workload{Participants: w.n, K: w.cfg.K, Dim: w.dim, Iterations: o.iterations,
		GossipRounds: w.cfg.GossipRounds, DecryptThreshold: w.decryptThreshold()}
	if w.cfg.Packed {
		plainBits := 319 // the accounted backend's fixed 320-bit ring
		if w.cfg.Backend == chiaroscuro.BackendDamgardJurik {
			plainBits = w.modulusBits*w.cfg.Degree - 1
		}
		if cw.Slots, err = core.PackedSlots(plainBits, w.n, w.dim, in.params()); err != nil {
			return err
		}
	}
	proj, err := costmodel.Project(prof, cw)
	if err != nil {
		return err
	}
	set(m, "costmodel.cpu_projection_ratio", o.cpu.Seconds()/n/proj.CPUTimeFast.Seconds())
	set(m, "costmodel.bytes_projection_ratio", float64(o.wireBytes)/n/float64(proj.BytesSent))

	// How much of the process's CPU the counted operations explain at
	// their measured layer times. Checkpoints are left out: their cost is
	// waiting for the disk, which is not CPU.
	op := ot.plain
	if w.cfg.Backend == chiaroscuro.BackendDamgardJurik {
		op = ot.dj
	}
	explained := float64(o.ops.Encrypts)*op[0] + float64(o.ops.Adds)*op[1] + float64(o.ops.Halvings)*op[2] +
		float64(o.ops.PartialDecrypts)*op[3] + float64(o.ops.Combines)*op[4]
	side := float64(w.cfg.K * (w.dim + 1))
	explained += perPI * (ot.assign*float64(w.cfg.K*w.dim)/(5*24) + side*ot.noiseShare + 2*side*ot.encode)
	if w.kind == kindMesh {
		explained += float64(o.mesh.writes) * ot.connWrite
	} else {
		explained += n * float64(o.cycles) * ot.p2pCycle
	}
	set(m, "bench.explained_share", explained/float64(o.cpu))

	tr.end(iv.root)
	path, err := tr.writeFile(opt.outDir, w.name)
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.log, "\n%s: %d spans written to %s; self time by span:\n", w.name, len(tr.spans), path)
	printSelfTimes(opt.log, selfTimes(tr.spans))
	printMetrics(opt.log, w.name+" per-layer metrics", perLayerSpec, m)
	return nil
}
