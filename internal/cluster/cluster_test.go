package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"repro/internal/idlang"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/translate"
)

func compile(t *testing.T, name, src string) *isa.Program {
	t.Helper()
	gp, err := idlang.Compile(name, src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := translate.Translate(gp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Partition(prog, partition.Options{}); err != nil {
		t.Fatal(err)
	}
	return prog
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// codecCorpus is one message of every wire shape: each kind, each gated
// block, and each slice field filled. The round-trip test and the decoder
// fuzz target's seed corpus share it.
func codecCorpus() []*Msg {
	return []*Msg{
		{Kind: KToken, From: 3, SP: packID(2, 7), Slot: 5, Val: isa.Float(3.25)},
		{Kind: KSpawn, Tmpl: 4, Args: []isa.Value{isa.Int(9), isa.SPRef(0), isa.Bool(true)}},
		{Kind: KAlloc, Arr: packID(1, 1), Name: "A", Dims: []int32{8, 8}, Origin: 1, Dist: true},
		{Kind: KReadReq, Arr: 77, Off: 12, ReqPE: 2, SP: packID(2, 3), Slot: 1},
		{Kind: KPage, Arr: 77, Page: 2, Off: 65, SP: packID(0, 1), Slot: 2,
			Vals: []isa.Value{isa.Float(1), {}, isa.Float(2)}, Set: []bool{true, false, true}},
		{Kind: KWrite, Arr: 77, Off: 40, Val: isa.Int(-9)},
		{Kind: KFail, Name: "pe 1: boom"},
		{Kind: KProbe, Round: 12},
		{Kind: KAck, Round: 12, Epoch: 1, Ctrs: distinctCounters(), Flushed: true},
		{Kind: KDumpReq, Arr: 77},
		{Kind: KDump, Arr: 77, Off: 64, Vals: []isa.Value{isa.Float(1.5)}, Set: []bool{true}},
		{Kind: KInit, PE: 1, NumPEs: 4, PageElems: 32, DistThreshold: 64, CachePages: 16,
			Steal: true, Adapt: true,
			Peers: []string{"a:1", "b:2"}, Prog: []byte("{}")},
		{Kind: KStop},
		{Kind: KStealReq, From: 2},
		{Kind: KTrace, From: 3, TraceEvs: []int64{1, 2, 3, 4}, TraceDrops: 5},
		{Kind: KStealGrant, Batch: []StealItem{
			{SP: packID(1, 9), Tmpl: 3,
				Args: []isa.Value{isa.Int(7), {}}, Set: []bool{true, false},
				CostLoop: 5, Sweep: packID(0, 2), CostIter: 41},
			{SP: packID(1, 10), Tmpl: 3,
				Args: []isa.Value{isa.Float(2.5), {}}, Set: []bool{true, false},
				CostLoop: -1},
		}},
		{Kind: KStealNone},
		{Kind: KSpawn, Tmpl: 6, Args: []isa.Value{isa.Int(3)},
			Sweep: packID(3, 4), RngOn: true, RngLo: -12, RngHi: 99},
		{Kind: KCostReport, Tmpl: 6, Sweep: packID(3, 4),
			Iters: []int64{1, 2, 5}, Costs: []int64{10, 20, 50}},
		{Kind: KRebound, Tmpl: 6, Cuts: []int64{4, 9, 13}},
		{Kind: KToken, From: 2, Epoch: 3, Inc: 1, SP: packIncID(1, 1, 9), Slot: 2, Val: isa.Int(5)},
		{Kind: KSpawnLog, From: 1, Inc: 2, Tmpl: 6, Sweep: packIncID(1, 2, 3),
			Args: []isa.Value{isa.Int(8)}, Cuts: []int64{3, 7, 11}},
		{Kind: KRecover, Epoch: 2, Incs: []int32{0, 1, 0, 2}, Peers: []string{"a:1", "s:9"}},
		{Kind: KInit, PE: 3, NumPEs: 4, Epoch: 1, Recover: true, Incs: []int32{0, 0, 0, 1},
			Peers: []string{"a:1"}, Prog: []byte("p")},
		{Kind: KStealDone, From: 2, SP: packIncID(0, 0, 4)},
		{Kind: KFlush, From: 1, Epoch: 2, Inc: 1},
		{Kind: KStealReq, From: 1, HotPages: []int64{packID(0, 1), 3, packID(2, 5), 0}},
		{Kind: KJobStart, Job: 2, NumPEs: 4, PageElems: 8, DistThreshold: 16,
			CachePages: 2, Steal: true, Recover: true, Incs: []int32{0, 1}, Prog: []byte("{}")},
		{Kind: KSubmit, Job: 1, Seq: 7, Name: "triread", CachePages: 4, Adapt: true,
			MaxInstrs: 1 << 20, MaxElems: 4096, Args: []isa.Value{isa.Int(26)}, Prog: []byte("p")},
	}
}

// distinctCounters is a counter vector whose entries all differ, so a
// codec that swapped, dropped or shifted any counter fails the round trip.
func distinctCounters() []int64 {
	c := make([]int64, numCounters)
	for i := range c {
		c[i] = 0x0102030405060708 + int64(i)<<32
	}
	return c
}

func TestMsgCodecRoundTrip(t *testing.T) {
	for _, m := range codecCorpus() {
		b := encodeMsg(nil, m)
		got, err := decodeMsg(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%s: round trip mismatch:\n sent %+v\n got  %+v", m.Kind, m, got)
		}
	}
}

// TestMsgDataFrameSize pins the wire size of the high-volume data frames.
// Configuration, recovery and program fields ride only the kinds that
// carry them, so a token, a write and a read request each encode to the
// flat prefix alone: 107 bytes.
func TestMsgDataFrameSize(t *testing.T) {
	const want = 107
	for _, m := range []*Msg{
		{Kind: KToken, From: 3, SP: packID(2, 7), Slot: 5, Val: isa.Float(3.25)},
		{Kind: KWrite, Arr: 77, Off: 40, Val: isa.Int(-9)},
		{Kind: KReadReq, Arr: 77, Off: 12, ReqPE: 2, SP: packID(2, 3), Slot: 1},
	} {
		if got := len(encodeMsg(nil, m)); got != want {
			t.Errorf("%s encodes to %d bytes, want %d", m.Kind, got, want)
		}
	}
}

func TestMsgCodecTruncated(t *testing.T) {
	b := encodeMsg(nil, &Msg{Kind: KPage, Vals: make([]isa.Value, 4), Set: make([]bool, 4)})
	for _, n := range []int{0, 1, 7, len(b) / 2, len(b) - 1} {
		if _, err := decodeMsg(b[:n]); err == nil {
			t.Errorf("decode of %d/%d bytes: want error", n, len(b))
		}
	}

	// An ack cut anywhere — inside the counter block included — fails.
	ctrs := distinctCounters()
	ack := encodeMsg(nil, &Msg{Kind: KAck, Round: 4, Ctrs: ctrs, Flushed: true})
	at := bytes.Index(ack, binary.LittleEndian.AppendUint64(nil, uint64(ctrs[0]))) - 4
	if at < 0 {
		t.Fatal("counter block not found in the encoded ack")
	}
	for n := at; n < len(ack); n++ {
		if _, err := decodeMsg(ack[:n]); err == nil {
			t.Errorf("decode of ack cut at %d/%d bytes (block at %d): want error", n, len(ack), at)
		}
	}

	// Any counter-block length but numCounters is refused, before anything
	// is sized from it.
	for _, n := range []int64{int64(numCounters) - 1, int64(numCounters) + 1, -1, 1 << 30} {
		bad := append([]byte(nil), ack...)
		binary.LittleEndian.PutUint32(bad[at:], uint32(n))
		if _, err := decodeMsg(bad); err == nil {
			t.Errorf("counter block length %d: want error", n)
		}
	}
}

// FuzzDecodeMsg feeds arbitrary frames to the decoder, as podsd -serve
// does with whatever a client sends: it must return an error, never panic,
// and whatever it accepts must survive a re-encode unchanged.
func FuzzDecodeMsg(f *testing.F) {
	for _, m := range codecCorpus() {
		f.Add(encodeMsg(nil, m))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMsg(b)
		if err != nil {
			return
		}
		enc := encodeMsg(nil, m)
		m2, err := decodeMsg(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted frame: %v", err)
		}
		if again := encodeMsg(nil, m2); !bytes.Equal(enc, again) {
			t.Fatalf("accepted frame does not re-encode stably:\n %x\n %x", enc, again)
		}
	})
}

func TestIDPacking(t *testing.T) {
	// The PE field is one byte storing pe+1, so 254 is the largest index.
	for _, pe := range []int{0, 1, 31, 254} {
		id := packID(pe, 12345)
		if got := peOf(id); got != pe {
			t.Errorf("peOf(packID(%d, _)) = %d", pe, got)
		}
	}
	if peOf(0) != -1 {
		t.Errorf("peOf(0) = %d, want -1 (driver environment)", peOf(0))
	}
	for _, inc := range []int32{0, 1, 7, 255} {
		id := packIncID(3, inc, 99)
		if got := incOf(id); got != inc {
			t.Errorf("incOf(packIncID(3, %d, 99)) = %d", inc, got)
		}
		if got := peOf(id); got != 3 {
			t.Errorf("peOf(packIncID(3, %d, 99)) = %d, want 3", inc, got)
		}
	}
	for _, job := range []int32{0, 1, 9, jobMask} {
		id := packJobID(job, 3, 2, 99)
		if got := jobOf(id); got != job {
			t.Errorf("jobOf(packJobID(%d, 3, 2, 99)) = %d", job, got)
		}
		if got, want := peOf(id), 3; got != want {
			t.Errorf("peOf(packJobID(%d, ...)) = %d, want %d", job, got, want)
		}
		if got, want := incOf(id), int32(2); got != want {
			t.Errorf("incOf(packJobID(%d, ...)) = %d, want %d", job, got, want)
		}
	}
	if packJobID(0, 4, 1, 7) != packIncID(4, 1, 7) {
		t.Error("job 0 must pack identically to a single-job ID")
	}
}

// simArrays runs the simulator as the reference backend.
func simArrays(t *testing.T, prog *isa.Program, pes int, names []string, args ...isa.Value) map[string][]float64 {
	t.Helper()
	m, err := sim.New(prog, sim.Config{NumPEs: pes})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(args...); err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]float64)
	for _, name := range names {
		vals, mask, _, err := m.ReadArray(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, okv := range mask {
			if !okv {
				t.Fatalf("sim: %s[%d] never written", name, i)
			}
			_ = i
		}
		out[name] = vals
	}
	return out
}

func checkAgainstSim(t *testing.T, res *Result, want map[string][]float64) {
	t.Helper()
	for name, ref := range want {
		vals, mask, _, err := res.ReadArray(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != len(ref) {
			t.Fatalf("%s: %d elements, want %d", name, len(vals), len(ref))
		}
		for i := range vals {
			if !mask[i] {
				t.Fatalf("%s[%d] never written in cluster run", name, i)
			}
			if vals[i] != ref[i] {
				t.Fatalf("%s[%d] = %v, cluster disagrees with sim's %v", name, i, vals[i], ref[i])
			}
		}
	}
}

func TestExecuteMatmulAgreesWithSim(t *testing.T) {
	k, _ := kernels.ByName("matmul")
	prog := compile(t, k.File(), k.Source)
	const n = 8
	want := simArrays(t, prog, 4, k.Arrays, k.Args(n)...)
	for _, pes := range []int{1, 2, 4, 8} {
		res, err := Execute(testCtx(t), prog, Config{NumPEs: pes}, k.Args(n)...)
		if err != nil {
			t.Fatalf("%d PEs: %v", pes, err)
		}
		checkAgainstSim(t, res, want)
	}
}

func TestExecuteMirrorDeferredRemoteReads(t *testing.T) {
	k, _ := kernels.ByName("mirror")
	prog := compile(t, k.File(), k.Source)
	const n = 12
	want := simArrays(t, prog, 4, k.Arrays, k.Args(n)...)
	res, err := Execute(testCtx(t), prog, Config{NumPEs: 4}, k.Args(n)...)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSim(t, res, want)
	t.Logf("mirror @4PE: deferred=%d hits=%d misses=%d msgs=%d",
		res.Stats.DeferredReads, res.Stats.CacheHits, res.Stats.CacheMisses, res.Stats.MsgsSent)
	if res.Stats.MsgsSent == 0 {
		t.Error("4-PE mirror run sent no inter-PE messages — not message passing at all")
	}
}

func TestExecuteReturnsValue(t *testing.T) {
	prog := compile(t, "ret.id", `
func main(a: int, b: int) -> int {
	return a * b + 1;
}`)
	res, err := Execute(testCtx(t), prog, Config{NumPEs: 2}, isa.Int(6), isa.Int(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value == nil || res.Value.I != 43 {
		t.Fatalf("result = %+v, want 43", res.Value)
	}
}

func TestExecuteLoopResult(t *testing.T) {
	prog := compile(t, "sum.id", `
func main(n: int) -> int {
	s = 0;
	for k = 1 to n {
		next s = s + k;
	}
	return s;
}`)
	res, err := Execute(testCtx(t), prog, Config{NumPEs: 3}, isa.Int(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value == nil || res.Value.I != 55 {
		t.Fatalf("result = %+v, want 55", res.Value)
	}
}

func TestExecuteSingleAssignmentViolation(t *testing.T) {
	prog := compile(t, "dup.id", `
func main(n: int) {
	A = array(n);
	A[1] = 1.0;
	A[1] = 2.0;
}`)
	_, err := Execute(testCtx(t), prog, Config{NumPEs: 2}, isa.Int(8))
	if err == nil {
		t.Fatal("want single-assignment violation error")
	}
}

func TestExecuteDeadlockReported(t *testing.T) {
	prog := compile(t, "dead.id", `
func main(n: int) {
	A = array(n);
	B = array(n);
	B[1] = A[1];
}`)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := Execute(ctx, prog, Config{NumPEs: 2}, isa.Int(8))
	if err == nil {
		t.Fatal("want deadlock error for read of never-written element")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Execute(testCtx(t), compile(t, "t.id", `func main(n: int) { A = array(n); A[1] = 1.0; }`),
		Config{NumPEs: 2, Workers: []string{"a:1", "b:2", "c:3"}}, isa.Int(4)); err == nil {
		t.Fatal("want NumPEs/Workers conflict error")
	}
}
