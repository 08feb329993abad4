package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"kgeval/internal/core"
	"kgeval/internal/kgc"
	"kgeval/internal/kgc/store"
)

// chunkReader hands out at most n bytes per Read, so token and escape
// boundaries land everywhere relative to the decoder's input buffer.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if c.n > 0 && len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// checkAgainstPlainJSON holds readJobSpec to the plain path on one body:
// encoding/json over the whole thing, then the digest the engine would
// compute. Same accept/reject, same JobSpec, same digests.
func checkAgainstPlainJSON(t *testing.T, body []byte, chunk int) {
	t.Helper()
	want, wantErr := decodeJobSpecStrict(bytes.NewReader(body))
	got, release, gotErr := readJobSpec(chunkReader{bytes.NewReader(body), chunk}, int64(len(body)))
	defer release()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("accept/reject differs on %q (chunk %d): encoding/json err = %v, streaming err = %v", body, chunk, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	unhashed := got
	unhashed.Models = slices.Clone(got.Models)
	for _, ms := range specModelsAll(&unhashed) {
		ms.digest = ""
	}
	if !reflect.DeepEqual(want, unhashed) {
		t.Fatalf("decoded JobSpec differs on %q (chunk %d):\nencoding/json %+v\nstreaming     %+v", body, chunk, want, unhashed)
	}
	wantModels := specModelsAll(&want)
	for i, ms := range specModelsAll(&got) {
		if ms.digest != "" && ms.digest != modelDigest(wantModels[i].Snapshot) {
			t.Fatalf("digest of model %d differs on %q: streaming %s, SHA-256 of the decoded payload %s",
				i, body, ms.digest, modelDigest(wantModels[i].Snapshot))
		}
	}
}

// specModelsAll lists spec.Model and every spec.Models element, valid spec
// or not.
func specModelsAll(spec *JobSpec) []*ModelSpec {
	out := []*ModelSpec{&spec.Model}
	for i := range spec.Models {
		out = append(out, &spec.Models[i])
	}
	return out
}

var submitBodySeeds = append([]string{
	`{"model":{"name":"ComplEx","dim":16,"seed":3,"snapshot":"S0dFVkFMTTE="},"strategy":"P","max_queries":10}`,
	`{"models":[{"name":"a","dim":1,"snapshot":"QUJD"},{"name":"b","dim":2,"snapshot":"REVGRw=="}],"seed":7}`,
	`{"model":{"name":"x","dim":1,"model_id":"abc"}}`,
	`{"model":{"name":"x","dim":1,"snapshot":"QUJD","model_id":"abc"}}`,
	// The key spelled every way encoding/json accepts it.
	`{"model":{"snapshot":"QUJD"}}`,
	`{"model":{"SNAPSHOT":"QUJD"}}`,
	`{"model":{"ſnapſhot":"QUJD"}}`,
	`{"model":{"\u017fnap\u017fhot":"QUJD"}}`,
	`{"model":{"snap\u0073hot":"QUJD"}}`,
	`{"model":{"\u0073\u006e\u0061\u0070\u0073\u0068\u006f\u0074":"QUJD"}}`,
	`{"model":{"snapshot\u0000":"QUJD"}}`,
	`{"model":{"snap\"shot":"QUJD"}}`,
	// "snapshot" where it is not a key, or not the spec's key.
	`{"model":{"name":"snapshot","dim":1,"snapshot":"QUJD"}}`,
	`{"model":{"name":"\"snapshot\":\"QUJD\"","dim":1}}`,
	`{"snapshot":"QUJD"}`,
	`{"strategy":{"snapshot":"QUJD"}}`,
	`{"model":{"name":{"snapshot":"!!!"},"snapshot":"QUJD"}}`,
	`[{"snapshot":"QUJD"}]`,
	`{"models":[["snapshot","QUJD"]]}`,
	// Duplicates: the last one wins, every one is checked.
	`{"model":{"snapshot":"QUJD","snapshot":"REVG"}}`,
	`{"model":{"snapshot":"!!!!","snapshot":"REVG"}}`,
	`{"model":{"snapshot":"QUJD"},"model":{"name":"x"}}`,
	`{"model":{"snapshot":"QUJD"},"model":{"model_id":"x"}}`,
	`{"models":[{"snapshot":"QUJD"}],"models":[{"name":"x"},{"snapshot":"REVG"}]}`,
	// Values that are not strings.
	`{"model":{"snapshot":null}}`,
	`{"model":{"snapshot":[75,71,69]}}`,
	`{"model":{"snapshot":123}}`,
	`{"model":{"snapshot":{"snapshot":"QUJD"}}}`,
	`{"model":{"snapshot":""}}`,
	// Escapes inside the value.
	`{"model":{"snapshot":"QUJD\nREVG"}}`,
	`{"model":{"snapshot":"QU\r\nJD"}}`,
	`{"model":{"snapshot":"QU\u004aD"}}`,
	`{"model":{"snapshot":"QUJD\u000a"}}`,
	`{"model":{"snapshot":"QUJD\u00e9"}}`,
	`{"model":{"snapshot":"QUJD\ud83d\ude00"}}`,
	`{"model":{"snapshot":"Pz8\/"}}`,
	`{"model":{"snapshot":"QUJD\t"}}`,
	`{"model":{"snapshot":"QUJD\""}}`,
	`{"model":{"snapshot":"QUJD\\"}}`,
	`{"model":{"snapshot":"QUéD"}}`,
	`{"model":{"snapshot":"QU😀"}}`,
	`{"model":{"snapshot":"QUJD\x"}}`,
	`{"model":{"snapshot":"QUJD\u00"}}`,
	`{"model":{"snapshot":"QUJD\u00zz"}}`,
	// Not base64, or not JSON.
	"{\"model\":{\"snapshot\":\"QU\nJD\"}}",
	"{\"model\":{\"snapshot\":\"QUJD\x01\"}}",
	"{\"model\":{\"snapshot\":\"QUJ\xffRA==\"}}",
	`{"model":{"snapshot":"QUJ"}}`,
	`{"model":{"snapshot":"QQ=="}}`,
	`{"model":{"snapshot":"QQ==QUJD"}}`,
	`{"model":{"snapshot":"QQ=\n="}}`,
	`{"model":{"snapshot":"QUJD="}}`,
	`{"model":{"snapshot":"QU JD"}}`,
	`{"model":{"snapshot":"QUJD`,
	`{"model":{"snapshot":"QUJD"`,
	`{"model":{"snapshot":"QUJD\`,
	`{"model":{"snapshot" "QUJD"}}`,
	`{"model":{"snapshot"::"QUJD"}}`,
	`{"model":{"name":"x" "snapshot":"QUJD"}}`,
	`{,"model":{"snapshot":"QUJD"}}`,
	`{"model":{"snapshot":"QUJD"}]`,
	// Trailing data.
	`{"model":{"snapshot":"QUJD"}} `,
	`{"model":{"snapshot":"QUJD"}}x`,
	`{"model":{"snapshot":"QUJD"}}{"model":{"snapshot":"REVG"}}`,
	`{"model":{"snapshot":"QUJD"}} {"snapshot":"!!!"}`,
	`{"model":{"snapshot":"QUJD"},"bogus":1}`,
	`{"models":[]}`,
	`"snapshot"`,
	``,
	strings.Repeat("[", 70) + `{"snapshot":"QUJD"}` + strings.Repeat("]", 70),
}, stopSeeds()...)

// stopSeeds put everything that stops the vector lane at every offset of a
// snapshot's third block, after two blocks it decodes: the closing quote,
// escapes that spell a character or a line break, raw line breaks, padding
// in mid-string, a byte outside the alphabet and a multi-byte character.
// The JSON after the string is long enough that the stopping block is whole.
func stopSeeds() []string {
	const prefix, suffix = `{"model":{"name":"x","dim":1,"snapshot":"`, `"},"strategy":"P","max_queries":10}`
	b64 := base64.StdEncoding.EncodeToString(alphabetBytes) // 128 characters
	var seeds []string
	for k := 0; k < 32; k++ {
		head, c, tail := b64[:64+k], b64[64+k:65+k], b64[65+k:]
		for _, snap := range []string{
			head,
			head + `\/` + tail,
			head + fmt.Sprintf(`\u00%02x`, c[0]) + tail,
			head + `\n` + c + tail,
			head + `\r` + c + tail,
			head + "\n" + c + tail,
			head + "\r" + c + tail,
			head + "=" + tail,
			head + "*" + tail,
			head + "é" + tail,
		} {
			seeds = append(seeds, prefix+snap+suffix)
		}
	}
	return seeds
}

// alphabetBytes encode to every base64 character, each twice.
var alphabetBytes = func() []byte {
	var chars strings.Builder
	for range 2 {
		chars.WriteString(b64Alphabet)
	}
	out, err := base64.StdEncoding.DecodeString(chars.String())
	if err != nil {
		panic(err)
	}
	return out
}()

const b64Alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

// The seeds are the regression table: they run on every `go test`, each
// delivered whole and in awkward pieces, on every lane the process has.
func TestSubmitBodyMatchesPlainJSON(t *testing.T) {
	for _, l := range lanes() {
		t.Run(l.name, func(t *testing.T) {
			useLane(t, l)
			for _, body := range submitBodySeeds {
				for _, chunk := range []int{0, 1, 3, 7, 4093} {
					checkAgainstPlainJSON(t, []byte(body), chunk)
				}
			}
		})
	}
}

// A real-sized body: the payload crosses many input buffers, and what comes
// back is the payload, hashed.
func TestSubmitBodyLargeSnapshot(t *testing.T) {
	g := serviceGraph(t)
	snap := snapshotModel(t, g, "ComplEx", 64, 3) // ~0.8 MB
	want := JobSpec{Model: ModelSpec{Name: "ComplEx", Dim: 64, Seed: 3, Snapshot: snap}, Strategy: "S", MaxQueries: 5}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{0, 4093} {
		got, release, err := readJobSpec(chunkReader{bytes.NewReader(body), chunk}, int64(len(body)))
		if err != nil {
			t.Fatal(err)
		}
		if got.Model.digest != modelDigest(snap) || !bytes.Equal(got.Model.Snapshot, snap) {
			t.Fatalf("chunk %d: payload or digest differs (digest %s, want %s)", chunk, got.Model.digest, modelDigest(snap))
		}
		got.Model.digest, got.Model.Snapshot = "", snap
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: decoded %+v, want %+v", chunk, got, want)
		}
		release()
	}
	// The recycled buffer must not leak one body's bytes into the next.
	small := `{"model":{"name":"x","dim":1,"snapshot":"` + base64.StdEncoding.EncodeToString([]byte("tiny")) + `"}}`
	got, release, err := readJobSpec(strings.NewReader(small), int64(len(small)))
	if err != nil || string(got.Model.Snapshot) != "tiny" {
		t.Fatalf("small body after a large one: %q, %v", got.Model.Snapshot, err)
	}
	release()
}

// FuzzSubmitBody is the differential gate on the streaming reader: for any
// body and any delivery, it and plain encoding/json agree on accept/reject
// and on the JobSpec, and every digest is the SHA-256 of the base64-decoded
// payload.
func FuzzSubmitBody(f *testing.F) {
	for _, s := range submitBodySeeds {
		f.Add([]byte(s), uint8(0))
		f.Add([]byte(s), uint8(5))
	}
	f.Fuzz(func(t *testing.T, body []byte, chunk uint8) {
		checkAgainstPlainJSON(t, body, int(chunk))
	})
}

// FuzzJobSpec drives untrusted bytes through what Submit does to a body
// before admission: the streaming reader, the defaults and validation. None
// of it may panic, and every spec validation accepts is one the engine can
// run: 1 ≤ num_samples ≤ |E|, every model's snapshot no larger than a
// request may carry (so building it allocates no more), and the strategy and
// precision parse to the values validate hands the job.
func FuzzJobSpec(f *testing.F) {
	for _, s := range []string{
		`{"model":{"name":"DistMult","dim":8,"seed":6,"snapshot":"QUJD"},"strategy":"P","max_queries":10}`,
		`{"model":{"name":"DistMult","dim":8,"model_id":"abc"},"num_samples":1152921504606846976}`,
		`{"models":[{"name":"ComplEx","dim":8192,"model_id":"a"},{"name":"TransE","dim":1,"snapshot":"QUJD"}],"strategy":"full","precision":"int8"}`,
		`{"model":{"name":"RESCAL","dim":8193,"model_id":"a"},"strategy":"S","recommender":"DBH-T","precision":"f32"}`,
		`{"model":{"name":"TuckER","dim":2048,"snapshot":"S0dFVkFMTTE="}}`,
		`{"model":{"name":"RESCAL","dim":4096,"model_id":"a"}}`,
		`{"model":{"name":"ComplEx","dim":2147483647,"model_id":"a"}}`,
		`{"model":{"name":"DistMult","dim":8,"model_id":"a"},"strategy":"P","timeout_ms":18446744073710}`,
	} {
		f.Add([]byte(s))
	}
	e, err := NewEngine(EngineConfig{Graph: serviceGraph(f), Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(e.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, release, err := readJobSpec(bytes.NewReader(body), int64(len(body)))
		defer release()
		if err != nil {
			return
		}
		spec = e.withDefaults(spec)
		parsed, err := e.validate(spec)
		if err != nil {
			return
		}
		if spec.NumSamples < 1 || spec.NumSamples > e.graph.NumEntities {
			t.Fatalf("accepted num_samples %d outside [1, %d]", spec.NumSamples, e.graph.NumEntities)
		}
		if d := time.Duration(spec.TimeoutMS) * time.Millisecond; d < 0 || d/time.Millisecond != time.Duration(spec.TimeoutMS) {
			t.Fatalf("accepted timeout_ms %d: converts to the deadline %v", spec.TimeoutMS, d)
		}
		for _, ms := range specModels(&spec) {
			if n, err := kgc.SnapshotBytes(ms.Name, e.graph, ms.Dim); err != nil || n > maxSubmitBytes {
				t.Fatalf("accepted %s at dim %d: a %d-byte snapshot (%v)", ms.Name, ms.Dim, n, err)
			}
		}
		if prec, err := store.ParsePrecision(spec.Precision); err != nil || prec != parsed.precision {
			t.Fatalf("accepted precision %q: parses to %v (%v), validate gave %v", spec.Precision, prec, err, parsed.precision)
		}
		if parsed.full != (spec.Strategy == "full") {
			t.Fatalf("strategy %q: validate says full = %v", spec.Strategy, parsed.full)
		}
		if s, err := core.ParseStrategy(spec.Strategy); !parsed.full && (err != nil || s != parsed.strategy) {
			t.Fatalf("accepted strategy %q: parses to %v (%v), validate gave %v", spec.Strategy, s, err, parsed.strategy)
		}
	})
}

// lane is one way of decoding snapshot strings: the scalar code alone (nil
// blocks), or with a vector lane in front of it.
type lane struct {
	name   string
	blocks func(dst, src []byte) int
}

// lanes lists the lanes this process can run.
func lanes() []lane {
	out := []lane{{"go", nil}}
	if base64Blocks != nil {
		out = append(out, lane{"avx2", base64Blocks})
	}
	return out
}

// useLane makes readJobSpec decode on l until the test ends.
func useLane(tb testing.TB, l lane) {
	old := base64Blocks
	base64Blocks = l.blocks
	tb.Cleanup(func() { base64Blocks = old })
}

// checkVectorBlocks holds the vector lane, through its guard, to
// encoding/base64 on one input, with dst short of what src could fill by
// short bytes: it consumes whole blocks, decodes them to the bytes
// encoding/base64 gives the same characters, stops at a block holding a byte
// outside the alphabet or where src or dst runs out, and writes nothing past
// the 8 bytes its last store spills.
func checkVectorBlocks(t *testing.T, vec func(dst, src []byte) int, src []byte, short int) {
	t.Helper()
	room := max(len(src)/32*24+8-short, 0)
	mem := bytes.Repeat([]byte{0xa5}, room+64)
	n := vec(mem[:room:room], src)
	if n < 0 || n%32 != 0 || n > len(src) {
		t.Fatalf("%q: consumed %d characters, not whole blocks of the %d there are", src, n, len(src))
	}
	want, err := base64.StdEncoding.DecodeString(string(src[:n]))
	if err != nil || !bytes.Equal(mem[:len(want)], want) {
		t.Fatalf("%q: decoded %x from %d characters, encoding/base64 %x (%v)", src, mem[:n/4*3], n, want, err)
	}
	spill := 0
	if n > 0 {
		spill = 8
	}
	if i := slices.IndexFunc(mem[n/4*3+spill:], func(c byte) bool { return c != 0xa5 }); i >= 0 {
		t.Fatalf("%q: wrote byte %d of dst, %d bytes past the %d it decoded", src, n/4*3+spill+i, spill+i, n/4*3)
	}
	next := src[n:min(n+32, len(src))]
	fits := (n/32+1)*24+8 <= room
	if len(next) == 32 && fits && !bytes.ContainsFunc(next, func(r rune) bool { return !strings.ContainsRune(b64Alphabet, r) }) {
		t.Fatalf("%q: stopped after %d characters, before a block of alphabet %q", src, n, next)
	}
}

// Every byte value at every offset of a block: the lane decodes the block
// exactly when the byte is in the alphabet. And a dst a byte or more short
// of a block's store ends the run before that block.
func TestVectorLaneEveryByte(t *testing.T) {
	vec := base64Blocks
	if vec == nil {
		t.Skip("no vector lane in this build or on this CPU")
	}
	src := []byte(base64.StdEncoding.EncodeToString(alphabetBytes))
	for c := 0; c < 256; c++ {
		for off := 0; off < 32; off++ {
			mod := slices.Clone(src)
			mod[32+off] = byte(c)
			checkVectorBlocks(t, vec, mod, 0)
		}
	}
	for short := 0; short <= 2*24+8; short++ {
		checkVectorBlocks(t, vec, src, short)
	}
}

// FuzzSnapshotDecode is the differential gate on the vector lane:
// checkVectorBlocks on any input and any shortfall of dst.
func FuzzSnapshotDecode(f *testing.F) {
	vec := base64Blocks
	if vec == nil {
		f.Skip("no vector lane in this build or on this CPU")
	}
	for _, s := range stopSeeds() {
		f.Add([]byte(s), uint8(0))
		f.Add([]byte(s[len(`{"model":{"name":"x","dim":1,"snapshot":"`):]), uint8(9))
	}
	f.Fuzz(func(t *testing.T, src []byte, short uint8) {
		checkVectorBlocks(t, vec, src, int(short))
	})
}

// kgebenchSnapshot is the snapshot size of kgebench's service_small_jobs,
// which posts it inline in an 8.25 MB body.
const kgebenchSnapshot = 6_190_000

// bigSpecBody is a job body around n random snapshot bytes.
func bigSpecBody(n int) (body, raw []byte) {
	raw = make([]byte, n)
	rand.New(rand.NewSource(1)).Read(raw)
	body = fmt.Appendf(nil, `{"model":{"name":"DistMult","dim":64,"seed":1,"snapshot":"%s"},"strategy":"P","max_queries":16}`,
		base64.StdEncoding.EncodeToString(raw))
	return body, raw
}

// A warm readJobSpec of a kgebench-sized body reuses the pooled decoder and
// snapshot buffer on every lane: it allocates the spec, not the payload. On
// the vector lane each store writes 8 bytes past the 24 it decodes; that
// must never make the buffer regrow.
func TestReadJobSpecWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of what it is given under the race detector")
	}
	body, raw := bigSpecBody(kgebenchSnapshot)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools
	for _, l := range lanes() {
		useLane(t, l)
		read := func() {
			spec, release, err := readJobSpec(bytes.NewReader(body), int64(len(body)))
			if err != nil || !bytes.Equal(spec.Model.Snapshot, raw) {
				t.Fatalf("%s: the body did not decode to its snapshot (%v)", l.name, err)
			}
			release()
		}
		read()
		// TotalAlloc counts every goroutine's allocations, and an earlier
		// test's worker may still be winding down: the least of three warm
		// reads is what a read itself allocates.
		got := uint64(math.MaxUint64)
		for range 3 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			read()
			runtime.ReadMemStats(&m1)
			got = min(got, m1.TotalAlloc-m0.TotalAlloc)
		}
		if got >= 64<<10 {
			t.Errorf("%s: a warm read of a %d-byte body allocated %d bytes", l.name, len(body), got)
		}
	}
}

// BenchmarkReadJobSpec reads a kgebench-sized job body on each lane; MB/s
// counts body bytes.
func BenchmarkReadJobSpec(b *testing.B) {
	body, _ := bigSpecBody(kgebenchSnapshot)
	for _, l := range lanes() {
		b.Run(l.name, func(b *testing.B) {
			useLane(b, l)
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				_, release, err := readJobSpec(bytes.NewReader(body), int64(len(body)))
				if err != nil {
					b.Fatal(err)
				}
				release()
			}
		})
	}
}
